"""Coherent states and the covariant (anti-Wick style) matrix-element identity.

Everything here lives on Gaussian wave packets

    psi(x) = amp * prod_i exp(i w_i x_i) exp(-(x_i - c_i)^2 / (2 s_i^2)),

which are closed under the Schrodinger representation of the Weyl
operators and have closed-form pairwise overlaps.  The key identity is

    <phi, Q_h(W(lam, mu)) psi>
        = int dq dp / (2 pi h)^l  e^{i(lam.q + mu.p)}
              <phi, psi_h^{q,p}> <psi_h^{q,p}, psi>
        = e^{-h(|lam|^2+|mu|^2)/4} <phi, W_h(lam, mu) psi>,

with psi_h^{q,p} the normalized coherent packet at phase-space point
(q, p).  The quadrature side factorizes per axis (the e^{-i q.p/(2h)}
phases of the two overlaps cancel), so each axis needs only a 2-D
Gauss-Hermite sum matched to the exact Gaussian envelope of the
overlap product; a node-doubling consistency check is mandatory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrules import gauss_hermite
from .errors import DomainViolation, QuadratureFailure

__all__ = [
    "WavePacket", "coherent_state", "norm_sq", "overlap", "weyl_action",
    "schrodinger_matrix_element", "berezin_matrix_element",
    "overcompleteness_check", "berezin_positivity", "TrigPolySymbol",
]


@dataclass(frozen=True)
class WavePacket:
    """Gaussian packet amp * prod exp(i w x) exp(-(x-c)^2/(2 s^2))."""
    amp: complex
    centers: tuple[float, ...]
    sigmas: tuple[float, ...]
    waves: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "amp", complex(self.amp))
        object.__setattr__(self, "centers", tuple(float(v) for v in self.centers))
        object.__setattr__(self, "sigmas", tuple(float(v) for v in self.sigmas))
        object.__setattr__(self, "waves", tuple(float(v) for v in self.waves))
        if not (len(self.centers) == len(self.sigmas) == len(self.waves)):
            raise DomainViolation("centers, sigmas, waves must have equal length")
        if len(self.centers) == 0:
            raise DomainViolation("packet needs at least one axis")
        if any(s <= 0 for s in self.sigmas):
            raise DomainViolation("packet widths must be positive")

    @property
    def ell(self) -> int:
        return len(self.centers)


def coherent_state(q, p, h: float) -> WavePacket:
    """Normalized coherent packet at phase point (q, p): width sqrt(h),
    plane-wave factor e^{i p.x/h}, and the symmetric phase e^{-i q.p/(2h)}."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if q.shape != p.shape or q.ndim != 1:
        raise DomainViolation("q and p must be equal-length vectors")
    if h <= 0:
        raise DomainViolation("coherent states need h > 0")
    ell = q.size
    amp = (h * math.pi) ** (-ell / 4.0) * np.exp(-1j * float(q @ p) / (2.0 * h))
    return WavePacket(amp=amp, centers=tuple(q), sigmas=(math.sqrt(h),) * ell,
                      waves=tuple(p / h))


def norm_sq(psi: WavePacket) -> float:
    out = abs(psi.amp) ** 2
    for s in psi.sigmas:
        out *= s * math.sqrt(math.pi)
    return out


def _axis_overlap(c1, s1, w1, c2, s2, w2):
    """int conj(axis1) axis2 dx in closed form; the axis2 center and wave
    may be arrays (coherent-state parameters broadcast over a grid)."""
    alpha = 1.0 / (2.0 * s1 ** 2) + 1.0 / (2.0 * s2 ** 2)
    beta = c1 / s1 ** 2 + c2 / s2 ** 2 + 1j * (w2 - w1)
    gamma = -c1 ** 2 / (2.0 * s1 ** 2) - c2 ** 2 / (2.0 * s2 ** 2)
    return np.sqrt(np.pi / alpha) * np.exp(beta ** 2 / (4.0 * alpha) + gamma)


def overlap(phi: WavePacket, psi: WavePacket) -> complex:
    """<phi, psi>, antilinear in phi."""
    if phi.ell != psi.ell:
        raise DomainViolation("packets live on different axis counts")
    out = np.conj(phi.amp) * psi.amp
    for i in range(phi.ell):
        out *= _axis_overlap(phi.centers[i], phi.sigmas[i], phi.waves[i],
                             psi.centers[i], psi.sigmas[i], psi.waves[i])
    return complex(out)


def weyl_action(lam, mu, psi: WavePacket, h: float) -> WavePacket:
    """W_h(lam, mu) psi: (W psi)(y) = e^{i h lam.mu / 2} e^{i lam.y} psi(y + h mu).

    Stays in the Gaussian packet family: centers shift by -h mu, waves by
    +lam, and the amplitude picks up the constant phases.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if lam.shape != (psi.ell,) or mu.shape != (psi.ell,):
        raise DomainViolation("label components must match the packet axes")
    if h <= 0:
        raise DomainViolation("the Schrodinger action needs h > 0")
    waves = np.asarray(psi.waves)
    phase = np.exp(1j * (h * float(lam @ mu) / 2.0 + h * float(waves @ mu)))
    return WavePacket(amp=psi.amp * phase,
                      centers=tuple(np.asarray(psi.centers) - h * mu),
                      sigmas=psi.sigmas,
                      waves=tuple(waves + lam))


def schrodinger_matrix_element(lam, mu, phi: WavePacket, psi: WavePacket,
                               h: float) -> complex:
    """<phi, W_h(lam, mu) psi> in closed form."""
    return overlap(phi, weyl_action(lam, mu, psi, h))


def _axis_rates(c, s, w, h):
    """Exact Gaussian envelope of |<packet axis, coherent axis>| over (q, p):
    rate and center in q, then rate and center in p."""
    rq = 1.0 / (2.0 * (s ** 2 + h))
    rp = s ** 2 / (2.0 * h * (s ** 2 + h))
    return rq, c, rp, h * w


def _gh_axis(rate: float, center: float, nodes: int):
    """Gauss-Hermite points mapped to envelope scale, weights with the
    e^{x^2} factor restored (safe for the node counts used here)."""
    x, w = gauss_hermite(nodes)
    pts = center + x / math.sqrt(rate)
    fac = w * np.exp(x * x) / math.sqrt(rate)
    return pts, fac


_MARGIN = 0.75  # widen the GH envelope to absorb center mismatch


def _berezin_once(lam, mu, phi, psi, h, nodes):
    const = np.conj(phi.amp) * psi.amp * (h * math.pi) ** (-phi.ell / 2.0) \
        / (2.0 * math.pi * h) ** phi.ell
    out = complex(const)
    for i in range(phi.ell):
        rq1, cq1, rp1, cp1 = _axis_rates(phi.centers[i], phi.sigmas[i], phi.waves[i], h)
        rq2, cq2, rp2, cp2 = _axis_rates(psi.centers[i], psi.sigmas[i], psi.waves[i], h)
        rq, rp = rq1 + rq2, rp1 + rp2
        q0 = (rq1 * cq1 + rq2 * cq2) / rq
        p0 = (rp1 * cp1 + rp2 * cp2) / rp
        qpts, qfac = _gh_axis(_MARGIN * rq, q0, nodes)
        ppts, pfac = _gh_axis(_MARGIN * rp, p0, nodes)
        Q = qpts[:, None]
        P = ppts[None, :]
        # the e^{-i q p / (2h)} coherent phases of the two overlaps cancel
        ov1 = _axis_overlap(phi.centers[i], phi.sigmas[i], phi.waves[i],
                            Q, math.sqrt(h), P / h)
        ov2 = _axis_overlap(psi.centers[i], psi.sigmas[i], psi.waves[i],
                            Q, math.sqrt(h), P / h)
        grid = np.exp(1j * (lam[i] * Q + mu[i] * P)) * ov1 * np.conj(ov2)
        out *= complex(qfac @ grid @ pfac)
    return out


def berezin_matrix_element(lam, mu, phi: WavePacket, psi: WavePacket, h: float,
                           *, nodes: int = 80) -> complex:
    """Phase-space quadrature of e^{i(lam.q+mu.p)} <phi, psi^{qp}><psi^{qp}, psi>
    over dq dp/(2 pi h)^l, with a mandatory node-doubling consistency check."""
    if phi.ell != psi.ell:
        raise DomainViolation("packets live on different axis counts")
    if h <= 0:
        raise DomainViolation("the quadrature needs h > 0")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if lam.shape != (phi.ell,) or mu.shape != (phi.ell,):
        raise DomainViolation("label components must match the packet axes")
    if nodes < 8:
        raise DomainViolation("need at least 8 quadrature nodes")
    coarse = _berezin_once(lam, mu, phi, psi, h, nodes)
    fine = _berezin_once(lam, mu, phi, psi, h, 2 * nodes)
    if abs(fine - coarse) > 1e-8 * max(1.0, abs(fine)):
        raise QuadratureFailure(
            f"matrix-element quadrature unstable under node doubling: "
            f"{coarse} vs {fine}")
    return fine


def overcompleteness_check(phi: WavePacket, h: float, *,
                           nodes: int = 80) -> tuple[float, float]:
    """Resolution of identity on the diagonal: the (0,0) quadrature against
    |phi|^2.  Returns (quadrature value, closed form)."""
    ell = phi.ell
    quad = berezin_matrix_element(np.zeros(ell), np.zeros(ell), phi, phi, h,
                                  nodes=nodes)
    return float(quad.real), norm_sq(phi)


class TrigPolySymbol:
    """|sum_m c_m e^{i(m1 q + m2 p)}|^2: a manifestly nonnegative bounded
    symbol on a single phase-space axis pair."""

    def __init__(self, coeffs, freqs):
        self.coeffs = tuple(complex(c) for c in coeffs)
        self.freqs = tuple((int(a), int(b)) for a, b in freqs)
        if len(self.coeffs) != len(self.freqs):
            raise DomainViolation("one frequency pair per coefficient")
        if not self.coeffs:
            raise DomainViolation("need at least one term")

    def __call__(self, q, p):
        acc = np.zeros(np.broadcast(q, p).shape, dtype=complex)
        for c, (m1, m2) in zip(self.coeffs, self.freqs):
            acc += c * np.exp(1j * (m1 * q + m2 * p))
        return np.abs(acc) ** 2


def berezin_positivity(symbol, v: WavePacket, h: float, *,
                       nodes: int = 120) -> float:
    """<v, Op_h(symbol) v> = int symbol(q,p) |<psi^{qp}, v>|^2 dq dp/(2 pi h)^l.

    Nonnegative for pointwise nonnegative symbols; single-axis packets only
    (the symbol couples q and p, so no per-axis factorization here).
    """
    if v.ell != 1:
        raise DomainViolation("positivity probe supports single-axis packets")
    if h <= 0:
        raise DomainViolation("the quadrature needs h > 0")

    def once(n):
        rq1, cq1, rp1, cp1 = _axis_rates(v.centers[0], v.sigmas[0], v.waves[0], h)
        qpts, qfac = _gh_axis(_MARGIN * 2.0 * rq1, cq1, n)
        ppts, pfac = _gh_axis(_MARGIN * 2.0 * rp1, cp1, n)
        Q = qpts[:, None]
        P = ppts[None, :]
        ov = _axis_overlap(v.centers[0], v.sigmas[0], v.waves[0],
                           Q, math.sqrt(h), P / h)
        dens = np.abs(v.amp) ** 2 * (h * math.pi) ** -0.5 * np.abs(ov) ** 2
        grid = np.asarray(symbol(Q, P), dtype=float) * dens
        return float(qfac @ grid @ pfac) / (2.0 * math.pi * h)

    coarse = once(nodes)
    fine = once(2 * nodes)
    if abs(fine - coarse) > 1e-8 * max(1.0, abs(fine)):
        raise QuadratureFailure(
            f"positivity quadrature unstable under node doubling: "
            f"{coarse} vs {fine}")
    return fine
