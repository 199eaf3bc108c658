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
(q, p).  The phase-space side factorizes per axis (the e^{-i q.p/(2h)}
phases of the two overlaps cancel) and is evaluated on its own, in closed
form.  With phi and psi axes (c_k, s_k, w_k) and d_k = s_k^2 + h, the axis
integrand is a constant times exp(-x.A x/2 + b.x + c) in x = (q, p), with
A_qq = 1/d_1 + 1/d_2, A_pp = (s_1^2/d_1 + s_2^2/d_2)/h and
A_qp = i (s_2^2 - s_1^2)/(d_1 d_2); ``_axis_gaussian`` reads b and c off
the product of the two coherent-state overlaps.  Re A is diagonal and positive definite, so the axis
integral is 2 pi/sqrt(det A) exp(b.A^{-1} b/2 + c).  det A =
A_qq A_pp + |A_qp|^2 is real and positive, and it is the product of the
eigenvalues of A, whose real parts are positive; the product of their
principal roots is its positive root.

Each axis is first centred: with a = (c_1 + c_2)/2 and k = (w_1 + w_2)/2,
translating both packets by -a and their waves by -k multiplies the element
by the exact phase e^{-i(lam a + mu h k + (w_2 - w_1) a)}, so the integral
is taken at centres -+(c_2 - c_1)/2 and waves -+(w_2 - w_1)/2 and that phase
is put back.  No exponent term of the Gaussian then grows with the centres.

Rounding: A, det A and the prefactor are sums and products of positive
terms, exact to a few ulps.  The exponent's rounding error is a few ulps
of the sum of the magnitudes of its terms, and that is the relative error
of the result: about 1e-14 for packets within a few widths of each other,
plus a few ulps of the translation phase, which grows with |lam a|,
|mu h k| and |(w_2 - w_1) a|.
A determinant outside the normal float range raises DomainViolation.  A
non-finite exponent or value has no finite rounding bound and raises
QuadratureFailure, except that an exponent whose real part overflows to
-inf returns 0.0, as one below about -745 underflows to it: the correctly
rounded value.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, QuadratureFailure
from .testfn import _axis_overlap

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
        try:
            object.__setattr__(self, "amp", complex(self.amp))
            for name in ("centers", "sigmas", "waves"):
                object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        except OverflowError:
            raise DomainViolation("packet fields must be finite; an integer leaves "
                                  "the float range") from None
        if not (cmath.isfinite(self.amp) and all(
                map(math.isfinite, self.centers + self.sigmas + self.waves))):
            raise DomainViolation(f"packet fields must be finite: {self}")
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
    if not 0 < h < math.inf:
        raise DomainViolation(f"coherent states need 0 < h < inf, got {h}")
    ell = q.size
    try:
        norm = (h * math.pi) ** (-ell / 4.0)  # 0.0 once h * pi overflows
    except OverflowError:
        norm = math.inf
    if not sys.float_info.min <= norm < math.inf:
        raise DomainViolation(
            f"the coherent normalization (h pi)^(-l/4) leaves the normal float range "
            f"at h = {h}, l = {ell}")
    amp = norm * np.exp(-1j * float(q @ p) / (2.0 * h))
    return WavePacket(amp=amp, centers=tuple(q), sigmas=(math.sqrt(h),) * ell,
                      waves=tuple(p / h))


def norm_sq(psi: WavePacket) -> float:
    out = abs(psi.amp) ** 2
    for s in psi.sigmas:
        out *= s * math.sqrt(math.pi)
    return out


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
    if not 0 < h < math.inf:
        raise DomainViolation(f"the Schrodinger action needs 0 < h < inf, got {h}")
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


def _axis_gaussian(lam, mu, c1, s1, w1, c2, s2, w2, h):
    """(prefactor, exponent) of one axis of the phase-space integral:
    2 pi h s_1 s_2/sqrt(d_1 d_2) from the two overlaps, (h pi)^{-1/2} from
    the coherent normalization, 1/(2 pi h) from the measure and
    2 pi/sqrt(det A) from the Gaussian integral; b.A^{-1} b/2 + c."""
    d1, d2 = s1 * s1 + h, s2 * s2 + h
    t1, t2 = s1 * s1 / d1, s2 * s2 / d2
    a_qq = 1.0 / d1 + 1.0 / d2
    r = (s2 * s2 - s1 * s1) / d1 / d2
    h_det = a_qq * (t1 + t2) + h * r * r  # h det A, a sum of positive terms
    if not sys.float_info.min <= h_det < math.inf:
        raise DomainViolation(
            f"the phase-space Gaussian leaves the normal float range at h = {h}")
    # b = (i lam + e1 + e2, i mu + i (e1 - e2)); c collects the x-free terms
    e1 = complex(c1, -w1 * s1 * s1) / d1
    e2 = complex(c2, w2 * s2 * s2) / d2
    b_q = complex(e1.real + e2.real, lam + e1.imag + e2.imag)
    b_p = 1j * (mu + e1 - e2)
    # h adj(A) = [[h A_pp, -h A_qp], [-h A_qp, h A_qq]] over h det A
    quad_form = ((t1 + t2) * b_q * b_q - 2j * h * r * b_q * b_p
                 + h * a_qq * b_p * b_p) / (2.0 * h_det)
    const = (-complex(c1 * c1 + h * w1 * w1 * s1 * s1, 2.0 * h * c1 * w1) / (2.0 * d1)
             - complex(c2 * c2 + h * w2 * w2 * s2 * s2, -2.0 * h * c2 * w2) / (2.0 * d2))
    return 2.0 * math.sqrt(math.pi * t1 * t2 / h_det), quad_form + const


def berezin_matrix_element(lam, mu, phi: WavePacket, psi: WavePacket,
                           h: float) -> complex:
    """int e^{i(lam.q+mu.p)} <phi, psi^{qp}><psi^{qp}, psi> dq dp/(2 pi h)^l,
    evaluated as a closed Gaussian integral per axis (module docstring) on
    packets centred at the mean centre a and mean wave k of the axis."""
    if phi.ell != psi.ell:
        raise DomainViolation("packets live on different axis counts")
    if not 0 < h < math.inf:
        raise DomainViolation(f"the phase-space integral needs 0 < h < inf, got {h}")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if lam.shape != (phi.ell,) or mu.shape != (phi.ell,):
        raise DomainViolation("label components must match the packet axes")
    if not (np.isfinite(lam).all() and np.isfinite(mu).all()):
        raise DomainViolation("labels must be finite")
    pref, expo = phi.amp.conjugate() * psi.amp, 0.0
    for i in range(phi.ell):
        l, m = float(lam[i]), float(mu[i])
        c1, c2, w1, w2 = phi.centers[i], psi.centers[i], phi.waves[i], psi.waves[i]
        a, k = 0.5 * c1 + 0.5 * c2, 0.5 * w1 + 0.5 * w2  # halves: no overflow
        f, e = _axis_gaussian(l, m, c1 - a, phi.sigmas[i], w1 - k,
                              c2 - a, psi.sigmas[i], w2 - k, h)
        pref = pref * f
        expo = expo + e + complex(0.0, l * a + m * h * k + (w2 - w1) * a)
    if expo.real == -math.inf:  # e^expo is 0 whatever its (NaN) phase
        return 0j
    try:
        out = pref * cmath.exp(expo)
    except (OverflowError, ValueError):  # ValueError: exp of an infinite imaginary part
        out = complex(math.nan)
    if not (cmath.isfinite(expo) and cmath.isfinite(out)):
        raise QuadratureFailure(
            f"the phase-space integral leaves the float range at h = {h}, "
            f"so its rounding bound is not finite")
    return out


def overcompleteness_check(phi: WavePacket, h: float) -> tuple[float, float]:
    """Resolution of identity on the diagonal: the (0,0) element against
    |phi|^2.  Returns (phase-space value, closed form)."""
    ell = phi.ell
    quad = berezin_matrix_element(np.zeros(ell), np.zeros(ell), phi, phi, h)
    return float(quad.real), norm_sq(phi)


def _frequency(v) -> int:
    # |m| <= 2^1022 keeps every difference m_k - m_j a finite float
    try:
        m = float(v)
    except OverflowError:
        m = math.nan
    if not (m.is_integer() and abs(m) <= 2.0 ** 1022):  # is_integer: False for nan, inf
        raise DomainViolation(
            f"symbol frequencies must be integers of modulus at most 2^1022, got {v}")
    return int(v)


class TrigPolySymbol:
    """|sum_m c_m e^{i(m1 q + m2 p)}|^2: a manifestly nonnegative bounded
    symbol on a single phase-space axis pair."""

    def __init__(self, coeffs, freqs):
        self.coeffs = tuple(complex(c) for c in coeffs)
        self.freqs = tuple((_frequency(a), _frequency(b)) for a, b in freqs)
        if len(self.coeffs) != len(self.freqs):
            raise DomainViolation("one frequency pair per coefficient")
        if not self.coeffs:
            raise DomainViolation("need at least one term")
        if not all(map(cmath.isfinite, self.coeffs)):
            raise DomainViolation(f"symbol coefficients must be finite: {self.coeffs}")

    def __call__(self, q, p):
        acc = np.zeros(np.broadcast(q, p).shape, dtype=complex)
        for c, (m1, m2) in zip(self.coeffs, self.freqs):
            acc += c * np.exp(1j * (m1 * q + m2 * p))
        return np.abs(acc) ** 2


def berezin_positivity(symbol: TrigPolySymbol, v: WavePacket, h: float) -> float:
    """<v, Op_h(symbol) v> = int symbol(q,p) |<psi^{qp}, v>|^2 dq dp/(2 pi h)^l.

    The symbol is the sum of the plane waves
    conj(c_j) c_k e^{i((m_k - m_j)_1 q + (m_k - m_j)_2 p)}, so the value is
    the sum of their matrix elements with phi = psi = v.  Nonnegative for
    every such symbol; single-axis packets only.
    """
    if v.ell != 1:
        raise DomainViolation("positivity probe supports single-axis packets")
    terms = tuple(zip(symbol.coeffs, symbol.freqs))
    return sum(cj.conjugate() * ck
               * berezin_matrix_element(mk[0] - mj[0], mk[1] - mj[1], v, v, h)
               for cj, mj in terms for ck, mk in terms).real
