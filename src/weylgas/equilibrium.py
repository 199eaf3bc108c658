"""Equilibrium tuning and limit scans.

Chemical-potential solvers pin a target density; the scans quantify the two
limits the state families are built around: the semiclassical limit h -> 0
(quantum family composed with quantization vs. its classical target) and
the thermodynamic limit L -> inf (finite-box classical Gibbs vs. the
infinite-volume condensate form).  The weak-KMS residual checks the
stationarity identity

    sigma(g, f) omega(W(f+g)) = i beta omega(Phi(i (H - mu) f) W(f+g))

either in closed form or through a central finite difference with a
mandatory two-step Richardson consistency check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.optimize import brentq

from . import spectrum as sp
from . import states as st
from . import testfn as tf
from .errors import (
    BracketFailure,
    DomainViolation,
    InvalidSpec,
    NonPositiveTarget,
    StepTooLarge,
    SubcriticalDensity,
    TailToleranceExceeded,
)

__all__ = [
    "WeakDerivationSpec", "solve_mu_quantum", "mu_net_classical",
    "condensate_fraction_limit", "semiclassical_scan", "thermodynamic_scan",
    "kms_residual",
]


@dataclass(frozen=True)
class WeakDerivationSpec:
    """Generator of the weak dynamics: ``H`` or the gauge-shifted ``HMinusMu``."""
    kind: str = "H"
    mu: float = 0.0

    def __post_init__(self):
        if self.kind not in ("H", "HMinusMu"):
            raise InvalidSpec(f"unknown derivation kind {self.kind!r}")
        if self.kind == "H" and self.mu != 0.0:
            raise InvalidSpec("kind 'H' carries no chemical potential shift")

    @property
    def shift(self) -> float:
        return self.mu if self.kind == "HMinusMu" else 0.0


def solve_mu_quantum(rho_target: float, box: sp.BoxSpectrum, beta: float,
                     h: float, *, rel_tol: float = 1e-10) -> float:
    """mu < E_ground with box density rho(mu) = rho_target.

    The density is strictly increasing in mu and diverges at the ground
    energy, so a bracket (expanded geometrically to the left, shrunk toward
    E_ground on the right) always exists; the root is polished by a
    bracketed solver and verified against ``rel_tol``.
    """
    if not all(math.isfinite(v) for v in (rho_target, beta, h)):
        raise DomainViolation(
            f"target density, beta and h must be finite, got {rho_target}, {beta}, {h}")
    if rho_target <= 0:
        raise NonPositiveTarget(f"target density must be positive, got {rho_target}")
    if beta <= 0 or h <= 0:
        raise DomainViolation("beta and h must be positive")
    e0 = sp.ground_energy(box.L, box.nu)

    def density(mu: float) -> float:
        try:
            spec = st.StateSpec(kind="QuantumBoxGibbs", beta=beta, h=h, mu=mu, box=box)
            return st.quantum_density(spec)
        except TailToleranceExceeded as exc:
            raise BracketFailure(f"density tail certificate too loose: {exc}") from exc

    lo = e0 - 1.0
    for _ in range(200):
        if density(lo) < rho_target:
            break
        lo = e0 - 2.0 * (e0 - lo)
    else:
        raise BracketFailure("could not bracket the target density from below")

    eps = 1e-6
    hi = e0 - eps
    for _ in range(200):
        if density(hi) > rho_target:
            break
        eps *= 1e-2
        if eps < 1e-280:
            raise BracketFailure("could not bracket the target density from above")
        hi = e0 - eps
    else:
        raise BracketFailure("could not bracket the target density from above")

    mu = brentq(lambda m: density(m) - rho_target, lo, hi, xtol=1e-300, rtol=8.9e-16)
    achieved = density(mu)
    if abs(achieved - rho_target) > rel_tol * rho_target:
        raise BracketFailure(
            f"round-trip density error {abs(achieved - rho_target)/rho_target:.3e} "
            f"exceeds {rel_tol:.1e}")
    return float(mu)


def mu_net_classical(alpha: float, L: float, beta: float, nu: int = 3) -> float:
    """Finite-volume chemical potential of the classical net,
    mu_L = E_ground(L) - 1/(alpha beta |Lambda_L|); alpha = 0 selects mu_L = 0.

    Tuned so that 1/(beta |Lambda_L| (E_ground - mu_L)) = alpha for every L,
    which is the condensate weight surviving the thermodynamic limit.
    """
    if alpha < 0:
        raise DomainViolation(f"alpha must be >= 0, got {alpha}")
    if beta <= 0 or L <= 0:
        raise DomainViolation("beta and L must be positive")
    if alpha == 0.0:
        return 0.0
    return sp.ground_energy(L, nu) - 1.0 / (alpha * beta * sp.volume(L, nu))


def condensate_fraction_limit(rho_of_h: Callable[[float], float], beta: float,
                              nu: int, h_grid: Sequence[float]) -> list[tuple[float, float]]:
    """Tabulate h (rho(h) - rho_c(beta h)) along ``h_grid``.

    The limit of the tabulated values (when it exists) is the condensate
    weight alpha of the semiclassical limit state.  SubcriticalDensity is
    raised as soon as the profile dips below the critical density.
    """
    out = []
    for h in h_grid:
        if h <= 0:
            raise DomainViolation("h grid must be positive")
        rc = st.critical_density(beta, h, nu)
        rho = float(rho_of_h(h))
        if rho < rc * (1.0 - 1e-12):
            raise SubcriticalDensity(
                f"rho({h}) = {rho} below critical density {rc}")
        out.append((float(h), h * (rho - rc)))
    return out


def _label_norm_sq(f) -> float:
    if isinstance(f, Mapping):
        return st.mode_norm_sq(f)
    return tf.norm_sq(f)


def semiclassical_scan(spec_family: Callable[[float], st.StateSpec],
                       classical_spec: st.StateSpec, f,
                       h_grid: Sequence[float], *, tail_tol: float = 1e-9,
                       rtol: float = 1e-12) -> list[tuple[float, float]]:
    """|omega_h(Q_h(W0(f))) - omega_0(W0(f))| along ``h_grid``.

    ``spec_family`` maps h to the quantum StateSpec; the pullback through
    quantization contributes the Gaussian factor exp(-h |f|^2/4).
    """
    target = st.weyl_expectation(classical_spec, f, tail_tol=tail_tol, rtol=rtol)
    nsq = _label_norm_sq(f)
    out = []
    for h in h_grid:
        if h <= 0:
            raise DomainViolation("h grid must be positive")
        spec = spec_family(h)
        if spec.kind not in st.QUANTUM_KINDS:
            raise InvalidSpec("spec_family must produce quantum states")
        val = math.exp(-h * nsq / 4.0) * st.weyl_expectation(
            spec, f, tail_tol=tail_tol, rtol=rtol)
        out.append((float(h), abs(val - target)))
    return out


def _scan_cutoff(f: tf.TestFunction, L: float) -> int:
    kmax = max(max(abs(w) for w in t.wave) + 8.0 / t.sigma for t in f.terms)
    return max(16, int(math.ceil(2.0 * L * kmax / math.pi)) + 2)


def thermodynamic_scan(alpha: float, beta: float, f: tf.TestFunction,
                       L_grid: Sequence[float], *, nu: int = 3,
                       tail_tol: float = 1e-9,
                       rtol: float = 1e-12) -> list[tuple[float, float, float]]:
    """(L, omega_L(W0(f)), |omega_L - omega_inf|) along ``L_grid``.

    omega_L is the classical box Gibbs state at the net potential
    mu_net_classical(alpha, L); omega_inf is the classical condensate state
    with weight alpha (its alpha = 0 case being the critical Gibbs form).
    """
    target_spec = st.StateSpec(kind="ClassicalCondensate", beta=beta,
                               alpha=alpha, nu=nu)
    target = st.weyl_expectation(target_spec, f, rtol=rtol)
    out = []
    for L in L_grid:
        mu_l = mu_net_classical(alpha, L, beta, nu)
        box = sp.BoxSpectrum(L=float(L), nu=nu, cutoff=_scan_cutoff(f, L))
        spec = st.StateSpec(kind="ClassicalBoxGibbs", beta=beta, mu=mu_l, box=box)
        val = st.weyl_expectation(spec, f, tail_tol=tail_tol, rtol=rtol)
        out.append((float(L), val, abs(val - target)))
    return out


def _apply_derivation(deriv: WeakDerivationSpec, f, spec: st.StateSpec):
    """i (H - shift) f as a mode mapping (box) or a multiplier tag (continuum)."""
    if isinstance(f, Mapping):
        out = {}
        for n, c in f.items():
            en = sp.eigenvalue(tuple(int(v) for v in n), spec.box.L)
            out[n] = 1j * (en - deriv.shift) * complex(c)
        return out
    return tf.MultiplierApplied(fn=f, shift=deriv.shift, scale=1j)


def _merge_maps(f: Mapping, g: Mapping) -> dict:
    out = {n: complex(c) for n, c in f.items()}
    for n, c in g.items():
        out[n] = out.get(n, 0.0) + complex(c)
    return out


def kms_residual(spec: st.StateSpec, deriv: WeakDerivationSpec, f, g, *,
                 mode: str = "analytic", dt: float = 1e-3,
                 rtol: float = 1e-12) -> float:
    """|sigma(g,f) omega(W(f+g)) - i beta omega(Phi(i(H-shift)f) W(f+g))|.

    Vanishes identically when the derivation matches the state's generator
    (shift = mu for the Gibbs kinds, shift = 0 for the condensate kind,
    independently of alpha).  mode="fd" replaces the field insertion by a
    central difference with step ``dt`` and raises StepTooLarge unless the
    residual shrinks consistently under step halving (Richardson factor
    near 4, the signature of an O(dt^2) defect).
    """
    if spec.kind not in st.CLASSICAL_KINDS:
        raise InvalidSpec("weak KMS residuals are defined for classical kinds")
    if isinstance(f, Mapping) != isinstance(g, Mapping):
        raise TypeError("f and g must both be mode mappings or both TestFunctions")

    sig = st._sigma(g, f)
    x = _merge_maps(f, g) if isinstance(f, Mapping) else f + g
    k = _apply_derivation(deriv, f, spec)

    if mode == "analytic":
        # omega(Phi(k) W(x)) = i Re B(x, k) omega(W(x)), and omega(W(x)) > 0
        omega = st.weyl_expectation(spec, x, rtol=rtol)
        return abs(sig + spec.beta * st._form(spec, x, k, rtol).real) * omega

    if mode != "fd":
        raise DomainViolation(f"mode must be 'analytic' or 'fd', got {mode!r}")
    if dt <= 0:
        raise DomainViolation("dt must be positive")

    vals = st.classical_shifted_expectation(
        spec, x, k, [0.0, dt, -dt, dt / 2.0, -dt / 2.0], rtol=rtol)
    omega0, wp, wm, whp, whm = (float(v) for v in vals)

    def resid(step, plus, minus):
        fd = spec.beta * (plus - minus) / (2.0 * step)
        return abs(sig * omega0 - fd)

    r_full = resid(dt, wp, wm)
    r_half = resid(dt / 2.0, whp, whm)
    scale = max(abs(sig * omega0), 1.0)
    if r_full > 1e-13 * scale or r_half > 1e-13 * scale:
        ratio = r_full / max(r_half, 1e-300)
        if not (2.0 <= ratio <= 8.0):
            raise StepTooLarge(
                f"Richardson factor {ratio:.3f} outside [2, 8] at dt = {dt}; "
                "the finite-difference step is not in the quadratic regime")
    return r_full
