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
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import spectrum as sp
from . import states as st
from . import testfn as tf
from .errors import (
    BracketFailure,
    DomainViolation,
    InvalidSpec,
    NonPositiveTarget,
    StepTooLarge,
    TailToleranceExceeded,
)

__all__ = [
    "WeakDerivationSpec", "solve_mu_quantum", "mu_net_classical",
    "quantum_family", "semiclassical_scan",
    "thermodynamic_scan", "kms_residual",
]


@dataclass(frozen=True)
class WeakDerivationSpec:
    """Generator of the weak dynamics: ``H`` or the gauge-shifted ``HMinusMu``."""
    kind: str = "H"
    mu: float = 0.0

    def __post_init__(self):
        if self.kind not in ("H", "HMinusMu"):
            raise InvalidSpec(f"unknown derivation kind {self.kind!r}")
        if not math.isfinite(self.mu):
            raise InvalidSpec(f"derivation mu must be finite, got {self.mu}")
        if self.kind == "H" and self.mu != 0.0:
            raise InvalidSpec("kind 'H' carries no chemical potential shift")

    @property
    def shift(self) -> float:
        return self.mu if self.kind == "HMinusMu" else 0.0


# Newton steps before solve_mu_quantum gives up.  A solve takes 3-10 density
# passes on the perfbench boxes and at most 18 on the solver tests' grid.
_NEWTON_STEPS = 200


def solve_mu_quantum(rho_target: float, box: sp.BoxSpectrum, beta: float,
                     h: float, *, rel_tol: float = 1e-10) -> float:
    """mu < E_ground with box density rho(mu) = rho_target.

    On (-inf, E_ground) the density summed over the shells of the box is
    increasing and convex in mu.  Newton's iteration therefore descends
    monotonically onto the root from any start on its right; it starts
    where the ground shell alone carries the target,
    beta h (E_ground - mu_0) = log1p(1 / (|Lambda| rho_target)), and needs
    no bracket.  Each step sums rho and d rho / d mu over the cached shell
    table in one pass, with beta h (E_m - mu) written as
    beta h eps + beta h kappa (m - nu), eps = E_ground - mu, so nothing
    cancels near the ground energy.  The iteration stops when a step falls
    below a few ulps of eps; the result is certified by the
    ``quantum_density`` round trip at ``rel_tol``, tail bound included.
    BracketFailure is raised when the steps run out, when mu rounds onto
    the ground energy, or when the round trip fails.
    """
    if not all(math.isfinite(v) for v in (rho_target, beta, h)):
        raise DomainViolation(
            f"target density, beta and h must be finite, got {rho_target}, {beta}, {h}")
    if rho_target <= 0:
        raise NonPositiveTarget(f"target density must be positive, got {rho_target}")
    if beta <= 0 or h <= 0:
        raise DomainViolation("beta and h must be positive")
    if not rel_tol > 0:
        raise DomainViolation(f"rel_tol must be positive, got {rel_tol}")
    e0 = sp.ground_energy(box.L, box.nu)
    bh = beta * h
    particles = sp.volume(box.L, box.nu) * rho_target
    if not (0.0 < bh < math.inf and particles > 0.0):
        raise DomainViolation(
            f"beta h = {bh} or the target particle number {particles} "
            "leaves the float range")
    shells, mult = sp._shell_table(box.cutoff, box.nu)

    eps = math.log1p(1.0 / particles) / bh
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gap = bh * sp.kappa(box.L) * (shells - box.nu)
        for _ in range(_NEWTON_STEPS):
            # occupations w; numpy scalars turn a vanishing or overflowing
            # sum into inf or NaN instead of raising
            w = 1.0 / np.expm1(bh * eps + gap)
            step = float((mult @ w - particles) / (bh * (mult @ (w * (1.0 + w)))))
            # a step that is negative or NaN is rounding at the root
            if not step > 4.0 * sys.float_info.epsilon * eps:
                break
            eps += step
        else:
            raise BracketFailure(
                f"Newton's iteration for mu took more than {_NEWTON_STEPS} steps")
    mu = e0 - eps
    if not mu < e0:
        raise BracketFailure(
            f"mu for the target density {rho_target} lies within rounding of the "
            f"ground energy {e0}")

    try:
        achieved = st.quantum_density(
            st.StateSpec(kind="QuantumBoxGibbs", beta=beta, h=h, mu=mu, box=box))
    except TailToleranceExceeded as exc:
        raise BracketFailure(f"density tail certificate too loose: {exc}") from exc
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


def quantum_family(spec: st.StateSpec) -> Callable[[float], st.StateSpec]:
    """h -> the quantum StateSpec that tends to the classical ``spec`` as h -> 0:
    the same geometry, beta and mu, or for a condensate (finite alpha only)
    rho_bar(h) = rho_c(beta h) + alpha/h, so that h (rho_bar - rho_c) = alpha."""
    if spec.kind == "ClassicalInfVol":
        return lambda h: st.StateSpec(kind="QuantumInfVol", beta=spec.beta, h=h,
                                      mu=spec.mu, nu=spec.nu)
    if spec.kind == "ClassicalBoxGibbs":
        return lambda h: st.StateSpec(kind="QuantumBoxGibbs", beta=spec.beta, h=h,
                                      mu=spec.mu, box=spec.box)
    if spec.kind == "ClassicalCondensate":
        if not math.isfinite(spec.alpha):
            raise InvalidSpec("a quantum family needs a finite condensate weight alpha")
        return lambda h: st.StateSpec(
            kind="QuantumCondensate", beta=spec.beta, h=h,
            rho_bar=st.critical_density(spec.beta, h, spec.nu) + spec.alpha / h,
            nu=spec.nu)
    raise InvalidSpec(f"a quantum family needs a classical state, got {spec.kind}")


def semiclassical_scan(spec_family: Callable[[float], st.StateSpec],
                       classical_spec: st.StateSpec, f,
                       h_grid: Sequence[float]) -> list[tuple[float, float]]:
    """|omega_h(Q_h(W0(f))) - omega_0(W0(f))| along ``h_grid``.

    ``spec_family`` maps h to the quantum StateSpec; the pullback through
    quantization contributes the Gaussian factor exp(-h |f|^2/4).
    """
    target = st.weyl_expectation(classical_spec, f)
    nsq = st.mode_norm_sq(f) if isinstance(f, Mapping) else tf.norm_sq(f)
    out = []
    for h in h_grid:
        if h <= 0:
            raise DomainViolation("h grid must be positive")
        spec = spec_family(h)
        if spec.kind not in st.QUANTUM_KINDS:
            raise InvalidSpec("spec_family must produce quantum states")
        val = math.exp(-h * nsq / 4.0) * st.weyl_expectation(spec, f)
        out.append((float(h), abs(val - target)))
    return out


def _scan_cutoff(f: tf.TestFunction, L: float) -> int:
    kmax = max(max(abs(w) for w in t.wave) + 8.0 / t.sigma for t in f.terms)
    modes = 2.0 * L * kmax / math.pi
    # compared in float: an infinite mode count has no integer ceiling
    if not modes + 2.0 <= sp._MAX_SHELLS:
        raise DomainViolation(
            f"the scan at L = {L} needs {modes:.3g} modes per axis, more than "
            f"{sp._MAX_SHELLS}")
    return max(16, math.ceil(modes) + 2)


def thermodynamic_scan(alpha: float, beta: float, f: tf.TestFunction,
                       L_grid: Sequence[float], *,
                       nu: int = 3) -> list[tuple[float, float, float]]:
    """(L, omega_L(W0(f)), |omega_L - omega_inf|) along ``L_grid``.

    omega_L is the classical box Gibbs state at the net potential
    mu_net_classical(alpha, L); omega_inf is the classical condensate state
    with weight alpha (its alpha = 0 case being the critical Gibbs form).
    """
    target_spec = st.StateSpec(kind="ClassicalCondensate", beta=beta,
                               alpha=alpha, nu=nu)
    target = st.weyl_expectation(target_spec, f)
    out = []
    for L in L_grid:
        mu_l = mu_net_classical(alpha, L, beta, nu)
        box = sp.BoxSpectrum(L=float(L), nu=nu, cutoff=_scan_cutoff(f, L))
        spec = st.StateSpec(kind="ClassicalBoxGibbs", beta=beta, mu=mu_l, box=box)
        val = st.weyl_expectation(spec, f)
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
                 mode: str = "analytic", dt: float = 1e-3) -> float:
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
        omega = st.weyl_expectation(spec, x)
        return abs(sig + spec.beta * st._form(spec, x, k).real) * omega

    if mode != "fd":
        raise DomainViolation(f"mode must be 'analytic' or 'fd', got {mode!r}")
    if not 0 < dt < math.inf:
        raise DomainViolation(f"dt must be positive and finite, got {dt}")

    vals = st.classical_shifted_expectation(
        spec, x, k, [0.0, dt, -dt, dt / 2.0, -dt / 2.0])
    omega0, wp, wm, whp, whm = (float(v) for v in vals)

    def resid(step, plus, minus):
        fd = spec.beta * (plus - minus) / (2.0 * step)
        return abs(sig * omega0 - fd)

    r_full = resid(dt, wp, wm)
    r_half = resid(dt / 2.0, whp, whm)
    scale = max(abs(sig * omega0), 1.0)
    if not (r_full <= 1e-13 * scale and r_half <= 1e-13 * scale):
        ratio = r_full / max(r_half, 1e-300)
        if not (2.0 <= ratio <= 8.0):
            raise StepTooLarge(
                f"Richardson factor {ratio:.3f} outside [2, 8] at dt = {dt}; "
                "the finite-difference step is not in the quadratic regime")
    return r_full
