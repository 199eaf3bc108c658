"""Dirichlet spectrum of the free Hamiltonian on the box [-L, L]^nu.

Eigenvalues of H = -Laplacian/2 with Dirichlet boundary conditions are

    E_n(L) = kappa(L) * |n|^2,    kappa(L) = pi^2 / (8 L^2),

indexed by integer vectors n >= 1 componentwise, with orthonormal
eigenfunctions psi_n(x) = L^{-nu/2} prod_i sin(pi n_i (x_i - L)/(2L)).

Mode sums over the spectrum are evaluated on the finite index box
[1..cutoff]^nu and must come with a certified bound on the discarded tail;
the bound is checked against the caller's tolerance.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import (
    DomainViolation,
    InvalidIndex,
    InvalidSpec,
    QuadratureFailure,
    TailToleranceExceeded,
)

__all__ = [
    "BoxSpectrum", "kappa", "eigenvalue", "ground_energy", "volume",
    "mode_sum", "gaussian_axis_tail", "bose_weight", "heat_weight",
    "count_below", "trace_h_power",
]


@dataclass(frozen=True)
class BoxSpectrum:
    L: float
    nu: int
    cutoff: int

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise InvalidSpec(f"box half-width must be positive and finite, got {self.L}")
        if self.nu < 1:
            raise InvalidSpec(f"nu must be >= 1, got {self.nu}")
        if self.cutoff < 1:
            raise InvalidSpec(f"cutoff must be >= 1, got {self.cutoff}")


def kappa(L: float) -> float:
    try:
        return math.pi ** 2 / (8.0 * L ** 2)
    except (OverflowError, ZeroDivisionError):
        raise DomainViolation(f"kappa(L) leaves the float range at L = {L}") from None


def eigenvalue(n: Sequence[int], L: float):
    """E_n(L) = kappa(L) |n|^2.  Entries of n must be >= 1.

    Accepts integer arrays in place of scalars for vectorized use, in which
    case broadcasting applies and no index validation is performed.
    """
    if all(np.isscalar(v) or getattr(v, "ndim", 1) == 0 for v in n):
        vals = [int(v) for v in n]
        if any(v < 1 for v in vals):
            raise InvalidIndex(f"mode indices must be >= 1, got {tuple(vals)}")
        return kappa(L) * float(sum(v * v for v in vals))
    return kappa(L) * sum(np.asarray(v) ** 2 for v in n)


def ground_energy(L: float, nu: int) -> float:
    try:
        return kappa(L) * nu
    except OverflowError:
        raise DomainViolation(f"ground energy leaves the float range at nu = {nu}") from None


def volume(L: float, nu: int) -> float:
    return (2.0 * L) ** nu


def _grid_sum(fn: Callable, cutoff: int, nu: int) -> float:
    """sum over [1..cutoff]^nu of fn(open-mesh index arrays), chunked in n1."""
    axes = [np.arange(1, cutoff + 1, dtype=float) for _ in range(nu)]
    if nu == 1:
        return float(np.sum(fn(axes[0])))
    block = max(1, int(4_000_000 // max(1, cutoff ** (nu - 1))))
    total = 0.0
    rest = [a.reshape((1,) * (i + 1) + (-1,) + (1,) * (nu - 2 - i))
            for i, a in enumerate(axes[1:])]
    for lo in range(0, cutoff, block):
        n1 = axes[0][lo:lo + block].reshape((-1,) + (1,) * (nu - 1))
        total += float(np.sum(fn(n1, *rest)))
    return total


def mode_sum(weight: Callable, spec: BoxSpectrum,
             tail_bound: Callable[[int], float], tail_tol: float) -> tuple[float, float]:
    """Sum a real-valued mode weight over [1..cutoff]^nu with a certified tail.

    ``weight`` receives ``nu`` broadcast-ready float arrays of mode indices
    and must return the (broadcast) array of weights.  ``tail_bound(cutoff)``
    is the caller's certified upper bound on the discarded sum; if it exceeds
    ``tail_tol`` the partial value is not trusted and
    TailToleranceExceeded is raised.
    """
    value = _grid_sum(weight, spec.cutoff, spec.nu)
    tail = float(tail_bound(spec.cutoff))
    if not np.isfinite(tail) or tail > tail_tol:
        raise TailToleranceExceeded(
            f"certified tail {tail:.3e} exceeds tolerance {tail_tol:.3e} "
            f"at cutoff {spec.cutoff}")
    return value, tail


def gaussian_axis_tail(a: float, cutoff: int) -> float:
    """Upper bound on sum_{n > cutoff} exp(-a n^2), a > 0 (geometric majorant)."""
    if a <= 0:
        raise DomainViolation("decay rate must be positive")
    lead = math.exp(-a * (cutoff + 1) ** 2)
    ratio = math.exp(-a * (2 * cutoff + 3))
    return lead / (1.0 - ratio)


def bose_weight(spec: BoxSpectrum, beta: float, h: float, mu: float):
    """Weight x/(1-x), x = exp(-beta h (E_n - mu)), plus its tail certificate.

    The tail bound factorizes the Gaussian sum per axis and controls the
    Bose denominator by its value at the lowest tail energy.
    """
    k = kappa(spec.L)
    bh = beta * h

    def weight(*ns):
        x = np.exp(-bh * (k * sum(n * n for n in ns) - mu))
        return x / (1.0 - x)

    def tail_bound(cutoff: int) -> float:
        s_ax = float(np.sum(np.exp(-bh * k * np.arange(1, cutoff + 1) ** 2)))
        t_ax = gaussian_axis_tail(bh * k, cutoff)
        gross = (s_ax + t_ax) ** spec.nu - s_ax ** spec.nu
        e_tail_min = k * ((cutoff + 1) ** 2 + (spec.nu - 1))
        x_max = math.exp(-bh * (e_tail_min - mu))
        if x_max >= 1.0:
            return math.inf
        return math.exp(bh * mu) * gross / (1.0 - x_max)

    return weight, tail_bound


def heat_weight(spec: BoxSpectrum, s: float):
    """Weight exp(-s E_n) with a factorized Gaussian tail certificate."""
    if s <= 0:
        raise DomainViolation("heat parameter must be positive")
    k = kappa(spec.L)

    def weight(*ns):
        return np.exp(-s * k * sum(n * n for n in ns))

    def tail_bound(cutoff: int) -> float:
        s_ax = float(np.sum(np.exp(-s * k * np.arange(1, cutoff + 1) ** 2)))
        t_ax = gaussian_axis_tail(s * k, cutoff)
        return (s_ax + t_ax) ** spec.nu - s_ax ** spec.nu

    return weight, tail_bound


def count_below(spec: BoxSpectrum, lam: float) -> int:
    """#{n <= cutoff componentwise : E_n <= lam}; exact when the cutoff shell
    clears lam, i.e. kappa (cutoff+1)^2 > lam."""
    k = kappa(spec.L)
    if k * (spec.cutoff + 1) ** 2 <= lam:
        raise TailToleranceExceeded(
            f"cutoff {spec.cutoff} does not enclose the level set E <= {lam}")
    count = _grid_sum(lambda *ns: (k * sum(n * n for n in ns) <= lam).astype(float),
                      spec.cutoff, spec.nu)
    return int(round(count))


# -- trace classifier ---------------------------------------------------------

# Both theta series below are cut after n = 6: on the side of t = pi where
# each is used, the first omitted term is below exp(-48 pi) ~ 1e-66 of the
# first kept one.
_THETA_N = np.arange(1.0, 7.0)


def _theta_mellin(s: float, nu: int) -> tuple[float, float]:
    """J = sum over n in N^nu of (|n|^2 / nu)^{-s} for 2 s > nu, with the
    summed quad error estimate.

    J = nu^s / Gamma(s) int_0^inf t^{s-1} theta(t)^nu dt, where
    theta(t) = sum_{n >= 1} exp(-t n^2).  On (0, pi] theta is Poisson
    inverted, theta = P + R with P = (sqrt(pi/t) - 1)/2 and
    R = sqrt(pi/t) sum_{j >= 1} exp(-pi^2 j^2 / t); the P^nu part is
    integrated in closed form and the nonnegative remainder
    (P + R)^nu - P^nu by quad.  On [pi, inf) the direct series is
    integrated by quad.  Working with nu^s keeps J of order one for
    large s.  Rounding in the integrands' O(s log s) exponents adds about
    s log(s) ulps of J, which the estimate includes; it passes 1e-12 of J
    near s = 700.
    """
    log_pref = s * math.log(nu) - math.lgamma(s)
    # int_0^pi t^{s-1} P^nu dt; the alternating binomial sum over
    # pi^s / (s - k/2) collapses to a positive product
    power = math.exp(s * math.log(math.pi) + log_pref) * 2.0 ** (1 - nu) \
        * math.factorial(nu) / math.prod(2.0 * s - nu + j for j in range(nu + 1))

    def inverted(t):
        root = math.sqrt(math.pi / t)
        r = root * float(np.sum(np.exp(-math.pi ** 2 * _THETA_N ** 2 / t)))
        if r == 0.0:
            return 0.0
        p = 0.5 * (root - 1.0)
        excess = sum(math.comb(nu, k) * p ** (nu - k) * r ** k for k in range(1, nu + 1))
        return math.exp((s - 1.0) * math.log(t) + log_pref) * excess

    def direct(t):
        # theta(t) = exp(-t) (1 + sum_{n >= 2} exp(-t (n^2 - 1)))
        rest = float(np.sum(np.exp(-t * (_THETA_N[1:] ** 2 - 1.0))))
        return math.exp((s - 1.0) * math.log(t) + log_pref - nu * t
                        + nu * math.log1p(rest))

    # split the direct part at the peak of t^{s-1} e^{-nu t}, which quad's
    # map of [pi, inf) would step over for large s
    peak = max(math.pi, (s - 1.0) / nu)
    value, err = power, 0.0
    with warnings.catch_warnings():
        # a quad that misses its tolerance is caught by the caller's check
        warnings.simplefilter("ignore", IntegrationWarning)
        for fn, lo, hi in ((inverted, 0.0, math.pi), (direct, math.pi, peak),
                           (direct, peak, np.inf)):
            v, e = quad(fn, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)
            value += v
            err += e
    return value, err + max(s * math.log(s), 1.0) * sys.float_info.epsilon * value


def trace_h_power(s: float, spec: BoxSpectrum) -> tuple[float, bool]:
    """Trace of H^{-s} on the box with a convergence verdict.

    converged is True iff 2 s > nu (integral test).  In the convergent case
    the value is the full trace sum over all n >= 1 of E_n^{-s}, from the
    Jacobi-theta Mellin integral of ``_theta_mellin``; the cutoff is
    ignored, and QuadratureFailure is raised when its error estimate
    (quadrature plus rounding) exceeds 1e-12 of the value.  The divergent
    case returns the partial sum over [1..cutoff]^nu, which grows without
    bound.  DomainViolation is raised when the value leaves the float range.
    """
    if s <= 0:
        raise DomainViolation("exponent must be positive")
    k = kappa(spec.L)
    converged = 2.0 * s > spec.nu

    if not converged:
        with np.errstate(over="ignore"):
            value = _grid_sum(lambda *ns: (k * sum(n * n for n in ns)) ** (-s),
                              spec.cutoff, spec.nu)
    else:
        scaled, err = _theta_mellin(s, spec.nu)
        if not err <= 1e-12 * scaled:
            raise QuadratureFailure(
                f"theta-Mellin trace error estimate {err:.3e} exceeds 1e-12 of "
                f"{scaled:.6e} (s={s}, nu={spec.nu})")
        try:
            value = ground_energy(spec.L, spec.nu) ** (-s) * scaled
        except OverflowError:
            value = math.inf
    if not math.isfinite(value):
        raise DomainViolation(f"the trace of H^-{s} leaves the float range at L = {spec.L}")
    return value, converged
