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
from functools import lru_cache
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


# Shell tables hold nu cutoff^2 entries and the binned first nu - 1 axes
# cutoff^(nu-1); lattices needing more are refused instead of allocated.
_MAX_SHELLS = 1 << 22


@lru_cache(maxsize=16)
def _head_bins(cutoff: int, nu: int) -> np.ndarray:
    """m' - (nu - 1) with m' = n_1^2 + ... + n_{nu-1}^2 over [1..cutoff]^{nu-1},
    flattened in C order (one 0 for nu = 1); read-only."""
    if max(nu * cutoff ** 2, cutoff ** (nu - 1)) > _MAX_SHELLS:
        raise DomainViolation(
            f"the shell tables of cutoff {cutoff} at nu = {nu} exceed "
            f"{_MAX_SHELLS} entries")
    sq = np.arange(1, cutoff + 1, dtype=np.int64) ** 2
    bins = np.zeros(1, dtype=np.int64)
    for _ in range(nu - 1):
        bins = np.add.outer(bins, sq - 1).ravel()
    bins.flags.writeable = False
    return bins


def _shell_sums(weight_sets: Sequence[Sequence[np.ndarray]],
                weight: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """For each weight set (q_1, ..., q_nu) of length-cutoff vectors, the sum
    over n in [1..cutoff]^nu of prod_i q_i(n_i) F(|n|^2).

    Grouped by shells m = |n|^2 the sum is sum_m F(m) S(m) with
    S(m) = sum_{|n|^2 = m} prod_i q_i(n_i).  The first nu - 1 axes are binned
    on m' = n_1^2 + ... + n_{nu-1}^2; the last axis adds one dot product of
    those bins against the window F(m' + n_nu^2) per n_nu, so no
    cutoff^nu array is formed.  ``weight`` maps the float shells
    m = nu..nu cutoff^2 to F in one call; it never sees the shells below the
    ground shell m = nu, where F may be singular.
    """
    nu, cutoff = len(weight_sets[0]), len(weight_sets[0][0])
    bins = _head_bins(cutoff, nu)
    width = int(bins[-1]) + 1
    cols = []
    for qs in weight_sets:
        head = np.ones(1, dtype=complex)
        for q in qs[:-1]:
            head = np.multiply.outer(head, q).ravel()
        cols += [np.bincount(bins, head.real, width), np.bincount(bins, head.imag, width)]
    binned = np.stack(cols, axis=1)
    fvals = weight(np.arange(nu, nu * cutoff ** 2 + 1, dtype=float))
    # shell m' + n^2 sits at fvals[m' - (nu - 1) + n^2 - 1]
    win = np.array([fvals[n * n - 1:n * n - 1 + width] @ binned
                    for n in range(1, cutoff + 1)])
    win = win[:, 0::2] + 1j * win[:, 1::2]
    return np.array([qs[-1] @ win[:, j] for j, qs in enumerate(weight_sets)])


@lru_cache(maxsize=16)
def _shell_table(cutoff: int, nu: int) -> tuple[np.ndarray, np.ndarray]:
    """The occupied shells m = |n|^2 of [1..cutoff]^nu as (multiplicities,
    one representative point per shell as a (nu, shells) float index
    array); read-only.  Built from the binned first nu - 1 axes plus the
    last axis as cutoff shifted copies."""
    bins = _head_bins(cutoff, nu)
    heads = np.bincount(bins)
    first = np.empty(len(heads), dtype=np.int64)
    first[bins] = np.arange(len(bins))
    occupied = np.flatnonzero(heads)
    # both indexed by m - nu
    mult = np.zeros(nu * cutoff ** 2 - nu + 1, dtype=np.int64)
    rep = np.zeros_like(mult)
    for n in range(1, cutoff + 1):
        mult[n * n - 1:n * n - 1 + len(heads)] += heads
        rep[occupied + n * n - 1] = first[occupied] * cutoff + n - 1
    shells = np.flatnonzero(mult)
    points = np.array(np.unravel_index(rep[shells], (cutoff,) * nu), dtype=float) + 1.0
    mult = mult[shells]
    for a in (mult, points):
        a.flags.writeable = False
    return mult, points


def _grid_sum(fn: Callable, cutoff: int, nu: int) -> float:
    """sum over [1..cutoff]^nu of fn(index arrays), for fn a function of |n|^2.

    Grouped by shells, the sum is sum_m fn(n_m) mult(m), with n_m one
    representative of the shell m = |n|^2 and mult(m) its size (see
    ``_shell_table``).  kappa |n|^2 of integer entries is exact, so every
    representative gives the same bits.
    """
    mult, points = _shell_table(cutoff, nu)
    return float(mult @ fn(*points))


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
