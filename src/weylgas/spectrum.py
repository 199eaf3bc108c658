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
from scipy.linalg import blas

from .errors import (
    DomainViolation,
    InvalidIndex,
    InvalidSpec,
    QuadratureFailure,
    TailToleranceExceeded,
)

__all__ = [
    "BoxSpectrum", "kappa", "eigenvalue", "ground_energy", "volume",
    "mode_sum", "gaussian_axis_tail", "bose_weight", "trace_h_power",
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
        # per-axis tables hold cutoff entries, so the shell-table cap bounds it too
        if not 1 <= self.cutoff <= _MAX_SHELLS:
            raise InvalidSpec(f"cutoff must lie in [1, {_MAX_SHELLS}], got {self.cutoff}")


def kappa(L: float) -> float:
    try:
        return math.pi ** 2 / (8.0 * L ** 2)
    except (OverflowError, ZeroDivisionError):
        raise DomainViolation(f"kappa(L) leaves the float range at L = {L}") from None


def eigenvalue(n: Sequence[int], L: float) -> float:
    """E_n(L) = kappa(L) |n|^2.  Entries of n must be >= 1."""
    vals = [int(v) for v in n]
    if any(v < 1 for v in vals):
        raise InvalidIndex(f"mode indices must be >= 1, got {tuple(vals)}")
    return kappa(L) * float(sum(v * v for v in vals))


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
    # the first test bounds nu and cutoff before the power is formed
    if nu * cutoff ** 2 > _MAX_SHELLS or cutoff ** (nu - 1) > _MAX_SHELLS:
        raise DomainViolation(
            f"the shell tables of cutoff {cutoff} at nu = {nu} exceed "
            f"{_MAX_SHELLS} entries")
    sq = np.arange(1, cutoff + 1, dtype=np.int64) ** 2
    bins = np.zeros(1, dtype=np.int64)
    for _ in range(nu - 1):
        bins = np.add.outer(bins, sq - 1).ravel()
    bins.flags.writeable = False
    return bins


def _shell_accumulate(qs: Sequence[np.ndarray]) -> np.ndarray:
    """sum over |n|^2 = m of prod_i q_i(n_i) for every m = nu..nu cutoff^2,
    indexed by m - nu, for length-cutoff vectors q_1, ..., q_nu (all real or
    any complex; the result takes their common type).

    The first nu - 1 axes are binned on m' = n_1^2 + ... + n_{nu-1}^2; the
    last axis adds the bins, scaled by q_nu(n), at offset n^2 - 1 for each n,
    so no cutoff^nu array is formed.  The additions run as in-place BLAS
    axpys: a numpy ``out[lo:hi] += c * bins`` is about six times slower.
    """
    nu, cutoff = len(qs), len(qs[0])
    bins = _head_bins(cutoff, nu)
    width = int(bins[-1]) + 1
    head = np.ones(1)
    for q in qs[:-1]:
        head = np.multiply.outer(head, q).ravel()
    if np.iscomplexobj(head) or np.iscomplexobj(qs[-1]):
        binned = np.bincount(bins, head.real, width) + 1j * np.bincount(bins, head.imag, width)
        axpy = blas.zaxpy
    else:
        binned, axpy = np.bincount(bins, head, width), blas.daxpy
    out = np.zeros(nu * cutoff ** 2 - nu + 1, dtype=binned.dtype)
    # shell m' + n^2 sits at out[m' - (nu - 1) + n^2 - 1]
    for n, c in enumerate(np.asarray(qs[-1]).tolist(), 1):
        axpy(binned, out, n=width, a=c, offy=n * n - 1)
    return out


def _shell_spectrum(qs: Sequence[np.ndarray]) -> np.ndarray:
    """S(m) = sum over |n|^2 = m of prod_i q_i(n_i) at the occupied shells of
    ``_shell_table(cutoff, nu)``, in its order; read-only.  Real (float64)
    when every q_i is real.  A sum sum_n prod_i q_i(n_i) F(|n|^2) is then
    ``S @ F(shells)``."""
    shells, _ = _shell_table(len(qs[0]), len(qs))
    spectrum = _shell_accumulate(qs)[shells.astype(np.intp) - len(qs)]
    spectrum.flags.writeable = False
    return spectrum


@lru_cache(maxsize=16)
def _shell_table(cutoff: int, nu: int) -> tuple[np.ndarray, np.ndarray]:
    """The occupied shells m = |n|^2 of [1..cutoff]^nu as floats, ascending,
    and their multiplicities; read-only."""
    _head_bins(cutoff, nu)  # refuses oversized tables before the list is formed
    # counts below 2^53 are exact in float64
    counts = _shell_accumulate([np.ones(cutoff)] * nu)
    occupied = np.flatnonzero(counts)
    shells, mult = (occupied + nu).astype(float), counts[occupied].astype(np.int64)
    for a in (shells, mult):
        a.flags.writeable = False
    return shells, mult


def _grid_sum(fn: Callable[[np.ndarray], np.ndarray], cutoff: int, nu: int) -> float:
    """sum over n in [1..cutoff]^nu of fn(|n|^2), grouped by shells."""
    shells, mult = _shell_table(cutoff, nu)
    return float(mult @ fn(shells))


def mode_sum(weight: Callable[[np.ndarray], np.ndarray], spec: BoxSpectrum,
             tail: float, tail_tol: float) -> tuple[float, float]:
    """Sum a real-valued mode weight over [1..cutoff]^nu with a certified tail.

    ``weight`` maps an array of float shells m = |n|^2 to the array of
    weights.  ``tail`` is the caller's certified upper bound on the sum
    beyond the cutoff; if it exceeds ``tail_tol`` the partial value is not
    trusted and TailToleranceExceeded is raised.
    """
    if math.isnan(tail_tol):
        raise DomainViolation("tail_tol must not be NaN")
    value = _grid_sum(weight, spec.cutoff, spec.nu)
    tail = float(tail)
    if not np.isfinite(tail) or tail > tail_tol:
        raise TailToleranceExceeded(
            f"certified tail {tail:.3e} exceeds tolerance {tail_tol:.3e} "
            f"at cutoff {spec.cutoff}")
    return value, tail


def _product_excess(pairs: Sequence[tuple[float, float]]) -> float:
    """prod_i (a_i + b_i) - prod_i a_i for a_i, b_i >= 0, telescoped as

        sum_i b_i prod_{j < i} (a_j + b_j) prod_{j > i} a_j.

    Every term is >= 0, so nothing cancels: the result is positive when
    some b_i > 0 and every a_j > 0, and its relative rounding stays within
    about 2 nu eps.
    """
    excess, gross = 0.0, 1.0
    for a, b in pairs:
        excess, gross = excess * a + gross * b, gross * (a + b)
    return excess


def gaussian_axis_tail(a: float, cutoff: int) -> float:
    """Upper bound on sum_{n > cutoff} exp(-a n^2), a > 0 (geometric majorant)."""
    if a <= 0:
        raise DomainViolation("decay rate must be positive")
    lead = math.exp(-a * (cutoff + 1) ** 2)
    ratio = math.exp(-a * (2 * cutoff + 3))
    return lead / (1.0 - ratio)


def bose_weight(spec: BoxSpectrum, beta: float, h: float, mu: float):
    """Weight x/(1-x) = 1/expm1(beta h (kappa m - mu)),
    x = exp(-beta h (kappa m - mu)), as a function of the shell m = |n|^2,
    and the certified bound on its sum beyond the cutoff.

    ``expm1`` keeps the weight accurate to a few ulps as mu nears the
    ground energy, where 1 - x would cancel.  The tail bound factorizes the
    Gaussian sum per axis and controls the Bose denominator by its value
    at the lowest tail energy.
    """
    k = kappa(spec.L)
    bh = beta * h

    # an exponent beyond the float range is a zero weight
    def weight(m):
        with np.errstate(over="ignore"):
            return 1.0 / np.expm1(bh * (k * m - mu))

    cutoff = spec.cutoff
    with np.errstate(over="ignore"):
        s_ax = float(np.sum(np.exp(-bh * k * np.arange(1, cutoff + 1) ** 2)))
    t_ax = gaussian_axis_tail(bh * k, cutoff)
    e_tail_min = k * ((cutoff + 1) ** 2 + (spec.nu - 1))
    x_max = math.exp(-bh * (e_tail_min - mu))
    if x_max >= 1.0:
        return weight, math.inf
    gross = _product_excess([(s_ax, t_ax)] * spec.nu)
    try:
        return weight, math.exp(bh * mu) * gross / (1.0 - x_max)
    except OverflowError:
        return weight, math.inf


# -- trace classifier ---------------------------------------------------------

# Both theta series below are cut after n = 6: on the side of t = pi where
# each is used, the first omitted term is below exp(-48 pi) ~ 1e-66 of the
# first kept one.
_THETA_N = np.arange(1.0, 7.0)


@lru_cache(maxsize=64)
def _theta_mellin(s: float, nu: int) -> tuple[float, float]:
    """J = sum over n in N^nu of (|n|^2 / nu)^{-s} for 2 s > nu, with the
    summed quad error estimate.  J does not depend on L, so a box of any
    size reuses the value kept for its (s, nu).

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
    try:
        s = float(s)
    except OverflowError:
        s = math.inf
    if not 0 < s < math.inf:
        raise DomainViolation(f"exponent must be positive and finite, got {s}")
    k = kappa(spec.L)
    converged = 2.0 * s > spec.nu

    if not converged:
        with np.errstate(over="ignore"):
            value = _grid_sum(lambda m: (k * m) ** (-s), spec.cutoff, spec.nu)
    else:
        try:
            scaled, err = _theta_mellin(s, spec.nu)
            value = ground_energy(spec.L, spec.nu) ** (-s) * scaled
        except OverflowError:
            value = math.inf
        else:
            if not err <= 1e-12 * scaled:
                raise QuadratureFailure(
                    f"theta-Mellin trace error estimate {err:.3e} exceeds 1e-12 of "
                    f"{scaled:.6e} (s={s}, nu={spec.nu})")
    if not math.isfinite(value):
        raise DomainViolation(f"the trace of H^-{s} leaves the float range at L = {spec.L}")
    return value, converged
