"""Gaussian-mixture test functions on R^nu and their momentum-space forms.

A test function is a finite sum of terms

    t(x) = amp * exp(i wave.x) * exp(-|x - center|^2 / (2 sigma^2)),

closed under addition, scalar multiplication and (up to mixture growth) the
operations needed by the state families: Fourier transform, Hermitian inner
product, overlaps with box eigenfunctions, and quadratic forms of functions
of the free Hamiltonian H = -Laplacian/2.

Fourier convention:  fhat(p) = integral exp(-i p.x) f(x) dx, with momentum
measure d^nu p / (2 pi)^nu, so that Plancherel reads
integral |fhat|^2 d^nu p/(2 pi)^nu = |f|_2^2.

Quadratic forms of H are evaluated through the pairing

    K(tau) = integral conj(fhat) ghat exp(-tau |p|^2) d^nu p/(2 pi)^nu,

which is closed-form per term pair (each term pair contributes a single
complex Gaussian integral per axis).  1/(p^2/2 + c) = 2 * integral_0^inf
exp(-2 c tau) exp(-tau p^2) dtau turns resolvent and inverse-Hamiltonian
forms into one-dimensional integrals of K.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from ._quadrules import gauss_hermite, gauss_legendre
from .errors import (
    DimensionMismatch,
    DimensionTooLow,
    DomainViolation,
    InvalidIndex,
    QuadratureFailure,
)

__all__ = [
    "GaussTerm", "TestFunction", "MultiplierApplied", "gaussian",
    "fourier_transform", "inner_product", "norm_sq", "space_integral",
    "integral_of", "evaluate", "restricted_norm_sq",
    "box_overlap", "axis_sine_overlaps",
    "heat_pair", "ham_pair", "invham_pair", "resolvent_pair", "thermal_pair",
    "to_json_dict", "from_json_dict",
]


@dataclass(frozen=True)
class GaussTerm:
    amp: complex
    center: tuple[float, ...]
    sigma: float
    wave: tuple[float, ...]

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainViolation(f"sigma must be positive, got {self.sigma}")
        if len(self.center) != len(self.wave):
            raise DimensionMismatch("center and wave must have equal length")


@dataclass(frozen=True)
class TestFunction:
    nu: int
    terms: tuple[GaussTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if len(t.center) != self.nu:
                raise DimensionMismatch(
                    f"term of dimension {len(t.center)} in a nu={self.nu} function")

    def __add__(self, other: "TestFunction") -> "TestFunction":
        if self.nu != other.nu:
            raise DimensionMismatch(f"{self.nu} vs {other.nu}")
        return TestFunction(self.nu, self.terms + other.terms)

    def __sub__(self, other: "TestFunction") -> "TestFunction":
        return self + (-1.0) * other

    def scale(self, z: complex) -> "TestFunction":
        return TestFunction(self.nu, tuple(
            GaussTerm(complex(z) * t.amp, t.center, t.sigma, t.wave)
            for t in self.terms))

    def __rmul__(self, z) -> "TestFunction":
        if isinstance(z, (int, float, complex)):
            return self.scale(z)
        return NotImplemented


@dataclass(frozen=True)
class MultiplierApplied:
    """scale * (p^2/2 - shift) applied to ``fn`` in Fourier space.

    Kept symbolic so that covariance pairings against resolvent states can
    cancel the multiplier analytically instead of integrating a polynomial
    against a Gaussian.  Used by the weak-derivation machinery.
    """
    fn: TestFunction
    shift: float = 0.0
    scale: complex = 1.0


def gaussian(amp: complex, center: Sequence[float], sigma: float,
             wave: Sequence[float] | None = None) -> TestFunction:
    """Single-term mixture amp * e^{i wave.x} e^{-|x-center|^2/(2 sigma^2)}."""
    center = tuple(float(c) for c in center)
    if wave is None:
        wave = (0.0,) * len(center)
    wave = tuple(float(w) for w in wave)
    return TestFunction(len(center), (GaussTerm(complex(amp), center, float(sigma), wave),))


def evaluate(f: TestFunction, x: Sequence[float]) -> complex:
    x = np.asarray(x, dtype=float)
    total = 0.0 + 0.0j
    for t in f.terms:
        d = x - np.asarray(t.center)
        total += t.amp * np.exp(1j * np.dot(t.wave, x) - np.dot(d, d) / (2 * t.sigma ** 2))
    return complex(total)


def fourier_transform(f: TestFunction, p: Sequence[float]) -> complex:
    """fhat(p) = integral e^{-i p.x} f(x) dx (closed form, per term)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (f.nu,):
        raise DimensionMismatch(f"momentum of shape {p.shape} for nu={f.nu}")
    total = 0.0 + 0.0j
    for t in f.terms:
        q = p - np.asarray(t.wave)
        amp = t.amp * t.sigma ** f.nu * (2 * math.pi) ** (f.nu / 2.0)
        total += amp * np.exp(-1j * np.dot(q, t.center) - t.sigma ** 2 * np.dot(q, q) / 2)
    return complex(total)


def space_integral(f: TestFunction) -> complex:
    """integral f(x) d^nu x = fhat(0)."""
    return fourier_transform(f, np.zeros(f.nu))


def integral_of(k: TestFunction | MultiplierApplied) -> complex:
    """Space integral, transparent to a symbolic Fourier multiplier."""
    if isinstance(k, MultiplierApplied):
        # ((p^2/2 - shift) fhat)(0) = -shift * fhat(0)
        return -k.scale * k.shift * space_integral(k.fn)
    return space_integral(k)


def _axis_gauss_integral(alpha, beta, gamma):
    """integral exp(-alpha x^2 + beta x + gamma) dx, Re alpha > 0."""
    return np.sqrt(np.pi / alpha) * np.exp(beta * beta / (4.0 * alpha) + gamma)


def inner_product(f: TestFunction, g: TestFunction) -> complex:
    """<f, g> = integral conj(f) g d^nu x, antilinear in f (closed form)."""
    if f.nu != g.nu:
        raise DimensionMismatch(f"{f.nu} vs {g.nu}")
    total = 0.0 + 0.0j
    for s in f.terms:
        for t in g.terms:
            val = s.amp.conjugate() * t.amp
            for i in range(f.nu):
                a = 1.0 / (2 * s.sigma ** 2) + 1.0 / (2 * t.sigma ** 2)
                b = s.center[i] / s.sigma ** 2 + t.center[i] / t.sigma ** 2 \
                    + 1j * (t.wave[i] - s.wave[i])
                c = -s.center[i] ** 2 / (2 * s.sigma ** 2) - t.center[i] ** 2 / (2 * t.sigma ** 2)
                val *= _axis_gauss_integral(a, complex(b), c)
            total += val
    return complex(total)


def norm_sq(f: TestFunction) -> float:
    return inner_product(f, f).real


# -- term-pair momentum parameters -------------------------------------------

def _pair_params(s: GaussTerm, t: GaussTerm, nu: int):
    """Parameters of conj(fhat_s)(p) ghat_t(p) / (2 pi)^nu as a complex Gaussian.

    Returns (pref, a0, b, c_sum) such that the product equals
    pref * exp(sum_i(-a0 p_i^2 + b_i p_i) + c_sum).
    """
    a0 = (s.sigma ** 2 + t.sigma ** 2) / 2.0
    b = np.empty(nu, dtype=complex)
    c_sum = 0.0 + 0.0j
    for i in range(nu):
        b[i] = s.sigma ** 2 * s.wave[i] + t.sigma ** 2 * t.wave[i] \
            + 1j * (s.center[i] - t.center[i])
        c_sum += -(s.sigma ** 2 * s.wave[i] ** 2 + t.sigma ** 2 * t.wave[i] ** 2) / 2.0 \
            - 1j * (s.wave[i] * s.center[i] - t.wave[i] * t.center[i])
    pref = s.amp.conjugate() * t.amp * (s.sigma * t.sigma) ** nu
    return pref, a0, b, c_sum


def heat_pair(f: TestFunction, g: TestFunction, tau):
    """K(tau) = integral conj(fhat) ghat e^{-tau |p|^2} d^nu p/(2 pi)^nu.

    ``tau`` may be a scalar or an ndarray (vectorized); K(0) is the momentum
    side of Plancherel, equal to <f, g>.
    """
    if f.nu != g.nu:
        raise DimensionMismatch(f"{f.nu} vs {g.nu}")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise DomainViolation("tau must be nonnegative")
    nu = f.nu
    total = np.zeros(tau.shape, dtype=complex)
    for s in f.terms:
        for t in g.terms:
            pref, a0, b, c_sum = _pair_params(s, t, nu)
            a = a0 + tau
            total += pref * (np.pi / a) ** (nu / 2.0) \
                * np.exp(np.sum(b * b) / (4.0 * a) + c_sum)
    if total.shape == ():
        return complex(total)
    return total


def ham_pair(f: TestFunction, g: TestFunction) -> complex:
    """<f, H g> with H = -Laplacian/2, i.e. the p^2/2 multiplier (closed form)."""
    if f.nu != g.nu:
        raise DimensionMismatch(f"{f.nu} vs {g.nu}")
    nu = f.nu
    total = 0.0 + 0.0j
    for s in f.terms:
        for t in g.terms:
            pref, a0, b, c_sum = _pair_params(s, t, nu)
            k0 = pref * (np.pi / a0) ** (nu / 2.0) * np.exp(np.sum(b * b) / (4.0 * a0) + c_sum)
            # -(1/2) dK/dtau at 0
            total += 0.5 * k0 * ((nu / 2.0) / a0 + np.sum(b * b) / (4.0 * a0 ** 2))
    return complex(total)


def _quad_complex(fn, lo, hi, rtol, *, real=False):
    # scipy's slow-convergence heuristic misfires on long exponential tails
    # (e.g. resolvent pairings at tiny spectral shift); accuracy is enforced
    # by the dual-route and oracle tests instead.  ``real`` skips the
    # imaginary part of an integrand known to be real: its rounding noise
    # would otherwise drive quad to the subdivision limit.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re, _ = quad(lambda x: fn(x).real, lo, hi, epsabs=0.0, epsrel=rtol, limit=400)
        if real:
            return complex(re, 0.0)
        im, _ = quad(lambda x: fn(x).imag, lo, hi, epsabs=0.0, epsrel=rtol * 10, limit=400)
    return complex(re, im)


def invham_pair(f: TestFunction, g: TestFunction, *, rtol: float = 1e-12) -> complex:
    """<f, H^{-1} g> = 2 integral_0^inf K(tau) dtau; requires nu >= 3.

    For nu <= 2 the tau-integrand decays like tau^{-nu/2} and the form
    diverges for generic f; DimensionTooLow is raised.
    """
    if f.nu != g.nu:
        raise DimensionMismatch(f"{f.nu} vs {g.nu}")
    if f.nu < 3:
        raise DimensionTooLow(f"<f, H^-1 g> requires nu >= 3, got nu={f.nu}")
    # K(tau) is real for a diagonal pair
    real = f == g
    val = _quad_complex(lambda u: heat_pair(f, g, u), 0.0, 1.0, rtol, real=real)
    val += _quad_complex(lambda u: heat_pair(f, g, u), 1.0, np.inf, rtol, real=real)
    return 2.0 * val


def resolvent_pair(f: TestFunction, g: TestFunction, c: float, *,
                   rtol: float = 1e-12) -> complex:
    """<f, (H + c)^{-1} g> for c > 0, any nu  (Schwinger representation)."""
    if c <= 0:
        raise DomainViolation(f"resolvent shift must be positive, got {c}")
    if f.nu != g.nu:
        raise DimensionMismatch(f"{f.nu} vs {g.nu}")
    split = max(1.0, 1.0 / (2 * c))
    real = f == g
    val = _quad_complex(lambda u: np.exp(-2 * c * u) * heat_pair(f, g, u), 0.0, split,
                        rtol, real=real)
    val += _quad_complex(lambda u: np.exp(-2 * c * u) * heat_pair(f, g, u), split, np.inf,
                         rtol, real=real)
    return 2.0 * val


def _coth_defect(s):
    """phi(s) = coth(s/2) - 2/s, analytic at 0, -> 1 as s -> inf."""
    s = np.asarray(s, dtype=float)
    small = s < 1e-3
    safe = np.where(small, 1.0, s)
    direct = 1.0 / np.tanh(safe / 2.0) - 2.0 / safe
    series = s / 6.0 - s ** 3 / 360.0
    return np.where(small, series, direct)


def _critical_pair_correction(pref, a0, b, c_sum, nu, beta_h, *, shift=0.0,
                              nodes=80, tol=1e-10):
    """integral of the pair Gaussian times phi(beta_h |p|^2 / 2 + shift).

    Radial shortcut when the pair carries no linear momentum term; otherwise
    a tensor Gauss-Hermite rule scaled to the Gaussian width, with a
    node-increase self-check.
    """
    if np.max(np.abs(b)) == 0.0:
        surf = 2.0 * np.pi ** (nu / 2.0) / math.gamma(nu / 2.0)

        def radial(r):
            return r ** (nu - 1) * np.exp(-a0 * r * r) \
                * _coth_defect(beta_h * r * r / 2.0 + shift)

        val, _ = quad(radial, 0.0, np.inf, epsabs=0.0, epsrel=tol * 1e-2, limit=400)
        return pref * np.exp(c_sum) * surf * val

    def gh_eval(n):
        x, w = gauss_hermite(n)
        # per-axis transform p = m + x / sqrt(a0): residual factor is a pure
        # oscillation exp(i Im(b) x / sqrt(a0)) times a constant
        axis_vals = []
        axis_pts = []
        for i in range(nu):
            m = b[i].real / (2.0 * a0)
            const = -a0 * m * m + b[i] * m
            osc = 1j * b[i].imag / math.sqrt(a0)
            axis_vals.append(w * np.exp(const + osc * x))
            axis_pts.append(m + x / math.sqrt(a0))
        grids = np.meshgrid(*axis_pts, indexing="ij")
        ssq = sum(g * g for g in grids)
        phi = _coth_defect(beta_h * ssq / 2.0 + shift)
        wgt = np.ones_like(phi, dtype=complex)
        for i in range(nu):
            shape = [1] * nu
            shape[i] = -1
            wgt = wgt * axis_vals[i].reshape(shape)
        return a0 ** (-nu / 2.0) * np.sum(wgt * phi)

    v1 = gh_eval(nodes)
    v2 = gh_eval(int(nodes * 1.6))
    if abs(v1 - v2) > 1e-8 * max(1.0, abs(v2)):
        raise QuadratureFailure(
            f"critical thermal correction unstable under node increase: {v1} vs {v2}")
    return pref * np.exp(c_sum) * v2


def thermal_pair(f: TestFunction, g: TestFunction, beta: float, h: float,
                 mu: float, *, rtol: float = 1e-12) -> complex:
    """J = integral conj(fhat) ghat (1 + x)/(1 - x) d^nu p/(2 pi)^nu with
    x = exp(beta h (mu - p^2/2)).

    mu < 0: geometric expansion (1+x)/(1-x) = 1 + 2 sum_m x^m, each term a
    closed-form heat pairing, truncated under a certified geometric tail;
    when |mu| beta h is too small for the series to certify quickly, the
    coth split below is used with its argument shifted by -beta h mu.
    mu == 0: split against coth, J = (2/(beta h)) <f, H^{-1} g> + correction,
    the correction integrand being analytic and bounded (requires nu >= 3).
    """
    if mu > 0:
        raise DomainViolation("thermal pairing requires mu <= 0")
    if beta <= 0 or h <= 0:
        raise DomainViolation("beta and h must be positive")
    if f.nu != g.nu:
        raise DimensionMismatch(f"{f.nu} vs {g.nu}")
    nu = f.nu

    if mu == 0.0 or beta * h * abs(mu) < 2e-3:
        if mu == 0.0:
            if nu < 3:
                raise DimensionTooLow("critical thermal form requires nu >= 3")
            total = (2.0 / (beta * h)) * invham_pair(f, g, rtol=rtol)
        else:
            total = (2.0 / (beta * h)) * resolvent_pair(f, g, -mu, rtol=rtol)
        for s in f.terms:
            for t in g.terms:
                pref, a0, b, c_sum = _pair_params(s, t, nu)
                total += _critical_pair_correction(
                    pref, a0, b, c_sum, nu, beta * h, shift=-beta * h * mu)
        return complex(total)

    total = complex(heat_pair(f, g, 0.0))
    log_z = beta * h * mu  # negative; z never formed on its own
    z = math.exp(log_z)
    block = 256
    m0 = 1
    while True:
        m = np.arange(m0, m0 + block)
        taus = m * (beta * h) / 2.0
        contrib = 2.0 * np.sum(np.exp(m * log_z) * heat_pair(f, g, taus))
        total += contrib
        # decreasing envelope of |K| times the geometric remainder
        env = 0.0
        for s in f.terms:
            for t in g.terms:
                pref, a0, b, c_sum = _pair_params(s, t, nu)
                a = a0 + taus[-1]
                env += abs(pref) * (math.pi / a) ** (nu / 2.0) \
                    * math.exp(max(0.0, float(np.sum(b * b).real)) / (4.0 * a) + c_sum.real)
        tail = 2.0 * env * z ** (m0 + block) / (1.0 - z)
        if tail <= rtol * max(abs(total), 1e-300):
            break
        m0 += block
        if m0 > 2_000_000:
            raise QuadratureFailure(
                f"thermal series did not certify after {m0} terms (mu={mu}, beta*h={beta*h})")
    return complex(total)


# -- box geometry -------------------------------------------------------------

def axis_sine_overlaps(center: float, sigma: float, wave: float, L: float,
                       nmax: int, *, rtol: float = 1e-11) -> np.ndarray:
    """integral_{-L}^{L} sin(pi n (x - L)/(2L)) e^{i wave x} e^{-(x-center)^2/(2 sigma^2)} dx
    for n = 1..nmax, by Gauss-Legendre on the effective support, with a
    node-doubling self-check.
    """
    lo = max(-L, center - 10.0 * sigma)
    hi = min(L, center + 10.0 * sigma)
    if lo >= hi:
        return np.zeros(nmax, dtype=complex)
    # resolve the fastest sine, the wave oscillation, and the Gaussian width
    cycles = nmax * (hi - lo) / (4.0 * L) + abs(wave) * (hi - lo) / (2 * math.pi)
    nodes = int(max(64, 7 * cycles + 10 * (hi - lo) / sigma + 32))

    def run(npts):
        x, w = gauss_legendre(npts)
        x = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * w
        g = np.exp(1j * wave * x - (x - center) ** 2 / (2 * sigma ** 2))
        n = np.arange(1, nmax + 1)
        phases = np.sin(np.pi * np.outer(n, x - L) / (2.0 * L))
        return phases @ (w * g)

    v1 = run(nodes)
    v2 = run(2 * nodes)
    scale = max(float(np.max(np.abs(v2))), 1e-30)
    if float(np.max(np.abs(v1 - v2))) > max(rtol * scale, 1e-14):
        raise QuadratureFailure(
            f"axis overlap table did not stabilize under node doubling (n<={nmax}, L={L})")
    return v2


def box_overlap(f: TestFunction, n: Sequence[int], L: float, *,
                rtol: float = 1e-11) -> complex:
    """<psi_n, f> for the orthonormal Dirichlet eigenfunction

        psi_n(x) = L^{-nu/2} prod_i sin(pi n_i (x_i - L)/(2L))

    on the box [-L, L]^nu.  Mode indices must be >= 1 componentwise.
    """
    n = tuple(int(v) for v in n)
    if len(n) != f.nu:
        raise DimensionMismatch(f"mode of length {len(n)} for nu={f.nu}")
    if any(v < 1 for v in n):
        raise InvalidIndex(f"mode indices must be >= 1, got {n}")
    if L <= 0:
        raise DomainViolation("L must be positive")
    total = 0.0 + 0.0j
    for t in f.terms:
        val = t.amp
        for i in range(f.nu):
            table = axis_sine_overlaps(t.center[i], t.sigma, t.wave[i], L, n[i], rtol=rtol)
            val *= table[n[i] - 1]
        total += val
    return complex(total * L ** (-f.nu / 2.0))


def restricted_norm_sq(f: TestFunction, L: float) -> float:
    """|f|^2 over the box [-L, L]^nu, by per-axis Gauss-Legendre pairings."""
    total = 0.0 + 0.0j
    for s in f.terms:
        for t in f.terms:
            val = s.amp.conjugate() * t.amp
            for i in range(f.nu):
                lo = max(-L, max(s.center[i] - 10 * s.sigma, t.center[i] - 10 * t.sigma))
                hi = min(L, min(s.center[i] + 10 * s.sigma, t.center[i] + 10 * t.sigma))
                if lo >= hi:
                    val = 0.0
                    break
                width = hi - lo
                cyc = abs(t.wave[i] - s.wave[i]) * width / (2 * math.pi)
                npts = int(max(96, 7 * cyc + 12 * width / min(s.sigma, t.sigma) + 48))
                x, w = gauss_legendre(npts)
                x = 0.5 * width * x + 0.5 * (hi + lo)
                w = 0.5 * width * w
                vals = np.exp(
                    -(x - s.center[i]) ** 2 / (2 * s.sigma ** 2)
                    - (x - t.center[i]) ** 2 / (2 * t.sigma ** 2)
                    + 1j * (t.wave[i] - s.wave[i]) * x)
                val *= np.sum(w * vals)
            total += val
    return float(total.real)


# -- JSON wire format ---------------------------------------------------------

def to_json_dict(f: TestFunction) -> dict:
    return {
        "nu": f.nu,
        "terms": [
            {"amp": [t.amp.real, t.amp.imag],
             "center": list(t.center),
             "sigma": t.sigma,
             "wave": list(t.wave)}
            for t in f.terms
        ],
    }


def from_json_dict(d: Mapping) -> TestFunction:
    nu = int(d["nu"])
    terms = []
    for entry in d["terms"]:
        amp = complex(entry["amp"][0], entry["amp"][1])
        terms.append(GaussTerm(amp, tuple(float(c) for c in entry["center"]),
                               float(entry["sigma"]),
                               tuple(float(w) for w in entry["wave"])))
    return TestFunction(nu, tuple(terms))
