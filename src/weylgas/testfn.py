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
from scipy.special import wofz

from ._quadrules import gauss_hermite, gauss_legendre
from .errors import (
    DimensionMismatch,
    DimensionTooLow,
    DomainViolation,
    InvalidSpec,
    QuadratureFailure,
)

__all__ = [
    "GaussTerm", "TestFunction", "MultiplierApplied", "gaussian",
    "fourier_transform", "inner_product", "norm_sq", "space_integral",
    "integral_of", "evaluate", "restricted_norm_sq", "axis_sine_overlaps",
    "heat_pair", "ham_pair", "resolvent_pair", "thermal_pair",
    "to_json_dict", "from_json_dict",
]

# relative accuracy of every tau- and radial quadrature and of the certified
# thermal series tail
_RTOL = 1e-12


@dataclass(frozen=True)
class GaussTerm:
    amp: complex
    center: tuple[float, ...]
    sigma: float
    wave: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(v) for v in
                   (self.amp.real, self.amp.imag, self.sigma, *self.center, *self.wave)):
            raise DomainViolation(f"Gaussian term parameters must be finite: {self}")
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
    """f(x), summed term by term.  A reference implementation: tests
    compare the Fourier transform, the norm and the JSON round trip
    against it."""
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


def _quad_complex(fn, lo, hi, *, real=False):
    # scipy's slow-convergence heuristic misfires on long exponential tails
    # (e.g. resolvent pairings at tiny spectral shift); accuracy is enforced
    # by the dual-route and oracle tests instead.  ``real`` skips the
    # imaginary part of an integrand known to be real.  Otherwise the
    # imaginary part gets an absolute tolerance from the real part's scale:
    # when it cancels to rounding noise, a relative tolerance alone would
    # drive quad to the subdivision limit.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re, _ = quad(lambda x: fn(x).real, lo, hi, epsabs=0.0, epsrel=_RTOL, limit=400)
        if real:
            return complex(re, 0.0)
        im, _ = quad(lambda x: fn(x).imag, lo, hi, epsabs=_RTOL * abs(re),
                     epsrel=_RTOL * 10, limit=400)
    return complex(re, im)


def resolvent_pair(f: TestFunction, g: TestFunction, c: float) -> complex:
    """<f, (H + c)^{-1} g> = 2 integral_0^inf e^{-2 c tau} K(tau) dtau for
    c >= 0, any nu (Schwinger representation).

    c = 0 is the inverse Hamiltonian <f, H^{-1} g>.  Its tau-integrand
    decays like tau^{-nu/2}, so the form diverges for generic f at nu <= 2
    and DimensionTooLow is raised there.
    """
    if not 0 <= c < math.inf:
        raise DomainViolation(f"resolvent shift must be finite and nonnegative, got {c}")
    if f.nu != g.nu:
        raise DimensionMismatch(f"{f.nu} vs {g.nu}")
    if c == 0 and f.nu < 3:
        raise DimensionTooLow(f"<f, H^-1 g> requires nu >= 3, got nu={f.nu}")
    split = max(1.0, 0.5 / c) if c else 1.0
    # K(tau) is real for a diagonal pair
    real = f == g

    def integrand(u):
        return np.exp(-2 * c * u) * heat_pair(f, g, u)

    return 2.0 * (_quad_complex(integrand, 0.0, split, real=real)
                  + _quad_complex(integrand, split, np.inf, real=real))


def _coth_defect(s):
    """phi(s) = coth(s/2) - 2/s, analytic at 0, -> 1 as s -> inf."""
    s = np.asarray(s, dtype=float)
    small = s < 1e-3
    safe = np.where(small, 1.0, s)
    direct = 1.0 / np.tanh(safe / 2.0) - 2.0 / safe
    series = s / 6.0 - s ** 3 / 360.0
    return np.where(small, series, direct)


def _critical_pair_correction(pref, a0, b, c_sum, nu, beta_h, *, shift=0.0):
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

        val, _ = quad(radial, 0.0, np.inf, epsabs=0.0, epsrel=_RTOL, limit=400)
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

    v1 = gh_eval(80)
    v2 = gh_eval(128)
    if not abs(v1 - v2) <= 1e-8 * max(1.0, abs(v2)):
        raise QuadratureFailure(
            f"critical thermal correction unstable under node increase: {v1} vs {v2}")
    return pref * np.exp(c_sum) * v2


def thermal_pair(f: TestFunction, g: TestFunction, beta: float, h: float,
                 mu: float) -> complex:
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
        total = (2.0 / (beta * h)) * resolvent_pair(f, g, -mu)
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
        if tail <= _RTOL * max(abs(total), 1e-300):
            break
        m0 += block
        if m0 > 2_000_000:
            raise QuadratureFailure(
                f"thermal series did not certify after {m0} terms (mu={mu}, beta*h={beta*h})")
    return complex(total)


# -- box geometry -------------------------------------------------------------

def _erf_window(t0: float, t1: float, a):
    """E(t1, a) - E(t0, a) with E(t, a) = e^{-a^2} erf(t - i a), real t, a.

    For t >= 0, E(t, a) = e^{-a^2} - e^{-t^2 + 2iat} w(a + it), and for
    t < 0, E(t, a) = -e^{-a^2} + e^{-t^2 + 2iat} w(-a - it), with w the
    Faddeeva function: its argument stays in the closed upper half-plane,
    where |w| <= 1, so nothing overflows.  The two e^{-a^2} parts are
    combined before rounding, so a window away from the Gaussian's centre
    does not cancel against them.
    """
    s0, s1 = (1.0 if t >= 0 else -1.0 for t in (t0, t1))

    def edge(t, s):
        return s * np.exp(-t * t + 2j * a * t) * wofz(s * (a + 1j * t))

    return (s1 - s0) * np.exp(-a * a) - edge(t1, s1) + edge(t0, s0)


def axis_sine_overlaps(center: float, sigma: float, wave: float, L: float,
                       nmax: int) -> np.ndarray:
    """integral_{-L}^{L} sin(pi n (x - L)/(2L)) e^{i wave x} e^{-(x-center)^2/(2 sigma^2)} dx
    for n = 1..nmax, in closed form.

    With k_n = pi n/(2L), o(n) = [e^{-i k_n L} W(wave + k_n) - e^{i k_n L} W(wave - k_n)]/(2i),
    where W(q) = integral_{-L}^{L} e^{iqx} e^{-(x-center)^2/(2 sigma^2)} dx
    = e^{iqc} sigma sqrt(pi/2) [E(t1, a) - E(t0, a)], a = q sigma/sqrt(2),
    t0,1 = (-/+L - center)/(sigma sqrt(2)) (see ``_erf_window``), and
    e^{-i k_n L} = (-i)^n exactly.
    """
    n = np.arange(1, nmax + 1)
    k = np.pi * n / (2.0 * L)
    t0, t1 = ((side * L - center) / (sigma * math.sqrt(2.0)) for side in (-1.0, 1.0))

    def window(q):
        return np.exp(1j * q * center) * sigma * math.sqrt(math.pi / 2.0) \
            * _erf_window(t0, t1, q * sigma / math.sqrt(2.0))

    quarter = np.array([1.0, -1j, -1.0, 1j])[n % 4]
    return (quarter * window(wave + k) - quarter.conjugate() * window(wave - k)) / 2j


def restricted_norm_sq(f: TestFunction, L: float) -> float:
    """|f|^2 over the box [-L, L]^nu, by per-axis Gauss-Legendre pairings.

    A reference implementation: tests compare the Parseval sum of the
    box-mode overlaps against it."""
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


def _json_numbers(value, length: int, what: str) -> tuple[float, ...]:
    if not (isinstance(value, (list, tuple)) and len(value) == length and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise InvalidSpec(f"{what} must be a list of {length} numbers, got {value!r}")
    try:
        return tuple(float(v) for v in value)
    except OverflowError:
        raise InvalidSpec(f"{what} leaves the float range") from None


def from_json_dict(d: Mapping) -> TestFunction:
    """The TestFunction of a JSON object; InvalidSpec for missing keys,
    values of the wrong type, lists of the wrong length and integers too
    large for a float."""
    if not isinstance(d, Mapping) or not isinstance(d.get("terms"), list):
        raise InvalidSpec(f"a test function is an object with a list of terms, got {d!r}")
    nu = d.get("nu")
    if not isinstance(nu, int) or isinstance(nu, bool) or nu < 1:
        raise InvalidSpec(f"nu must be a positive integer, got {nu!r}")
    terms = []
    for entry in d["terms"]:
        if not isinstance(entry, Mapping) or not {"amp", "center", "sigma", "wave"} <= entry.keys():
            raise InvalidSpec(f"a term is an object with amp, center, sigma and wave, got {entry!r}")
        re, im = _json_numbers(entry["amp"], 2, "amp")
        (sigma,) = _json_numbers([entry["sigma"]], 1, "sigma")
        terms.append(GaussTerm(complex(re, im), _json_numbers(entry["center"], nu, "center"),
                               sigma, _json_numbers(entry["wave"], nu, "wave")))
    return TestFunction(nu, tuple(terms))
