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
forms into one-dimensional integrals of K.  At nu = 3 the inverse
Hamiltonian (c = 0) integral is a Dawson function per term pair
(``_invham_pair3``); other shifts and dimensions take a tau-quadrature of
K, or below _RADIAL_SHIFT one radial quadrature per term pair.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import dawsn, erfi, ive, roots_legendre, wofz

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
        try:
            finite = all(math.isfinite(v) for v in
                         (self.amp.real, self.amp.imag, self.sigma, *self.center, *self.wave))
        except OverflowError:
            finite = False
        if not finite:
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
    try:
        amp, center, sigma = complex(amp), tuple(float(c) for c in center), float(sigma)
        wave = (0.0,) * len(center) if wave is None else tuple(float(w) for w in wave)
    except OverflowError:
        raise DomainViolation("Gaussian term parameters must be finite; an integer "
                              "leaves the float range") from None
    return TestFunction(len(center), (GaussTerm(amp, center, sigma, wave),))


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


def _axis_overlap(c1, s1, w1, c2, s2, w2) -> complex:
    """integral conj(e^{i w1 x} e^{-(x-c1)^2/(2 s1^2)}) e^{i w2 x} e^{-(x-c2)^2/(2 s2^2)} dx
    = s1 s2 sqrt(2 pi/v) exp(-(c2-c1)^2/(2v) - (w2-w1)^2 s1^2 s2^2/(2v) + i (w2-w1) m)
    with v = s1^2 + s2^2 (sqrt(v) by hypot) and m = (s2^2 c1 + s1^2 c2)/v.

    No exponent term grows with the centres, so far packets keep full
    accuracy.  An exponent with real part -inf gives 0 (its phase may be
    NaN); any other non-finite one raises QuadratureFailure.
    """
    root_v = math.hypot(s1, s2)
    r1, r2 = s1 / root_v, s2 / root_v
    dc, dw = (c2 - c1) / root_v, (w2 - w1) * s1 * r2
    expo = complex(-0.5 * (dc * dc + dw * dw), (w2 - w1) * (c1 + r1 * r1 * (c2 - c1)))
    if expo.real == -math.inf:
        return 0j
    if not cmath.isfinite(expo):
        raise QuadratureFailure("the overlap exponent leaves the float range")
    return math.sqrt(2.0 * math.pi) * s1 * r2 * cmath.exp(expo)


def inner_product(f: TestFunction, g: TestFunction) -> complex:
    """<f, g> = integral conj(f) g d^nu x, antilinear in f (closed form)."""
    if f.nu != g.nu:
        raise DimensionMismatch(f"{f.nu} vs {g.nu}")
    total = 0.0 + 0.0j
    for s in f.terms:
        for t in g.terms:
            val = s.amp.conjugate() * t.amp
            for i in range(f.nu):
                val *= _axis_overlap(s.center[i], s.sigma, s.wave[i],
                                     t.center[i], t.sigma, t.wave[i])
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
    # scipy's slow-convergence heuristic misfires on long exponential tails,
    # so its warning is silenced and nothing here checks the result.  The
    # tau-quadrature therefore serves only where the radial route agrees
    # with it: c = 0 at nu >= 4 and c >= _RADIAL_SHIFT (see resolvent_pair;
    # c = 0 at nu = 3 is closed-form).  ``real`` skips the imaginary part
    # of an integrand known to be real.  Otherwise the imaginary part gets
    # an absolute tolerance from the real part's scale: when it cancels to
    # rounding noise, a relative tolerance alone would drive quad to the
    # subdivision limit.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re, _ = quad(lambda x: fn(x).real, lo, hi, epsabs=0.0, epsrel=_RTOL, limit=400)
        if real:
            return complex(re, 0.0)
        im, _ = quad(lambda x: fn(x).imag, lo, hi, epsabs=_RTOL * abs(re),
                     epsrel=_RTOL * 10, limit=400)
    return complex(re, im)


# Below this shift resolvent_pair's first tau interval [0, 1/(2c)] is so
# long that quad's first nodes step over the peak of K near tau = 0 and it
# settles on a wrong value without a warning (seen at c = 2e-5 at nu = 4
# and 5), so the radial route serves instead.
_RADIAL_SHIFT = 5e-5


def _invham_pair3(s: GaussTerm, t: GaussTerm) -> complex:
    """<s, H^{-1} t> for two terms at nu = 3, in closed form.

    With the pair Gaussian pref exp(-a0 |p|^2 + b.p + c_sum) of
    ``_pair_params`` and q = b.b/(4 a0), the Schwinger integral
    2 integral_0^inf K(tau) dtau is 4 a0 pref (pi/a0)^{3/2} e^{c_sum} I(q)
    with I(q) = integral_0^1 e^{q w^2} dw = e^q D(x)/x = (sqrt(pi)/2)
    erfi(x)/x, x^2 = q, D the Dawson function (both ratios are even in x,
    so the branch of the root does not matter).  For Re q >= 0 this is
    4 a0 <s, t> D(x)/x with the centred overlap <s, t> (``_axis_overlap``)
    and |D(x)/x| bounded.  For Re q < 0 (centres farther apart than the
    waves reach) <s, t> underflows where D overflows, and the erfi form,
    with |I(q)| <= 1, serves; it keeps the 1/|centre distance| tail.
    4 a0 = 2 rho^2 and a0^{-1/2} = sqrt(2)/rho with rho = hypot(sigmas),
    so nothing divides by an a0 that underflows.
    """
    pref, _, b, c_sum = _pair_params(s, t, 3)
    rho = math.hypot(s.sigma, t.sigma)
    q = sum((v / rho) * (v / rho) for v in b.tolist()) / 2.0
    if q.real == -math.inf:
        # |I(q)| <= sqrt(pi/(-4 Re q)) -> 0
        return 0j
    if not cmath.isfinite(q):
        raise QuadratureFailure("the inverse-H pair exponent leaves the float range")
    x = cmath.sqrt(q)
    if q.real >= 0.0:
        overlap = s.amp.conjugate() * t.amp
        for i in range(3):
            overlap *= _axis_overlap(s.center[i], s.sigma, s.wave[i],
                                     t.center[i], t.sigma, t.wave[i])
        return 2.0 * rho * rho * overlap * (complex(dawsn(x)) / x if q else 1.0)
    return 2.0 * math.sqrt(2.0) * math.pi ** 2 / rho * pref * cmath.exp(c_sum) \
        * complex(erfi(x)) / x


def resolvent_pair(f: TestFunction, g: TestFunction, c: float) -> complex:
    """<f, (H + c)^{-1} g> = 2 integral_0^inf e^{-2 c tau} K(tau) dtau for
    c >= 0, any nu (Schwinger representation).  At nu = 3 and c = 0 it is
    the closed form of ``_invham_pair3`` summed over term pairs; for
    0 < c < _RADIAL_SHIFT it is the radial integral of the pair Gaussians
    against 1/(r^2/2 + c), cut at r = sqrt(2 c) (``_radial_pairing``); every
    other c and nu takes the tau-quadrature.

    c = 0 is the inverse Hamiltonian <f, H^{-1} g>.  Its tau-integrand
    decays like tau^{-nu/2}, so the form diverges for generic f at nu <= 2
    and DimensionTooLow is raised there.  A diagonal pair f == g gives an
    exactly real value.
    """
    if not 0 <= c < math.inf:
        raise DomainViolation(f"resolvent shift must be finite and nonnegative, got {c}")
    if f.nu != g.nu:
        raise DimensionMismatch(f"{f.nu} vs {g.nu}")
    if c == 0 and f.nu < 3:
        raise DimensionTooLow(f"<f, H^-1 g> requires nu >= 3, got nu={f.nu}")
    # K(tau) is real for a diagonal pair
    real = f == g
    if c == 0 and f.nu == 3:
        if real:
            # the (t, s) term is the conjugate of the (s, t) term
            terms = f.terms
            return complex(sum(
                _invham_pair3(s, terms[j]).real * (1.0 if i == j else 2.0)
                for i, s in enumerate(terms) for j in range(i, len(terms))), 0.0)
        return complex(sum(_invham_pair3(s, t) for s in f.terms for t in g.terms))
    if 0 < c < _RADIAL_SHIFT:
        return _radial_pairing(f, g, lambda r: 1.0 / (r * r / 2.0 + c), (math.sqrt(2.0 * c),))
    split = max(1.0, 0.5 / c) if c else 1.0

    def integrand(u):
        return np.exp(-2 * c * u) * heat_pair(f, g, u)

    return 2.0 * (_quad_complex(integrand, 0.0, split, real=real)
                  + _quad_complex(integrand, split, np.inf, real=real))


# phi(s) = sum_{n >= 1} 2 B_{2n} s^{2n-1} / (2n)!, highest power first; at
# s < 0.5 these seven terms leave 4e-16 of phi
_PHI_SERIES = (1 / 37362124800, -691 / 653837184000, 1 / 23950080, -1 / 604800,
               1 / 15120, -1 / 360, 1 / 6)


def _coth_defect(s: float) -> float:
    """phi(s) = coth(s/2) - 2/s for s >= 0, -> 1 as s -> inf.  The direct
    form loses 12 eps/s^2 to cancellation, so the series serves s < 0.5."""
    if s < 0.5:
        acc = 0.0
        for c in _PHI_SERIES:
            acc = acc * s * s + c
        return s * acc
    return 1.0 / math.tanh(s / 2.0) - 2.0 / s


def _radial_pair(pref, a0, b, c_sum, nu, weight, cuts=()) -> complex:
    """integral of the pair Gaussian times weight(|p|) d^nu p, for a radial
    weight smooth on the pieces between the points ``cuts``.

    With z^2 = b.b the angular integral of e^{r b.omega} is A(z r),
    A(x) = (2 pi)^{nu/2} x^{1 - nu/2} I_{nu/2 - 1}(x), even and entire with
    A(0) the sphere area, which leaves one radial quadrature.  A comes from
    the scaled ive (a series near 0), and Re c joins the exponent
    -a0 r^2 + Re(z) r + Re c <= 0 (Cauchy-Schwarz), so nothing overflows.
    The absolute target is _RTOL times the integral of the modulus; a quad
    failure or an error estimate above it raises QuadratureFailure.
    """
    z = cmath.sqrt(complex(np.sum(b * b)))  # Re z >= 0, off the branch cut
    order = nu / 2.0 - 1.0
    sphere = 2.0 * math.pi ** (nu / 2.0) / math.gamma(nu / 2.0)
    # A(x)/A(0) = sum_k (x^2/4)^k / (k! (nu/2)_k), highest power first; five
    # terms leave below 1e-16 of it at |x| < 0.1
    series = np.cumprod([1.0] + [1.0 / (k * (nu / 2.0 + k - 1.0)) for k in range(1, 5)])[::-1]

    def integrand(r):
        x = z * r
        if abs(x) < 0.1:
            ang = sphere * np.polyval(series, x * x / 4.0) * math.exp(-a0 * r * r + c_sum.real)
        else:
            ang = (2.0 * math.pi) ** (nu / 2.0) * x ** -order * ive(order, x) \
                * math.exp(-a0 * r * r + x.real + c_sum.real)
        return r ** (nu - 1) * ang * weight(r)

    # split at the peak of the envelope r^{nu-1} e^{-a0 r^2 + Re(z) r}
    peak = (z.real + math.sqrt(z.real ** 2 + 8.0 * a0 * (nu - 1))) / (4.0 * a0)
    edges = [0.0, *sorted({p for p in (*cuts, peak) if p > 0}), np.inf]
    pieces = list(zip(edges, edges[1:]))

    def integral(part, target, epsrel=0.0):
        outs = [quad(lambda r: part(integrand(r)), lo, hi, epsabs=target / len(pieces),
                     epsrel=epsrel, limit=400, full_output=1) for lo, hi in pieces]
        val, err = sum(o[0] for o in outs), sum(o[1] for o in outs)
        if any(len(o) > 3 for o in outs) or not err <= max(target, epsrel * abs(val)):
            raise QuadratureFailure(f"radial pairing: quad error estimate "
                                    f"{err:.3e} misses the target {target:.3e}")
        return val

    scale = integral(abs, 0.0, epsrel=1e-3)
    if scale == 0.0:
        return 0j
    re = integral(lambda v: v.real, _RTOL * scale)
    im = integral(lambda v: v.imag, _RTOL * scale)
    return pref * cmath.exp(1j * c_sum.imag) * complex(re, im)


def _radial_pairing(f: TestFunction, g: TestFunction, weight, cuts=()) -> complex:
    """integral conj(fhat) ghat weight(|p|) d^nu p/(2 pi)^nu, one radial
    quadrature per term pair (``_radial_pair``)."""
    total = 0j
    for s in f.terms:
        for t in g.terms:
            total += _radial_pair(*_pair_params(s, t, f.nu), f.nu, weight, cuts)
    return total


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
        beta_h, shift = beta * h, -beta * h * mu
        total = (2.0 / beta_h) * resolvent_pair(f, g, -mu) + _radial_pairing(
            f, g, lambda r: _coth_defect(beta_h * r * r / 2.0 + shift))
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
                x, w = roots_legendre(npts)
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
