"""Reference values for every benchmark query, computed without weylgas.

Each oracle takes plain numbers (the same inputs the generator handed to
the library) and returns the value the library must reproduce.  None of
them calls into ``weylgas``; the formulas follow the package's documented
conventions:

* box modes ``psi_n(x) = L^{-nu/2} prod_i sin(pi n_i (x_i - L)/(2L))`` with
  energies ``kappa(L) |n|^2``, ``kappa(L) = pi^2 / (8 L^2)``;
* Gaussian terms ``amp e^{i w.x} e^{-|x - c|^2/(2 sigma^2)}`` with Fourier
  transform ``fhat(p) = int e^{-i p.x} f(x) dx`` and momentum measure
  ``d^nu p / (2 pi)^nu``.

Box overlaps use the closed form in terms of the Faddeeva function,
continuum forms a one-dimensional radial integral with the angular part
done in closed form, and the trace of ``H^{-2}`` a Jacobi-theta Mellin
integral.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import wofz, zeta

NU = 3


# -- box geometry -------------------------------------------------------------

def kappa(L: float) -> float:
    return math.pi ** 2 / (8.0 * L * L)


def _scaled_erf(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """exp(-a^2) erf(t - i a), evaluated through the Faddeeva function on
    the half-plane where it is bounded, so nothing overflows."""
    out = np.empty(np.broadcast(t, a).shape, dtype=complex)
    t = np.broadcast_to(t, out.shape)
    a = np.broadcast_to(a, out.shape)
    pos = t >= 0
    lead = np.exp(-t * t + 2j * a * t)
    out[pos] = np.exp(-a[pos] ** 2) - lead[pos] * wofz(a[pos] + 1j * t[pos])
    neg = ~pos
    out[neg] = -np.exp(-a[neg] ** 2) + lead[neg] * wofz(-a[neg] - 1j * t[neg])
    return out


def _window_fourier(q: np.ndarray, c: float, s: float, L: float) -> np.ndarray:
    """int_{-L}^{L} e^{i q x} e^{-(x - c)^2/(2 s^2)} dx for an array of q."""
    a = q * s / math.sqrt(2.0)
    t0 = (-L - c) / (s * math.sqrt(2.0))
    t1 = (L - c) / (s * math.sqrt(2.0))
    diff = _scaled_erf(np.asarray(t1), a) - _scaled_erf(np.asarray(t0), a)
    return np.exp(1j * q * c) * s * math.sqrt(math.pi / 2.0) * diff


def axis_overlaps(c: float, s: float, w: float, L: float, nmax: int) -> np.ndarray:
    """int_{-L}^{L} sin(pi n (x-L)/(2L)) e^{i w x} e^{-(x-c)^2/(2 s^2)} dx,
    n = 1..nmax, in closed form."""
    k = math.pi * np.arange(1, nmax + 1) / (2.0 * L)
    plus = np.exp(-1j * k * L) * _window_fourier(w + k, c, s, L)
    minus = np.exp(1j * k * L) * _window_fourier(w - k, c, s, L)
    return (plus - minus) / 2j


def box_quadform(terms, L: float, cutoff: int, weight) -> float:
    """sum_{n <= cutoff} |<psi_n, f>|^2 weight(E_n), chunked over n_1.

    ``terms`` is a list of (amp, center, sigma, wave) tuples and ``weight``
    maps an array of energies to weights.
    """
    tables = [(amp, [axis_overlaps(c[i], s, w[i], L, cutoff) for i in range(NU)])
              for amp, c, s, w in terms]
    n2 = np.arange(1, cutoff + 1, dtype=float) ** 2
    k = kappa(L)
    rest = n2[:, None] + n2[None, :]
    total = 0.0
    for a in range(cutoff):
        coef = sum(amp * tab[0][a] * np.outer(tab[1], tab[2]) for amp, tab in tables)
        total += float(np.sum(np.abs(coef) ** 2 * weight(k * (n2[a] + rest))))
    return total / L ** NU


def box_expectation(kind: str, terms, L: float, cutoff: int, beta: float,
                    h: float, mu: float) -> float:
    if kind == "QuantumBoxGibbs":
        bh = beta * h
        expo = box_quadform(terms, L, cutoff,
                            lambda e: 1.0 / np.tanh(bh * (e - mu) / 2.0))
        return math.exp(-h / 4.0 * expo)
    expo = box_quadform(terms, L, cutoff, lambda e: 1.0 / (beta * (e - mu)))
    return math.exp(-expo / 2.0)


def converged_cutoff(terms, L: float) -> int:
    """A cutoff past which every axis overlap is below e^-64 of its peak."""
    kmax = max(max(abs(v) for v in w) + 8.0 / s for _, _, s, w in terms)
    return max(16, int(math.ceil(2.0 * L * kmax / math.pi)) + 2)


def box_density(L: float, cutoff: int, beta: float, h: float, mu: float) -> float:
    """|Lambda|^{-1} sum_{n <= cutoff} 1/(e^{beta h (E_n - mu)} - 1)."""
    n2 = np.arange(1, cutoff + 1, dtype=float) ** 2
    e = kappa(L) * (n2[:, None, None] + n2[None, :, None] + n2[None, None, :])
    with np.errstate(over="ignore"):
        occupation = 1.0 / np.expm1(beta * h * (e - mu))
    return float(np.sum(occupation)) / (2.0 * L) ** NU


def ground_energy(L: float) -> float:
    return kappa(L) * NU


def mode_energy(n, L: float) -> float:
    return kappa(L) * sum(v * v for v in n)


def mode_expectation(kind: str, fmap: dict, L: float, beta: float, h: float,
                     mu: float) -> float:
    expo = 0.0
    for n, c in fmap.items():
        e = mode_energy(n, L)
        if kind == "QuantumBoxGibbs":
            expo += abs(c) ** 2 / math.tanh(beta * h * (e - mu) / 2.0)
        else:
            expo += abs(c) ** 2 / (beta * (e - mu))
    if kind == "QuantumBoxGibbs":
        return math.exp(-h / 4.0 * expo)
    return math.exp(-expo / 2.0)


def mode_two_point(f: dict, g: dict, L: float, beta: float, h: float,
                   mu: float) -> tuple[complex, float]:
    """(value, scale): omega(Phi(f) Phi(g)) for QuantumBoxGibbs and the sum of
    the magnitudes it is built from, which bounds its rounding error."""
    pair, scale, sig = 0.0 + 0.0j, 0.0, 0.0
    for n in set(f) | set(g):
        a, b = complex(f.get(n, 0.0)), complex(g.get(n, 0.0))
        coth = 1.0 / math.tanh(beta * h * (mode_energy(n, L) - mu) / 2.0)
        pair += a.conjugate() * b * coth
        sig += (a.conjugate() * b).imag
        scale += abs(a) * abs(b) * (coth + 1.0)
    return h / 2.0 * pair.real + 0.5j * h * sig, h / 2.0 * scale


def mode_gram(fs, L: float, beta: float, h: float, mu: float) -> np.ndarray:
    m = len(fs)
    out = np.zeros((m, m), dtype=complex)
    for j in range(m):
        for k in range(m):
            keys = set(fs[j]) | set(fs[k])
            sig = sum((complex(fs[j].get(n, 0.0)).conjugate()
                       * complex(fs[k].get(n, 0.0))).imag for n in keys)
            diff = {n: complex(fs[k].get(n, 0.0)) - complex(fs[j].get(n, 0.0))
                    for n in keys}
            val = mode_expectation("QuantumBoxGibbs", diff, L, beta, h, mu)
            out[j, k] = cmath.exp(0.5j * h * sig) * val
    return out


def trace_partial(s: float, L: float, cutoff: int) -> float:
    """sum_{n <= cutoff} E_n^{-s}."""
    n2 = np.arange(1, cutoff + 1, dtype=float) ** 2
    total = 0.0
    for a in range(cutoff):
        e = kappa(L) * (n2[a] + n2[:, None] + n2[None, :])
        total += float(np.sum(e ** (-s)))
    return total


def _theta(t: float) -> float:
    """sum_{n >= 1} e^{-t n^2}, Poisson-inverted for small t."""
    if t > 0.3:
        ns = np.arange(1, int(math.ceil(math.sqrt(745.0 / t))) + 1)
        return float(np.sum(np.exp(-t * ns * ns)))
    full = math.sqrt(math.pi / t) * sum(
        math.exp(-math.pi ** 2 * j * j / t) for j in range(-8, 9))
    return 0.5 * (full - 1.0)


@functools.cache
def _lattice_sum_r4() -> float:
    """sum over n >= 1 of |n|^-4 in three dimensions = int_0^inf t theta(t)^3 dt."""
    return quad(lambda t: t * _theta(t) ** 3, 0, np.inf, limit=400)[0]


def trace_h_minus_two(L: float) -> float:
    """sum over all n >= 1 of E_n^{-2}."""
    return _lattice_sum_r4() * kappa(L) ** -2.0


# -- continuum forms ------------------------------------------------------------

def _pair(s, t):
    """conj(fhat_s) fhat_t / (2 pi)^nu = pref exp(-a0 |p|^2 + b.p + c)."""
    amp_s, c_s, sig_s, w_s = s
    amp_t, c_t, sig_t, w_t = t
    a0 = (sig_s ** 2 + sig_t ** 2) / 2.0
    b = [sig_s ** 2 * w_s[i] + sig_t ** 2 * w_t[i] + 1j * (c_s[i] - c_t[i])
         for i in range(NU)]
    c = sum(-(sig_s ** 2 * w_s[i] ** 2 + sig_t ** 2 * w_t[i] ** 2) / 2.0
            - 1j * (w_s[i] * c_s[i] - w_t[i] * c_t[i]) for i in range(NU))
    pref = complex(amp_s).conjugate() * complex(amp_t) * (sig_s * sig_t) ** NU
    return pref, a0, b, c


def _radial_pair(s, t, radial_weight, points=()) -> complex:
    """int conj(fhat_s) fhat_t F(|p|) d^3p/(2 pi)^3 for the term pair (s, t).

    The angular integral of e^{b.p} is 4 pi sinh(z r)/(z r) with
    z^2 = b.b, which leaves one radial integral.
    """
    pref, a0, b, c = _pair(s, t)
    z = cmath.sqrt(sum(v * v for v in b))

    def integrand(r):
        zr = z * r
        if abs(zr) < 1e-2:
            x2 = zr * zr
            ang = r * r * math.exp(-a0 * r * r) * (1.0 + x2 / 6.0 + x2 * x2 / 120.0)
        else:
            ang = r * (cmath.exp(-a0 * r * r + zr) - cmath.exp(-a0 * r * r - zr)) / (2.0 * z)
        return 4.0 * math.pi * ang * radial_weight(r)

    top = (abs(z.real) + math.sqrt(z.real ** 2 + 4.0 * a0 * 80.0)) / (2.0 * a0)
    pts = [p for p in points if 0.0 < p < top] or None
    kw = dict(epsabs=0.0, epsrel=1e-13, limit=500, points=pts)
    re = quad(lambda r: integrand(r).real, 0.0, top, **kw)[0]
    im = quad(lambda r: integrand(r).imag, 0.0, top, **kw)[0]
    return pref * cmath.exp(c) * complex(re, im)


def radial_cross(a_terms, b_terms, radial_weight, points=()) -> complex:
    """int conj(ahat) bhat F(|p|) d^3p/(2 pi)^3 for two mixtures."""
    return sum(_radial_pair(s, t, radial_weight, points)
               for s in a_terms for t in b_terms)


def radial_form(terms, radial_weight, points=()) -> float:
    """Re int |fhat|^2 F(|p|) d^3p/(2 pi)^3 over a Gaussian mixture."""
    total = 0.0
    for i, s in enumerate(terms):
        for j in range(i, len(terms)):
            val = _radial_pair(s, terms[j], radial_weight, points)
            total += val.real if i == j else 2.0 * val.real
    return total


def thermal_form(terms, beta: float, h: float, mu: float) -> float:
    """J(f) = int |fhat|^2 coth(beta h (p^2/2 - mu)/2) d^3p/(2 pi)^3."""
    bh = beta * h

    def weight(r):
        return 1.0 / math.tanh(bh * (r * r / 2.0 - mu) / 2.0)

    return radial_form(terms, weight, points=(math.sqrt(2.0 * abs(mu)),))


def resolvent_form(terms, mu: float) -> float:
    """<f, (H - mu)^{-1} f>, mu <= 0."""
    return radial_form(terms, lambda r: 1.0 / (r * r / 2.0 - mu),
                       points=(math.sqrt(2.0 * abs(mu)),))


def norm_sq(terms) -> float:
    return radial_form(terms, lambda r: 1.0)


def space_integral(terms) -> complex:
    """int f dx = fhat(0)."""
    return sum(complex(amp) * s ** NU * (2 * math.pi) ** (NU / 2.0)
               * cmath.exp(1j * sum(w[i] * c[i] for i in range(NU))
                           - s * s * sum(v * v for v in w) / 2.0)
               for amp, c, s, w in terms)


def critical_density(beta: float, h: float) -> float:
    """zeta(3/2) (2 pi beta h)^{-3/2}."""
    return float(zeta(1.5, 1)) * (2.0 * math.pi * beta * h) ** -1.5


def quantum_infvol_exponent(terms, beta, h, mu) -> float:
    return h / 4.0 * thermal_form(terms, beta, h, mu)


def quantum_condensate_exponent(terms, beta, h, rho_bar) -> float:
    ground = 2.0 ** (NU + 1) * max(rho_bar - critical_density(beta, h), 0.0) \
        * abs(space_integral(terms)) ** 2
    return h / 4.0 * (thermal_form(terms, beta, h, 0.0) + ground)


def classical_infvol_exponent(terms, beta, mu) -> float:
    return resolvent_form(terms, mu) / beta / 2.0


def classical_condensate_exponent(terms, beta, alpha) -> float:
    q = resolvent_form(terms, 0.0) / beta \
        + 2.0 ** NU * alpha * abs(space_integral(terms)) ** 2
    return q / 2.0


# -- finite-dimensional layers ------------------------------------------------------

GRID = 1000  # labels lie on a 1e-3 grid, so label sums stay exact as integers
_BITS = 15     # per integer coordinate in a packed label key (|coordinate| < 2^14)


def _sigma_int(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Im <f, g> for integer label arrays of shape (..., dim, 2)."""
    return np.sum(f[..., 0] * g[..., 1] - f[..., 1] * g[..., 0], axis=-1) / GRID ** 2


def label_keys(labels: np.ndarray) -> np.ndarray:
    """Pack integer labels of shape (n, dim, 2) into one int64 key each."""
    flat = labels.reshape(len(labels), -1).astype(np.int64) + (1 << (_BITS - 1))
    keys = np.zeros(len(labels), dtype=np.int64)
    for col in flat.T:
        keys = (keys << _BITS) | col
    return keys


def merge(keys: np.ndarray, coeffs: np.ndarray):
    """Sum the coefficients of equal keys; returns (sorted unique keys, sums)."""
    uniq, inv = np.unique(keys, return_inverse=True)
    re = np.bincount(inv, weights=coeffs.real, minlength=len(uniq))
    im = np.bincount(inv, weights=coeffs.imag, minlength=len(uniq))
    return uniq, re + 1j * im


def _combine(a, b, factor):
    """sum over term pairs of factor(f, g) c_f c_g W(f + g), merged by label."""
    la, ca = a
    lb, cb = b
    f = la[:, None]
    g = lb[None, :]
    labels = (f + g).reshape((-1,) + la.shape[1:])
    coeffs = (ca[:, None] * cb[None, :] * factor(f, g)).reshape(-1)
    return merge(label_keys(labels), coeffs)


def weyl_product(a, b, h: float):
    """Weyl product of elements given as (integer labels (n, dim, 2), coeffs);
    the result is (label keys, coeffs)."""
    return _combine(a, b, lambda f, g: np.exp(-0.5j * h * _sigma_int(f, g)))


def poisson(a, b):
    return _combine(a, b, lambda f, g: _sigma_int(g, f))


def scaled_commutator(a, b, h: float):
    kab, cab = weyl_product(a, b, h)
    kba, cba = weyl_product(b, a, h)
    return merge(np.concatenate([kab, kba]), np.concatenate([cab, -cba]) / (1j * h))


def adjoint(a):
    labels, coeffs = a
    return merge(label_keys(-labels), coeffs.conj())


def single_label_residuals(f, g, h: float) -> tuple[float, float]:
    """(von Neumann, Dirac) residuals for W0(f), W0(g) in closed form; f and g
    are complex tuples."""
    nf = sum(abs(z) ** 2 for z in f)
    ng = sum(abs(z) ** 2 for z in g)
    nfg = sum(abs(u + v) ** 2 for u, v in zip(f, g))
    sig = sum((u.conjugate() * v).imag for u, v in zip(f, g))
    damp = math.exp(-h * (nf + ng) / 4.0)
    target = math.exp(-h * nfg / 4.0)
    vn = abs(damp * cmath.exp(-0.5j * h * sig) - target)
    dirac = abs(-(2.0 / h) * math.sin(h * sig / 2.0) * damp - (-sig) * target)
    return vn, dirac


def rieffel_bounds(a, h: float) -> tuple[float, float]:
    labels, coeffs = a
    nsq = np.sum(labels.astype(float) ** 2, axis=(1, 2)) / GRID ** 2
    mags = np.abs(coeffs) * np.exp(-h * nsq / 4.0)
    return math.sqrt(float(np.sum(mags ** 2))), math.fsum(mags.tolist())


def witness_norms(fnorm_sq: float, n_max: int, h: float) -> tuple[list, list]:
    """l2 norms of sum_{k<=n} k^-2 W(k f) and of its classical preimage."""
    target, pre = [], []
    acc_t = 0.0
    logs = []
    for k in range(1, n_max + 1):
        acc_t += k ** -4.0
        target.append(math.sqrt(acc_t))
        logs.append(-4.0 * math.log(k) + h * k * k * fnorm_sq / 2.0)
        top = max(logs)
        pre.append(math.exp(0.5 * top) * math.sqrt(sum(math.exp(v - top) for v in logs)))
    return target, pre


def gibbs_theta(eigenvalues, beta: float, phi) -> float:
    return math.exp(-sum(abs(p) ** 2 / lam for p, lam in zip(phi, eigenvalues))
                    / (2.0 * beta))


def gibbs_kms_moment(eigenvalues, beta: float, phi1, phi2) -> complex:
    """E[<-iH phi1, u> e^{i<phi2, u>}] = (i/beta) sigma(phi2, phi1) theta(phi2)."""
    sig = sum((complex(b).conjugate() * complex(a)).imag for a, b in zip(phi1, phi2))
    return 1j / beta * sig * gibbs_theta(eigenvalues, beta, phi2)
