"""Quasi-free equilibrium states of the free Bose gas on Weyl generators.

Every family is quasi-free: it assigns a Weyl generator W(f) (classical
kinds act on hbar = 0 labels, quantum kinds on hbar = h) the value

    omega(W(f)) = exp(-c B(f, f)),   B(f, g) = <f, F g> + r conj(int f) int g,

with a prefactor c, a one-particle weight F of the energy E (box modes E_n,
or p^2/2 in the continuum) and a condensate weight r.  With
x = exp(-beta h (E - mu)):

  kind                 c     F(E)                                    r
  QuantumBoxGibbs      h/4   (1+x)/(1-x) = coth(beta h (E - mu)/2)   0
  QuantumInfVol        h/4   (1+x)/(1-x)                             0
  QuantumCondensate    h/4   (1+x)/(1-x) at mu = 0                   2^{nu+1}(rho_bar - rho_c)
  ClassicalBoxGibbs    1/2   1/(beta (E - mu))                       0
  ClassicalInfVol      1/2   1/(beta (E - mu))                       0
  ClassicalCondensate  1/2   1/(beta E)                              2^nu alpha

The box kinds need mu < E_ground, the infinite-volume kinds mu <= 0
(mu = 0 only for nu >= 3), the condensates nu >= 3 and rho_bar >= rho_c
or alpha >= 0 (alpha = inf restricts the state to labels of zero mean).
As h -> 0, c F = (h/4) coth(beta h (E - mu)/2) -> 1/(2 beta (E - mu)):
each quantum row goes over to the classical row of the same family.
The quantum ground weight carries 2^{nu+1} because the two-point function
contributes 2^nu h (rho_bar - rho_c) |int f|^2 and the Weyl exponent is
half of it against the (h/4)-normalized thermal part; the h -> 0 limit is
then ClassicalCondensate with alpha = lim h (rho_bar(h) - rho_c(beta h)).

Box arguments are TestFunction objects (overlaps with certified index-tail
bounds, for omega(W(f)) only) or finite mode-coefficient mappings
{multi-index: coeff}.  Continuum arguments are TestFunction objects; the
classical kinds also pair MultiplierApplied tags.  A StateSpec is
validated, and its c and r fixed, once at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc

from . import spectrum as sp
from . import testfn as tf
from .errors import (
    ChemicalPotentialOutOfRange,
    DimensionMismatch,
    DimensionTooLow,
    DomainViolation,
    InvalidSpec,
    TailToleranceExceeded,
)

__all__ = [
    "StateSpec", "QUANTUM_KINDS", "CLASSICAL_KINDS", "ALL_KINDS",
    "validate_spec", "weyl_expectation", "two_point",
    "field_weyl_expectation", "quantum_density", "critical_density",
    "gram_matrix", "mode_sigma", "mode_norm_sq",
    "spec_to_json", "spec_from_json",
]

QUANTUM_KINDS = ("QuantumBoxGibbs", "QuantumInfVol", "QuantumCondensate")
CLASSICAL_KINDS = ("ClassicalBoxGibbs", "ClassicalInfVol", "ClassicalCondensate")
ALL_KINDS = QUANTUM_KINDS + CLASSICAL_KINDS
_BOX_KINDS = ("QuantumBoxGibbs", "ClassicalBoxGibbs")


@dataclass(frozen=True)
class StateSpec:
    kind: str
    beta: float
    h: float = 0.0
    mu: float | None = None
    rho_bar: float | None = None
    alpha: float | None = None
    box: sp.BoxSpectrum | None = None
    nu: int = 3
    # the prefactor c, the chemical potential F is taken at, and the
    # condensate weight r of the module docstring's table
    _c: float = field(init=False, repr=False, compare=False)
    _mu: float = field(init=False, repr=False, compare=False)
    _r: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = validate_spec(self)
        condensate = self.kind.endswith("Condensate")
        object.__setattr__(self, "_c", self.h / 4.0 if self.h else 0.5)
        object.__setattr__(self, "_mu", 0.0 if condensate else self.mu)
        object.__setattr__(self, "_r", r)


def validate_spec(spec: StateSpec) -> float:
    """Raise a ValidationError unless ``spec`` is a valid state; return its
    condensate weight r."""
    if spec.kind not in ALL_KINDS:
        raise InvalidSpec(f"unknown state kind {spec.kind!r}")
    for name in ("beta", "h", "mu", "rho_bar"):
        value = getattr(spec, name)
        if value is not None and not math.isfinite(value):
            raise InvalidSpec(f"{name} must be finite, got {value}")
    if spec.alpha is not None and math.isnan(spec.alpha):
        raise InvalidSpec("alpha must not be NaN")
    if spec.beta <= 0:
        raise InvalidSpec(f"beta must be positive, got {spec.beta}")
    quantum = spec.kind in QUANTUM_KINDS
    if quantum and spec.h <= 0:
        raise InvalidSpec(f"{spec.kind} requires h > 0, got {spec.h}")
    if not quantum and spec.h != 0:
        raise InvalidSpec(f"{spec.kind} is a classical family; h must be 0, got {spec.h}")

    if spec.kind in _BOX_KINDS:
        if spec.box is None:
            raise InvalidSpec(f"{spec.kind} requires a box spectrum")
        if spec.mu is None:
            raise InvalidSpec(f"{spec.kind} requires mu")
        e0 = sp.ground_energy(spec.box.L, spec.box.nu)
        if spec.mu >= e0:
            raise ChemicalPotentialOutOfRange(
                f"mu = {spec.mu} must lie below the ground energy {e0}")
        return 0.0
    if spec.kind in ("QuantumInfVol", "ClassicalInfVol"):
        if spec.mu is None:
            raise InvalidSpec(f"{spec.kind} requires mu")
        if spec.mu > 0:
            raise ChemicalPotentialOutOfRange(
                f"{spec.kind} requires mu <= 0, got {spec.mu}")
        if spec.mu == 0 and spec.nu < 3:
            raise DimensionTooLow("mu = 0 requires nu >= 3")
        return 0.0
    if spec.nu < 3:
        raise DimensionTooLow("condensate states require nu >= 3")
    if spec.kind == "QuantumCondensate":
        if spec.rho_bar is None:
            raise InvalidSpec("QuantumCondensate requires rho_bar")
        rc = critical_density(spec.beta, spec.h, spec.nu)
        if spec.rho_bar < rc * (1 - 1e-12):
            raise InvalidSpec(
                f"rho_bar = {spec.rho_bar} below critical density {rc}")
        return 2.0 ** (spec.nu + 1) * max(spec.rho_bar - rc, 0.0)
    if spec.alpha is None or spec.alpha < 0:
        raise InvalidSpec("ClassicalCondensate requires alpha >= 0")
    try:
        return math.ldexp(spec.alpha, spec.nu)
    except OverflowError:
        raise InvalidSpec(f"2^nu alpha overflows at nu = {spec.nu}") from None


# -- mode-coefficient arguments ----------------------------------------------

def mode_sigma(f: Mapping, g: Mapping) -> float:
    """Im<f, g> for mode-coefficient mappings."""
    total = 0.0 + 0.0j
    for n in set(f) | set(g):
        total += complex(f.get(n, 0.0)).conjugate() * complex(g.get(n, 0.0))
    return total.imag


def mode_norm_sq(f: Mapping) -> float:
    return float(sum(abs(complex(c)) ** 2 for c in f.values()))


def _mode_vectors(box: sp.BoxSpectrum, f: Mapping, g: Mapping):
    """Coefficient vectors of f and g on their joint support, and its energies."""
    modes = sorted(set(f) | set(g))
    for n in modes:
        if len(n) != box.nu:
            raise DimensionMismatch(f"mode {n} in a nu={box.nu} box")
    en = np.array([sp.eigenvalue(n, box.L) for n in modes])
    fv, gv = (np.array([complex(m.get(n, 0.0)) for n in modes]) for m in (f, g))
    return fv, gv, en


# -- box overlap quadratic forms ----------------------------------------------

def _axis_tail_sq_bound(center: float, sigma: float, wave: float,
                        L: float, cutoff: int) -> float:
    """Certified bound on sum_{n > cutoff} |o(n)|^2 for the axis overlap
    o(n) = int_{-L}^{L} sin(pi n (x-L)/(2L)) e^{i wave x} e^{-(x-center)^2/(2 sigma^2)} dx.

    Splits o(n) into the full-line Fourier part (Gaussian decay in the mode
    wavenumber) and the outside-the-box remainder (integration by parts,
    O(1/n) with an exponentially small constant).
    """
    delta = math.pi / (2.0 * L)
    k_next = delta * (cutoff + 1)
    amp = sigma * math.sqrt(2.0 * math.pi) / 2.0

    gauss = 0.0
    for w in (wave, -wave):
        y = k_next - w
        if y <= 0:
            return math.inf
        ratio = math.exp(-2.0 * sigma ** 2 * delta * y)
        gauss += math.exp(-sigma ** 2 * y * y) / (1.0 - ratio)
    gauss *= 4.0 * amp ** 2

    def one_sided_dg(a: float) -> float:
        # bound on int_{u > a} (|wave| + u/sigma^2) e^{-u^2/(2 sigma^2)} du
        if a < 0:
            return abs(wave) * sigma * math.sqrt(2 * math.pi) + 2.0
        return abs(wave) * sigma * math.sqrt(math.pi / 2.0) \
            * float(erfc(a / (sigma * math.sqrt(2.0)))) \
            + math.exp(-a * a / (2 * sigma ** 2))

    tau = math.exp(-(L - center) ** 2 / (2 * sigma ** 2)) \
        + math.exp(-(L + center) ** 2 / (2 * sigma ** 2)) \
        + one_sided_dg(L - center) + one_sided_dg(L + center)
    poly = 2.0 * tau ** 2 * (1.0 / delta) ** 2 / cutoff

    return gauss + poly


def _box_weight(spec: StateSpec, e, exp=np.exp):
    """F at box energies e: an ndarray, or the scalar tail energy with
    ``exp`` = math.exp."""
    if spec.h:
        x = exp(-spec.beta * spec.h * (e - spec.mu))
        return (1.0 + x) / (1.0 - x)
    return 1.0 / (spec.beta * (e - spec.mu))


def _box_quadform(f: tf.TestFunction, spec: StateSpec,
                  tail_tol: float) -> tuple[float, float]:
    """B(f, f) = sum_n |<psi_n, f>|^2 F(E_n) over [1..cutoff]^nu plus a
    certified tail bound.

    <psi_n, f> = L^{-nu/2} sum_t amp_t prod_i o_ti(n_i) with the axis
    overlaps o of ``axis_sine_overlaps``, and E_n = kappa m depends on n only
    through the shell m = |n|^2, so each term pair (s, t) contributes
    sum_m F(kappa m) S_st(m) with S_st(m) the sum over |n|^2 = m of
    prod_i conj(o_si(n_i)) o_ti(n_i) (``spectrum._shell_sums``).
    """
    box = spec.box
    if f.nu != box.nu:
        raise DimensionMismatch(f"test function nu={f.nu} on a nu={box.nu} box")
    C = box.cutoff
    L = box.L
    k = sp.kappa(L)

    # per distinct (center, sigma, wave) axis: overlap vector (length C),
    # its squared norm and the certified bound on the squared tail beyond C
    axes = {}

    def axis(center, sigma, wave):
        key = (center, sigma, wave)
        if key not in axes:
            table = tf.axis_sine_overlaps(center, sigma, wave, L, C)
            axes[key] = (table, float(np.sum(np.abs(table) ** 2)),
                         _axis_tail_sq_bound(center, sigma, wave, L, C))
        return axes[key]

    per_term = [[axis(t.center[i], t.sigma, t.wave[i]) for i in range(f.nu)]
                for t in f.terms]
    tables = [[table for table, _, _ in term] for term in per_term]

    # certified tail of the overlap-squared sum (Cauchy-Schwarz over terms);
    # F decreases in E, so its value at the lowest energy beyond the cutoff
    # shell bounds the weight of every discarded mode
    n_terms = len(f.terms)
    tail_sq = 0.0
    for t, term in zip(f.terms, per_term):
        gross = math.prod(sq + bound for _, sq, bound in term) \
            - math.prod(sq for _, sq, _ in term)
        tail_sq += abs(t.amp) ** 2 * gross
    e_tail = k * ((C + 1) ** 2 + box.nu - 1)
    tail = _box_weight(spec, e_tail, math.exp) * L ** (-box.nu) * n_terms * tail_sq
    if not math.isfinite(tail) or tail > tail_tol:
        raise TailToleranceExceeded(
            f"certified box tail {tail:.3e} exceeds tolerance {tail_tol:.3e} "
            f"at cutoff {C}")

    # B = sum_{s,t} conj(amp_s) amp_t sum_n prod_i conj(o_si(n_i)) o_ti(n_i) F(E_n);
    # F is real, so the (t, s) term is the conjugate of the (s, t) term
    pairs = [(s, t) for s in range(n_terms) for t in range(s, n_terms)]
    sums = sp._shell_sums(
        [[tables[s][i].conjugate() * tables[t][i] for i in range(box.nu)] for s, t in pairs],
        lambda m: _box_weight(spec, k * m)) if pairs else []
    total = 0.0
    for (s, t), v in zip(pairs, sums):
        term = (f.terms[s].amp.conjugate() * f.terms[t].amp * v).real
        total += term if s == t else 2.0 * term
    return L ** (-box.nu) * total, tail


# -- the covariance form B -------------------------------------------------------

def _cov_pair(mu: float, a, b, rtol: float) -> complex:
    """<a, (H - mu)^{-1} b>.  Either side may be a MultiplierApplied tag
    scale (H - shift) fn.  With P_a(H) = H - shift_a on a tagged side and
    P_a = 1 otherwise, P_a(H) P_b(H) = q(H) (H - mu) + P_a(mu) P_b(mu), so
    only the remainder P_a(mu) P_b(mu) needs the resolvent.
    """
    (u, sa, xa), (v, sb, xb) = ((t.fn, t.scale, t.shift) if isinstance(t, tf.MultiplierApplied)
                                else (t, 1.0, None) for t in (a, b))
    rem = (1.0 if xa is None else mu - xa) * (1.0 if xb is None else mu - xb)
    val = 0.0
    if rem:
        # mu = 0 (inverse H) requires nu >= 3
        val = rem * (tf.resolvent_pair(u, v, -mu, rtol=rtol) if mu < 0
                     else tf.invham_pair(u, v, rtol=rtol))
    if xa is not None and xb is not None:
        # q(H) = H + mu - shift_a - shift_b
        val += tf.ham_pair(u, v) + (mu - xa - xb) * tf.inner_product(u, v)
    elif xa is not None or xb is not None:
        val += tf.inner_product(u, v)
    return sa.conjugate() * sb * val


def _pair(spec: StateSpec, a, b, rtol: float) -> complex:
    """<a, F b>: a mode sum (box kinds), the thermal momentum form
    (quantum continuum) or the resolvent form over beta (classical)."""
    if spec.kind in _BOX_KINDS:
        if not (isinstance(a, Mapping) and isinstance(b, Mapping)):
            raise TypeError("box pair forms take mode mappings")
        av, bv, en = _mode_vectors(spec.box, a, b)
        return complex(np.sum(av.conjugate() * bv * _box_weight(spec, en)))
    for u in (a, b):
        fn = u.fn if isinstance(u, tf.MultiplierApplied) and not spec.h else u
        if not isinstance(fn, tf.TestFunction):
            raise TypeError(f"{spec.kind} expects TestFunction arguments")
        if fn.nu != spec.nu:
            raise DimensionMismatch(f"test function nu={fn.nu}, state nu={spec.nu}")
    if spec.h:
        return complex(tf.thermal_pair(a, b, spec.beta, spec.h, spec._mu, rtol=rtol))
    return _cov_pair(spec._mu, a, b, rtol) / spec.beta


def _ground(spec: StateSpec, ia: complex, ib: complex) -> complex:
    """r conj(ia) ib for the means ia, ib.  alpha = inf makes r infinite:
    means up to 1e-14 then count as zero and any larger one costs inf."""
    if math.isinf(spec._r):
        return 0.0 if max(abs(ia), abs(ib)) <= 1e-14 else math.inf
    return spec._r * ia.conjugate() * ib


def _form(spec: StateSpec, a, b, rtol: float = 1e-12) -> complex:
    """B(a, b) = <a, F b> + r conj(int a) int b."""
    val = _pair(spec, a, b, rtol)
    if spec._r:
        val += _ground(spec, tf.integral_of(a), tf.integral_of(b))
    return val


def _sigma(f, g) -> float:
    """sigma(f, g) = Im<f, g>."""
    return mode_sigma(f, g) if isinstance(f, Mapping) else tf.inner_product(f, g).imag


def weyl_expectation(spec: StateSpec, f, *, tail_tol: float = 1e-9,
                     rtol: float = 1e-12) -> float:
    """omega(W(f)) = exp(-c B(f, f)).

    ``f`` is a TestFunction (any kind) or a mode-coefficient mapping (box
    kinds).  Box TestFunction arguments carry a certified tail bound on the
    truncated exponent, checked against ``tail_tol``.
    """
    value, _ = weyl_expectation_with_tail(spec, f, tail_tol=tail_tol, rtol=rtol)
    return value


def weyl_expectation_with_tail(spec: StateSpec, f, *, tail_tol: float = 1e-9,
                               rtol: float = 1e-12) -> tuple[float, float]:
    """omega(W(f)) together with the certified bound on the truncated
    exponent (0.0 for closed-form and finite-mode evaluations)."""
    if spec.kind in _BOX_KINDS and isinstance(f, tf.TestFunction):
        expo, tail = _box_quadform(f, spec, tail_tol)
    else:
        expo, tail = _form(spec, f, f, rtol).real, 0.0
    return math.exp(-spec._c * expo), tail


def classical_shifted_expectation(spec: StateSpec, x, k, ts, *,
                                  rtol: float = 1e-12) -> np.ndarray:
    """omega(W(x + t k)) for each real t in ``ts`` (classical kinds).

    The three pieces B(x,x), Re B(x,k), B(k,k) are computed once; ``k``
    may be a MultiplierApplied tag (continuum) or a mode mapping (box).
    Used by the finite-difference weak-KMS check.
    """
    if spec.h:
        raise InvalidSpec("shifted evaluation is defined for classical kinds")
    ts = np.asarray(ts, dtype=float)
    qxx, qxk, qkk = (_form(spec, a, b, rtol).real for a, b in ((x, x), (x, k), (k, k)))
    return np.exp(-spec._c * (qxx + 2.0 * ts * qxk + ts ** 2 * qkk))


def field_weyl_expectation(spec: StateSpec, k, g, *, rtol: float = 1e-12) -> complex:
    """omega(Phi(k) W(g)) for the classical kinds: the derivative
    -i d/dt omega(W(g + t k)) at t = 0, which is i Re B(g, k) omega(W(g)).
    """
    if spec.h:
        raise InvalidSpec("field insertions are defined for classical kinds")
    return 1j * _form(spec, g, k, rtol).real * weyl_expectation(spec, g, rtol=rtol)


def two_point(spec: StateSpec, f, g) -> complex:
    """omega(Phi(f) Phi(g)) = 2c Re B(f, g) + (i h/2) sigma(f, g) on mode
    mappings (box kinds) or TestFunctions; for QuantumBoxGibbs

        (h/2) Re<f, (1+x)/(1-x) g> + (i h/2) sigma(f, g).
    """
    return 2.0 * spec._c * _form(spec, f, g).real + 0.5j * spec.h * _sigma(f, g)


# -- densities ------------------------------------------------------------------

def _sphere_area(nu: int) -> float:
    return 2.0 * math.pi ** (nu / 2.0) / math.gamma(nu / 2.0)


def _bose_integral(bh: float, mu: float, nu: int, rtol: float) -> float:
    """integral d^nu p/(2 pi)^nu 1/(e^{bh (p^2/2 - mu)} - 1) by radial quadrature."""
    if not 0.0 < bh < math.inf:
        raise DomainViolation(f"beta h = {bh} leaves the float range")

    def integrand(r):
        arg = bh * r * r / 2.0 - bh * mu
        if arg > 700.0:
            return 0.0
        return r ** (nu - 1) / np.expm1(arg)

    split = 2.0 / math.sqrt(bh)
    try:
        pref = _sphere_area(nu) / (2.0 * math.pi) ** nu
        v1, _ = quad(integrand, 0.0, split, epsabs=0.0, epsrel=rtol, limit=300)
        v2, _ = quad(integrand, split, np.inf, epsabs=0.0, epsrel=rtol, limit=300)
    except OverflowError:
        raise DomainViolation(f"the Bose integral leaves the float range at nu = {nu}") from None
    return pref * (v1 + v2)


def critical_density(beta: float, h: float, nu: int = 3, *,
                     rtol: float = 1e-12) -> float:
    """rho_c(beta, h) = integral d^nu p/(2 pi)^nu 1/(e^{beta h p^2/2} - 1),
    by radial quadrature; finite only for nu >= 3.

    Scaling: rho_c(beta, h) = h^{-nu/2} rho_c(beta, 1).
    """
    if nu < 3:
        raise DimensionTooLow(f"critical density diverges for nu = {nu} < 3")
    if not (0.0 < beta < math.inf and 0.0 < h < math.inf):
        raise DomainViolation(f"beta and h must be positive and finite, got {beta}, {h}")
    return _bose_integral(beta * h, 0.0, nu, rtol)


def quantum_density(spec: StateSpec, *, tail_tol: float = 1e-12) -> float:
    """Expected particle density of a quantum state.

    Box: |Lambda|^{-1} sum_n x_n/(1-x_n) with a certified index tail.
    Infinite volume: the radial Bose integral at fugacity e^{beta h mu}.
    Condensate: rho_bar by definition.
    """
    if spec.kind == "QuantumCondensate":
        return float(spec.rho_bar)
    if spec.kind == "QuantumBoxGibbs":
        weight, tail_bound = sp.bose_weight(spec.box, spec.beta, spec.h, spec.mu)
        vol = sp.volume(spec.box.L, spec.box.nu)
        value, _ = sp.mode_sum(weight, spec.box, tail_bound, tail_tol * vol)
        return value / vol
    if spec.kind != "QuantumInfVol":
        raise InvalidSpec("density is defined for quantum kinds")
    return _bose_integral(spec.beta * spec.h, spec.mu, spec.nu, 1e-12)


# -- Gram positivity -------------------------------------------------------------

def gram_matrix(spec: StateSpec, fs: Sequence, *, rtol: float = 1e-12) -> np.ndarray:
    """M[j, k] = omega(W(f_j)* W(f_k)) = e^{i h sigma(f_j, f_k)/2} omega(W(f_k - f_j)).

    ``fs`` is a sequence of mode mappings (box kinds) or TestFunctions
    (continuum kinds).  The m(m+1)/2 pair forms <f_j, F f_k> give
    B(f_k - f_j, f_k - f_j) = B_jj + B_kk - 2 Re B_jk, whose ground term is
    taken on the difference of the means.  The result is Hermitian positive
    semidefinite for any state; tests diagonalize it.
    """
    m = len(fs)
    pairs = {(j, k): _pair(spec, fs[j], fs[k], rtol) for j in range(m) for k in range(j, m)}
    means = [tf.integral_of(f) for f in fs] if spec._r else None
    out = np.eye(m, dtype=complex)
    for j in range(m):
        for k in range(j + 1, m):
            expo = pairs[j, j].real + pairs[k, k].real - 2.0 * pairs[j, k].real
            if spec._r:
                d = means[k] - means[j]
                expo += _ground(spec, d, d).real
            out[j, k] = np.exp(0.5j * spec.h * _sigma(fs[j], fs[k]) - spec._c * expo)
            out[k, j] = out[j, k].conjugate()
    return out


# -- JSON wire format -------------------------------------------------------------

def spec_to_json(spec: StateSpec) -> dict:
    d = {"kind": spec.kind, "beta": spec.beta, "h": spec.h, "nu": spec.nu}
    if spec.mu is not None:
        d["mu"] = spec.mu
    if spec.rho_bar is not None:
        d["rho_bar"] = spec.rho_bar
    if spec.alpha is not None:
        d["alpha"] = "inf" if math.isinf(spec.alpha) else spec.alpha
    if spec.box is not None:
        d["box"] = {"L": spec.box.L, "nu": spec.box.nu, "cutoff": spec.box.cutoff}
    return d


def spec_from_json(d: Mapping) -> StateSpec:
    """The StateSpec of a JSON object; InvalidSpec for missing keys or
    values of the wrong type."""
    if not isinstance(d, Mapping):
        raise InvalidSpec(f"a state spec is a JSON object, got {type(d).__name__}")
    try:
        box = None
        if d.get("box") is not None:
            b = d["box"]
            box = sp.BoxSpectrum(L=float(b["L"]), nu=int(b["nu"]), cutoff=int(b["cutoff"]))
        alpha = d.get("alpha")
        if isinstance(alpha, str) and alpha in ("inf", "Infinity"):
            alpha = math.inf
        fields = dict(
            kind=str(d["kind"]),
            beta=float(d["beta"]),
            h=float(d.get("h", 0.0)),
            mu=None if d.get("mu") is None else float(d["mu"]),
            rho_bar=None if d.get("rho_bar") is None else float(d["rho_bar"]),
            alpha=None if alpha is None else float(alpha),
            box=box,
            nu=int(d.get("nu", box.nu if box is not None else 3)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"malformed state spec: {exc!r}") from None
    return StateSpec(**fields)
