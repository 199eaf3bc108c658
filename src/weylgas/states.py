"""Quasi-free equilibrium states of the free Bose gas on Weyl generators.

Six families, each defined by the value it assigns to a Weyl generator
W(f) (classical kinds act on hbar = 0 labels, quantum kinds on hbar = h):

  QuantumBoxGibbs      exp(-(h/4) sum_n |<psi_n,f>|^2 (1+x_n)/(1-x_n)),
                       x_n = exp(-beta h (E_n - mu)), mu < E_ground
  QuantumInfVol        exp(-(h/4) J(f)), J the thermal momentum form at
                       fugacity exp(beta h mu), mu <= 0
  QuantumCondensate    exp(-(h/4)[J_0(f) + 2^{nu+1}(rho_bar - rho_c)|int f|^2]),
                       J_0 the critical (mu = 0) form, rho_bar >= rho_c
  ClassicalBoxGibbs    exp(-(1/(2 beta)) sum_n |<psi_n,f>|^2/(E_n - mu))
  ClassicalInfVol      exp(-(1/(2 beta)) <f, (H - mu)^{-1} f>), mu <= 0
  ClassicalCondensate  exp(-(1/2)[(1/beta) <f, H^{-1} f> + 2^nu alpha |int f|^2])

Box arguments are either TestFunction objects (overlaps computed with
certified index-tail bounds) or finite mode-coefficient mappings
{multi-index: coeff}.  Continuum arguments are TestFunction objects.

The quantum condensate carries the ground term with coefficient 2^{nu+1}
inside the (h/4)-exponent: the two-point function contributes
2^nu h (rho_bar - rho_c) |int f|^2 and the Weyl exponent is half the
two-point quadratic form, which doubles the relative weight against the
(h/4)-normalized thermal part.  With this normalization the h -> 0 limit
reproduces ClassicalCondensate with alpha = lim h (rho_bar(h) - rho_c(beta h)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    InvalidIndex,
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

    @property
    def space_dim(self) -> int:
        return self.box.nu if self.box is not None else self.nu


def validate_spec(spec: StateSpec) -> None:
    if spec.kind not in ALL_KINDS:
        raise InvalidSpec(f"unknown state kind {spec.kind!r}")
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
    elif spec.kind in ("QuantumInfVol", "ClassicalInfVol"):
        if spec.mu is None:
            raise InvalidSpec(f"{spec.kind} requires mu")
        if spec.mu > 0:
            raise ChemicalPotentialOutOfRange(
                f"{spec.kind} requires mu <= 0, got {spec.mu}")
        if spec.mu == 0 and spec.nu < 3:
            raise DimensionTooLow("mu = 0 requires nu >= 3")
    elif spec.kind == "QuantumCondensate":
        if spec.nu < 3:
            raise DimensionTooLow("condensate states require nu >= 3")
        if spec.rho_bar is None:
            raise InvalidSpec("QuantumCondensate requires rho_bar")
        rc = critical_density(spec.beta, spec.h, spec.nu)
        if spec.rho_bar < rc * (1 - 1e-12):
            raise InvalidSpec(
                f"rho_bar = {spec.rho_bar} below critical density {rc}")
    elif spec.kind == "ClassicalCondensate":
        if spec.nu < 3:
            raise DimensionTooLow("condensate states require nu >= 3")
        if spec.alpha is None or (spec.alpha < 0):
            raise InvalidSpec("ClassicalCondensate requires alpha >= 0")


# -- mode-coefficient arguments ----------------------------------------------

def _mode_items(f: Mapping, nu: int):
    modes = []
    coeffs = []
    for n, c in f.items():
        n = tuple(int(v) for v in n)
        if len(n) != nu:
            raise DimensionMismatch(f"mode {n} in a nu={nu} box")
        if any(v < 1 for v in n):
            raise InvalidIndex(f"mode indices must be >= 1, got {n}")
        modes.append(n)
        coeffs.append(complex(c))
    return modes, np.asarray(coeffs, dtype=complex)


def mode_sigma(f: Mapping, g: Mapping) -> float:
    """Im<f, g> for mode-coefficient mappings."""
    total = 0.0 + 0.0j
    for n in set(f) | set(g):
        total += complex(f.get(n, 0.0)).conjugate() * complex(g.get(n, 0.0))
    return total.imag


def mode_norm_sq(f: Mapping) -> float:
    return float(sum(abs(complex(c)) ** 2 for c in f.values()))


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


def _box_quadform(f: tf.TestFunction, box: sp.BoxSpectrum, factor,
                  tail_factor_sup, tail_tol: float) -> tuple[float, float]:
    """sum_n |<psi_n, f>|^2 * factor(E_n) over [1..cutoff]^nu plus a
    certified tail bound.  ``factor`` maps an ndarray of energies to weights;
    ``tail_factor_sup`` bounds the factor beyond the cutoff shell.
    """
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

    # certified tail of the overlap-squared sum (Cauchy-Schwarz over terms)
    n_terms = len(f.terms)
    tail_sq = 0.0
    for t, term in zip(f.terms, per_term):
        gross = math.prod(sq + bound for _, sq, bound in term) \
            - math.prod(sq for _, sq, _ in term)
        tail_sq += abs(t.amp) ** 2 * gross
    tail = tail_factor_sup * L ** (-box.nu) * n_terms * tail_sq
    if not math.isfinite(tail) or tail > tail_tol:
        raise TailToleranceExceeded(
            f"certified box tail {tail:.3e} exceeds tolerance {tail_tol:.3e} "
            f"at cutoff {C}")

    # chunked accumulation of |sum_t amp_t prod_i o_i|^2 * factor(E)
    nu = box.nu
    axes_idx = np.arange(1, C + 1, dtype=float)
    block = max(1, int(2_000_000 // max(1, C ** (nu - 1))))
    total = 0.0
    for lo in range(0, C, block):
        hi = min(C, lo + block)
        ov = None
        for t, tab in zip(f.terms, tables):
            piece = t.amp * tab[0][lo:hi].reshape((-1,) + (1,) * (nu - 1))
            for i in range(1, nu):
                shape = [1] * nu
                shape[i] = -1
                piece = piece * tab[i].reshape(shape)
            ov = piece if ov is None else ov + piece
        esq = axes_idx[lo:hi].reshape((-1,) + (1,) * (nu - 1)) ** 2
        for i in range(1, nu):
            shape = [1] * nu
            shape[i] = -1
            esq = esq + (axes_idx ** 2).reshape(shape)
        total += float(np.sum(np.abs(ov) ** 2 * factor(k * esq)))
    return L ** (-box.nu) * total, tail


def _bose_ratio(x):
    return (1.0 + x) / (1.0 - x)


def _quantum_box_exponent(spec: StateSpec, f, tail_tol: float) -> tuple[float, float]:
    """sum |<psi_n,f>|^2 (1+x_n)/(1-x_n) and its tail bound."""
    box = spec.box
    bh = spec.beta * spec.h
    if isinstance(f, Mapping):
        modes, coeffs = _mode_items(f, box.nu)
        en = np.array([sp.eigenvalue(n, box.L) for n in modes])
        x = np.exp(-bh * (en - spec.mu))
        return float(np.sum(np.abs(coeffs) ** 2 * _bose_ratio(x))), 0.0
    e_tail = sp.kappa(box.L) * ((box.cutoff + 1) ** 2 + box.nu - 1)
    x_sup = math.exp(-bh * (e_tail - spec.mu))
    return _box_quadform(
        f, box,
        lambda e: _bose_ratio(np.exp(-bh * (e - spec.mu))),
        _bose_ratio(x_sup), tail_tol)


def _classical_box_exponent(spec: StateSpec, f, tail_tol: float) -> tuple[float, float]:
    """sum |<psi_n,f>|^2 / (beta (E_n - mu)) and its tail bound."""
    box = spec.box
    if isinstance(f, Mapping):
        modes, coeffs = _mode_items(f, box.nu)
        en = np.array([sp.eigenvalue(n, box.L) for n in modes])
        return float(np.sum(np.abs(coeffs) ** 2 / (spec.beta * (en - spec.mu)))), 0.0
    e_tail = sp.kappa(box.L) * ((box.cutoff + 1) ** 2 + box.nu - 1)
    return _box_quadform(
        f, box,
        lambda e: 1.0 / (spec.beta * (e - spec.mu)),
        1.0 / (spec.beta * (e_tail - spec.mu)), tail_tol)


# -- continuum quadratic forms --------------------------------------------------

def _resolvent_form(f: tf.TestFunction, g: tf.TestFunction, mu: float,
                    rtol: float) -> complex:
    """<f, (H - mu)^{-1} g> for mu <= 0 (mu = 0 requires nu >= 3)."""
    if mu < 0:
        return tf.resolvent_pair(f, g, -mu, rtol=rtol)
    return tf.invham_pair(f, g, rtol=rtol)


def _cov_pair(spec: StateSpec, a, b, rtol: float) -> complex:
    """<a, S b> with S the state's inverse-generator covariance:
    S = (H - mu)^{-1} for the infinite-volume Gibbs kinds, H^{-1} for the
    condensate kinds.  Either side may be a MultiplierApplied tag
    scale (H - shift) fn, which is reduced analytically against S.
    """
    mu = 0.0 if spec.kind.endswith("Condensate") else float(spec.mu)

    if isinstance(a, tf.TestFunction) and isinstance(b, tf.TestFunction):
        return _resolvent_form(a, b, mu, rtol)

    if isinstance(a, tf.TestFunction) and isinstance(b, tf.MultiplierApplied):
        # S scale (H - shift) f  =  scale [ f + (mu - shift) S f ]
        base = tf.inner_product(a, b.fn)
        if mu != b.shift:
            base += (mu - b.shift) * _resolvent_form(a, b.fn, mu, rtol)
        return b.scale * base

    if isinstance(a, tf.MultiplierApplied) and isinstance(b, tf.TestFunction):
        base = tf.inner_product(a.fn, b)
        if mu != a.shift:
            base += (mu - a.shift) * _resolvent_form(a.fn, b, mu, rtol)
        return a.scale.conjugate() * base

    if isinstance(a, tf.MultiplierApplied) and isinstance(b, tf.MultiplierApplied):
        # <(H-s_a) u, S (H-s_b) v> = <u, (H-s_a)(H-s_b)(H-mu)^{-1} v>
        # with (H-s_a)(H-s_b)/(H-mu) = (H-mu) + (2mu - s_a - s_b)
        #                              + (mu-s_a)(mu-s_b)/(H-mu)
        u, v = a.fn, b.fn
        val = tf.ham_pair(u, v) - mu * tf.inner_product(u, v)
        val += (2 * mu - a.shift - b.shift) * tf.inner_product(u, v)
        if mu != a.shift and mu != b.shift:
            val += (mu - a.shift) * (mu - b.shift) * _resolvent_form(u, v, mu, rtol)
        return a.scale.conjugate() * b.scale * val

    raise TypeError("covariance pairing expects TestFunction or MultiplierApplied")


def _classical_quadform_pair(spec: StateSpec, a, b, rtol: float) -> complex:
    """Q(a, b) with omega(W(u)) = exp(-Q(u, u)/2) for the classical kinds."""
    val = _cov_pair(spec, a, b, rtol) / spec.beta
    if spec.kind == "ClassicalCondensate" and spec.alpha:
        ia = tf.integral_of(a)
        ib = tf.integral_of(b)
        val += 2 ** spec.nu * spec.alpha * ia.conjugate() * ib
    return val


def weyl_expectation(spec: StateSpec, f, *, tail_tol: float = 1e-9,
                     rtol: float = 1e-12) -> float:
    """omega(W(f)) for the given family.

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
    validate_spec(spec)
    kind = spec.kind

    if kind == "QuantumBoxGibbs":
        expo, tail = _quantum_box_exponent(spec, f, tail_tol)
        return math.exp(-spec.h / 4.0 * expo), tail

    if kind == "ClassicalBoxGibbs":
        expo, tail = _classical_box_exponent(spec, f, tail_tol)
        return math.exp(-expo / 2.0), tail

    if not isinstance(f, tf.TestFunction):
        raise TypeError(f"{kind} expects a TestFunction argument")
    if f.nu != spec.nu:
        raise DimensionMismatch(f"test function nu={f.nu}, state nu={spec.nu}")

    if kind == "QuantumInfVol":
        j = tf.thermal_pair(f, f, spec.beta, spec.h, spec.mu, rtol=rtol).real
        return math.exp(-spec.h / 4.0 * j), 0.0

    if kind == "QuantumCondensate":
        j = tf.thermal_pair(f, f, spec.beta, spec.h, 0.0, rtol=rtol).real
        rc = critical_density(spec.beta, spec.h, spec.nu)
        ground = 2.0 ** (spec.nu + 1) * max(spec.rho_bar - rc, 0.0) \
            * abs(tf.space_integral(f)) ** 2
        return math.exp(-spec.h / 4.0 * (j + ground)), 0.0

    if kind == "ClassicalInfVol":
        q = _resolvent_form(f, f, spec.mu, rtol).real / spec.beta
        return math.exp(-q / 2.0), 0.0

    if kind == "ClassicalCondensate":
        if spec.alpha == math.inf:
            if abs(tf.space_integral(f)) > 1e-14:
                return 0.0, 0.0
            q = tf.invham_pair(f, f, rtol=rtol).real / spec.beta
            return math.exp(-q / 2.0), 0.0
        q = _classical_quadform_pair(spec, f, f, rtol).real
        return math.exp(-q / 2.0), 0.0

    raise InvalidSpec(f"unknown state kind {kind!r}")


def classical_shifted_expectation(spec: StateSpec, x, k, ts, *,
                                  rtol: float = 1e-12) -> np.ndarray:
    """omega(W(x + t k)) for each real t in ``ts`` (classical kinds).

    The three quadratic-form pieces Q(x,x), Re Q(x,k), Q(k,k) are computed
    once; ``k`` may be a MultiplierApplied tag (continuum) or a mode mapping
    (box).  Used by the finite-difference weak-KMS check.
    """
    validate_spec(spec)
    if spec.kind not in CLASSICAL_KINDS:
        raise InvalidSpec("shifted evaluation is defined for classical kinds")
    ts = np.asarray(ts, dtype=float)

    if spec.kind == "ClassicalBoxGibbs":
        if not isinstance(x, Mapping) or not isinstance(k, Mapping):
            raise TypeError("box shifted evaluation expects mode mappings")
        keys = sorted(set(x) | set(k))
        xv = np.array([complex(x.get(n, 0.0)) for n in keys])
        kv = np.array([complex(k.get(n, 0.0)) for n in keys])
        en = np.array([sp.eigenvalue(n, spec.box.L) for n in keys])
        w = 1.0 / (spec.beta * (en - spec.mu))
        qxx = float(np.sum(np.abs(xv) ** 2 * w))
        qxk = complex(np.sum(xv.conjugate() * kv * w))
        qkk = float(np.sum(np.abs(kv) ** 2 * w))
    else:
        qxx = _classical_quadform_pair(spec, x, x, rtol).real
        qxk = _classical_quadform_pair(spec, x, k, rtol)
        qkk = _classical_quadform_pair(spec, k, k, rtol).real

    return np.exp(-0.5 * (qxx + 2.0 * ts * qxk.real + ts ** 2 * qkk))


def field_weyl_expectation(spec: StateSpec, k, g, *, rtol: float = 1e-12) -> complex:
    """omega(Phi(k) W(g)) for the classical kinds: the derivative
    -i d/dt omega(W(g + t k)) at t = 0, evaluated in closed form.

    Equals i Re Q(g, k) omega(W(g)) with Q the state's quadratic form.
    """
    validate_spec(spec)
    if spec.kind not in CLASSICAL_KINDS:
        raise InvalidSpec("field insertions are defined for classical kinds")

    if spec.kind == "ClassicalBoxGibbs":
        if not isinstance(g, Mapping) or not isinstance(k, Mapping):
            raise TypeError("box field insertion expects mode mappings")
        keys = sorted(set(g) | set(k))
        gv = np.array([complex(g.get(n, 0.0)) for n in keys])
        kv = np.array([complex(k.get(n, 0.0)) for n in keys])
        en = np.array([sp.eigenvalue(n, spec.box.L) for n in keys])
        w = 1.0 / (spec.beta * (en - spec.mu))
        re_q = float(np.sum(gv.conjugate() * kv * w).real)
        omega = math.exp(-0.5 * float(np.sum(np.abs(gv) ** 2 * w)))
        return 1j * re_q * omega

    re_q = _classical_quadform_pair(spec, g, k, rtol).real
    omega, _ = weyl_expectation_with_tail(spec, g, rtol=rtol)
    return 1j * re_q * omega


def two_point(spec: StateSpec, f: Mapping, g: Mapping) -> complex:
    """omega(Phi(f) Phi(g)) for QuantumBoxGibbs on mode coefficients:

        (h/2) Re<f, (1+x)/(1-x) g> + (i h/2) sigma(f, g).
    """
    validate_spec(spec)
    if spec.kind != "QuantumBoxGibbs":
        raise InvalidSpec("two-point evaluation is defined for QuantumBoxGibbs")
    keys = sorted(set(f) | set(g))
    fv = np.array([complex(f.get(n, 0.0)) for n in keys])
    gv = np.array([complex(g.get(n, 0.0)) for n in keys])
    en = np.array([sp.eigenvalue(n, spec.box.L) for n in keys])
    x = np.exp(-spec.beta * spec.h * (en - spec.mu))
    pair = complex(np.sum(fv.conjugate() * gv * _bose_ratio(x)))
    sig = complex(np.sum(fv.conjugate() * gv)).imag
    return spec.h / 2.0 * pair.real + 1j * spec.h / 2.0 * sig


# -- densities ------------------------------------------------------------------

def _sphere_area(nu: int) -> float:
    return 2.0 * math.pi ** (nu / 2.0) / math.gamma(nu / 2.0)


def critical_density(beta: float, h: float, nu: int = 3, *,
                     rtol: float = 1e-12) -> float:
    """rho_c(beta, h) = integral d^nu p/(2 pi)^nu 1/(e^{beta h p^2/2} - 1),
    by radial quadrature; finite only for nu >= 3.

    Scaling: rho_c(beta, h) = h^{-nu/2} rho_c(beta, 1).
    """
    if nu < 3:
        raise DimensionTooLow(f"critical density diverges for nu = {nu} < 3")
    if beta <= 0 or h <= 0:
        raise DomainViolation("beta and h must be positive")
    bh = beta * h
    pref = _sphere_area(nu) / (2.0 * math.pi) ** nu

    def integrand(r):
        arg = bh * r * r / 2.0
        if arg > 700.0:
            return 0.0
        return r ** (nu - 1) / np.expm1(arg)

    split = 2.0 / math.sqrt(bh)
    v1, _ = quad(integrand, 0.0, split, epsabs=0.0, epsrel=rtol, limit=300)
    v2, _ = quad(integrand, split, np.inf, epsabs=0.0, epsrel=rtol, limit=300)
    return pref * (v1 + v2)


def quantum_density(spec: StateSpec, *, tail_tol: float = 1e-12) -> float:
    """Expected particle density of a quantum state.

    Box: |Lambda|^{-1} sum_n x_n/(1-x_n) with a certified index tail.
    Infinite volume: the radial Bose integral at fugacity e^{beta h mu}.
    Condensate: rho_bar by definition.
    """
    validate_spec(spec)
    if spec.kind == "QuantumCondensate":
        return float(spec.rho_bar)
    if spec.kind == "QuantumBoxGibbs":
        weight, tail_bound = sp.bose_weight(spec.box, spec.beta, spec.h, spec.mu)
        vol = sp.volume(spec.box.L, spec.box.nu)
        value, _ = sp.mode_sum(weight, spec.box, tail_bound, tail_tol * vol)
        return value / vol
    if spec.kind != "QuantumInfVol":
        raise InvalidSpec("density is defined for quantum kinds")
    bh = spec.beta * spec.h
    nu = spec.nu
    pref = _sphere_area(nu) / (2.0 * math.pi) ** nu

    def integrand(r):
        s = bh * (r * r / 2.0 - spec.mu)
        if s > 700.0:
            return 0.0
        return r ** (nu - 1) / np.expm1(s)

    if spec.mu == 0 and nu < 3:
        raise DimensionTooLow("critical infinite-volume density requires nu >= 3")
    split = 2.0 / math.sqrt(bh)
    v1, _ = quad(integrand, 0.0, split, epsabs=0.0, epsrel=1e-12, limit=300)
    v2, _ = quad(integrand, split, np.inf, epsabs=0.0, epsrel=1e-12, limit=300)
    return pref * (v1 + v2)


# -- Gram positivity -------------------------------------------------------------

def gram_matrix(spec: StateSpec, fs: Sequence, *, tail_tol: float = 1e-9,
                rtol: float = 1e-12) -> np.ndarray:
    """M[j, k] = omega(W(f_j)* W(f_k)) = e^{i h sigma(f_j, f_k)/2} omega(W(f_k - f_j)).

    ``fs`` is a sequence of mode mappings (box kinds) or TestFunctions
    (continuum kinds).  The result is Hermitian positive semidefinite for
    any state; tests diagonalize it.
    """
    validate_spec(spec)
    m = len(fs)
    out = np.zeros((m, m), dtype=complex)
    box = spec.kind in _BOX_KINDS
    for j in range(m):
        for k in range(m):
            if box and isinstance(fs[j], Mapping):
                sig = mode_sigma(fs[j], fs[k])
                diff = {n: complex(fs[k].get(n, 0.0)) - complex(fs[j].get(n, 0.0))
                        for n in set(fs[j]) | set(fs[k])}
            else:
                sig = tf.inner_product(fs[j], fs[k]).imag
                diff = fs[k] - fs[j]
            val = weyl_expectation(spec, diff, tail_tol=tail_tol, rtol=rtol)
            out[j, k] = np.exp(0.5j * spec.h * sig) * val
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
    box = None
    if d.get("box") is not None:
        b = d["box"]
        box = sp.BoxSpectrum(L=float(b["L"]), nu=int(b["nu"]), cutoff=int(b["cutoff"]))
    alpha = d.get("alpha")
    if isinstance(alpha, str):
        alpha = math.inf if alpha in ("inf", "Infinity") else float(alpha)
    spec = StateSpec(
        kind=str(d["kind"]),
        beta=float(d["beta"]),
        h=float(d.get("h", 0.0)),
        mu=None if d.get("mu") is None else float(d["mu"]),
        rho_bar=None if d.get("rho_bar") is None else float(d["rho_bar"]),
        alpha=None if alpha is None else float(alpha),
        box=box,
        nu=int(d.get("nu", box.nu if box is not None else 3)),
    )
    validate_spec(spec)
    return spec
