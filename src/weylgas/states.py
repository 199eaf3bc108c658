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
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc, zeta

from . import spectrum as sp
from . import testfn as tf
from .errors import (
    ChemicalPotentialOutOfRange,
    DimensionMismatch,
    DimensionTooLow,
    DomainViolation,
    InvalidSpec,
    QuadratureFailure,
    TailToleranceExceeded,
    ValidationError,
)

__all__ = [
    "StateSpec", "QUANTUM_KINDS", "CLASSICAL_KINDS", "ALL_KINDS",
    "validate_spec", "weyl_expectation", "two_point",
    "quantum_density", "critical_density",
    "gram_matrix", "mode_sigma", "mode_norm_sq",
    "spec_from_json",
]

QUANTUM_KINDS = ("QuantumBoxGibbs", "QuantumInfVol", "QuantumCondensate")
CLASSICAL_KINDS = ("ClassicalBoxGibbs", "ClassicalInfVol", "ClassicalCondensate")
ALL_KINDS = QUANTUM_KINDS + CLASSICAL_KINDS
_BOX_KINDS = ("QuantumBoxGibbs", "ClassicalBoxGibbs")
# relative accuracy of the radial Bose integral, and the certified tail of a
# box density
_RTOL = 1e-12
_DENSITY_TAIL_TOL = 1e-12


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
    for name in ("beta", "h", "mu", "rho_bar", "alpha"):
        value = getattr(spec, name)
        if value is None:
            continue
        try:
            # alpha = inf is a state
            bad = math.isnan(value) if name == "alpha" else not math.isfinite(value)
        except OverflowError:
            raise InvalidSpec(f"{name} is an integer beyond the float range") from None
        if bad:
            raise InvalidSpec(f"{name} must not be NaN" if name == "alpha"
                              else f"{name} must be finite, got {value}")
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
        # 1 - e^{-2 sigma^2 delta y}, which rounds to 0 before it is 0
        gap = -math.expm1(-2.0 * sigma ** 2 * delta * y)
        if gap == 0.0:
            return math.inf
        gauss += math.exp(-sigma ** 2 * y * y) / gap
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


def _box_weight(spec: StateSpec, e):
    """F at box energies e (an ndarray or a scalar).  The quantum weight is
    coth(beta h (E - mu)/2) through tanh, which keeps full relative accuracy
    near the ground energy, where (1 + x)/(1 - x) cancels in 1 - x."""
    if spec.h:
        return 1.0 / np.tanh(0.5 * spec.beta * spec.h * (e - spec.mu))
    return 1.0 / (spec.beta * (e - spec.mu))


# Box expectations repeat a test function's geometry on a box while beta, h,
# mu and the amplitudes change.  Everything that depends on the geometry and
# the box alone is kept in one entry per (term geometries, box), within this
# many bytes, least recently used dropped first.  A complex spectrum at
# sp._MAX_SHELLS shells takes 64 MiB.
_BOX_CACHE_BYTES = 1 << 26
# An entry keeps the occupied shells up to the first one beyond which every
# term-pair spectrum S holds at most this fraction of its sum_j |S(m_j)|.
_SHELL_MASS_DROP = 2.0 ** -60


class _BoxCache:
    """A least-recently-used map whose entries' byte sizes sum to at most
    ``_BOX_CACHE_BYTES``; a value larger than that is returned, not kept."""

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()  # key -> (value, nbytes)
        self._nbytes = 0
        self._lock = threading.Lock()

    def get(self, key, make: Callable[[], tuple]):
        """The value kept under ``key``, else the value of ``make()``, which
        returns (value, nbytes), kept when it fits the budget."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
        value, nbytes = make()
        with self._lock:
            if nbytes <= _BOX_CACHE_BYTES and key not in self._entries:
                self._entries[key] = (value, nbytes)
                self._nbytes += nbytes
                while self._nbytes > _BOX_CACHE_BYTES:
                    _, (_, dropped) = self._entries.popitem(last=False)
                    self._nbytes -= dropped
        return value


_box_cache = _BoxCache()


@dataclass(frozen=True)
class _BoxEntry:
    """What a box expectation needs of its terms' geometry and the box.

    ``rows`` stacks Re S_st, and Im S_st for a complex pair, over the first
    K occupied shells, for the term pairs s <= t in ``pairs`` order;
    ``energies`` holds kappa m_j (j < K), the first dropped energy E_K and
    the lowest energy beyond the cutoff.  Each of ``pairs`` is (s, t, R_st,
    complex) with R_st = sum_{j >= K} |S_st(m_j)|; ``excess`` holds each
    term's axis excess (see ``_box_quadform``).
    """
    rows: np.ndarray
    energies: np.ndarray
    pairs: tuple[tuple[int, int, float, bool], ...]
    excess: tuple[float, ...]


def _box_entry(geoms: tuple, box: sp.BoxSpectrum) -> tuple[_BoxEntry, int]:
    """The entry of the term geometries ``geoms`` ((center, sigma, wave) per
    term) on ``box``, and its byte size."""
    C, L, nu = box.cutoff, box.L, box.nu
    # refuses an oversized lattice before any axis table is built
    shells, _ = sp._shell_table(C, nu)
    axes = {}

    def axis(geom):
        """(overlap table, its squared norm, bound on its squared tail)."""
        if geom not in axes:
            table = tf.axis_sine_overlaps(*geom, L, C)
            axes[geom] = (table, float(np.sum(np.abs(table) ** 2)),
                          _axis_tail_sq_bound(*geom, L, C))
        return axes[geom]

    per_term = [[axis((c, sigma, w)) for c, w in zip(center, wave)]
                for center, sigma, wave in geoms]
    excess = tuple(sp._product_excess([(sq, bound) for _, sq, bound in term])
                   for term in per_term)
    spectra = []
    for s in range(len(geoms)):
        for t in range(s, len(geoms)):
            # the spectrum of equal geometries is real
            qs = [(a.conjugate() * b).real if geoms[s] == geoms[t] else a.conjugate() * b
                  for (a, _, _), (b, _, _) in zip(per_term[s], per_term[t])]
            spectrum = sp._shell_spectrum(qs)
            # mass[j] = sum_{i >= j} |S(m_i)|, nonincreasing
            mass = np.cumsum(np.abs(spectrum)[::-1])[::-1]
            spectra.append((s, t, spectrum, mass))
    n_kept = max((int(np.count_nonzero(mass > _SHELL_MASS_DROP * mass[0]))
                  for *_, mass in spectra), default=0)
    rows, pairs = [], []
    for s, t, spectrum, mass in spectra:
        cplx = np.iscomplexobj(spectrum)
        rows += [spectrum[:n_kept].real, spectrum[:n_kept].imag] if cplx else [spectrum[:n_kept]]
        pairs.append((s, t, float(mass[n_kept]) if n_kept < len(mass) else 0.0, cplx))
    k = sp.kappa(L)
    e_tail = k * ((C + 1) ** 2 + nu - 1)
    e_drop = k * shells[n_kept] if n_kept < len(shells) else e_tail
    energies = np.concatenate((k * shells[:n_kept], [e_drop, e_tail]))
    matrix = np.array(rows, dtype=float).reshape(len(rows), n_kept)
    for a in (matrix, energies):
        a.flags.writeable = False
    return _BoxEntry(matrix, energies, tuple(pairs), excess), matrix.nbytes + energies.nbytes


def _box_quadform(f: tf.TestFunction, spec: StateSpec,
                  tail_tol: float) -> tuple[float, float]:
    """B(f, f) = sum_n |<psi_n, f>|^2 F(E_n) over [1..cutoff]^nu plus a
    certified tail bound.

    <psi_n, f> = L^{-nu/2} sum_t amp_t prod_i o_ti(n_i) with the axis
    overlaps o of ``axis_sine_overlaps``, and E_n = kappa m depends on n only
    through the shell m = |n|^2, so B is L^{-nu} times the sum over term
    pairs s <= t of (2 - delta_st) Re(conj(amp_s) amp_t S_st @ F(kappa
    shells)), with S_st(m) the sum over |n|^2 = m of prod_i conj(o_si(n_i))
    o_ti(n_i) (``spectrum._shell_spectrum``).  The spectra depend only on
    the terms' (center, sigma, wave) and the box, and one cached
    ``_BoxEntry`` holds them over the first K occupied shells, which carry
    all but ``_SHELL_MASS_DROP`` of every pair's sum of |S_st|.  A call
    evaluates F on those K energies and does one matrix-vector product.

    The tail bound has two parts.  The shells j >= K: F is positive and
    decreasing for E > E_0 > mu, so they add at most F(E_K) L^{-nu}
    sum_{s <= t} (2 - delta_st) |amp_s| |amp_t| R_st.  The modes beyond the
    cutoff: per term, the overlap-squared sum outside the cutoff box is
    prod_i (|o_ti|^2 + b_ti) - prod_i |o_ti|^2 with b_ti the axis tail
    bounds, telescoped (``spectrum._product_excess``) so that it does not
    cancel; Cauchy-Schwarz over the terms and F at the lowest energy beyond
    the cutoff shell bound their weight.
    """
    box = spec.box
    if f.nu != box.nu:
        raise DimensionMismatch(f"test function nu={f.nu} on a nu={box.nu} box")
    geoms = tuple((t.center, t.sigma, t.wave) for t in f.terms)
    entry = _box_cache.get((geoms, box), lambda: _box_entry(geoms, box))

    weights = _box_weight(spec, entry.energies)
    sums = (entry.rows @ weights[:-2]).tolist()
    amps = [t.amp for t in f.terms]
    total = dropped = 0.0
    row = 0
    for s, t, mass, cplx in entry.pairs:
        # F is real, so the (t, s) term is the conjugate of the (s, t) term
        w = amps[s].conjugate() * amps[t] * (1.0 if s == t else 2.0)
        total += w.real * sums[row] - (w.imag * sums[row + 1] if cplx else 0.0)
        dropped += abs(w) * mass
        row += 2 if cplx else 1
    scale = box.L ** (-box.nu)
    tail_sq = sum(abs(a) ** 2 * e for a, e in zip(amps, entry.excess))
    tail = float(weights[-1] * scale * len(amps) * tail_sq + weights[-2] * scale * dropped)
    if not math.isfinite(tail) or tail > tail_tol:
        raise TailToleranceExceeded(
            f"certified box tail {tail:.3e} exceeds tolerance {tail_tol:.3e} "
            f"at cutoff {box.cutoff}")
    return scale * total, tail


# -- the covariance form B -------------------------------------------------------

def _cov_pair(mu: float, a, b) -> complex:
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
        val = rem * tf.resolvent_pair(u, v, -mu)
    if xa is not None and xb is not None:
        # q(H) = H + mu - shift_a - shift_b
        val += tf.ham_pair(u, v) + (mu - xa - xb) * tf.inner_product(u, v)
    elif xa is not None or xb is not None:
        val += tf.inner_product(u, v)
    return sa.conjugate() * sb * val


def _pair(spec: StateSpec, a, b) -> complex:
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
        return complex(tf.thermal_pair(a, b, spec.beta, spec.h, spec._mu))
    return _cov_pair(spec._mu, a, b) / spec.beta


def _ground(spec: StateSpec, ia: complex, ib: complex) -> complex:
    """r conj(ia) ib for the means ia, ib.  alpha = inf makes r infinite:
    means up to 1e-14 then count as zero and any larger one costs inf."""
    if math.isinf(spec._r):
        return 0.0 if max(abs(ia), abs(ib)) <= 1e-14 else math.inf
    return spec._r * ia.conjugate() * ib


def _form(spec: StateSpec, a, b) -> complex:
    """B(a, b) = <a, F b> + r conj(int a) int b."""
    val = _pair(spec, a, b)
    if spec._r:
        val += _ground(spec, tf.integral_of(a), tf.integral_of(b))
    return val


def _sigma(f, g) -> float:
    """sigma(f, g) = Im<f, g>."""
    return mode_sigma(f, g) if isinstance(f, Mapping) else tf.inner_product(f, g).imag


def weyl_expectation(spec: StateSpec, f, *, tail_tol: float = 1e-9) -> float:
    """omega(W(f)) = exp(-c B(f, f)).

    ``f`` is a TestFunction (any kind) or a mode-coefficient mapping (box
    kinds).  Box TestFunction arguments carry a certified tail bound on the
    truncated exponent, checked against ``tail_tol``.
    """
    value, _ = weyl_expectation_with_tail(spec, f, tail_tol=tail_tol)
    return value


def weyl_expectation_with_tail(spec: StateSpec, f, *,
                               tail_tol: float = 1e-9) -> tuple[float, float]:
    """omega(W(f)) together with the certified bound on the truncated
    exponent (0.0 for closed-form and finite-mode evaluations)."""
    if math.isnan(tail_tol):
        raise DomainViolation("tail_tol must not be NaN")
    if spec.kind in _BOX_KINDS and isinstance(f, tf.TestFunction):
        expo, tail = _box_quadform(f, spec, tail_tol)
    else:
        expo, tail = _form(spec, f, f).real, 0.0
    return math.exp(-spec._c * expo), tail


def classical_shifted_expectation(spec: StateSpec, x, k, ts) -> np.ndarray:
    """omega(W(x + t k)) for each real t in ``ts`` (classical kinds).

    The three pieces B(x,x), Re B(x,k), B(k,k) are computed once; ``k``
    may be a MultiplierApplied tag (continuum) or a mode mapping (box).
    Used by the finite-difference weak-KMS check.
    """
    if spec.h:
        raise InvalidSpec("shifted evaluation is defined for classical kinds")
    ts = np.asarray(ts, dtype=float)
    qxx, qxk, qkk = (_form(spec, a, b).real for a, b in ((x, x), (x, k), (k, k)))
    # an exponent beyond the float range at large t gives 0 (or NaN, which
    # the finite-difference check rejects)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(-spec._c * (qxx + 2.0 * ts * qxk + ts ** 2 * qkk))


def two_point(spec: StateSpec, f, g) -> complex:
    """omega(Phi(f) Phi(g)) = 2c Re B(f, g) + (i h/2) sigma(f, g) on mode
    mappings (box kinds) or TestFunctions; for QuantumBoxGibbs

        (h/2) Re<f, (1+x)/(1-x) g> + (i h/2) sigma(f, g).
    """
    return 2.0 * spec._c * _form(spec, f, g).real + 0.5j * spec.h * _sigma(f, g)


# -- densities ------------------------------------------------------------------

def _sphere_area(nu: int) -> float:
    return 2.0 * math.pi ** (nu / 2.0) / math.gamma(nu / 2.0)


def _bose_integral(bh: float, mu: float, nu: int) -> float:
    """integral d^nu p/(2 pi)^nu 1/(e^{bh (p^2/2 - mu)} - 1), radially in
    u = p sqrt(bh): (bh)^{-nu/2} |S^{nu-1}|/(2 pi)^nu times the integral of
    u^{nu-1}/(e^{u^2/2 + t} - 1), t = -bh mu, which depends on t and nu only.

    The integrand leaves its t = 0 form below u = sqrt(2t), so the range is
    cut there and [sqrt(2t), 2] runs in ln u (smooth across decades of 1/u^2
    decay at nu = 1).  DomainViolation when (bh)^{-nu/2} or the value leaves
    the float range, QuadratureFailure when quad fails.
    """
    try:
        scale = bh ** (-nu / 2.0) if bh > 0.0 else math.nan
    except OverflowError:
        scale = math.inf
    if not sys.float_info.min <= scale < math.inf:
        raise DomainViolation(f"(beta h)^(-nu/2) leaves the float range at beta h = {bh}")
    t = -bh * mu
    cut = min(math.sqrt(2.0 * t), 2.0)

    def bose(u):
        arg = u * u / 2.0 + t
        return u ** (nu - 1) * math.exp(-arg) / -math.expm1(-arg)

    parts = [(bose, 0.0, cut), (lambda y: cut * math.exp(y) * bose(cut * math.exp(y)),
                                0.0, math.log(2.0 / cut))] if cut else [(bose, 0.0, 2.0)]
    total = 0.0
    for fn, lo, hi in parts + [(bose, 2.0, math.inf)]:
        out = quad(fn, lo, hi, epsabs=0.0, epsrel=_RTOL, limit=300, full_output=1)
        if len(out) > 3 or not math.isfinite(out[0]):
            raise QuadratureFailure(
                f"the Bose integral failed at beta h mu = {-t}, nu = {nu}")
        total += out[0]
    value = _sphere_area(nu) / (2.0 * math.pi) ** nu * scale * total
    if not math.isfinite(value):
        raise DomainViolation(f"the Bose integral leaves the float range at beta h = {bh}")
    return value


def critical_density(beta: float, h: float, nu: int = 3) -> float:
    """rho_c(beta, h) = integral d^nu p/(2 pi)^nu 1/(e^{beta h p^2/2} - 1)
    = zeta(nu/2) (2 pi beta h)^{-nu/2}, finite only for nu >= 3.

    The closed form expands the Bose factor as sum_{k >= 1} e^{-k beta h p^2/2}
    and integrates each Gaussian.  DomainViolation is raised when the value
    leaves the normal float range.
    """
    if nu < 3:
        raise DimensionTooLow(f"critical density diverges for nu = {nu} < 3")
    try:
        beta, h = float(beta), float(h)
    except OverflowError:
        beta = h = math.inf
    if not (0.0 < beta < math.inf and 0.0 < h < math.inf):
        raise DomainViolation(f"beta and h must be positive and finite, got {beta}, {h}")
    try:
        value = float(zeta(nu / 2.0)) * (2.0 * math.pi * beta * h) ** (-nu / 2.0)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise DomainViolation(
            f"the critical density leaves the float range at beta h = {beta * h}, nu = {nu}")
    return value


def quantum_density(spec: StateSpec) -> float:
    """Expected particle density of a quantum state.

    Box: |Lambda|^{-1} sum_n x_n/(1-x_n) with a certified index tail.
    Infinite volume: the radial Bose integral at fugacity e^{beta h mu}.
    Condensate: rho_bar by definition.
    """
    if spec.kind == "QuantumCondensate":
        return float(spec.rho_bar)
    if spec.kind == "QuantumBoxGibbs":
        weight, tail = sp.bose_weight(spec.box, spec.beta, spec.h, spec.mu)
        vol = sp.volume(spec.box.L, spec.box.nu)
        value, _ = sp.mode_sum(weight, spec.box, tail, _DENSITY_TAIL_TOL * vol)
        return value / vol
    if spec.kind != "QuantumInfVol":
        raise InvalidSpec("density is defined for quantum kinds")
    return _bose_integral(spec.beta * spec.h, spec.mu, spec.nu)


# -- Gram positivity -------------------------------------------------------------

def gram_matrix(spec: StateSpec, fs: Sequence) -> np.ndarray:
    """M[j, k] = omega(W(f_j)* W(f_k)) = e^{i h sigma(f_j, f_k)/2} omega(W(f_k - f_j)).

    ``fs`` is a sequence of mode mappings (box kinds) or TestFunctions
    (continuum kinds).  The m(m+1)/2 pair forms <f_j, F f_k> give
    B(f_k - f_j, f_k - f_j) = B_jj + B_kk - 2 Re B_jk, whose ground term is
    taken on the difference of the means.  The result is Hermitian positive
    semidefinite for any state; tests diagonalize it.
    """
    m = len(fs)
    pairs = {(j, k): _pair(spec, fs[j], fs[k]) for j in range(m) for k in range(j, m)}
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
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"malformed state spec: {exc!r}") from None
    return StateSpec(**fields)
