"""Weyl *-algebra over a finite-dimensional complex label space.

Elements are finite linear combinations of generators ``W(f)`` labelled by
vectors ``f`` in C^d.  The product follows the Weyl relation

    W(f) W(g) = exp(-i*hbar*sigma(f, g)/2) W(f + g),

with ``sigma(f, g) = Im<f, g>`` the imaginary part of the Hermitian inner
product (antilinear in the first slot), ``W(f)* = W(-f)`` and ``W(0) = 1``.
At ``hbar == 0`` the algebra is commutative and carries the Poisson bracket

    {W(f), W(g)} = sigma(g, f) W(f + g).

Labels are merged on one canonical grid: a coordinate x with
|x| < 2**52 * 1e-12 becomes rint(x * 1e12) / 1e12, a larger one stays as it
is, and the rounded labels compare exactly as dict keys, so -0.0 and 0.0
are one key.  Coefficients below 1e-15 in magnitude are pruned after
arithmetic.

The product, the Poisson bracket and the scaled commutator run through one
kernel, ``_combine``.  For every term pair it forms the label sum f + g and
sigma(f, g), multiplies c_f c_g by a factor of sigma (the twist
exp(-i*hbar*sigma/2), the bracket weight sigma(g, f) = -sigma(f, g), or the
commutator weight -(2/hbar) sin(hbar*sigma/2)), rounds the sums and merges
them in pair order in one dict pass.  The kernel works on numpy arrays.
Below ``_SMALL_PAIRS`` term pairs a plain loop does the same arithmetic
instead: the fixed cost of the array calls, about 0.06 ms, would otherwise
dominate the single-label products that the quantization residuals are
built from.  Both paths round and multiply in the same order, so a result
does not depend on the path that computed it.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DomainViolation,
    InvalidSpec,
    MismatchedDimension,
    MismatchedHbar,
    NegativeHbar,
    NonzeroHbar,
    ZeroHbar,
)

COEFF_PRUNE = 1e-15
_GRID = 1e12
_GRID_LIMIT = 2.0 ** 52 / _GRID  # above it x * 1e12 is already an integer
# Term pairs below which _combine loops in Python: the two paths cross at
# about 0.07 ms and 18 pairs (dimension 2, numpy 2.4, 2 vCPU x86-64).
_SMALL_PAIRS = 18


def _canon(x: float) -> float:
    """The canonical grid value of one coordinate (the sign of zero kept)."""
    if abs(x) < _GRID_LIMIT:
        return math.copysign(round(x * _GRID) / _GRID, x)
    return x


def _canon_array(x: np.ndarray) -> np.ndarray:
    """``_canon`` of every entry of a float array."""
    small = np.abs(x) < _GRID_LIMIT
    return np.where(small, np.rint(np.where(small, x, 0.0) * _GRID) / _GRID, x)


def _canon_label(coords: Iterable[complex]) -> tuple[complex, ...]:
    """Round each coordinate to the merge grid so equal labels compare equal."""
    out = []
    for z in coords:
        z = complex(z)
        out.append(complex(_canon(z.real), _canon(z.imag)))
    return tuple(out)


def herm_inner(f: Iterable[complex], g: Iterable[complex]) -> complex:
    """Hermitian inner product <f, g>, antilinear in the first argument."""
    f = tuple(f)
    g = tuple(g)
    if len(f) != len(g):
        raise MismatchedDimension(f"labels of length {len(f)} and {len(g)}")
    return sum(z.conjugate() * w for z, w in zip(f, g))


def sigma(f: Iterable[complex], g: Iterable[complex]) -> float:
    """Symplectic form sigma(f, g) = Im<f, g>."""
    return herm_inner(f, g).imag


def label_norm_sq(f: Iterable[complex]) -> float:
    return sum(abs(z) ** 2 for z in f)


class WeylElement:
    """Finite combination sum_f c_f W(f) at a fixed deformation parameter.

    ``terms`` maps canonical labels (tuples of complex) to complex
    coefficients, all finite (DomainViolation otherwise).  Instances are
    immutable by convention; arithmetic returns new elements.
    """

    __slots__ = ("hbar", "dim", "terms")

    def __init__(self, hbar: float, dim: int, terms: Mapping[tuple[complex, ...], complex]):
        if hbar < 0:
            raise NegativeHbar(f"hbar = {hbar}")
        if not math.isfinite(hbar):
            raise DomainViolation(f"hbar must be finite, got {hbar}")
        self.hbar = float(hbar)
        self.dim = int(dim)
        clean: dict[tuple[complex, ...], complex] = {}
        for label, coeff in terms.items():
            if len(label) != dim:
                raise MismatchedDimension(
                    f"label of length {len(label)} in a dimension-{dim} element")
            coeff = complex(coeff)
            if not (cmath.isfinite(coeff) and all(map(cmath.isfinite, label))):
                raise DomainViolation(
                    f"label coordinates and coefficients must be finite: {label}, {coeff}")
            try:
                keep = abs(coeff) >= COEFF_PRUNE
            except OverflowError:  # finite parts, modulus beyond the float range
                keep = True
            if keep:
                clean[label] = coeff
        self.terms = clean

    @classmethod
    def _merged(cls, hbar: float, dim: int, labels: Iterable[tuple[complex, ...]],
                coeffs: Iterable[complex]) -> "WeylElement":
        """Sum the coefficients of equal canonical labels in the order given
        and prune small sums; the labels must already have length ``dim``."""
        terms: dict[tuple[complex, ...], complex] = {}
        get = terms.get
        for label, c in zip(labels, coeffs):
            terms[label] = get(label, 0.0) + c
        out = cls.__new__(cls)
        out.hbar, out.dim = hbar, dim
        try:
            out.terms = {l: c for l, c in terms.items() if abs(c) >= COEFF_PRUNE}
        except OverflowError:  # finite parts, modulus beyond the float range
            out.terms = {l: c for l, c in terms.items()
                         if math.hypot(c.real, c.imag) >= COEFF_PRUNE}
        return out

    # -- construction -----------------------------------------------------

    @classmethod
    def generator(cls, coords: Iterable[complex], hbar: float = 0.0,
                  coeff: complex = 1.0) -> "WeylElement":
        label = _canon_label(coords)
        return cls(hbar, len(label), {label: complex(coeff)})

    @classmethod
    def unit(cls, dim: int, hbar: float = 0.0) -> "WeylElement":
        return cls(hbar, dim, {_canon_label([0.0] * dim): 1.0})

    @classmethod
    def zero(cls, dim: int, hbar: float = 0.0) -> "WeylElement":
        return cls(hbar, dim, {})

    # -- bookkeeping --------------------------------------------------------

    def _check_compatible(self, other: "WeylElement") -> None:
        if not isinstance(other, WeylElement):
            raise TypeError(f"expected WeylElement, got {type(other).__name__}")
        if self.hbar != other.hbar:
            raise MismatchedHbar(f"{self.hbar} vs {other.hbar}")
        if self.dim != other.dim:
            raise MismatchedDimension(f"{self.dim} vs {other.dim}")

    def coefficient(self, coords: Iterable[complex]) -> complex:
        return self.terms.get(_canon_label(coords), 0.0 + 0.0j)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        n = len(self.terms)
        return f"WeylElement(hbar={self.hbar}, dim={self.dim}, {n} term{'s' if n != 1 else ''})"

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "WeylElement") -> "WeylElement":
        self._check_compatible(other)
        terms = dict(self.terms)
        for label, c in other.terms.items():
            terms[label] = terms.get(label, 0.0) + c
        return WeylElement(self.hbar, self.dim, terms)

    def __neg__(self) -> "WeylElement":
        return WeylElement(self.hbar, self.dim,
                           {l: -c for l, c in self.terms.items()})

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def scale(self, z: complex) -> "WeylElement":
        z = complex(z)
        return WeylElement(self.hbar, self.dim,
                           {l: z * c for l, c in self.terms.items()})

    def __rmul__(self, z) -> "WeylElement":
        if isinstance(z, (int, float, complex)):
            return self.scale(z)
        return NotImplemented

    # -- *-algebra ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return multiply(self, other)

    def adjoint(self) -> "WeylElement":
        return adjoint(self)


def weyl(coords: Iterable[complex], hbar: float = 0.0, coeff: complex = 1.0) -> WeylElement:
    """Single generator ``coeff * W(coords)`` at the given hbar."""
    return WeylElement.generator(coords, hbar, coeff)


def unit(dim: int, hbar: float = 0.0) -> WeylElement:
    """The algebra unit W(0)."""
    return WeylElement.unit(dim, hbar)


def _phase(s, h, trig):
    """Weyl twist exp(-i*h*s/2) as (real, imaginary) part."""
    x = -h * s / 2.0
    return trig.cos(x), trig.sin(x)


def _bracket_weight(s, h, trig):
    """sigma(g, f) = -sigma(f, g); real, so no imaginary part."""
    return -s, None


def _commutator_weight(s, h, trig):
    """(1/(i*h)) (exp(-i*h*s/2) - exp(i*h*s/2)) = -(2/h) sin(h*s/2)."""
    return -(2.0 / h) * trig.sin(h * s / 2.0), None


_OUT_OF_RANGE = "a label sum or sigma(f, g) leaves the float range"


def _combine_loop(a: WeylElement, b: WeylElement, factor) -> WeylElement:
    """``_combine_arrays`` with Python floats, for products of few term pairs."""
    labels, coeffs = [], []
    for f, cf in a.terms.items():
        for g, cg in b.terms.items():
            s = 0.0
            label = []
            for u, v in zip(f, g):
                s += u.real * v.imag - u.imag * v.real
                z = u + v
                if not cmath.isfinite(z):
                    raise DomainViolation(_OUT_OF_RANGE)
                label.append(complex(_canon(z.real), _canon(z.imag)))
            if not math.isfinite(s):
                raise DomainViolation(_OUT_OF_RANGE)
            re, im = factor(s, a.hbar, math)
            w = cf * cg
            coeffs.append(complex(w.real * re, w.imag * re) if im is None
                          else w * complex(re, im))
            labels.append(tuple(label))
    return WeylElement._merged(a.hbar, a.dim, labels, coeffs)


def _read(a: WeylElement) -> tuple[np.ndarray, np.ndarray]:
    """Labels of shape (n, dim) and coefficients of shape (n,) as arrays."""
    n = len(a.terms)
    labels = np.fromiter(chain.from_iterable(a.terms), complex, n * a.dim)
    return labels.reshape(n, a.dim), np.fromiter(a.terms.values(), complex, n)


def _combine_arrays(a: WeylElement, b: WeylElement, factor) -> WeylElement:
    """``_combine`` on numpy arrays.  Every array operation repeats the float
    operation of ``_combine_loop`` in the same order, so both give the same
    labels and coefficients; overflow gives inf as Python floats do."""
    (fa, ca), (fb, cb) = _read(a), _read(b)
    fr, fi = fa.real[:, None, :], fa.imag[:, None, :]
    gr, gi = fb.real[None, :, :], fb.imag[None, :, :]
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.zeros((len(ca), len(cb)))
        for k in range(a.dim):
            s += fr[..., k] * gi[..., k] - fi[..., k] * gr[..., k]
        sr, si = fr + gr, fi + gi
        if not (np.isfinite(s).all() and np.isfinite(sr).all() and np.isfinite(si).all()):
            raise DomainViolation(_OUT_OF_RANGE)
        re, im = factor(s, a.hbar, np)
        ar, ai = ca.real[:, None], ca.imag[:, None]
        br, bi = cb.real[None, :], cb.imag[None, :]
        wr, wi = ar * br - ai * bi, ar * bi + ai * br
        coeffs = np.empty(s.shape, complex)
        if im is None:
            coeffs.real, coeffs.imag = wr * re, wi * re
        else:
            coeffs.real, coeffs.imag = wr * re - wi * im, wr * im + wi * re
    sums = np.empty(sr.shape, complex)
    sums.real, sums.imag = _canon_array(sr), _canon_array(si)
    columns = sums.reshape(-1, a.dim).T.tolist()
    return WeylElement._merged(a.hbar, a.dim, zip(*columns), coeffs.ravel().tolist())


def _combine(a: WeylElement, b: WeylElement, factor) -> WeylElement:
    """sum over term pairs of factor(sigma(f, g)) c_f c_g W(f + g).

    ``factor(s, hbar, trig)`` returns the (real, imaginary) parts of the pair
    weight, with None for a real weight, evaluated through ``trig`` (math or
    numpy).  DomainViolation when a label sum or sigma is not finite.
    """
    if len(a.terms) * len(b.terms) < _SMALL_PAIRS:
        return _combine_loop(a, b, factor)
    return _combine_arrays(a, b, factor)


def multiply(a: WeylElement, b: WeylElement) -> WeylElement:
    """Bilinear extension of the Weyl relation.

    On generators: W(f) W(g) = exp(-i*hbar*sigma(f,g)/2) W(f+g).  At
    hbar == 0 this is the commutative pointwise product.
    """
    a._check_compatible(b)
    return _combine(a, b, _phase)


def adjoint(a: WeylElement) -> WeylElement:
    """*-operation: (c W(f))* = conj(c) W(-f); an anti-homomorphism."""
    labels, coeffs = _read(a)
    flipped = np.empty(labels.shape, complex)
    flipped.real = _canon_array(-labels.real)
    flipped.imag = _canon_array(-labels.imag)
    return WeylElement._merged(a.hbar, a.dim, map(tuple, flipped.tolist()),
                               coeffs.conj().tolist())


def poisson_bracket(a: WeylElement, b: WeylElement) -> WeylElement:
    """Poisson bracket on the commutative (hbar == 0) algebra.

    {W(f), W(g)} = sigma(g, f) W(f + g), extended bilinearly.
    """
    if a.hbar != 0.0 or b.hbar != 0.0:
        raise NonzeroHbar("Poisson bracket requires hbar == 0 on both factors")
    if a.dim != b.dim:
        raise MismatchedDimension(f"{a.dim} vs {b.dim}")
    return _combine(a, b, _bracket_weight)


def scaled_commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """(1/(i*hbar)) (ab - ba) for a common hbar > 0.

    On generators this equals -(2/hbar) sin(hbar*sigma(f,g)/2) W(f+g), which
    converges to the Poisson bracket sigma(g,f) W(f+g) as hbar -> 0; the
    kernel applies that weight directly, without forming ab and ba.
    """
    if a.hbar != b.hbar:
        raise MismatchedHbar(f"{a.hbar} vs {b.hbar}")
    if a.hbar == 0.0:
        raise ZeroHbar("scaled commutator requires hbar > 0; "
                       "use poisson_bracket at hbar == 0")
    a._check_compatible(b)
    return _combine(a, b, _commutator_weight)


def central_state(a: WeylElement) -> complex:
    """The canonical central state: the coefficient of W(0).

    Annihilates every W(f) with f != 0; positive and tracial.
    """
    zero = _canon_label([0.0] * a.dim)
    return complex(a.terms.get(zero, 0.0))


def norm_bounds(a: WeylElement) -> tuple[float, float]:
    """(lower, upper) bounds for the universal C*-norm of ``a``.

    lower = sqrt(sum |c_f|^2)  (the GNS norm of the canonical central state,
    i.e. sqrt(omega_c(a* a))); upper = sum |c_f| (triangle inequality, each
    generator being unitary).  Scaled summation keeps the lower bound finite
    for coefficients near the floating-point overflow threshold.  A
    coefficient modulus or an upper bound beyond the float range raises
    DomainViolation.
    """
    if not a.terms:
        return (0.0, 0.0)
    try:
        mags = [abs(c) for c in a.terms.values()]
        upper = math.fsum(mags)
    except OverflowError:
        upper = math.inf
    if not upper < math.inf:
        raise DomainViolation(
            "a coefficient modulus or the upper bound sum |c_f| leaves the float range")
    top = max(mags)
    if top == 0.0:
        return (0.0, 0.0)
    lower = top * math.sqrt(sum((m / top) ** 2 for m in mags))
    return (lower, upper)


def elements_close(a: WeylElement, b: WeylElement, atol: float = 1e-12) -> bool:
    """True when a and b agree term-by-term within ``atol`` (same hbar/dim)."""
    if a.hbar != b.hbar or a.dim != b.dim:
        return False
    labels = set(a.terms) | set(b.terms)
    return all(abs(a.terms.get(l, 0.0) - b.terms.get(l, 0.0)) <= atol for l in labels)


# -- JSON wire format -------------------------------------------------------

def to_json_dict(a: WeylElement) -> dict:
    """{"hbar": h, "terms": [{"label": [[re, im], ...], "coeff": [re, im]}]}"""
    return {
        "hbar": a.hbar,
        "terms": [
            {"label": [[z.real, z.imag] for z in f],
             "coeff": [c.real, c.imag]}
            for f, c in sorted(a.terms.items(),
                               key=lambda kv: tuple((z.real, z.imag) for z in kv[0]))
        ],
    }


def from_json_dict(d: Mapping) -> WeylElement:
    """The WeylElement of a JSON object; InvalidSpec for missing keys,
    values of the wrong type or length, non-finite numbers and an element
    without terms (the first term carries the dimension)."""
    try:
        hbar = float(d["hbar"])
        pairs = [(tuple(complex(re, im) for re, im in entry["label"]),
                  complex(entry["coeff"][0], entry["coeff"][1])) for entry in d["terms"]]
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"malformed Weyl element: {exc!r}") from None
    if not pairs:
        raise InvalidSpec("element must carry an explicit dimension via at least one term")
    if not math.isfinite(hbar) or not all(
            cmath.isfinite(z) for label, c in pairs for z in (*label, c)):
        raise InvalidSpec("Weyl element numbers must be finite")
    terms: dict[tuple[complex, ...], complex] = {}
    for label, c in pairs:
        label = _canon_label(label)
        terms[label] = terms.get(label, 0.0) + c
    return WeylElement(hbar, len(pairs[0][0]), terms)
