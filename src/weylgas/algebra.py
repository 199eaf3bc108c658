"""Weyl *-algebra over a finite-dimensional complex label space.

Elements are finite linear combinations of generators ``W(f)`` labelled by
vectors ``f`` in C^d.  The product follows the Weyl relation

    W(f) W(g) = exp(-i*hbar*sigma(f, g)/2) W(f + g),

with ``sigma(f, g) = Im<f, g>`` the imaginary part of the Hermitian inner
product (antilinear in the first slot), ``W(f)* = W(-f)`` and ``W(0) = 1``.
At ``hbar == 0`` the algebra is commutative and carries the Poisson bracket

    {W(f), W(g)} = sigma(g, f) W(f + g).

Labels are merged by rounding every coordinate to 1e-12 and comparing
exactly; coefficients below 1e-15 in magnitude are pruned after arithmetic.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Mapping

from .errors import (
    DomainViolation,
    InvalidSpec,
    MismatchedDimension,
    MismatchedHbar,
    NegativeHbar,
    NonzeroHbar,
    ZeroHbar,
)

MERGE_DECIMALS = 12
COEFF_PRUNE = 1e-15


def _canon_label(coords: Iterable[complex]) -> tuple[complex, ...]:
    """Round each coordinate to the merge grid so equal labels compare equal."""
    out = []
    for z in coords:
        z = complex(z)
        out.append(complex(round(z.real, MERGE_DECIMALS), round(z.imag, MERGE_DECIMALS)))
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
    coefficients.  Instances are immutable by convention; arithmetic returns
    new elements.
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
            if abs(coeff) >= COEFF_PRUNE:
                clean[label] = coeff
        self.terms = clean

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


def multiply(a: WeylElement, b: WeylElement) -> WeylElement:
    """Bilinear extension of the Weyl relation.

    On generators: W(f) W(g) = exp(-i*hbar*sigma(f,g)/2) W(f+g).  At
    hbar == 0 this is the commutative pointwise product.
    """
    a._check_compatible(b)
    h = a.hbar
    terms: dict[tuple[complex, ...], complex] = {}
    for f, cf in a.terms.items():
        for g, cg in b.terms.items():
            if h != 0.0:
                phase = complex(math.cos(-h * sigma(f, g) / 2.0),
                                math.sin(-h * sigma(f, g) / 2.0))
            else:
                phase = 1.0
            label = _canon_label(u + v for u, v in zip(f, g))
            terms[label] = terms.get(label, 0.0) + cf * cg * phase
    return WeylElement(h, a.dim, terms)


def adjoint(a: WeylElement) -> WeylElement:
    """*-operation: (c W(f))* = conj(c) W(-f); an anti-homomorphism."""
    terms = {}
    for f, c in a.terms.items():
        label = _canon_label(-z for z in f)
        terms[label] = terms.get(label, 0.0) + c.conjugate()
    return WeylElement(a.hbar, a.dim, terms)


def poisson_bracket(a: WeylElement, b: WeylElement) -> WeylElement:
    """Poisson bracket on the commutative (hbar == 0) algebra.

    {W(f), W(g)} = sigma(g, f) W(f + g), extended bilinearly.
    """
    if a.hbar != 0.0 or b.hbar != 0.0:
        raise NonzeroHbar("Poisson bracket requires hbar == 0 on both factors")
    if a.dim != b.dim:
        raise MismatchedDimension(f"{a.dim} vs {b.dim}")
    terms: dict[tuple[complex, ...], complex] = {}
    for f, cf in a.terms.items():
        for g, cg in b.terms.items():
            s = sigma(g, f)
            if s == 0.0:
                continue
            label = _canon_label(u + v for u, v in zip(f, g))
            terms[label] = terms.get(label, 0.0) + s * cf * cg
    return WeylElement(0.0, a.dim, terms)


def scaled_commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """(1/(i*hbar)) (ab - ba) for a common hbar > 0.

    On generators this equals -(2/hbar) sin(hbar*sigma(f,g)/2) W(f+g), which
    converges to the Poisson bracket sigma(g,f) W(f+g) as hbar -> 0.
    """
    if a.hbar != b.hbar:
        raise MismatchedHbar(f"{a.hbar} vs {b.hbar}")
    if a.hbar == 0.0:
        raise ZeroHbar("scaled commutator requires hbar > 0; "
                       "use poisson_bracket at hbar == 0")
    comm = multiply(a, b) - multiply(b, a)
    return comm.scale(1.0 / (1j * a.hbar))


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
    for coefficients near the floating-point overflow threshold.
    """
    if not a.terms:
        return (0.0, 0.0)
    mags = [abs(c) for c in a.terms.values()]
    top = max(mags)
    if top == 0.0:
        return (0.0, 0.0)
    lower = top * math.sqrt(sum((m / top) ** 2 for m in mags))
    return (lower, math.fsum(mags))


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
