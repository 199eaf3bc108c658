"""Deformation quantization of the commutative Weyl algebra.

The quantization map acts on generators as

    Q_h(W0(f)) = exp(-h |f|^2 / 4) W_h(f),

extended linearly; Q_0 is the identity.  It is injective but not surjective:
inverting the Gaussian factor blows up coefficients of high-frequency
labels, which the non-surjectivity witness makes quantitative.

The two residuals measured here are the exact norms of single-generator
defects (each defect is supported on one label, so the lower and upper
norm bounds coincide):

  von Neumann:  |Q_h(a) Q_h(b) - Q_h(ab)|      (product defect, O(h))
  Dirac:        |(1/(i h))[Q_h(a), Q_h(b)] - Q_h({a, b})|   (bracket defect)
"""

from __future__ import annotations

import math
from typing import Sequence

from . import algebra as alg
from .errors import DomainViolation, NegativeHbar, NonzeroHbar

__all__ = [
    "quantize", "preimage", "dirac_residual", "vonneumann_residual",
    "rieffel_profile", "nonsurjectivity_witness",
]


def quantize(a: alg.WeylElement, h: float) -> alg.WeylElement:
    """Q_h(a): damp each coefficient by exp(-h |label|^2 / 4), set hbar = h."""
    if h < 0:
        raise NegativeHbar(f"h = {h}")
    if a.hbar != 0.0:
        raise NonzeroHbar("quantization acts on hbar = 0 elements")
    if h == 0.0:
        return a
    terms = {f: c * math.exp(-h * alg.label_norm_sq(f) / 4.0)
             for f, c in a.terms.items()}
    return alg.WeylElement(h, a.dim, terms)


def preimage(a: alg.WeylElement) -> tuple[alg.WeylElement, float]:
    """The unique classical element mapping to ``a`` under Q_{a.hbar},
    together with its l2 coefficient norm (which may be astronomically
    large: the inverse Gaussian factor grows like exp(h |f|^2 / 4)).
    """
    if a.hbar == 0.0:
        lo, _ = alg.norm_bounds(a)
        return a, lo
    try:
        terms = {f: c * math.exp(a.hbar * alg.label_norm_sq(f) / 4.0)
                 for f, c in a.terms.items()}
    except OverflowError:
        raise DomainViolation(
            f"the preimage coefficients leave the float range at hbar = {a.hbar}") from None
    out = alg.WeylElement(0.0, a.dim, terms)
    lo, _ = alg.norm_bounds(out)
    return out, lo


def vonneumann_residual(f: Sequence[complex], g: Sequence[complex], h: float) -> float:
    """|Q_h(W0(f)) Q_h(W0(g)) - Q_h(W0(f) W0(g))| (exact single-label norm)."""
    a0 = alg.weyl(f)
    b0 = alg.weyl(g)
    lhs = alg.multiply(quantize(a0, h), quantize(b0, h))
    rhs = quantize(alg.multiply(a0, b0), h)
    lo, up = alg.norm_bounds(lhs - rhs)
    return up  # single label: lo == up


def dirac_residual(f: Sequence[complex], g: Sequence[complex], h: float) -> float:
    """|(1/(i h))[Q_h(W0(f)), Q_h(W0(g))] - Q_h({W0(f), W0(g)})|."""
    a0 = alg.weyl(f)
    b0 = alg.weyl(g)
    lhs = alg.scaled_commutator(quantize(a0, h), quantize(b0, h))
    rhs = quantize(alg.poisson_bracket(a0, b0), h)
    lo, up = alg.norm_bounds(lhs - rhs)
    return up


def rieffel_profile(a: alg.WeylElement, h_grid: Sequence[float]) -> list[tuple[float, float, float]]:
    """(h, lower, upper) norm bounds of Q_h(a) along an ascending h grid.

    Both bounds are monotone non-increasing in h (the Gaussian damping only
    shrinks coefficients), the hallmark of the continuous field of norms.
    """
    hs = list(h_grid)
    if any(h2 < h1 for h1, h2 in zip(hs, hs[1:])):
        raise DomainViolation("h_grid must be sorted ascending")
    out = []
    for h in hs:
        lo, up = alg.norm_bounds(quantize(a, h))
        out.append((h, lo, up))
    return out


# Each partial sum is measured afresh, so the witness costs O(n_max^2): 1000
# terms take about a second.  For h > 0 and |f| = 1 the preimages already
# leave the float range at n = 54.
_MAX_WITNESS_TERMS = 1000


def nonsurjectivity_witness(f: Sequence[complex], n_max: int, h: float) -> dict:
    """Partial-sum norms of the series sum_n n^{-2} W_h(n f) and of its
    claimed classical preimage under Q_h.

    The target l2 norms converge (to sqrt(zeta(4)) for a unit-norm f);
    the preimage l2 norms grow without bound for h > 0 because inverting
    the quantization inflates the n-th coefficient by exp(h n^2 |f|^2 / 4).
    For h = 0 the two sequences coincide.
    """
    if not 2 <= n_max <= _MAX_WITNESS_TERMS:
        raise DomainViolation(
            f"witness needs 2 <= n_max <= {_MAX_WITNESS_TERMS}, got {n_max}")
    fvec = tuple(complex(z) for z in f)
    if all(z == 0 for z in fvec):
        raise DomainViolation("witness requires a nonzero label")
    target_l2 = []
    preimage_l2 = []
    partial = alg.WeylElement.zero(len(fvec), h)
    for n in range(1, n_max + 1):
        label = tuple(n * z for z in fvec)
        partial = partial + alg.weyl(label, hbar=h, coeff=1.0 / n ** 2)
        lo, _ = alg.norm_bounds(partial)
        target_l2.append(lo)
        _, pre_norm = preimage(partial)
        preimage_l2.append(pre_norm)
    return {"target_l2": target_l2, "preimage_l2": preimage_l2}

