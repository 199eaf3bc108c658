"""Gauss rules shared by every quadrature in the package.

A rule depends only on its node count, so each is built once (its
eigenvalue solve costs O(n^3)) and every caller receives the same
read-only arrays, bit-identical to a freshly built rule.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre


def _read_only(rule):
    for arr in rule:
        arr.setflags(write=False)
    return rule


@lru_cache(maxsize=128)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1]."""
    return _read_only(roots_legendre(n))


@lru_cache(maxsize=128)
def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Hermite nodes and weights for the weight exp(-x^2)."""
    return _read_only(np.polynomial.hermite.hermgauss(n))
