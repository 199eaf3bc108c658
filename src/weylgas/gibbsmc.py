"""Monte Carlo over finite-mode classical Gibbs measures.

A finite mode family diagonalizes the one-particle energy with eigenvalues
lambda_k > 0; the classical Gibbs measure at inverse temperature beta is
then the product Gaussian with variance 1/(beta lambda_k) in each of the
2n real phase-space coordinates (positions first, momenta second).  The
characteristic function has the closed form

    theta(phi) = exp(-(1/(2 beta)) sum_k |phi_k|^2 / lambda_k),

which the sampler is checked against, and the cylindrical weak-KMS
residual

    sigma(phi2, phi1) theta(phi2) + i beta E[<-i H phi1, u> e^{i<phi2, u>}]

has mean exactly zero, estimated here with a jackknife error bar.

Sampling uses the counter-based Philox bit generator keyed by the seed, so
a (spec, count, seed) triple reproduces the exact same array everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, InvalidSpec

__all__ = [
    "GaussianMeasureSpec", "sample", "closed_form_theta", "characteristic_mc",
    "kms_exact_moment", "cylindrical_kms_mc", "jackknife_stderr",
]


@dataclass(frozen=True)
class GaussianMeasureSpec:
    """Product Gibbs measure of a finite mode family.

    eigenvalues: one-particle energies lambda_k, all positive.
    beta: inverse temperature.
    """
    eigenvalues: tuple[float, ...]
    beta: float

    def __post_init__(self):
        eig = tuple(float(v) for v in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", eig)
        if not eig:
            raise InvalidSpec("need at least one mode")
        if not all(math.isfinite(v) for v in eig + (self.beta,)):
            raise InvalidSpec(f"eigenvalues and beta must be finite, got {eig}, {self.beta}")
        if any(v <= 0 for v in eig):
            raise InvalidSpec("eigenvalues must be positive")
        if self.beta <= 0:
            raise InvalidSpec("beta must be positive")

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def to_json_dict(self) -> dict:
        return {"eigenvalues": list(self.eigenvalues), "beta": self.beta}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GaussianMeasureSpec":
        return cls(eigenvalues=tuple(d["eigenvalues"]), beta=float(d["beta"]))


def _coerce_label(spec: GaussianMeasureSpec, phi) -> np.ndarray:
    arr = np.asarray(phi, dtype=complex)
    if arr.shape != (spec.n,):
        raise DomainViolation(
            f"label must have {spec.n} mode components, got shape {arr.shape}")
    return arr


def sample(spec: GaussianMeasureSpec, count: int, seed: int) -> np.ndarray:
    """(count, 2n) array of phase points; columns are q_1..q_n, p_1..p_n."""
    if count <= 0:
        raise DomainViolation("count must be positive")
    rng = np.random.Generator(np.random.Philox(key=seed))
    lam = np.asarray(spec.eigenvalues)
    scales = np.sqrt(1.0 / (spec.beta * np.concatenate([lam, lam])))
    return rng.standard_normal((count, 2 * spec.n)) * scales


def closed_form_theta(spec: GaussianMeasureSpec, phi) -> float:
    """theta(phi) = exp(-(1/(2 beta)) sum |phi_k|^2 / lambda_k)."""
    arr = _coerce_label(spec, phi)
    lam = np.asarray(spec.eigenvalues)
    return float(np.exp(-np.sum(np.abs(arr) ** 2 / lam) / (2.0 * spec.beta)))


def _pairing_phases(spec: GaussianMeasureSpec, phi: np.ndarray,
                    pts: np.ndarray) -> np.ndarray:
    # <phi, u> = sum_k (Re phi_k) q_k + (Im phi_k) p_k
    return pts[:, : spec.n] @ phi.real + pts[:, spec.n:] @ phi.imag


def jackknife_stderr(vals: np.ndarray) -> float:
    """Leave-one-out standard error of the sample mean.

    For the plain mean the jackknife variance collapses to
    sum (x - xbar)^2 / (N (N-1)); complex samples combine the real and
    imaginary spreads in quadrature.
    """
    vals = np.asarray(vals)
    n = vals.shape[0]
    if n < 2:
        raise DomainViolation("need at least two samples for an error bar")
    mean = vals.mean()
    dev = vals - mean
    if np.iscomplexobj(vals):
        ss = float(np.sum(dev.real ** 2) + np.sum(dev.imag ** 2))
    else:
        ss = float(np.sum(dev ** 2))
    return math.sqrt(ss / (n * (n - 1)))


def characteristic_mc(spec: GaussianMeasureSpec, phi, count: int,
                      seed: int) -> tuple[complex, float]:
    """Monte Carlo estimate of E[e^{i <phi, u>}] with jackknife error bar."""
    arr = _coerce_label(spec, phi)
    pts = sample(spec, count, seed)
    vals = np.exp(1j * _pairing_phases(spec, arr, pts))
    return complex(vals.mean()), jackknife_stderr(vals)


def kms_exact_moment(spec: GaussianMeasureSpec, phi1, phi2) -> complex:
    """E[<-i H phi1, u> e^{i <phi2, u>}] = (i/beta) sigma(phi2, phi1) theta(phi2).

    Gaussian integration by parts: each coordinate contributes its variance
    times the phase gradient, and the lambda_k from H cancels the
    1/(beta lambda_k) variance, leaving the symplectic pairing.
    """
    a1 = _coerce_label(spec, phi1)
    a2 = _coerce_label(spec, phi2)
    sig = float(np.sum(a2.real * a1.imag - a2.imag * a1.real))
    return 1j / spec.beta * sig * closed_form_theta(spec, phi2)


def cylindrical_kms_mc(spec: GaussianMeasureSpec, phi1, phi2, count: int,
                       seed: int) -> tuple[complex, float]:
    """Sample mean and error bar of the cylindrical weak-KMS combination.

    Per sample: sigma(phi2, phi1) e^{i<phi2,u>} + i beta <-iH phi1, u> e^{i<phi2,u>};
    the expectation is exactly zero in every Gibbs measure of this family.
    """
    a1 = _coerce_label(spec, phi1)
    a2 = _coerce_label(spec, phi2)
    lam = np.asarray(spec.eigenvalues)
    sig = float(np.sum(a2.real * a1.imag - a2.imag * a1.real))

    pts = sample(spec, count, seed)
    phase = np.exp(1j * _pairing_phases(spec, a2, pts))
    # -i H phi1 pairs as sum_k lambda_k (Im phi1_k q_k - Re phi1_k p_k)
    x = pts[:, : spec.n] @ (lam * a1.imag) - pts[:, spec.n:] @ (lam * a1.real)
    vals = sig * phase + 1j * spec.beta * x * phase
    return complex(vals.mean()), jackknife_stderr(vals)
