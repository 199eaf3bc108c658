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

Sampling draws standard normals from the SFC64 bit generator seeded
through a SeedSequence of the seed, so a (spec, count, seed) triple
reproduces the exact same draws everywhere.  The estimators never build the
scaled phase points: the scales 1/sqrt(beta lambda_k) are folded into the
pairing coefficients, one matrix-vector product of the raw normals gives
each pairing, and the samples e^{i theta} are kept as real cos/sin arrays.
``sample`` returns the same raw normals times the scales, so it sees the
draws the estimators see.
"""

from __future__ import annotations

import math
import sys
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
        try:
            eig = tuple(float(v) for v in self.eigenvalues)
            object.__setattr__(self, "beta", float(self.beta))
        except OverflowError:
            raise InvalidSpec("eigenvalues and beta must be finite; an integer "
                              "leaves the float range") from None
        object.__setattr__(self, "eigenvalues", eig)
        if not eig:
            raise InvalidSpec("need at least one mode")
        if not (0 < self.beta < math.inf and all(0 < v < math.inf for v in eig)):
            raise InvalidSpec(
                f"eigenvalues and beta must be positive and finite, got {eig}, {self.beta}")
        # the sampling variances 1/(beta lambda) must be normal floats
        if not all(sys.float_info.min <= self.beta * v < math.inf for v in eig):
            raise InvalidSpec(f"beta * eigenvalue leaves the float range: beta = {self.beta}")

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


def _coerce_label(spec: GaussianMeasureSpec, phi) -> np.ndarray:
    arr = np.asarray(phi, dtype=complex)
    if arr.shape != (spec.n,):
        raise DomainViolation(
            f"label must have {spec.n} mode components, got shape {arr.shape}")
    return arr


# Normal draws one sample may hold (512 MB of floats); a larger request is
# refused instead of allocated.
_MAX_DRAWS = 1 << 26


def _normals(spec: GaussianMeasureSpec, count: int, seed: int) -> np.ndarray:
    """(count, 2n) standard normals of the (spec, count, seed) stream."""
    if count <= 0:
        raise DomainViolation("count must be positive")
    if count * 2 * spec.n > _MAX_DRAWS:
        raise DomainViolation(f"count {count} needs more than {_MAX_DRAWS} normal draws")
    if not 0 <= seed < 2 ** 128:
        raise DomainViolation(f"seed must lie in [0, 2^128), got {seed}")
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    return rng.standard_normal((count, 2 * spec.n))


def _scales(spec: GaussianMeasureSpec) -> np.ndarray:
    """Standard deviations 1/sqrt(beta lambda_k) of q_1..q_n, p_1..p_n."""
    lam = np.asarray(spec.eigenvalues)
    return np.sqrt(1.0 / (spec.beta * np.concatenate([lam, lam])))


def sample(spec: GaussianMeasureSpec, count: int, seed: int) -> np.ndarray:
    """(count, 2n) array of phase points; columns are q_1..q_n, p_1..p_n."""
    return _normals(spec, count, seed) * _scales(spec)


def closed_form_theta(spec: GaussianMeasureSpec, phi) -> float:
    """theta(phi) = exp(-(1/(2 beta)) sum |phi_k|^2 / lambda_k)."""
    arr = _coerce_label(spec, phi)
    lam = np.asarray(spec.eigenvalues)
    return float(np.exp(-np.sum(np.abs(arr) ** 2 / lam) / (2.0 * spec.beta)))


def _pairing_coeffs(phi: np.ndarray) -> np.ndarray:
    # <phi, u> = sum_k (Re phi_k) q_k + (Im phi_k) p_k
    return np.concatenate([phi.real, phi.imag])


def jackknife_stderr(vals: np.ndarray) -> float:
    """Leave-one-out standard error of the sample mean.

    For the plain mean the jackknife variance collapses to
    sum (x - xbar)^2 / (N (N-1)).  Samples run along axis 0; the spreads of
    further columns, and of the real and imaginary parts of complex
    samples, combine in quadrature.
    """
    vals = np.asarray(vals)
    if np.iscomplexobj(vals):
        vals = np.stack([vals.real, vals.imag], axis=-1)
    n = vals.shape[0]
    if n < 2:
        raise DomainViolation("need at least two samples for an error bar")
    dev = vals - vals.mean(axis=0)
    return math.sqrt(float(np.sum(dev * dev)) / (n * (n - 1)))


def _mean_and_stderr(vals: np.ndarray) -> tuple[complex, float]:
    """Mean of the complex samples stored as (real, imag) rows of ``vals``
    and its jackknife error bar."""
    re, im = vals.mean(axis=1)
    return complex(re, im), jackknife_stderr(vals.T)


def _cis(theta: np.ndarray) -> np.ndarray:
    """(2, N) rows cos theta, sin theta: e^{i theta} on real arrays."""
    out = np.empty((2, theta.shape[0]))
    np.cos(theta, out=out[0])
    np.sin(theta, out=out[1])
    return out


def characteristic_mc(spec: GaussianMeasureSpec, phi, count: int,
                      seed: int) -> tuple[complex, float]:
    """Monte Carlo estimate of E[e^{i <phi, u>}] with jackknife error bar."""
    arr = _coerce_label(spec, phi)
    coeffs = _pairing_coeffs(arr) * _scales(spec)
    return _mean_and_stderr(_cis(_normals(spec, count, seed) @ coeffs))


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

    # theta = <phi2, u> and beta x = beta <-i H phi1, u>, where -i H phi1 is
    # the label -i lambda_k phi1_k.  Two matrix-vector products, not one
    # (2n, 2) matrix product: BLAS dgemm keeps about 3 MB of buffers resident.
    scales = _scales(spec)
    normals = _normals(spec, count, seed)
    cos, sin = _cis(normals @ (_pairing_coeffs(a2) * scales))
    bx = normals @ (_pairing_coeffs(-1j * (spec.beta * lam * a1)) * scales)
    # (sigma + i beta x) e^{i theta}, real and imaginary parts
    return _mean_and_stderr(np.stack([sig * cos - bx * sin, sig * sin + bx * cos]))
