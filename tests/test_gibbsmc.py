import math

import numpy as np
import pytest

from weylgas import gibbsmc as mc
from weylgas.errors import DomainViolation, InvalidSpec


SPEC = mc.GaussianMeasureSpec(eigenvalues=(1.0, 2.0), beta=1.0)


def test_spec_validation_and_json():
    with pytest.raises(InvalidSpec):
        mc.GaussianMeasureSpec(eigenvalues=(1.0, -2.0), beta=1.0)
    with pytest.raises(InvalidSpec):
        mc.GaussianMeasureSpec(eigenvalues=(), beta=1.0)
    with pytest.raises(InvalidSpec):
        mc.GaussianMeasureSpec(eigenvalues=(1.0,), beta=0.0)
    for eig, beta in (((1.0, 2.0), math.nan), ((1.0, 2.0), math.inf),
                      ((1.0, math.nan), 1.0), ((math.inf,), 1.0)):
        with pytest.raises(InvalidSpec):
            mc.GaussianMeasureSpec(eigenvalues=eig, beta=beta)
    back = mc.GaussianMeasureSpec.from_json_dict(SPEC.to_json_dict())
    assert back == SPEC


def test_closed_form_theta_anchors():
    # theta(phi) = exp(-sum |phi_k|^2 / (2 beta lambda_k))
    assert mc.closed_form_theta(SPEC, [1.0, 0.0]) == pytest.approx(math.exp(-0.5))
    assert mc.closed_form_theta(SPEC, [0.0, 1.0j]) == pytest.approx(math.exp(-0.25))
    assert mc.closed_form_theta(SPEC, [1.0, 1.0j]) == pytest.approx(
        math.exp(-0.75))
    wide = mc.GaussianMeasureSpec(eigenvalues=(1.0, 2.0), beta=4.0)
    assert mc.closed_form_theta(wide, [1.0, 0.0]) == pytest.approx(
        math.exp(-0.125))


def test_sampling_is_deterministic_and_scaled():
    pts = mc.sample(SPEC, 50000, seed=7)
    pts2 = mc.sample(SPEC, 50000, seed=7)
    assert pts.shape == (50000, 4)
    assert np.array_equal(pts, pts2)
    assert not np.array_equal(pts, mc.sample(SPEC, 50000, seed=8))
    # coordinate variances approach 1/(beta lambda_k)
    var = pts.var(axis=0)
    assert var == pytest.approx([1.0, 0.5, 1.0, 0.5], rel=0.05)


def test_jackknife_matches_classic_formula():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=400) + 1j * rng.normal(size=400)
    se = mc.jackknife_stderr(vals)
    classic = math.sqrt((np.var(vals.real, ddof=1) + np.var(vals.imag, ddof=1))
                        / len(vals))
    assert se == pytest.approx(classic, rel=1e-10)


def test_characteristic_function_estimate():
    est, se = mc.characteristic_mc(SPEC, [0.7 + 0.2j, -0.4j], 100000, seed=11)
    closed = mc.closed_form_theta(SPEC, [0.7 + 0.2j, -0.4j])
    assert abs(est - closed) < 4 * se
    assert se < 0.01


def test_kms_exact_moment_antisymmetry():
    phi1, phi2 = [1.0, 0.5j], [0.3j, -0.2]
    m = mc.kms_exact_moment(SPEC, phi1, phi2)
    sig = sum((p2.conjugate() * p1).imag
              for p1, p2 in zip(map(complex, phi1), map(complex, phi2)))
    assert m == pytest.approx(1j * sig * mc.closed_form_theta(SPEC, phi2))
    assert mc.kms_exact_moment(SPEC, phi1, phi1) == 0.0


def test_cylindrical_kms_residual_within_error():
    phi1, phi2 = [0.8, 0.3j], [0.2 - 0.1j, 0.5]
    resid, se = mc.cylindrical_kms_mc(SPEC, phi1, phi2, 100000, seed=5)
    assert abs(resid) < 4 * se


def test_shape_validation():
    with pytest.raises(DomainViolation):
        mc.closed_form_theta(SPEC, [1.0])
    with pytest.raises(DomainViolation):
        mc.characteristic_mc(SPEC, [1.0, 0.0, 0.0], 100, seed=0)
    with pytest.raises(DomainViolation):
        mc.sample(SPEC, 0, seed=0)
    for seed in (-1, 2 ** 128):
        with pytest.raises(DomainViolation):
            mc.sample(SPEC, 10, seed=seed)


def test_jackknife_real_columns_match_complex_samples():
    rng = np.random.default_rng(4)
    re, im = rng.normal(size=300), rng.normal(size=300)
    assert mc.jackknife_stderr(np.stack([re, im], axis=-1)) == pytest.approx(
        mc.jackknife_stderr(re + 1j * im), rel=1e-14)


SPEC3 = mc.GaussianMeasureSpec(eigenvalues=(0.5, 1.3, 2.0), beta=0.8)
PHI1 = [0.4 - 0.2j, 0.3j, -0.5]
PHI2 = [0.6 + 0.1j, -0.3, 0.2 - 0.4j]


def _pairing(spec, phi, pts):
    phi = np.asarray(phi, dtype=complex)
    return pts[:, : spec.n] @ phi.real + pts[:, spec.n:] @ phi.imag


def test_characteristic_mc_is_the_mean_over_sample():
    est, se = mc.characteristic_mc(SPEC3, PHI2, 5000, seed=21)
    vals = np.exp(1j * _pairing(SPEC3, PHI2, mc.sample(SPEC3, 5000, seed=21)))
    assert est == pytest.approx(vals.mean(), rel=1e-12)
    assert se == pytest.approx(mc.jackknife_stderr(vals), rel=1e-12)


def test_cylindrical_kms_mc_is_the_mean_over_sample():
    resid, se = mc.cylindrical_kms_mc(SPEC3, PHI1, PHI2, 5000, seed=22)
    pts = mc.sample(SPEC3, 5000, seed=22)
    a1 = np.asarray(PHI1, dtype=complex)
    sig = float(np.sum(np.imag(np.conj(np.asarray(PHI2)) * a1)))
    # -i H phi1 is the label -i lambda_k phi1_k
    x = _pairing(SPEC3, -1j * np.asarray(SPEC3.eigenvalues) * a1, pts)
    vals = (sig + 1j * SPEC3.beta * x) * np.exp(1j * _pairing(SPEC3, PHI2, pts))
    assert abs(resid - vals.mean()) <= 1e-12 * np.abs(vals).mean()
    assert se == pytest.approx(mc.jackknife_stderr(vals), rel=1e-12)


def test_estimators_repeat_bit_for_bit():
    assert mc.characteristic_mc(SPEC3, PHI2, 3000, seed=5) == \
        mc.characteristic_mc(SPEC3, PHI2, 3000, seed=5)
    assert mc.cylindrical_kms_mc(SPEC3, PHI1, PHI2, 3000, seed=5) == \
        mc.cylindrical_kms_mc(SPEC3, PHI1, PHI2, 3000, seed=5)
    assert mc.characteristic_mc(SPEC3, PHI2, 3000, seed=5) != \
        mc.characteristic_mc(SPEC3, PHI2, 3000, seed=6)


def test_error_bars_cover_the_closed_forms_over_many_seeds():
    # z < 4 fails with probability 6e-5 per estimate; the seeds are fixed
    theta = mc.closed_form_theta(SPEC3, PHI2)
    for seed in range(200):
        est, se = mc.characteristic_mc(SPEC3, PHI2, 2000, seed)
        assert abs(est - theta) / se < 4.0, seed
        resid, se = mc.cylindrical_kms_mc(SPEC3, PHI1, PHI2, 2000, seed)
        assert abs(resid) / se < 4.0, seed
