import cmath
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from weylgas import testfn as tf
from weylgas.errors import DimensionMismatch, DimensionTooLow, DomainViolation, \
    InvalidIndex


def mix3():
    """A two-term complex mixture used as the generic fixture."""
    return tf.gaussian(0.1, (0, 0, 0), 1.0) \
        + tf.gaussian(0.04 - 0.03j, (0.5, -0.2, 0.1), 0.7, (1.2, 0, -0.5))


def mix_three():
    """A three-term mixture: the imaginary part of its diagonal pairings is
    zero up to rounding noise."""
    return mix3() + tf.gaussian(-0.05 + 0.02j, (-0.3, 0.4, 0.0), 0.5, (0.0, 0.8, 0.3))


def test_evaluate_at_center():
    f = tf.gaussian(2 - 1j, (0.3,), 0.9, (1.5,))
    val = tf.evaluate(f, np.array([0.3]))
    assert val == pytest.approx((2 - 1j) * cmath.exp(1j * 1.5 * 0.3))


def test_sigma_must_be_positive():
    with pytest.raises(DomainViolation):
        tf.gaussian(1.0, (0.0,), 0.0)


def test_fourier_against_direct_quadrature():
    f = tf.gaussian(0.3 + 0.1j, (0.4,), 0.8, (1.1,))
    for p in (0.0, 0.7, -2.3):
        direct = complex(
            quad(lambda x: (tf.evaluate(f, np.array([x])) * cmath.exp(-1j * p * x)).real,
                 -12, 12, limit=200)[0],
            quad(lambda x: (tf.evaluate(f, np.array([x])) * cmath.exp(-1j * p * x)).imag,
                 -12, 12, limit=200)[0])
        assert tf.fourier_transform(f, np.array([p])) == pytest.approx(direct, rel=1e-10)


def test_fourier_zero_is_space_integral():
    f = mix3()
    assert tf.space_integral(f) == pytest.approx(
        complex(tf.fourier_transform(f, np.zeros(3))), rel=1e-13)
    g = tf.gaussian(0.1, (0, 0, 0), 1.0)
    assert tf.space_integral(g) == pytest.approx(0.1 * (2 * math.pi) ** 1.5)


def test_norm_against_grid():
    f = tf.gaussian(0.5, (0.2,), 1.1, (0.8,)) + tf.gaussian(0.3j, (-0.4,), 0.6)
    xs = np.linspace(-10, 10, 4001)
    vals = np.array([abs(tf.evaluate(f, np.array([x]))) ** 2 for x in xs])
    assert tf.norm_sq(f) == pytest.approx(np.trapezoid(vals, xs), rel=1e-8)


def test_inner_product_antilinear_first_slot():
    f, g = mix3(), tf.gaussian(0.2, (0, 0, 0), 1.3)
    z = 0.7 - 1.2j
    assert tf.inner_product(f.scale(z), g) == pytest.approx(
        z.conjugate() * tf.inner_product(f, g), rel=1e-13)
    assert tf.inner_product(f, g) == pytest.approx(
        tf.inner_product(g, f).conjugate(), rel=1e-13)


def test_plancherel_momentum_side():
    # |f|^2 equals the momentum integral of |fhat|^2 / (2 pi)^nu
    f = tf.gaussian(0.4, (0.3,), 0.9, (1.5,))

    def density(p):
        return abs(tf.fourier_transform(f, np.array([p]))) ** 2 / (2 * math.pi)

    val = quad(density, -np.inf, np.inf, limit=200)[0]
    assert val == pytest.approx(tf.norm_sq(f), rel=1e-10)


def test_heat_pair_at_zero_matches_inner_product():
    f, g = mix3(), tf.gaussian(0.07j, (0.1, 0.4, 0), 1.2, (0, 0.3, 0))
    assert complex(tf.heat_pair(f, g, 0.0)) == pytest.approx(
        tf.inner_product(f, g), rel=1e-12)


def test_heat_pair_vectorized_and_positive_decay():
    f = mix3()
    taus = np.array([0.0, 0.5, 1.0, 2.0])
    vals = tf.heat_pair(f, f, taus)
    assert vals.shape == (4,)
    assert np.all(np.diff(vals.real) < 0)
    with pytest.raises(DomainViolation):
        tf.heat_pair(f, f, -0.1)


def test_ham_pair_is_heat_slope():
    f, g = mix3(), tf.gaussian(0.05, (0, 0.2, -0.1), 0.9)
    eps = 1e-5
    fd = -(complex(tf.heat_pair(f, g, eps)) - complex(tf.heat_pair(f, g, 0.0))) / eps
    # <f, H g> = -(1/2) dK/dtau|0
    assert tf.ham_pair(f, g) == pytest.approx(fd / 2.0, rel=1e-4)


def test_invham_closed_form_single_gaussian():
    # <f, H^{-1} f> = 4 pi^{3/2} |amp|^2 sigma^5 for a centered gaussian
    for amp, sigma in ((0.1, 1.0), (0.25, 1.3)):
        f = tf.gaussian(amp, (0, 0, 0), sigma)
        assert complex(tf.invham_pair(f, f)).real == pytest.approx(
            4 * math.pi ** 1.5 * amp ** 2 * sigma ** 5, rel=1e-11)
    assert complex(tf.invham_pair(tf.gaussian(0.1, (0, 0, 0), 1.0),
                                  tf.gaussian(0.1, (0, 0, 0), 1.0))).real \
        == pytest.approx(0.2227331198732683, rel=1e-10)


def test_invham_requires_three_dimensions():
    with pytest.raises(DimensionTooLow):
        tf.invham_pair(tf.gaussian(1.0, (0, 0), 1.0), tf.gaussian(1.0, (0, 0), 1.0))


def test_resolvent_against_momentum_quadrature():
    f = tf.gaussian(0.2, (0, 0, 0), 1.0)
    c = 0.65
    # radial momentum-side oracle: |fhat|^2 = a^2 sigma^6 (2pi)^3 e^{-sigma^2 p^2}
    pref = 0.04 * (2 * math.pi) ** 3 / (2 * math.pi) ** 3 * 4 * math.pi

    def integrand(r):
        return pref * r * r * math.exp(-r * r) / (r * r / 2.0 + c)

    oracle = quad(integrand, 0, np.inf, limit=200)[0]
    assert complex(tf.resolvent_pair(f, f, c)).real == pytest.approx(oracle, rel=1e-10)
    with pytest.raises(DomainViolation):
        tf.resolvent_pair(f, f, 0.0)


def test_thermal_routes_agree():
    # the geometric series and the coth-split evaluate the same integral
    f = mix3()
    series = tf.thermal_pair(f, f, 1.0, 1.0, -0.3)
    from weylgas.testfn import _critical_pair_correction, _pair_params
    split = (2.0 / 1.0) * tf.resolvent_pair(f, f, 0.3)
    for s in f.terms:
        for t in f.terms:
            pref, a0, b, c_sum = _pair_params(s, t, 3)
            split += _critical_pair_correction(pref, a0, b, c_sum, 3, 1.0, shift=0.3)
    assert complex(series) == pytest.approx(complex(split), rel=1e-11)


def test_thermal_momentum_oracle_critical():
    # mu = 0, radial single gaussian: direct Bose-weighted momentum integral
    f = tf.gaussian(0.1, (0, 0, 0), 1.0)
    bh = 0.8

    def integrand(r):
        x = math.exp(-bh * r * r / 2.0)
        return 0.01 * 4 * math.pi * r * r * math.exp(-r * r) * (1 + x) / (1 - x)

    oracle = quad(integrand, 0, np.inf, limit=300)[0]
    assert complex(tf.thermal_pair(f, f, bh, 1.0, 0.0)).real \
        == pytest.approx(oracle, rel=1e-9)


def test_thermal_rejects_positive_mu():
    f = tf.gaussian(0.1, (0, 0, 0), 1.0)
    with pytest.raises(DomainViolation):
        tf.thermal_pair(f, f, 1.0, 1.0, 0.5)


def test_axis_overlaps_against_quadrature():
    L, nmax = 2.0, 24
    c, s, w = 0.4, 0.8, 2.5
    ov = tf.axis_sine_overlaps(c, s, w, L, nmax)
    for n in (1, 5, 20):
        def band(x):
            return math.sin(math.pi * n * (x - L) / (2 * L)) \
                * math.exp(-(x - c) ** 2 / (2 * s * s))
        re = quad(lambda x: band(x) * math.cos(w * x), -L, L, limit=300)[0]
        im = quad(lambda x: band(x) * math.sin(w * x), -L, L, limit=300)[0]
        assert ov[n - 1] == pytest.approx(complex(re, im), rel=1e-9, abs=1e-13)


def test_box_expansion_parseval():
    # sum_n |<psi_n, f>|^2 climbs to the restricted norm as the cutoff grows
    f = tf.gaussian(0.3, (0.2, -0.1, 0.3), 0.5) \
        + tf.gaussian(0.1j, (0, 0.4, 0), 0.45, (1.0, 0, 0))
    L = 2.0
    target = tf.restricted_norm_sq(f, L)
    scale = L ** -1.5  # product of the per-axis mode normalizations

    def coeff_tensor(cut):
        total = np.zeros((cut, cut, cut), dtype=complex)
        for term in f.terms:
            axes = [tf.axis_sine_overlaps(term.center[i], term.sigma,
                                          term.wave[i], L, cut)
                    for i in range(3)]
            total += term.amp * scale * np.einsum("i,j,k->ijk", *axes)
        return total

    p6 = float(np.sum(np.abs(coeff_tensor(6)) ** 2))
    t12 = coeff_tensor(12)
    p12 = float(np.sum(np.abs(t12) ** 2))
    assert p6 <= p12 <= target * (1 + 1e-9)
    assert p12 == pytest.approx(target, rel=1e-6)
    # spot-check the scalar entry point against the tensor
    for n in ((1, 1, 1), (3, 2, 5), (12, 7, 1)):
        assert tf.box_overlap(f, n, L) == pytest.approx(
            complex(t12[n[0] - 1, n[1] - 1, n[2] - 1]), rel=1e-12)


def test_box_overlap_validation():
    f = tf.gaussian(0.3, (0, 0, 0), 0.5)
    with pytest.raises(InvalidIndex):
        tf.box_overlap(f, (0, 1, 1), 1.0)
    with pytest.raises(DimensionMismatch):
        tf.box_overlap(f, (1, 1), 1.0)
    with pytest.raises(DomainViolation):
        tf.box_overlap(f, (1, 1, 1), -2.0)


def test_multiplier_integral():
    f = mix3()
    k = tf.MultiplierApplied(fn=f, shift=-0.7, scale=1j)
    # int H f = 0, so the tagged integral is -scale*shift*fhat(0)
    assert tf.integral_of(k) == pytest.approx(0.7j * tf.space_integral(f), rel=1e-13)
    assert tf.integral_of(f) == pytest.approx(tf.space_integral(f), rel=1e-15)


def test_arithmetic_and_json_round_trip():
    f, g = mix3(), tf.gaussian(0.2j, (0, 0, 1), 2.0)
    h = f - g.scale(0.5)
    assert len(h.terms) == 3
    back = tf.from_json_dict(tf.to_json_dict(h))
    assert back.nu == 3
    xs = np.array([0.1, -0.2, 0.3])
    assert tf.evaluate(back, xs) == pytest.approx(tf.evaluate(h, xs), rel=1e-15)
    with pytest.raises(DimensionMismatch):
        f + tf.gaussian(1.0, (0,), 1.0)


@pytest.mark.parametrize("pair", [lambda f, g: tf.resolvent_pair(f, g, 0.3),
                                  tf.invham_pair], ids=["resolvent", "invham"])
def test_diagonal_pairing_of_three_terms_is_real_and_fast(pair):
    f = mix_three()
    t0 = time.perf_counter()
    val = pair(f, f)
    assert time.perf_counter() - t0 < 1.0
    assert val.imag == 0.0
    # an equal mixture held in another object is a diagonal pair too
    t0 = time.perf_counter()
    assert pair(f, tf.TestFunction(3, f.terms)) == val
    assert time.perf_counter() - t0 < 1.0
    singles = [tf.TestFunction(3, (t,)) for t in f.terms]
    bilinear = sum(pair(a, b) for a in singles for b in singles)
    assert val.real == pytest.approx(bilinear.real, rel=1e-10)
    assert abs(bilinear.imag) <= 1e-10 * abs(bilinear.real)
