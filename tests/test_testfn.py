import cmath
import decimal
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from weylgas import states as st
from weylgas import testfn as tf
from weylgas.errors import DimensionMismatch, DimensionTooLow, DomainViolation
from weylgas.errors import InvalidSpec, QuadratureFailure


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


def test_norm_far_from_the_origin_is_translation_invariant():
    # each axis is evaluated in centred form, so no exponent term grows like
    # center^2 (at 1e160 such a term overflows)
    def packet(c):
        return (tf.gaussian(0.8 - 0.3j, (c, -c, 0.0), 1.3, (0.7, 0.0, -2.0))
                + tf.gaussian(0.4j, (c, -c, 0.0), 0.6, (0.7, 0.0, -2.0)))

    near = tf.norm_sq(packet(0.0))
    for c in (1e4, 1e160, 1e300):
        assert tf.norm_sq(packet(c)) == pytest.approx(near, rel=1e-15)
    # packets too far apart for (c2 - c1)^2 to be a float do not overlap
    assert tf.inner_product(tf.gaussian(1.0, (-1e300,), 1.0),
                            tf.gaussian(1.0, (1e300,), 1.0)) == 0j


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
        assert complex(tf.resolvent_pair(f, f, 0.0)).real == pytest.approx(
            4 * math.pi ** 1.5 * amp ** 2 * sigma ** 5, rel=1e-11)
    assert complex(tf.resolvent_pair(tf.gaussian(0.1, (0, 0, 0), 1.0),
                                     tf.gaussian(0.1, (0, 0, 0), 1.0), 0.0)).real \
        == pytest.approx(0.2227331198732683, rel=1e-10)


def test_invham_requires_three_dimensions():
    with pytest.raises(DimensionTooLow):
        tf.resolvent_pair(tf.gaussian(1.0, (0, 0), 1.0), tf.gaussian(1.0, (0, 0), 1.0), 0.0)


def test_resolvent_against_momentum_quadrature():
    f = tf.gaussian(0.2, (0, 0, 0), 1.0)
    c = 0.65
    # radial momentum-side oracle: |fhat|^2 = a^2 sigma^6 (2pi)^3 e^{-sigma^2 p^2}
    pref = 0.04 * (2 * math.pi) ** 3 / (2 * math.pi) ** 3 * 4 * math.pi

    def integrand(r):
        return pref * r * r * math.exp(-r * r) / (r * r / 2.0 + c)

    oracle = quad(integrand, 0, np.inf, limit=200)[0]
    assert complex(tf.resolvent_pair(f, f, c)).real == pytest.approx(oracle, rel=1e-10)
    for c in (-0.1, math.nan):
        with pytest.raises(DomainViolation):
            tf.resolvent_pair(f, f, c)


def _coth_split(f, g, bh, mu):
    """(2/(beta h)) <f, (H - mu)^{-1} g> plus the radial critical correction."""
    return (2.0 / bh) * tf.resolvent_pair(f, g, -mu) + tf._radial_pairing(
        f, g, lambda r: tf._coth_defect(bh * r * r / 2.0 - bh * mu))


_MOVING = tf.gaussian(0.3, (0.2, 0.0, -0.1), 0.8, (2.5, -1.0, 0.7))
_ROUTE_CASES = {
    "mix3": (mix3(), mix3()),
    "momentum-pair": (_MOVING, _MOVING),
    "momentum-cross": (mix3(), _MOVING),
    "separated-centres": ((tf.gaussian(0.2, (1.5, 0, 0), 0.6)
                           + tf.gaussian(0.2, (-1.5, 0, 0), 0.6)),) * 2,
    "three-terms": (mix_three(), mix_three()),
    "nu1": ((tf.gaussian(0.3, (0.2,), 0.9, (1.1,)) + tf.gaussian(0.1j, (-0.7,), 0.6)),) * 2,
    "nu2": ((tf.gaussian(0.3, (0.2, -0.4), 0.9, (1.1, -0.6))
             + tf.gaussian(0.1 - 0.1j, (-0.7, 0.3), 0.6)),) * 2,
    "nu4": ((tf.gaussian(0.3, (0.2, -0.4, 0.1, 0.0), 0.9, (1.1, -0.6, 0.0, 0.4))
             + tf.gaussian(0.1 - 0.1j, (-0.7, 0.3, 0.0, 0.5), 0.6)),) * 2,
}


@pytest.mark.parametrize("bh, mu", [(1.0, -0.3), (0.2, -0.5), (5.0, -0.1)])
@pytest.mark.parametrize("case", list(_ROUTE_CASES))
def test_thermal_routes_agree(case, bh, mu):
    # the geometric series and the coth split evaluate the same integral
    f, g = _ROUTE_CASES[case]
    series = tf.thermal_pair(f, g, bh, 1.0, mu)
    assert complex(series) == pytest.approx(complex(_coth_split(f, g, bh, mu)), rel=1e-11)


def test_critical_correction_raises_when_quad_misses_its_target(monkeypatch):
    # a target below rounding cannot be met: quad's estimate misses it
    monkeypatch.setattr(tf, "_RTOL", 1e-18)
    pref, a0, b, c_sum = tf._pair_params(_MOVING.terms[0], mix3().terms[1], 3)
    with pytest.raises(QuadratureFailure):
        tf._radial_pair(pref, a0, b, c_sum, 3, lambda r: tf._coth_defect(r * r / 2.0))


def _radial_resolvent(f, c):
    """<f, (H + c)^{-1} f> by the radial route at any c > 0."""
    return tf._radial_pairing(f, f, lambda r: 1.0 / (r * r / 2.0 + c),
                              (math.sqrt(2.0 * c),)).real


def _random_mixture(nu, seed):
    """Three terms with waves and separated centres."""
    rng = np.random.default_rng([nu, seed])
    f = tf.TestFunction(nu, ())
    for _ in range(3):
        f = f + tf.gaussian(complex(*rng.uniform(-0.5, 0.5, 2)), rng.uniform(-1.5, 1.5, nu),
                            rng.uniform(0.6, 1.4), rng.uniform(-1.5, 1.5, nu))
    return f


@pytest.mark.parametrize("nu", [3, 4, 5])
def test_resolvent_at_tiny_shifts_lies_between_its_neighbours(nu):
    # R(c) of a diagonal pair decreases in c; the tau-quadrature returned
    # values far outside [R(5e-5), R(0)] below c = 2e-5
    f = _random_mixture(nu, 20)
    low, high = (tf.resolvent_pair(f, f, c).real for c in (tf._RADIAL_SHIFT, 0.0))
    values = [tf.resolvent_pair(f, f, c).real for c in (1e-7, 1e-6, 1e-5)]
    assert high >= values[0] >= values[1] >= values[2] >= low


@pytest.mark.parametrize("c", [tf._RADIAL_SHIFT, 1e-4])
@pytest.mark.parametrize("nu", [3, 4, 5])
def test_resolvent_routes_agree_at_the_switch(nu, c):
    f = _random_mixture(nu, 20)
    assert tf.resolvent_pair(f, f, c).real == pytest.approx(_radial_resolvent(f, c), rel=1e-10)


def test_resolvent_at_a_tiny_shift_matches_the_oracle():
    # the tau-quadrature returned -6.6e-4 here; the value is the momentum
    # radial oracle's (an independent implementation)
    f = tf.gaussian(0.117 - 0.262j, (1.69, -1.194, 0.931), 0.701, (-1.533, -0.881, -2.036)) \
        + tf.gaussian(-0.162 - 0.631j, (-1.297, -2.0, -1.758), 0.658, (-0.412, 0.508, 2.405)) \
        + tf.gaussian(-0.056 + 0.531j, (0.446, 1.686, -1.594), 1.425, (-0.52, 1.408, -0.887))
    assert tf.resolvent_pair(f, f, 1.8e-6).real == pytest.approx(3.6872955834561685, rel=1e-10)


@pytest.mark.parametrize("nu", [3, 4, 5])
def test_thermal_pair_near_criticality_lies_between_its_neighbours(nu):
    # J(mu) of a diagonal pair increases towards mu = 0
    f = _random_mixture(nu, 20)
    beta, h = 0.8, 1.25
    values = [tf.thermal_pair(f, f, beta, h, -x / (beta * h)).real
              for x in (0.0, 1e-7, 1e-6, 1e-5)]
    assert values == sorted(values, reverse=True)


def test_coth_defect_against_exact_arithmetic():
    # phi(s) = (e^s + 1)/(e^s - 1) - 2/s in 60-digit decimal arithmetic; the
    # direct form alone would lose 12 eps/s^2 to cancellation
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for s in np.geomspace(1e-9, 200.0, 400):
            d = decimal.Decimal(float(s))
            e = d.exp()
            exact = float((e + 1) / (e - 1) - 2 / d)
            assert tf._coth_defect(float(s)) == pytest.approx(exact, rel=5e-14, abs=0)
    assert tf._coth_defect(0.0) == 0.0
    assert tf._coth_defect(math.inf) == 1.0


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
    # the second case is wide: 256 modes and a centre 0.3 from the wall; the
    # third has its centre outside the box
    for L, nmax, c, s, w in ((2.0, 24, 0.4, 0.8, 2.5), (40.0, 256, 39.7, 0.5, 3.0),
                             (1.0, 24, 1.6, 0.4, 0.7)):
        ov = tf.axis_sine_overlaps(c, s, w, L, nmax)
        for n in (1, 5, 20, nmax):
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


def test_gauss_terms_and_json_reject_bad_input():
    for bad in (dict(amp=complex(math.nan, 0)), dict(amp=complex(0, math.inf)),
                dict(center=(0.0, math.nan)), dict(sigma=math.nan), dict(sigma=math.inf),
                dict(wave=(math.inf, 0.0))):
        args = dict(amp=1.0 + 0j, center=(0.0, 0.0), sigma=1.0, wave=(0.0, 0.0)) | bad
        with pytest.raises(DomainViolation):
            tf.GaussTerm(**args)
    good = {"amp": [0.1, 0.0], "center": [0, 0], "sigma": 1.0, "wave": [0, 0]}
    for bad in ([1], {"nu": 2}, {"terms": [good]}, {"nu": "2", "terms": [good]},
                {"nu": 2.5, "terms": [good]}, {"nu": True, "terms": [good]},
                {"nu": 0, "terms": []}, {"nu": 2, "terms": good}, {"nu": 2, "terms": [1]},
                {"nu": 2, "terms": [{k: v for k, v in good.items() if k != "wave"}]},
                {"nu": 2, "terms": [good | {"amp": [0.1]}]},
                {"nu": 2, "terms": [good | {"amp": [0.1, 0, 0]}]},
                {"nu": 2, "terms": [good | {"center": [0, 0, 0]}]},
                {"nu": 2, "terms": [good | {"wave": [0]}]},
                {"nu": 2, "terms": [good | {"sigma": "1"}]},
                {"nu": 2, "terms": [good | {"center": ["0", 0]}]},
                {"nu": 2, "terms": [good | {"sigma": [1.0]}]}):
        with pytest.raises(InvalidSpec):
            tf.from_json_dict(bad)
    assert tf.from_json_dict({"nu": 2, "terms": [good]}).terms[0].sigma == 1.0


@pytest.mark.parametrize("pair", [lambda f, g: tf.resolvent_pair(f, g, 0.3),
                                  lambda f, g: tf.resolvent_pair(f, g, 0.0)],
                         ids=["resolvent", "invham"])
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


def test_reordered_mixture_pairs_like_itself_and_fast():
    # the imaginary part of <f, H^-1 g> cancels to rounding noise for a
    # reordering g of f; it must not stall the tau-quadrature
    f = (tf.gaussian(1.0, (0.0, 0.2, -0.1), 0.8)
         + tf.gaussian(0.5 - 0.3j, (0.4, -0.3, 0.1), 1.1)
         + tf.gaussian(-0.7 + 0.2j, (-0.5, 0.1, 0.3), 0.6, (0.3, -0.2, 0.1)))
    g = tf.TestFunction(3, f.terms[::-1])
    want = tf.resolvent_pair(f, f, 0.0)
    start = time.perf_counter()
    got = tf.resolvent_pair(f, g, 0.0)
    assert time.perf_counter() - start < 1.0
    assert abs(got - want) <= 1e-12 * abs(want)


# -- the closed-form inverse Hamiltonian at nu = 3 ----------------------------------

def _tau_invham(f, g):
    """<f, H^-1 g> by the Schwinger tau-quadrature of K, the route that
    nu = 3 took before its closed form; K(u) is heat_pair's sum over a
    table of the pair parameters, built once."""
    table = [(pref, a0, complex(np.sum(b * b)) / 4.0, c_sum)
             for pref, a0, b, c_sum in (tf._pair_params(s, t, 3)
                                        for s in f.terms for t in g.terms)]

    def integrand(u):
        return sum(pref * (math.pi / (a0 + u)) ** 1.5 * cmath.exp(bb / (a0 + u) + c_sum)
                   for pref, a0, bb, c_sum in table)

    real = f == g
    return 2.0 * (tf._quad_complex(integrand, 0.0, 1.0, real=real)
                  + tf._quad_complex(integrand, 1.0, np.inf, real=real))


def _perfbench_mixture(rng):
    """1-3 terms in the benchmark's ranges: sigma 0.5-1.5, |w_i| <= 1 and
    centres within +-1."""
    f = tf.TestFunction(3, ())
    for _ in range(rng.integers(1, 4)):
        f = f + tf.gaussian(complex(*rng.uniform(-1, 1, 2)), rng.uniform(-1, 1, 3),
                            rng.uniform(0.5, 1.5), rng.uniform(-1, 1, 3))
    return f


def test_invham_closed_form_matches_the_tau_route():
    rng = np.random.default_rng(23)
    for k in range(200):
        f = _perfbench_mixture(rng)
        g = f if k % 2 else _perfbench_mixture(rng)
        got, want = tf.resolvent_pair(f, g, 0.0), _tau_invham(f, g)
        assert abs(got - want) <= 1e-12 * abs(want)
        if f == g:
            assert got.imag == 0.0


def _packet(rng, sigma, center, speed):
    wave = rng.normal(size=3)
    return tf.gaussian(complex(*rng.uniform(-1, 1, 2)), center + sigma * rng.uniform(-2, 2, 3),
                       sigma * rng.uniform(0.8, 1.25), wave * speed / np.linalg.norm(wave))


@pytest.mark.parametrize("speed", [0.0, 10.0, 35.0])
@pytest.mark.parametrize("sigma", [1e-3, 0.05, 0.3])
def test_invham_closed_form_matches_the_radial_route_on_narrow_and_fast_packets(sigma, speed):
    # the tau-quadrature steps over the peak of K for such packets
    rng = np.random.default_rng([round(sigma * 1e3), round(speed)])
    center = rng.uniform(-1, 1, 3)
    f = _packet(rng, sigma, center, speed) + _packet(rng, sigma, center, speed)
    g = _packet(rng, sigma, center, speed)
    for a, b in ((f, f), (f, g)):
        got = tf.resolvent_pair(a, b, 0.0)
        assert abs(got - tf._radial_pairing(a, b, lambda r: 2.0 / (r * r))) <= 1e-10 * abs(got)


def test_invham_of_a_narrow_fast_condensate_packet():
    # the tau-quadrature made this expectation 1.0; the value is
    # exp(-classical_condensate_exponent) of the benchmark oracles
    spec = st.StateSpec(kind="ClassicalCondensate", beta=1.0, alpha=0.0)
    f = tf.gaussian(1e8, (0.3, -0.2, 0.1), 2e-4, (10, -10, 5))
    assert st.weyl_expectation(spec, f) == pytest.approx(0.964990439103791, rel=1e-12)


def test_invham_of_far_apart_terms_keeps_the_long_range_tail():
    # <s, t> underflows and the Dawson function would overflow 60 widths
    # apart; H^-1 still couples the terms like 1/(2 pi distance)
    s = tf.gaussian(1.0, (0, 0, 0), 1.0)
    t = tf.gaussian(0.5 - 0.5j, (60, 0, 0), 1.0, (0.3, 0, 0))
    assert tf.inner_product(s, t) == 0.0
    for a, b in ((s, t), (s + t, s + t)):
        got = tf.resolvent_pair(a, b, 0.0)
        assert cmath.isfinite(got)
        assert abs(got - tf._radial_pairing(a, b, lambda r: 2.0 / (r * r))) <= 1e-12 * abs(got)
    tail = abs(tf.space_integral(s) * tf.space_integral(t)) / (2 * math.pi * 60)
    assert abs(tf.resolvent_pair(s, t, 0.0)) == pytest.approx(tail, rel=0.01)


def test_invham_at_nu_3_runs_no_quadrature(monkeypatch):
    # the nu = 3 inverse-H path is closed-form; a tau-quadrature there costs
    # about 8 ms per call and misses narrow or fast packets
    def refuse(*args, **kwargs):
        raise AssertionError("quad called on the nu = 3 inverse-H path")

    monkeypatch.setattr(tf, "quad", refuse)
    f, g = mix_three(), tf.gaussian(0.3j, (0.2, 0.1, -0.4), 0.7, (0.5, 0.0, -0.2))
    assert tf.resolvent_pair(f, f, 0.0).imag == 0.0
    tf.resolvent_pair(f, g, 0.0)
    spec = st.StateSpec(kind="ClassicalCondensate", beta=1.0, alpha=0.1)
    assert 0.0 < st.weyl_expectation(spec, f) < 1.0
