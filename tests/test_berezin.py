import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from weylgas import berezin as bz
from weylgas.errors import DomainViolation, QuadratureFailure


def test_coherent_state_normalization():
    for h in (0.5, 1.0, 2.0):
        psi = bz.coherent_state([0.3], [-0.7], h)
        assert bz.norm_sq(psi) == pytest.approx(1.0, rel=1e-13)
    two = bz.coherent_state([0.3, -0.1], [0.2, 0.4], 0.7)
    assert bz.norm_sq(two) == pytest.approx(1.0, rel=1e-13)


def test_overlap_conjugate_symmetry_and_oracle():
    a = bz.coherent_state([0.5], [1.0], 1.0)
    b = bz.WavePacket(amp=0.8 - 0.2j, centers=(-0.3,), sigmas=(1.4,), waves=(0.6,))
    ov = bz.overlap(a, b)
    assert ov == pytest.approx(bz.overlap(b, a).conjugate(), rel=1e-13)

    def integrand(x):
        va = a.amp * cmath.exp(1j * a.waves[0] * x
                               - (x - a.centers[0]) ** 2 / (2 * a.sigmas[0] ** 2))
        vb = b.amp * cmath.exp(1j * b.waves[0] * x
                               - (x - b.centers[0]) ** 2 / (2 * b.sigmas[0] ** 2))
        return va.conjugate() * vb

    re = quad(lambda x: integrand(x).real, -12, 12, limit=200)[0]
    im = quad(lambda x: integrand(x).imag, -12, 12, limit=200)[0]
    assert ov == pytest.approx(complex(re, im), rel=1e-10)


def test_weyl_action_composition_phase():
    # W(a) W(b) = exp(-i h sigma(a,b)/2) W(a+b) acting on a packet
    h = 0.7
    psi = bz.coherent_state([0.2], [0.1], h)
    l1, m1, l2, m2 = 0.5, -0.3, 0.8, 0.4
    lhs = bz.weyl_action([l1], [m1], bz.weyl_action([l2], [m2], psi, h), h)
    sigma = l1 * m2 - m1 * l2  # symplectic pairing of the two labels
    rhs = bz.weyl_action([l1 + l2], [m1 + m2], psi, h)
    pts = np.linspace(-2, 2, 9)

    def value(pk, x):
        return pk.amp * cmath.exp(1j * pk.waves[0] * x
                                  - (x - pk.centers[0]) ** 2 / (2 * pk.sigmas[0] ** 2))

    for x in pts:
        assert value(lhs, x) == pytest.approx(
            cmath.exp(-1j * h * sigma / 2) * value(rhs, x), rel=1e-12)


def test_schrodinger_ground_state_anchor():
    # <psi00, W(1,0) psi00> = exp(-1/4) at h = 1
    psi = bz.coherent_state([0.0], [0.0], 1.0)
    val = bz.schrodinger_matrix_element([1.0], [0.0], psi, psi, 1.0)
    assert val == pytest.approx(math.exp(-0.25), rel=1e-13)


def test_quantization_reproduces_weyl_functional():
    # phase-space side vs exp(-h(lam^2+mu^2)/4) * schrodinger element, several cases
    rng = np.random.default_rng(42)
    for h in (0.5, 1.0, 2.0):
        phi = bz.coherent_state([rng.uniform(-1, 1)], [rng.uniform(-1, 1)], h)
        psi = bz.coherent_state([rng.uniform(-1, 1)], [rng.uniform(-1, 1)], h)
        lam, mu = rng.uniform(-2, 2), rng.uniform(-2, 2)
        got = bz.berezin_matrix_element([lam], [mu], phi, psi, h)
        want = math.exp(-h * (lam * lam + mu * mu) / 4.0) \
            * bz.schrodinger_matrix_element([lam], [mu], phi, psi, h)
        assert got == pytest.approx(want, rel=1e-8)


def test_quantization_ground_anchor():
    psi = bz.coherent_state([0.0], [0.0], 1.0)
    val = bz.berezin_matrix_element([1.0], [0.0], psi, psi, 1.0)
    assert val == pytest.approx(math.exp(-0.5), rel=1e-10)


def test_overcompleteness_resolution_of_identity():
    psi = bz.WavePacket(amp=0.6, centers=(0.4,), sigmas=(1.2,), waves=(-0.3,))
    quad_val, direct = bz.overcompleteness_check(psi, 0.8)
    assert quad_val == pytest.approx(direct, rel=1e-8)


def test_positivity_of_positive_symbols():
    sym = bz.TrigPolySymbol([1.0, 0.4, 0.2 - 0.1j], [(0, 0), (1, 0), (0, 1)])
    v = bz.coherent_state([0.3], [-0.5], 1.0)
    val = bz.berezin_positivity(sym, v, 1.0)
    assert val >= -1e-8
    assert val > 0.01  # strictly positive symbol, nonzero vector


def test_symbol_evaluates_as_squared_modulus():
    sym = bz.TrigPolySymbol([1.0, 0.5j], [(0, 0), (2, -1)])
    q, p = 0.7, -0.4
    inner = 1.0 + 0.5j * cmath.exp(1j * (2 * q - p))
    assert sym(q, p) == pytest.approx(abs(inner) ** 2, rel=1e-13)


def test_domain_errors():
    psi = bz.coherent_state([0.0], [0.0], 1.0)
    with pytest.raises(DomainViolation):
        bz.coherent_state([0.0], [0.0], 0.0)
    with pytest.raises(DomainViolation):
        bz.berezin_matrix_element([1.0, 0.0], [0.0], psi, psi, 1.0)
    two_axis = bz.coherent_state([0.0, 0.0], [0.0, 0.0], 1.0)
    with pytest.raises(DomainViolation):
        bz.overlap(psi, two_axis)
    with pytest.raises(DomainViolation):
        bz.berezin_positivity(bz.TrigPolySymbol([1.0], [(0, 0)]), two_axis, 1.0)


@pytest.mark.parametrize("h", [math.nan, math.inf])
def test_non_finite_h_is_rejected(h):
    psi = bz.coherent_state([0.0], [0.0], 1.0)
    for call in (lambda: bz.coherent_state([0.0], [0.0], h),
                 lambda: bz.weyl_action([1.0], [0.0], psi, h),
                 lambda: bz.berezin_matrix_element([1.0], [0.0], psi, psi, h),
                 lambda: bz.berezin_positivity(bz.TrigPolySymbol([1.0], [(0, 0)]), psi, h)):
        with pytest.raises(DomainViolation):
            call()


@pytest.mark.parametrize("h, ell", [(1e308, 1), (1e300, 8), (1e-300, 8)])
def test_coherent_state_rejects_unnormalizable_h(h, ell):
    # (h pi)^(-l/4) underflows, or h pi overflows, or the power overflows
    with pytest.raises(DomainViolation, match="normal float range"):
        bz.coherent_state([0.0] * ell, [0.0] * ell, h)


def test_positivity_rejects_degenerate_envelope():
    # at h = 1e308, h det A underflows below the normal float range
    v = bz.WavePacket(amp=1.0, centers=(0.0,), sigmas=(1.0,), waves=(0.0,))
    symbol = bz.TrigPolySymbol([1.0], [(1, 0)])
    with pytest.raises(DomainViolation, match="normal float range"):
        bz.berezin_positivity(symbol, v, 1e308)


def _random_packet(rng, ell, h):
    if rng.random() < 0.5:
        return bz.coherent_state(rng.uniform(-1, 1, ell), rng.uniform(-1, 1, ell), h)
    return bz.WavePacket(amp=complex(*rng.uniform(-1, 1, 2)),
                         centers=tuple(rng.uniform(-1, 1, ell)),
                         sigmas=tuple(rng.uniform(0.5, 2.0, ell)),
                         waves=tuple(rng.uniform(-2, 2, ell)))


def test_closed_form_matches_identity_on_random_elements():
    # the phase-space side against e^{-h(|lam|^2+|mu|^2)/4} <phi, W_h psi>
    rng = np.random.default_rng(2024)
    cases = [(np.array([3.5]), np.array([-1.5]), 2.74,
              bz.WavePacket(0.6 - 0.3j, (0.4,), (1.3,), (-0.8,)),
              bz.coherent_state([-0.2], [0.5], 2.74))]
    for _ in range(120):
        ell, h = int(rng.integers(1, 4)), float(rng.uniform(0.05, 3.0))
        cases.append((rng.uniform(-3, 3, ell), rng.uniform(-3, 3, ell), h,
                      _random_packet(rng, ell, h), _random_packet(rng, ell, h)))
    smallest = math.inf
    for lam, mu, h, phi, psi in cases:
        got = bz.berezin_matrix_element(lam, mu, phi, psi, h)
        want = math.exp(-h * float(lam @ lam + mu @ mu) / 4.0) \
            * bz.schrodinger_matrix_element(lam, mu, phi, psi, h)
        assert abs(got - want) <= 1e-12 * abs(want)
        smallest = min(smallest, abs(want))
    assert smallest < 1e-9  # a relative check, not an absolute one below 1


def test_matrix_element_underflows_to_zero():
    psi = bz.coherent_state([0.0], [0.0], 1.0)
    assert bz.berezin_matrix_element([60.0], [0.0], psi, psi, 1.0) == 0.0


def test_exponent_overflowing_to_minus_inf_gives_zero():
    # lam = 2^1023: lam^2 overflows, the exponent is -inf + nan i
    psi = bz.coherent_state([0.0], [0.0], 1.0)
    assert bz.berezin_matrix_element([2.0 ** 1023], [0.0], psi, psi, 1.0) == 0.0
    assert bz.schrodinger_matrix_element([1e160], [0.0], psi, psi, 1.0) == 0.0
    symbol = bz.TrigPolySymbol([1, 1], [(2 ** 1022, 0), (-2 ** 1022, 0)])
    assert bz.berezin_positivity(symbol, psi, 1.0) == pytest.approx(2.0, rel=1e-15)


def test_nan_exponent_still_raises():
    # centres at 1e160: the exponent's terms overflow with opposite signs
    far = bz.WavePacket(amp=1.0, centers=(1e160,), sigmas=(1.0,), waves=(0.0,))
    with pytest.raises(QuadratureFailure):
        bz.berezin_matrix_element([0.0], [0.0], far, far, 1.0)
    with pytest.raises(QuadratureFailure):
        bz.overlap(far, far)


def test_positivity_matches_coherent_husimi_closed_form():
    # |<psi^{qp}, v>|^2 for a coherent v at (q0, p0) is a Gaussian of
    # variance h around it, whose Fourier transform gives each plane wave
    rng = np.random.default_rng(7)
    for _ in range(40):
        coeffs = [complex(*rng.uniform(-1, 1, 2)) for _ in range(3)]
        freqs = [(0, 0), (int(rng.integers(-2, 3)), 0), (0, int(rng.integers(1, 3)))]
        h = rng.uniform(0.3, 2.0)
        q0, p0 = rng.uniform(-1, 1, 2)
        want = sum(c1.conjugate() * c2
                   * cmath.exp(1j * ((m2[0] - m1[0]) * q0 + (m2[1] - m1[1]) * p0))
                   * math.exp(-h * ((m2[0] - m1[0]) ** 2 + (m2[1] - m1[1]) ** 2) / 2.0)
                   for c1, m1 in zip(coeffs, freqs) for c2, m2 in zip(coeffs, freqs)).real
        got = bz.berezin_positivity(bz.TrigPolySymbol(coeffs, freqs),
                                    bz.coherent_state([q0], [p0], h), h)
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["amp", "centers", "sigmas", "waves"])
def test_wave_packet_rejects_non_finite_fields(field, bad):
    fields = {"amp": 1.0, "centers": (0.0,), "sigmas": (1.0,), "waves": (0.0,)}
    fields[field] = bad if field == "amp" else (bad,)
    with pytest.raises(DomainViolation, match="finite"):
        bz.WavePacket(**fields)


@pytest.mark.parametrize("coeffs, freqs", [
    ([1.0], [(math.nan, 0)]),
    ([1.0], [(0, math.inf)]),
    ([1.0], [(1.5, 0)]),
    ([1.0], [(10 ** 400, 0)]),
    ([1.0, 1.0], [(10 ** 308, 0), (-10 ** 308, 0)]),
    ([1.0], [(0, 2 ** 1022 + 2 ** 970)]),
    ([math.nan], [(0, 0)]),
    ([complex(1.0, math.inf)], [(0, 1)]),
])
def test_symbol_rejects_non_finite_or_fractional_input(coeffs, freqs):
    with pytest.raises(DomainViolation):
        bz.TrigPolySymbol(coeffs, freqs)


def test_symbol_accepts_integral_float_frequencies():
    assert bz.TrigPolySymbol([1.0], [(2.0, np.int64(-1))]).freqs == ((2, -1),)
