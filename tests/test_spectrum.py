import functools
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import zeta

from weylgas import spectrum as sp
from weylgas.errors import DomainViolation, InvalidIndex, InvalidSpec, \
    TailToleranceExceeded
from weylgas.errors import QuadratureFailure


def test_ground_mode_energy():
    assert sp.eigenvalue((1, 1, 1), 1.0) == pytest.approx(3 * math.pi ** 2 / 8)
    assert sp.eigenvalue((1, 1, 1), 1.0) == pytest.approx(3.7011016504085092)
    assert sp.eigenvalue((2, 3), 1.5) == pytest.approx(sp.kappa(1.5) * 13)
    with pytest.raises(InvalidIndex):
        sp.eigenvalue((0, 1), 1.0)


def test_volume_and_spec_validation():
    assert sp.volume(2.0, 3) == pytest.approx(64.0)
    for bad in (dict(L=-1, nu=3, cutoff=4), dict(L=1, nu=0, cutoff=4),
                dict(L=1, nu=3, cutoff=0)):
        with pytest.raises(InvalidSpec):
            sp.BoxSpectrum(**bad)


def test_mode_sum_matches_loop():
    spec = sp.BoxSpectrum(L=1.0, nu=3, cutoff=20)
    weight, tail = sp.bose_weight(spec, 0.8, 0.5, -0.1)
    val, cert = sp.mode_sum(weight, spec, tail, 1e-9)
    direct = sum(1.0 / math.expm1(0.4 * (sp.eigenvalue((a, b, c), 1.0) + 0.1))
                 for a in range(1, 21) for b in range(1, 21) for c in range(1, 21))
    assert val == pytest.approx(direct, rel=1e-14)
    assert 0 < cert <= 1e-9


def test_mode_sum_rejects_loose_tail():
    spec = sp.BoxSpectrum(L=6.0, nu=3, cutoff=3)
    weight, tail = sp.bose_weight(spec, 0.1, 0.5, 0.0)
    with pytest.raises(TailToleranceExceeded):
        sp.mode_sum(weight, spec, tail, 1e-12)
    # NaN never compares as exceeded; inf accepts any finite tail
    with pytest.raises(DomainViolation):
        sp.mode_sum(weight, spec, tail, math.nan)
    assert sp.mode_sum(weight, spec, tail, math.inf)[1] == tail


def test_bose_weight_values_and_tail():
    spec = sp.BoxSpectrum(L=1.0, nu=3, cutoff=24)
    weight, tail = sp.bose_weight(spec, 2.0, 0.5, -0.3)
    x = math.exp(-1.0 * (sp.eigenvalue((1, 2, 1), 1.0) + 0.3))
    assert float(weight(6.0)) == pytest.approx(x / (1 - x), rel=1e-14)
    val, cert = sp.mode_sum(weight, spec, tail, 1e-10)
    wide = sp.BoxSpectrum(L=1.0, nu=3, cutoff=40)
    w2, t2 = sp.bose_weight(wide, 2.0, 0.5, -0.3)
    refined, _ = sp.mode_sum(w2, wide, t2, 1e-10)
    assert abs(refined - val) <= cert + 1e-14 * abs(val)


def test_gaussian_axis_tail_bound():
    a, cutoff = 0.2, 8
    exact = sum(math.exp(-a * n * n) for n in range(cutoff + 1, 400))
    bound = sp.gaussian_axis_tail(a, cutoff)
    assert exact <= bound <= exact * 1.5
    with pytest.raises(DomainViolation):
        sp.gaussian_axis_tail(0.0, 4)


def test_trace_power_convergent_branch():
    spec = sp.BoxSpectrum(L=1.0, nu=3, cutoff=60)
    val, ok = sp.trace_h_power(2.0, spec)
    assert ok
    # oracle: sum_n |n|^-4 = int_0^inf t theta(t)^3 dt with
    # theta(t) = sum_{n>=1} exp(-t n^2), Poisson-accelerated for small t
    def theta(t):
        if t > 0.3:
            ns = np.arange(1, int(np.ceil(np.sqrt(745.0 / t))) + 1)
            return float(np.sum(np.exp(-t * ns * ns)))
        full = math.sqrt(math.pi / t) * sum(
            math.exp(-math.pi ** 2 * j * j / t) for j in range(-8, 9))
        return 0.5 * (full - 1.0)

    oracle = quad(lambda t: t * theta(t) ** 3, 0, np.inf, limit=400)[0] \
        * sp.kappa(1.0) ** -2.0
    assert val == pytest.approx(oracle, rel=1e-10)
    # stable under cutoff doubling
    val2, _ = sp.trace_h_power(2.0, sp.BoxSpectrum(L=1.0, nu=3, cutoff=120))
    assert abs(val2 - val) <= 1e-6 * abs(val)


def test_convergent_trace_scales_with_the_ground_energy_alone():
    # Tr H^-s = E_0(L)^-s J(s, nu): the kept J serves every L
    scaled = [sp.trace_h_power(2.0, sp.BoxSpectrum(L=L, nu=3, cutoff=8))[0]
              * sp.ground_energy(L, 3) ** 2 for L in (0.5, 1.0, 7.0, 1e3)]
    assert scaled == pytest.approx([scaled[0]] * 4, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("s", [0.6, 1.0, 2.0, 3.5, 12.0])
def test_trace_power_one_dimension_is_zeta(s):
    # sum_{n >= 1} (kappa n^2)^{-s} = kappa^{-s} zeta(2s)
    L = 1.7
    val, ok = sp.trace_h_power(s, sp.BoxSpectrum(L=L, nu=1, cutoff=5))
    assert ok
    assert val == pytest.approx(sp.kappa(L) ** -s * zeta(2 * s), rel=1e-13)


@pytest.mark.parametrize("s", [1.05, 1.5, 2.0, 3.0])
def test_trace_power_two_dimensions_against_dirichlet_beta(s):
    # sum over Z^2 minus the origin of |n|^{-2s} is 4 zeta(s) beta(s); the
    # quadrant n >= 1 is a quarter of it less the axes, 4 zeta(2s)
    beta = 4.0 ** -s * (zeta(s, 0.25) - zeta(s, 0.75))
    val, ok = sp.trace_h_power(s, sp.BoxSpectrum(L=1.0, nu=2, cutoff=5))
    assert ok
    want = sp.kappa(1.0) ** -s * (zeta(s) * beta - zeta(2 * s))
    assert val == pytest.approx(want, rel=1e-12)


def test_trace_power_four_dimensions_bracketed():
    s, n_max = 2.5, 48
    t0 = time.perf_counter()
    val, ok = sp.trace_h_power(s, sp.BoxSpectrum(L=1.0, nu=4, cutoff=10))
    elapsed = time.perf_counter() - t0
    assert ok and elapsed < 1.0
    # direct sum of |n|^{-5} over [1..n_max]^4, one first-axis slice at a time
    ns = np.arange(1, n_max + 1, dtype=float)
    rest = (ns[:, None, None] ** 2 + ns[None, :, None] ** 2 + ns[None, None, :] ** 2)
    partial = sum(float(np.sum((a * a + rest) ** -s)) for a in ns)
    # integral test: each omitted point has a coordinate > n_max and is
    # dominated by its unit cell below it, which lies in |x| >= n_max of the
    # positive orthant: (|S^3| / 16) int_{n_max}^inf r^{3-2s} dr
    tail = (2 * math.pi ** 2 / 16) * n_max ** (4 - 2 * s) / (2 * s - 4)
    scaled = val * sp.kappa(1.0) ** s
    assert partial < scaled <= partial + tail


def test_trace_power_divergent_branch_grows():
    v1, ok1 = sp.trace_h_power(1.0, sp.BoxSpectrum(L=1.0, nu=3, cutoff=60))
    v2, ok2 = sp.trace_h_power(1.0, sp.BoxSpectrum(L=1.0, nu=3, cutoff=120))
    assert not ok1 and not ok2
    assert v2 > v1 * 1.5


def test_trace_power_respects_dimension_threshold():
    # 2s > nu is the convergence line
    _, ok = sp.trace_h_power(0.6, sp.BoxSpectrum(L=1.0, nu=1, cutoff=40))
    assert ok
    _, ok = sp.trace_h_power(0.5, sp.BoxSpectrum(L=1.0, nu=1, cutoff=40))
    assert not ok


def test_theta_mellin_certificate_covers_rounding():
    box = sp.BoxSpectrum(L=1.0, nu=3, cutoff=8)
    with pytest.raises(QuadratureFailure):
        sp.trace_h_power(5000.0, box)
    value, converged = sp.trace_h_power(2.0, box)
    assert converged
    assert value == pytest.approx(0.40618954066422824, rel=1e-14)


@pytest.mark.parametrize("s, L", [(200.0, 100.0), (2.0, 1e200), (1.0, 1e-200), (1.5, 1e150)])
def test_trace_power_out_of_float_range(s, L):
    with pytest.raises(DomainViolation):
        sp.trace_h_power(s, sp.BoxSpectrum(L=L, nu=3, cutoff=8))


@pytest.mark.parametrize("nu, cutoff", [(1, 30), (2, 17), (3, 12), (4, 7)])
def test_shell_tables_match_brute_force(nu, cutoff):
    grid = np.indices((cutoff,) * nu).reshape(nu, -1) + 1
    m = (grid ** 2).sum(axis=0)
    counts = np.bincount(m)
    shells, mult = sp._shell_table(cutoff, nu)
    assert shells.dtype == float
    assert np.array_equal(shells, np.flatnonzero(counts))
    assert np.array_equal(mult, counts[shells.astype(int)])
    assert not shells.flags.writeable and not mult.flags.writeable
    # the shell spectrum of complex axis vectors against binning the full grid
    rng = np.random.default_rng(nu)
    qs = [rng.normal(size=cutoff) + 1j * rng.normal(size=cutoff) for _ in range(nu)]
    prod = functools.reduce(np.multiply.outer, qs).ravel()
    brute = np.bincount(m, prod.real) + 1j * np.bincount(m, prod.imag)
    spectrum = sp._shell_spectrum(qs)
    assert spectrum.dtype == complex and not spectrum.flags.writeable
    occupied = shells.astype(int)
    scale = np.bincount(m, np.abs(prod))[occupied]
    assert np.all(np.abs(spectrum - brute[occupied]) <= 1e-14 * scale)
    # real axis vectors give a float64 spectrum
    real = sp._shell_spectrum([np.abs(q) ** 2 for q in qs])
    assert real.dtype == np.float64 and not real.flags.writeable
    assert np.allclose(real, np.bincount(m, np.abs(prod) ** 2)[occupied], rtol=1e-13, atol=0.0)


def test_oversized_shell_tables_are_refused():
    # nu cutoff^2 = 7.5e7 shells: refused before anything is allocated
    box = sp.BoxSpectrum(L=1.0, nu=3, cutoff=5000)
    weight, tail = sp.bose_weight(box, 1.0, 0.3, 0.0)
    with pytest.raises(DomainViolation):
        sp.mode_sum(weight, box, tail, math.inf)
    with pytest.raises(DomainViolation):
        sp.trace_h_power(1.0, box)


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_product_excess_against_exact_arithmetic(nu):
    # prod(a + b) - prod(a) with b/a from 1e-30 to 1e3: no cancellation
    rng = np.random.default_rng(nu)
    for _ in range(200):
        a = 10.0 ** rng.uniform(-3, 3, nu)
        b = a * 10.0 ** rng.uniform(-30, 3, nu)
        b[rng.random(nu) < 0.3] = 0.0
        exact = math.prod(Fraction(x) + Fraction(y) for x, y in zip(a, b)) \
            - math.prod(Fraction(x) for x in a)
        got = sp._product_excess(list(zip(a, b)))
        if b.any():
            assert got > 0
            assert abs(Fraction(got) - exact) <= 8 * nu * sys.float_info.epsilon * exact
        else:
            assert got == 0.0
