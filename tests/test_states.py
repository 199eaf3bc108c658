import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from scipy.integrate import quad
from scipy.special import zeta

from weylgas import equilibrium as eq
from weylgas import spectrum as sp
from weylgas import states as st
from weylgas import testfn as tf
from weylgas.errors import ChemicalPotentialOutOfRange, DimensionTooLow, InvalidSpec
from weylgas.errors import DomainViolation, QuadratureFailure, TailToleranceExceeded
from weylgas.errors import ValidationError

BOX = sp.BoxSpectrum(L=1.0, nu=3, cutoff=16)


def qbox(**kw):
    base = dict(kind="QuantumBoxGibbs", beta=1.0, h=1.0, mu=0.0, box=BOX)
    base.update(kw)
    return st.StateSpec(**base)


def cbox(**kw):
    base = dict(kind="ClassicalBoxGibbs", beta=1.0, mu=0.0, box=BOX)
    base.update(kw)
    return st.StateSpec(**base)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        st.validate_spec(st.StateSpec(kind="Nope", beta=1.0))
    with pytest.raises(InvalidSpec):
        st.validate_spec(qbox(h=0.0))
    with pytest.raises(InvalidSpec):
        st.validate_spec(cbox(h=0.3))
    with pytest.raises(ChemicalPotentialOutOfRange):
        st.validate_spec(qbox(mu=4.0))  # at or above the ground energy
    with pytest.raises(ChemicalPotentialOutOfRange):
        st.validate_spec(st.StateSpec(kind="ClassicalInfVol", beta=1.0, mu=0.1))
    with pytest.raises(DimensionTooLow):
        st.validate_spec(st.StateSpec(kind="ClassicalInfVol", beta=1.0, mu=0.0, nu=2))
    with pytest.raises(InvalidSpec):
        st.validate_spec(st.StateSpec(kind="QuantumCondensate", beta=1.0, h=1.0,
                                      rho_bar=0.0))
    with pytest.raises(InvalidSpec):
        st.validate_spec(st.StateSpec(kind="ClassicalCondensate", beta=1.0,
                                      alpha=-0.1))


def test_mode_helpers():
    f = {(1, 1, 1): 1 + 2j, (2, 1, 1): 0.5}
    g = {(1, 1, 1): 1j}
    assert st.mode_norm_sq(f) == pytest.approx(5.25)
    # sigma = Im <f, g>
    assert st.mode_sigma(f, g) == pytest.approx(((1 - 2j) * 1j).imag)
    assert st.mode_sigma(f, f) == 0.0


def test_quantum_box_explicit_small_sum():
    # tiny cutoff: reproduce the exponent with an explicit loop
    box = sp.BoxSpectrum(L=1.0, nu=2, cutoff=3)
    spec = st.StateSpec(kind="QuantumBoxGibbs", beta=0.7, h=0.4, mu=-0.2, box=box)
    f = {(1, 1): 0.8 - 0.3j, (3, 2): 0.25j}
    val = st.weyl_expectation(spec, f)
    expo = 0.0
    for n, c in f.items():
        x = math.exp(-0.7 * 0.4 * (sp.eigenvalue(n, 1.0) + 0.2))
        expo += abs(c) ** 2 * (1 + x) / (1 - x)
    assert val == pytest.approx(math.exp(-0.1 * expo), rel=1e-13)


def test_classical_box_explicit_small_sum():
    box = sp.BoxSpectrum(L=1.0, nu=2, cutoff=3)
    spec = st.StateSpec(kind="ClassicalBoxGibbs", beta=0.7, mu=-0.2, box=box)
    f = {(1, 1): 0.8 - 0.3j, (3, 2): 0.25j}
    expo = sum(abs(c) ** 2 / (sp.eigenvalue(n, 1.0) + 0.2) for n, c in f.items())
    assert st.weyl_expectation(spec, f) == pytest.approx(
        math.exp(-expo / 1.4), rel=1e-13)


def test_two_point_single_mode():
    spec = qbox()
    f = {(1, 1, 1): 1.0}
    x = math.exp(-3 * math.pi ** 2 / 8)
    expected = 0.5 * (1 + x) / (1 - x)
    assert st.two_point(spec, f, f) == pytest.approx(expected, rel=1e-14)
    # antisymmetric part carries the symplectic form
    g = {(1, 1, 1): 1j}
    val = st.two_point(spec, f, g)
    assert val.imag == pytest.approx(0.5 * st.mode_sigma(f, g))


def test_box_state_accepts_test_functions():
    # a function well inside the box, so the mode tail certifies
    f = tf.gaussian(0.1, (0.2, 0.0, -0.1), 1.0)
    L, cut = 5.0, 28
    spec = qbox(box=sp.BoxSpectrum(L=L, nu=3, cutoff=cut))
    val = st.weyl_expectation(spec, f)
    # oracle: expand f into mode coefficients and feed the mode-map path
    tensor = np.zeros((cut, cut, cut), dtype=complex)
    for term in f.terms:
        axes = [tf.axis_sine_overlaps(term.center[i], term.sigma,
                                      term.wave[i], L, cut) for i in range(3)]
        tensor += term.amp * L ** -1.5 * np.einsum("i,j,k->ijk", *axes)
    coeffs = {(a + 1, b + 1, c + 1): tensor[a, b, c]
              for a in range(cut) for b in range(cut) for c in range(cut)
              if abs(tensor[a, b, c]) > 1e-14}
    assert val == pytest.approx(
        complex(st.weyl_expectation(spec, coeffs)), rel=1e-8)


def test_infvol_states_reduce_to_quadratic_forms():
    f = tf.gaussian(0.1, (0, 0, 0), 1.0)
    cl = st.StateSpec(kind="ClassicalInfVol", beta=1.0, mu=0.0, nu=3)
    assert st.weyl_expectation(cl, f) == pytest.approx(
        math.exp(-0.5 * complex(tf.resolvent_pair(f, f, 0.0)).real), rel=1e-12)
    qu = st.StateSpec(kind="QuantumInfVol", beta=2.0, h=0.5, mu=-0.4, nu=3)
    j = complex(tf.thermal_pair(f, f, 2.0, 0.5, -0.4)).real
    assert st.weyl_expectation(qu, f) == pytest.approx(
        math.exp(-0.125 * j), rel=1e-12)


def test_classical_condensate_anchor():
    f = tf.gaussian(0.1, (0, 0, 0), 1.0)
    spec = st.StateSpec(kind="ClassicalCondensate", beta=1.0, alpha=0.1, nu=3)
    assert st.weyl_expectation(spec, f) == pytest.approx(
        0.3316857104472106, rel=1e-12)
    base = st.StateSpec(kind="ClassicalCondensate", beta=1.0, alpha=0.0, nu=3)
    assert st.weyl_expectation(base, f) == pytest.approx(
        0.8946107603553403, rel=1e-12)
    # alpha = inf collapses the state on anything with a nonzero mean
    inf_spec = st.StateSpec(kind="ClassicalCondensate", beta=1.0,
                            alpha=math.inf, nu=3)
    assert st.weyl_expectation(inf_spec, f) == 0.0
    zero_mean = f + tf.gaussian(-tf.space_integral(f) / tf.space_integral(
        tf.gaussian(1.0, (0, 0, 0), 0.5)), (0, 0, 0), 0.5)
    assert abs(tf.space_integral(zero_mean)) < 1e-13
    assert st.weyl_expectation(inf_spec, zero_mean) \
        == pytest.approx(st.weyl_expectation(base, zero_mean), rel=1e-12)


def test_quantum_condensate_matches_manual_formula():
    f = tf.gaussian(0.1, (0.2, 0, 0), 0.9, (0.5, 0, 0))
    beta, h = 1.0, 0.5
    rc = st.critical_density(beta, h, 3)
    spec = st.StateSpec(kind="QuantumCondensate", beta=beta, h=h,
                        rho_bar=rc + 0.2, nu=3)
    j0 = complex(tf.thermal_pair(f, f, beta, h, 0.0)).real
    mean = abs(complex(tf.space_integral(f))) ** 2
    expo = -(h / 4.0) * (j0 + 2.0 ** 4 * 0.2 * mean)
    assert st.weyl_expectation(spec, f) == pytest.approx(math.exp(expo), rel=1e-10)


def test_critical_density_series_and_scaling():
    # zeta-series oracle: rho_c = zeta(nu/2) (2 pi beta h)^{-nu/2} * (2/ (beta h))^0 ...
    val = st.critical_density(1.0, 1.0, 3)
    assert val == pytest.approx(zeta(1.5, 1) * (2 * math.pi) ** -1.5, rel=1e-10)
    assert val == pytest.approx(0.1658692093130222, rel=1e-12)
    # h-scaling
    assert st.critical_density(1.0, 0.01, 3) == pytest.approx(
        val * 0.01 ** -1.5, rel=1e-10)
    # zeta(200) (2 pi)^{-200} ~ 2.3e-160 lies in the float range
    assert st.critical_density(1.0, 1.0, 400) == pytest.approx(
        zeta(200.0) * (2 * math.pi) ** -200, rel=1e-13)
    with pytest.raises(DimensionTooLow):
        st.critical_density(1.0, 1.0, 2)


@pytest.mark.parametrize("nu", [3, 4, 5, 6, 7])
def test_critical_density_closed_form_matches_radial_quadrature(nu):
    for bh in np.geomspace(1e-3, 1e3, 13):
        assert st.critical_density(float(bh), 1.0, nu) == pytest.approx(
            st._bose_integral(float(bh), 0.0, nu), rel=1e-12)


@pytest.mark.parametrize("beta", [1e-12, 1e-8])
def test_quantum_density_at_small_beta_h(beta):
    # Li_{3/2}(e^{-t}) = zeta(3/2) - 2 sqrt(pi t) - zeta(1/2) t + O(t^2); the
    # sqrt(t) term sits below u = sqrt(2t) of the scaled radial integrand
    t = beta  # h = 1, mu = -1
    want = (2 * math.pi * beta) ** -1.5 \
        * (zeta(1.5) - 2 * math.sqrt(math.pi * t) - zeta(0.5) * t)
    spec = st.StateSpec(kind="QuantumInfVol", beta=beta, h=1.0, mu=-1.0)
    assert st.quantum_density(spec) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("nu", [1, 2, 3, 5])
def test_quantum_density_against_polylog_series(nu):
    # (2 pi beta h)^{-nu/2} Li_{nu/2}(z) with Li_s(z) = sum_k z^k / k^s
    for beta, h, mu in ((1.0, 1.0, -0.4), (0.3, 2.0, -1.5), (4.0, 0.5, -0.9)):
        z = math.exp(beta * h * mu)
        li = math.fsum(z ** k / k ** (nu / 2.0) for k in range(1, 400))
        spec = st.StateSpec(kind="QuantumInfVol", beta=beta, h=h, mu=mu, nu=nu)
        assert st.quantum_density(spec) == pytest.approx(
            (2 * math.pi * beta * h) ** (-nu / 2.0) * li, rel=1e-12)


def test_quantum_density_failures_are_typed(monkeypatch):
    far = st.StateSpec(kind="QuantumInfVol", beta=1e-300, h=1.0, mu=-1.0)
    with pytest.raises(DomainViolation):  # (beta h)^{-3/2} overflows
        st.quantum_density(far)
    # one subdivision cannot resolve the narrow window below u = sqrt(2 t)
    monkeypatch.setattr(st, "quad", lambda *a, **k: quad(*a, **{**k, "limit": 1}))
    with pytest.raises(QuadratureFailure):
        st.quantum_density(st.StateSpec(kind="QuantumInfVol", beta=1e-12, h=1.0,
                                        mu=-1.0, nu=1))


def test_quantum_density_monotone_in_mu():
    spec_lo = qbox(mu=-1.0, h=0.5)
    spec_hi = qbox(mu=-0.1, h=0.5)
    d_lo = st.quantum_density(spec_lo)
    d_hi = st.quantum_density(spec_hi)
    assert 0 < d_lo < d_hi
    # brute-force oracle at small cutoff
    box = sp.BoxSpectrum(L=1.0, nu=3, cutoff=12)
    spec = st.StateSpec(kind="QuantumBoxGibbs", beta=1.0, h=0.5, mu=-1.0, box=box)
    brute = sum(1.0 / math.expm1(0.5 * (sp.eigenvalue((a, b, c), 1.0) + 1.0))
                for a in range(1, 13) for b in range(1, 13) for c in range(1, 13))
    assert st.quantum_density(spec) == pytest.approx(brute / 8.0, rel=1e-10)


def test_gram_matrix_is_positive_semidefinite():
    spec = qbox(h=0.3)
    fs = [{(1, 1, 1): 1.0}, {(1, 1, 1): 0.5j, (2, 1, 1): 0.3},
          {(1, 2, 1): 1.0 - 0.7j}]
    g = st.gram_matrix(spec, fs)
    assert g.shape == (3, 3)
    assert np.allclose(g, g.conj().T)
    assert np.linalg.eigvalsh(g).min() >= -1e-12
    # diagonal entries are expectations of W(f_j - f_j) = 1
    assert np.allclose(np.diag(g).real, 1.0)


def test_shifted_expectation_time_zero():
    spec = cbox()
    x = {(1, 1, 1): 0.4 + 0.2j}
    k = {(1, 1, 1): 0.1j, (1, 2, 1): -0.2}
    vals = st.classical_shifted_expectation(spec, x, k, [0.0, 0.1])
    assert vals[0] == pytest.approx(complex(st.weyl_expectation(spec, x)), rel=1e-13)
    assert vals[1] != pytest.approx(vals[0])


def test_field_weyl_matches_finite_difference():
    # the field insertion of kms_residual, omega(Phi(k) W(x)) = -i d/dt
    # omega(W(x + t k))|_0, against a central difference of weyl_expectation
    # for a generator H - s that does not match the state's mu
    spec = cbox(mu=-0.2)
    deriv = eq.WeakDerivationSpec(kind="HMinusMu", mu=-0.6)
    f = {(1, 1, 1): 0.3 + 0.1j, (1, 2, 1): -0.2j}
    g = {(1, 1, 1): 0.5 - 0.2j, (2, 2, 1): 0.1}
    x = {n: f.get(n, 0.0) + g.get(n, 0.0) for n in set(f) | set(g)}
    k = {n: 1j * (sp.eigenvalue(n, BOX.L) + 0.6) * c for n, c in f.items()}

    def omega(t):
        return st.weyl_expectation(spec, {n: x.get(n, 0.0) + t * k.get(n, 0.0)
                                          for n in set(x) | set(k)})

    eps = 1e-5
    fd = (omega(eps) - omega(-eps)) / (2 * eps)
    want = abs(st.mode_sigma(g, f) * omega(0.0) - spec.beta * fd)
    assert want > 5e-3  # the matching generator H - mu leaves about 1e-17
    assert eq.kms_residual(spec, deriv, f, g) == pytest.approx(want, rel=1e-7)


def test_spec_json_round_trip():
    cases = (
        ({"kind": "QuantumBoxGibbs", "beta": 1.0, "h": 0.25, "mu": -0.3,
          "box": {"L": 1.0, "nu": 3, "cutoff": 16}}, qbox(h=0.25, mu=-0.3)),
        ({"kind": "ClassicalCondensate", "beta": 2.0, "h": 0.0, "nu": 3, "alpha": "inf"},
         st.StateSpec(kind="ClassicalCondensate", beta=2.0, alpha=math.inf, nu=3)),
        ({"kind": "QuantumInfVol", "beta": 1.0, "h": 1.0, "mu": -1.0},
         st.StateSpec(kind="QuantumInfVol", beta=1.0, h=1.0, mu=-1.0)),
    )
    for d, spec in cases:
        assert st.spec_from_json(d) == spec


# -- validation boundary -----------------------------------------------------------


@pytest.mark.parametrize("kw", [
    dict(kind="ClassicalInfVol", beta=math.nan, mu=-1.0),
    dict(kind="ClassicalInfVol", beta=math.inf, mu=-1.0),
    dict(kind="ClassicalInfVol", beta=1.0, mu=math.nan),
    dict(kind="ClassicalInfVol", beta=1.0, mu=-math.inf),
    dict(kind="QuantumInfVol", beta=1.0, h=math.inf, mu=-1.0),
    dict(kind="QuantumInfVol", beta=1.0, h=math.nan, mu=-1.0),
    dict(kind="QuantumCondensate", beta=1.0, h=1.0, rho_bar=math.nan),
    dict(kind="QuantumCondensate", beta=1.0, h=1.0, rho_bar=math.inf),
    dict(kind="ClassicalCondensate", beta=1.0, alpha=math.nan),
    dict(kind="QuantumBoxGibbs", beta=1.0, h=1.0, mu=math.nan, box=BOX),
])
def test_non_finite_spec_inputs_rejected(kw):
    with pytest.raises(InvalidSpec):
        st.StateSpec(**kw)


@pytest.mark.parametrize("spec", [
    st.StateSpec(kind="ClassicalBoxGibbs", beta=1.0, mu=0.0, box=BOX),
    st.StateSpec(kind="QuantumBoxGibbs", beta=1.0, h=1.0, mu=0.0, box=BOX),
    st.StateSpec(kind="ClassicalInfVol", beta=1.0, mu=-1.0),
    st.StateSpec(kind="QuantumCondensate", beta=1.0, h=1.0, rho_bar=1.0),
], ids=lambda spec: spec.kind)
def test_nan_tail_tolerance_is_rejected(spec):
    f = tf.gaussian(0.1, (0, 0, 0), 1.0)
    with pytest.raises(DomainViolation):
        st.weyl_expectation_with_tail(spec, f, tail_tol=math.nan)
    value, tail = st.weyl_expectation_with_tail(spec, f, tail_tol=math.inf)
    assert 0.0 < value <= 1.0 and tail >= 0.0


def test_infinite_alpha_stays_legal():
    spec = st.StateSpec(kind="ClassicalCondensate", beta=1.0, alpha=math.inf)
    assert st.validate_spec(spec) == math.inf


@pytest.mark.parametrize("beta, h, nu", [(math.nan, 1.0, 3), (1.0, math.nan, 3),
                                         (math.inf, 1.0, 3), (1.0, math.inf, 3),
                                         (1e-200, 1e-200, 3), (1e-300, 1.0, 3),
                                         (1e+300, 1.0, 400)])
def test_critical_density_rejects_out_of_range(beta, h, nu):
    # beta h = 1e-400 underflows; (2 pi beta h)^{-nu/2} overflows at
    # beta h = 1e-300 and underflows at beta h = 1e300, nu = 400
    with pytest.raises(DomainViolation):
        st.critical_density(beta, h, nu)


@pytest.mark.parametrize("d", [
    {"beta": 1.0},
    {"kind": "ClassicalInfVol", "mu": -1.0},
    {"kind": "ClassicalInfVol", "beta": "x", "mu": -1.0},
    {"kind": "ClassicalInfVol", "beta": 1.0, "mu": [1]},
    {"kind": "ClassicalCondensate", "beta": 1.0, "alpha": "lots"},
    {"kind": "QuantumBoxGibbs", "beta": 1.0, "h": 1.0, "mu": 0.0, "box": {"L": 1.0}},
    {"kind": "QuantumBoxGibbs", "beta": 1.0, "h": 1.0, "mu": 0.0, "box": 5},
    {"kind": "QuantumBoxGibbs", "beta": 1.0, "h": 1.0, "mu": 0.0,
     "box": {"L": math.nan, "nu": 3, "cutoff": 8}},
    {"kind": "QuantumInfVol", "beta": 1.0, "h": 1.0, "mu": -1.0, "nu": math.inf},
    [1, 2],
])
def test_spec_from_json_malformed(d):
    with pytest.raises(InvalidSpec):
        st.spec_from_json(d)


_json = hst.recursive(
    hst.none() | hst.booleans() | hst.integers() | hst.floats() | hst.text(max_size=6),
    lambda inner: hst.lists(inner, max_size=3)
    | hst.dictionaries(hst.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_number = hst.none() | hst.booleans() | hst.integers() | hst.floats() \
    | hst.sampled_from(["inf", "Infinity", "nan", "0.5", "x"]) | _json
_spec_objects = hst.fixed_dictionaries({}, optional={
    "kind": hst.sampled_from(st.ALL_KINDS) | _json,
    "beta": _number, "h": _number, "mu": _number, "rho_bar": _number,
    "alpha": _number, "nu": hst.integers(0, 6) | _number,
    "box": hst.fixed_dictionaries({}, optional={
        "L": _number, "nu": hst.integers(0, 4) | _number, "cutoff": _number}) | _json,
})


@settings(max_examples=400, deadline=None)
@given(hst.one_of(_spec_objects, hst.dictionaries(hst.text(max_size=6), _json, max_size=4)))
def test_spec_from_json_yields_spec_or_validation_error(d):
    try:
        spec = st.spec_from_json(d)
    except ValidationError:
        return
    assert isinstance(spec, st.StateSpec)


def test_critical_density_once_per_condensate_spec(monkeypatch):
    calls = []
    real = st.critical_density

    def counting(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(st, "critical_density", counting)
    spec = st.StateSpec(kind="QuantumCondensate", beta=1.0, h=0.5,
                        rho_bar=real(1.0, 0.5, 3) + 0.2, nu=3)
    assert len(calls) == 1
    f = tf.gaussian(0.1, (0.2, 0, 0), 0.9)
    for _ in range(3):
        st.weyl_expectation(spec, f)
    st.gram_matrix(spec, [f, 2.0 * f])
    assert len(calls) == 1


# -- one covariance form -------------------------------------------------------

_CONTINUUM_FNS = [tf.gaussian(0.1, (0.2, 0.0, -0.1), 1.0),
                  tf.gaussian(0.15 + 0.05j, (0.1, -0.2, 0.0), 0.8, (0.4, 0.0, -0.3))
                  + tf.gaussian(-0.05j, (0.0, 0.1, 0.2), 0.6, (0.0, 0.5, 0.0)),
                  tf.gaussian(0.08, (-0.3, 0.1, 0.0), 0.7, (0.2, 0.1, 0.0))]


@pytest.mark.parametrize("spec", [
    st.StateSpec(kind="ClassicalInfVol", beta=1.0, mu=-0.5, nu=3),
    st.StateSpec(kind="QuantumInfVol", beta=2.0, h=0.5, mu=-0.4, nu=3),
    st.StateSpec(kind="ClassicalCondensate", beta=1.0, alpha=0.1, nu=3),
], ids=lambda s: s.kind)
def test_gram_matrix_on_continuum_test_functions(spec):
    fs = _CONTINUUM_FNS
    g = st.gram_matrix(spec, fs)
    assert np.array_equal(np.diag(g), np.ones(3))
    # the rest follows from the Hermitian check below
    for j, k in ((0, 1), (0, 2), (1, 2)):
        sig = complex(tf.inner_product(fs[j], fs[k])).imag
        want = np.exp(0.5j * spec.h * sig) * st.weyl_expectation(spec, fs[k] - fs[j])
        assert g[j, k] == pytest.approx(want, rel=1e-10)
    assert np.array_equal(g, g.conj().T)
    assert np.linalg.eigvalsh(g).min() >= -1e-12


def test_gram_matrix_infinite_alpha_uses_mean_differences():
    spec = st.StateSpec(kind="ClassicalCondensate", beta=1.0, alpha=math.inf, nu=3)
    f = _CONTINUUM_FNS[0]
    fs = [f, f + tf.gaussian(0.1, (0.5, 0, 0), 0.7) - tf.gaussian(0.1, (-0.5, 0, 0), 0.7),
          _CONTINUUM_FNS[2]]
    g = st.gram_matrix(spec, fs)
    # f_0 and f_1 share their mean, f_2 does not
    assert g[0, 1] == pytest.approx(st.weyl_expectation(spec, fs[1] - fs[0]), rel=1e-10)
    assert 0.0 < g[0, 1].real < 1.0
    assert g[0, 2] == 0.0 and g[1, 2] == 0.0


def test_gram_matrix_rejects_box_test_functions():
    with pytest.raises(TypeError):
        st.gram_matrix(qbox(), [tf.gaussian(0.1, (0, 0, 0), 0.3)] * 2)


@pytest.mark.parametrize("spec, f", [
    (qbox(h=0.3, mu=-0.2), {(1, 1, 1): 0.4 + 0.2j, (2, 1, 1): -0.1}),
    (cbox(beta=1.3, mu=-0.2), {(1, 2, 1): 0.3 - 0.1j}),
    (st.StateSpec(kind="QuantumInfVol", beta=2.0, h=0.5, mu=-0.4), _CONTINUUM_FNS[1]),
    (st.StateSpec(kind="QuantumCondensate", beta=1.0, h=0.5,
                  rho_bar=st.critical_density(1.0, 0.5, 3) + 0.2), _CONTINUUM_FNS[0]),
    (st.StateSpec(kind="ClassicalInfVol", beta=1.0, mu=0.0), _CONTINUUM_FNS[2]),
    (st.StateSpec(kind="ClassicalCondensate", beta=1.0, alpha=0.1), _CONTINUUM_FNS[0]),
], ids=lambda v: getattr(v, "kind", ""))
def test_quasi_free_two_point_fixes_weyl_expectation(spec, f):
    # omega(W(f)) = exp(-omega(Phi(f)^2)/2) for every quasi-free family
    two = st.two_point(spec, f, f)
    assert two.imag == 0.0
    assert st.weyl_expectation(spec, f) == pytest.approx(math.exp(-two.real / 2.0), rel=1e-13)


def _three_terms(nu, amps=(0.3 + 0.1j, -0.1j, 0.2)):
    """Three complex Gaussian terms, two with momenta."""
    return tf.gaussian(amps[0], (0.2, -0.1, 0.3)[:nu], 0.5, (0.8, -0.4, 0.2)[:nu]) \
        + tf.gaussian(amps[1], (-0.3, 0.1, 0.0)[:nu], 0.45, (0.0, 1.1, -0.7)[:nu]) \
        + tf.gaussian(amps[2], (0.0, 0.4, -0.2)[:nu], 0.6)


def _direct_box_quadform(f, spec):
    """B(f, f) as a sum over every mode of the cutoff box."""
    nu, L, C = spec.box.nu, spec.box.L, spec.box.cutoff
    axes = "abc"[:nu]
    coeff = sum(t.amp * np.einsum(",".join(axes) + "->" + axes, *(
        tf.axis_sine_overlaps(t.center[i], t.sigma, t.wave[i], L, C) for i in range(nu)))
        for t in f.terms)
    n2 = np.arange(1, C + 1, dtype=float) ** 2
    energy = sp.kappa(L) * functools.reduce(np.add.outer, [n2] * nu)
    if spec.h:
        weight = 1.0 / np.tanh(spec.beta * spec.h * (energy - spec.mu) / 2.0)
    else:
        weight = 1.0 / (spec.beta * (energy - spec.mu))
    return L ** -nu * np.einsum(axes + "," + axes + "->", np.abs(coeff) ** 2, weight)


def test_quantum_box_weight_near_the_ground_energy():
    # near the ground energy 1 - exp(-beta h gap) cancels; coth must not
    box = sp.BoxSpectrum(L=2.0, nu=3, cutoff=16)
    e0 = sp.ground_energy(2.0, 3)
    for gap in (1e-9, 1e-6):
        spec = st.StateSpec(kind="QuantumBoxGibbs", beta=1.0, h=1.0, mu=e0 - gap, box=box)
        assert st._box_weight(spec, e0) == pytest.approx(
            1.0 / math.tanh((e0 - spec.mu) / 2.0), rel=1e-14)


_KINDS = ("QuantumBoxGibbs", "ClassicalBoxGibbs")


@pytest.mark.parametrize("nu, kind, gap, warm", [
    pytest.param(nu, kind, gap, None, id=f"{gap}-{kind}-{nu}")
    for nu in (1, 2, 3) for kind in _KINDS for gap in (1e-6, 0.5)] + [
    pytest.param(nu, kind, 0.5, warm, id=f"0.5-{kind}-{nu}-warm-{warm}")
    for nu in (1, 2, 3) for kind in _KINDS for warm in ("amps", "cutoff", "state")])
def test_box_quadform_matches_direct_lattice_sum(monkeypatch, nu, kind, gap, warm):
    # three complex terms with momenta against every mode of the cutoff box;
    # gap = 1e-6 puts mu at E_0 (1 - 1e-6).  ``warm`` first fills the cache
    # with the same geometry at other amplitudes, the same L at another
    # cutoff, or another (beta, h, mu)
    L, C = 2.0, 40
    f = _three_terms(nu)
    e0 = sp.ground_energy(L, nu)
    h = 0.7 if kind == "QuantumBoxGibbs" else 0.0

    def spec(beta=1.3, h=h, mu=e0 * (1 - gap), cutoff=C):
        return st.StateSpec(kind=kind, beta=beta, h=h, mu=mu, nu=nu,
                            box=sp.BoxSpectrum(L=L, nu=nu, cutoff=cutoff))

    monkeypatch.setattr(st, "_box_cache", st._BoxCache())
    if warm == "amps":
        st._box_quadform(_three_terms(nu, (-0.5j, 0.25 - 0.3j, 1.1)), spec(), math.inf)
    elif warm == "cutoff":
        st._box_quadform(f, spec(cutoff=32), math.inf)
    elif warm == "state":
        st._box_quadform(f, spec(beta=0.6, h=h / 2, mu=e0 - 0.8), math.inf)
    value, _ = st._box_quadform(f, spec(), math.inf)
    assert value == pytest.approx(_direct_box_quadform(f, spec()), rel=1e-12)
    # amplitudes are not part of the key: equal geometry shares one entry
    assert len(st._box_cache._entries) == (2 if warm == "cutoff" else 1)


def test_box_quadform_reuses_geometry_across_states(monkeypatch):
    # a new beta, h or mu on the same test function and box redoes no
    # overlap or spectrum work
    calls = []
    for module, name in ((tf, "axis_sine_overlaps"), (sp, "_shell_spectrum")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(a) or real(*a))
    monkeypatch.setattr(st, "_box_cache", st._BoxCache())
    f = _three_terms(3)
    box = sp.BoxSpectrum(L=2.0, nu=3, cutoff=40)
    st.weyl_expectation(cbox(box=box), f, tail_tol=math.inf)
    # nine distinct axes and six term pairs
    first = len(calls)
    assert first == 9 + 6
    for spec in (cbox(beta=2.0, box=box), cbox(mu=-1.0, box=box), qbox(h=0.4, mu=-0.3, box=box)):
        st.weyl_expectation(spec, f, tail_tol=math.inf)
    assert len(calls) == first


def test_box_spectrum_over_the_byte_budget_is_used_not_kept(monkeypatch):
    # f and g differ by a permutation of axes, so their entries are equal in size
    f = tf.gaussian(0.2, (0.1, 0.0, 0.0), 0.3)
    g = tf.gaussian(0.2, (0.0, 0.1, 0.0), 0.3)
    spec = cbox()

    def key(fn):
        return tuple((t.center, t.sigma, t.wave) for t in fn.terms), BOX

    monkeypatch.setattr(st, "_box_cache", st._BoxCache())
    want, _ = st._box_quadform(f, spec, math.inf)
    assert list(st._box_cache._entries) == [key(f)]
    entry_bytes = st._box_cache._nbytes
    # one byte short of the entry: it is used, not kept
    monkeypatch.setattr(st, "_BOX_CACHE_BYTES", entry_bytes - 1)
    monkeypatch.setattr(st, "_box_cache", st._BoxCache())
    assert st._box_quadform(f, spec, math.inf)[0] == want
    assert not st._box_cache._entries and st._box_cache._nbytes == 0
    # room for one entry: g's drops f's, the least recently used
    monkeypatch.setattr(st, "_BOX_CACHE_BYTES", 2 * entry_bytes - 1)
    st._box_quadform(f, spec, math.inf)
    st._box_quadform(g, spec, math.inf)
    assert list(st._box_cache._entries) == [key(g)]
    assert st._box_cache._nbytes <= st._BOX_CACHE_BYTES


def _random_box_case(seed, gap):
    """1-3 terms with waves on a nu = 1-3 box, mu = E_0 - gap."""
    rng = np.random.default_rng([seed, 20])
    nu, n_terms = (int(v) for v in rng.integers(1, 4, 2))
    L, cutoff = rng.uniform(1.0, 4.0), int(rng.integers(16, 41))
    f = tf.TestFunction(nu, ())
    for _ in range(n_terms):
        f = f + tf.gaussian(complex(*rng.uniform(-0.5, 0.5, 2)), rng.uniform(-0.3, 0.3, nu) * L,
                            rng.uniform(0.15, 0.3) * L, rng.uniform(-2.0, 2.0, nu) / L)
    kind = _KINDS[seed % 2]
    spec = st.StateSpec(kind=kind, beta=rng.uniform(0.5, 2.0), nu=nu,
                        h=rng.uniform(0.2, 1.0) if kind == "QuantumBoxGibbs" else 0.0,
                        mu=sp.ground_energy(L, nu) - gap,
                        box=sp.BoxSpectrum(L=L, nu=nu, cutoff=cutoff))
    return f, spec


@pytest.mark.parametrize("gap", [1e-9, 0.5])
@pytest.mark.parametrize("seed", range(16))
def test_box_truncation_is_bounded_in_the_tail(monkeypatch, seed, gap):
    # the kept shells match a sum over every occupied shell, and the returned
    # tail covers the cutoff's index tail and the dropped shells
    f, spec = _random_box_case(seed, gap)
    L, C, nu = spec.box.L, spec.box.cutoff, spec.box.nu
    monkeypatch.setattr(st, "_box_cache", st._BoxCache())
    value, tail = st._box_quadform(f, spec, math.inf)
    (entry, _), = st._box_cache._entries.values()
    kept = entry.rows.shape[1]

    shells, _ = sp._shell_table(C, nu)
    weights = st._box_weight(spec, sp.kappa(L) * shells)
    tables = [[tf.axis_sine_overlaps(t.center[i], t.sigma, t.wave[i], L, C) for i in range(nu)]
              for t in f.terms]
    full = dropped = 0.0
    for s, a in enumerate(f.terms):
        for t, b in enumerate(f.terms):
            spectrum = sp._shell_spectrum([p.conjugate() * q for p, q in zip(tables[s], tables[t])])
            w = a.amp.conjugate() * b.amp
            full += (w * (spectrum @ weights)).real
            dropped += (w * (spectrum[kept:] @ weights[kept:])).real
    assert value == pytest.approx(L ** -nu * full, rel=1e-13)

    amps = [t.amp for t in f.terms]
    bound = st._box_weight(spec, entry.energies[-2]) * L ** -nu * sum(
        (1 if s == t else 2) * abs(amps[s]) * abs(amps[t]) * mass for s, t, mass, _ in entry.pairs)
    assert L ** -nu * abs(dropped) <= bound
    tail_sq = sum(abs(t.amp) ** 2 * sp._product_excess([
        (float(np.sum(np.abs(table) ** 2)),
         st._axis_tail_sq_bound(t.center[i], t.sigma, t.wave[i], L, C))
        for i, table in enumerate(tables[j])]) for j, t in enumerate(f.terms))
    index_tail = st._box_weight(spec, sp.kappa(L) * ((C + 1) ** 2 + nu - 1)) * L ** -nu \
        * len(f.terms) * tail_sq
    assert tail >= (index_tail + bound) * (1 - 1e-14)


def test_box_expectation_of_the_zero_function_is_one():
    zero = tf.TestFunction(3, ())
    assert st.weyl_expectation(qbox(), zero) == 1.0
    assert st.weyl_expectation(cbox(), zero) == 1.0


def test_spec_from_json_passes_validation_errors_through():
    # ValidationError is a ValueError; the box's own InvalidSpec is not re-wrapped
    assert issubclass(ValidationError, ValueError)
    d = {"kind": "QuantumBoxGibbs", "beta": 1.0, "h": 1.0, "mu": 0.0,
         "box": {"L": -1.0, "nu": 3, "cutoff": 8}}
    with pytest.raises(InvalidSpec, match="^box half-width"):
        st.spec_from_json(d)


def test_box_tail_of_a_needle_is_refused_or_finite():
    # at sigma = 1e-6 the axis tail bound's 1 - e^{-2 sigma^2 delta y}
    # rounded to 0 and raised a bare ZeroDivisionError
    spec = cbox(mu=-1.0, box=sp.BoxSpectrum(L=1000, nu=3, cutoff=4))
    f = tf.gaussian(1, (0, 0, 0), 1e-6)
    with pytest.raises(TailToleranceExceeded):
        st.weyl_expectation(spec, f)
    value, tail = st.weyl_expectation_with_tail(spec, f, tail_tol=math.inf)
    assert 0.0 <= value <= 1.0 and 0.0 < tail < math.inf
