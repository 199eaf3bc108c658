import math

import numpy as np
import pytest

from weylgas import equilibrium as eq
from weylgas import spectrum as sp
from weylgas import states as st
from weylgas import testfn as tf
from weylgas.errors import BracketFailure, DomainViolation, InvalidSpec, \
    NonPositiveTarget, StepTooLarge, SubcriticalDensity


def test_derivation_spec_validation():
    d = eq.WeakDerivationSpec(kind="H")
    assert d.shift == 0.0
    d2 = eq.WeakDerivationSpec(kind="HMinusMu", mu=-0.7)
    assert d2.shift == -0.7
    with pytest.raises(InvalidSpec):
        eq.WeakDerivationSpec(kind="H", mu=0.5)
    with pytest.raises(InvalidSpec):
        eq.WeakDerivationSpec(kind="other")


def test_mu_net_classical_anchor():
    # alpha = 1, L = 1: ground energy minus the condensate pressure term
    assert eq.mu_net_classical(1.0, 1.0, 1.0) == pytest.approx(
        3.5761016504085092, rel=1e-13)
    assert eq.mu_net_classical(1.0, 1.0, 1.0) == pytest.approx(
        3 * math.pi ** 2 / 8 - 0.125, rel=1e-13)
    assert eq.mu_net_classical(0.0, 2.0, 1.5) == 0.0
    with pytest.raises(DomainViolation):
        eq.mu_net_classical(-1.0, 1.0, 1.0)


def test_solve_mu_round_trip():
    box = sp.BoxSpectrum(L=2.0, nu=3, cutoff=32)
    for rho in (0.05, 0.4):
        mu = eq.solve_mu_quantum(rho, box, beta=1.0, h=1.0)
        assert mu < sp.ground_energy(2.0, 3)
        spec = st.StateSpec(kind="QuantumBoxGibbs", beta=1.0, h=1.0, mu=mu, box=box)
        assert st.quantum_density(spec) == pytest.approx(rho, rel=1e-10)


def test_solve_mu_rejects_bad_targets():
    box = sp.BoxSpectrum(L=1.0, nu=3, cutoff=16)
    with pytest.raises(NonPositiveTarget):
        eq.solve_mu_quantum(0.0, box, beta=1.0, h=1.0)
    with pytest.raises(NonPositiveTarget):
        eq.solve_mu_quantum(-0.4, box, beta=1.0, h=1.0)
    for rho, beta, h in ((math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0),
                         (0.1, math.nan, 1.0), (0.1, 1.0, math.nan)):
        with pytest.raises(DomainViolation):
            eq.solve_mu_quantum(rho, box, beta=beta, h=h)


def test_condensate_fraction_limit():
    beta, nu = 1.0, 3
    # density kept a fixed excess 0.3/h above critical
    rho = lambda h: st.critical_density(beta, h, nu) + 0.3 / h
    out = eq.condensate_fraction_limit(rho, beta, nu, [0.1, 0.05, 0.025])
    hs = [p[0] for p in out]
    fracs = np.array([p[1] for p in out])
    assert hs == [0.1, 0.05, 0.025]
    assert fracs == pytest.approx(0.3, rel=1e-12)
    with pytest.raises(SubcriticalDensity):
        eq.condensate_fraction_limit(
            lambda h: 0.5 * st.critical_density(beta, h, nu), beta, nu, [0.1])


def test_semiclassical_scan_slope_box():
    box_of = lambda h: st.StateSpec(
        kind="QuantumBoxGibbs", beta=1.0, h=h, mu=0.0,
        box=sp.BoxSpectrum(L=1.0, nu=3, cutoff=24))
    classical = st.StateSpec(
        kind="ClassicalBoxGibbs", beta=1.0, mu=0.0,
        box=sp.BoxSpectrum(L=1.0, nu=3, cutoff=24))
    f = {(1, 1, 1): 0.5 + 0.2j}
    pts = eq.semiclassical_scan(box_of, classical, f, [0.1, 0.05, 0.025])
    errs = np.array([e for _, e in pts])
    assert np.all(np.diff(errs) < 0)
    slope = np.polyfit(np.log([0.1, 0.05, 0.025]), np.log(errs), 1)[0]
    assert slope > 0.8


def test_thermodynamic_scan_decreasing():
    f = tf.gaussian(0.1, (0, 0, 0), 1.0)
    out = eq.thermodynamic_scan(0.1, 1.0, f, [5.0, 10.0])
    (L1, v1, e1), (L2, v2, e2) = out
    assert (L1, L2) == (5.0, 10.0)
    assert e2 < e1
    target = st.weyl_expectation(
        st.StateSpec(kind="ClassicalCondensate", beta=1.0, alpha=0.1, nu=3), f)
    assert abs(v2 - target) == pytest.approx(e2, rel=1e-12)


def test_kms_residual_analytic_matched():
    # classical infinite-volume state against its own generator
    spec = st.StateSpec(kind="ClassicalInfVol", beta=1.0, mu=-0.5, nu=3)
    deriv = eq.WeakDerivationSpec(kind="HMinusMu", mu=-0.5)
    f = tf.gaussian(0.2, (0.1, 0, 0), 0.9, (0.4, 0, 0))
    g = tf.gaussian(0.15j, (0, 0.2, 0), 1.1)
    assert eq.kms_residual(spec, deriv, f, g) <= 1e-12

    box = sp.BoxSpectrum(L=1.0, nu=3, cutoff=12)
    bspec = st.StateSpec(kind="ClassicalBoxGibbs", beta=2.0, mu=-0.3, box=box)
    bf = {(1, 1, 1): 0.4 + 0.1j, (2, 1, 1): -0.2j}
    bg = {(1, 1, 1): 0.3, (1, 2, 1): 0.25 - 0.15j}
    bderiv = eq.WeakDerivationSpec(kind="HMinusMu", mu=-0.3)
    assert eq.kms_residual(bspec, bderiv, bf, bg) <= 1e-12


def test_kms_residual_detects_wrong_generator():
    spec = st.StateSpec(kind="ClassicalInfVol", beta=1.0, mu=-0.5, nu=3)
    wrong = eq.WeakDerivationSpec(kind="HMinusMu", mu=-0.1)
    f = tf.gaussian(0.2, (0.1, 0, 0), 0.9, (0.4, 0, 0))
    g = tf.gaussian(0.15j, (0, 0.2, 0), 1.1)
    assert eq.kms_residual(spec, wrong, f, g) > 1e-6


def test_kms_condensate_alpha_independent():
    f = tf.gaussian(0.2, (0.1, 0, 0), 0.9)
    g = tf.gaussian(0.1j, (0, 0.3, 0), 1.2, (0.5, 0, 0))
    deriv = eq.WeakDerivationSpec(kind="H")
    res = [eq.kms_residual(
        st.StateSpec(kind="ClassicalCondensate", beta=1.0, alpha=a, nu=3),
        deriv, f, g) for a in (0.0, 0.5, 2.0)]
    assert max(res) <= 1e-12
    assert res[0] == res[1] == res[2]


def test_kms_finite_difference_route():
    box = sp.BoxSpectrum(L=1.0, nu=3, cutoff=10)
    spec = st.StateSpec(kind="ClassicalBoxGibbs", beta=1.5, mu=-0.2, box=box)
    deriv = eq.WeakDerivationSpec(kind="HMinusMu", mu=-0.2)
    f = {(1, 1, 1): 0.4 + 0.1j}
    g = {(1, 1, 1): 0.2 - 0.3j, (1, 2, 1): 0.1}
    r1 = eq.kms_residual(spec, deriv, f, g, mode="fd", dt=1e-3)
    r2 = eq.kms_residual(spec, deriv, f, g, mode="fd", dt=5e-4)
    # O(dt^2) truncation: halving the step divides the residual by ~4
    assert r1 / r2 == pytest.approx(4.0, abs=0.5)
    with pytest.raises(StepTooLarge):
        eq.kms_residual(spec, deriv, f, g, mode="fd", dt=5.0)


def test_solver_round_trip_failure_is_reported():
    # an absurdly tight box with tiny cutoff cannot certify its tail
    box = sp.BoxSpectrum(L=40.0, nu=3, cutoff=2)
    with pytest.raises(BracketFailure):
        eq.solve_mu_quantum(0.5, box, beta=1.0, h=1.0)


def test_kms_analytic_evaluates_omega_once(monkeypatch):
    counts = {"omega": 0, "resolvent": 0}
    omega, resolvent = st.weyl_expectation_with_tail, tf.resolvent_pair

    def counting_omega(*args, **kw):
        counts["omega"] += 1
        return omega(*args, **kw)

    def counting_resolvent(*args, **kw):
        counts["resolvent"] += 1
        return resolvent(*args, **kw)

    monkeypatch.setattr(st, "weyl_expectation_with_tail", counting_omega)
    monkeypatch.setattr(tf, "resolvent_pair", counting_resolvent)
    spec = st.StateSpec(kind="ClassicalInfVol", beta=1.0, mu=-0.5, nu=3)
    f = tf.gaussian(0.2, (0.1, 0, 0), 0.9, (0.4, 0, 0))
    g = tf.gaussian(0.15j, (0, 0.2, 0), 1.1)
    r = eq.kms_residual(spec, eq.WeakDerivationSpec(kind="HMinusMu", mu=-0.5), f, g)
    assert r <= 1e-12
    # the matched derivation cancels the resolvent of the cross term
    assert counts == {"omega": 1, "resolvent": 1}
