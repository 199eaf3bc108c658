import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from weylgas import algebra as alg
from weylgas.algebra import WeylElement
from weylgas.errors import MismatchedDimension, MismatchedHbar, NegativeHbar, \
    NonzeroHbar, ZeroHbar
from weylgas.errors import DomainViolation, InvalidSpec


def coords(dim, lo=-3.0, hi=3.0):
    return hst.tuples(*[hst.builds(
        complex,
        hst.floats(lo, hi, allow_nan=False),
        hst.floats(lo, hi, allow_nan=False),
    ) for _ in range(dim)])


def elements(dim, hbar, max_terms=3):
    def build(labels_and_coeffs):
        e = WeylElement.zero(dim, hbar)
        for label, (re, im) in labels_and_coeffs:
            e = e + alg.weyl(label, hbar, complex(re, im))
        return e
    pair = hst.tuples(coords(dim), hst.tuples(hst.floats(-2, 2, allow_nan=False),
                                              hst.floats(-2, 2, allow_nan=False)))
    return hst.lists(pair, min_size=1, max_size=max_terms).map(build)


def test_weyl_zero_label_is_unit():
    assert alg.elements_close(alg.weyl((0j, 0j), 0.5), alg.unit(2, 0.5))


def test_product_phase():
    # W(f) W(g) = exp(-i h sigma(f,g)/2) W(f+g)
    f, g, h = (1 + 0j,), (1j,), 0.3
    prod = alg.multiply(alg.weyl(f, h), alg.weyl(g, h))
    sigma = alg.sigma(f, g)
    assert sigma == 1.0
    expected = complex(math.cos(-h / 2), math.sin(-h / 2))
    assert prod.coefficient((1 + 1j,)) == pytest.approx(expected)


def test_commutative_at_h_zero():
    a = alg.weyl((0.7 - 0.1j, 2j), 0.0)
    b = alg.weyl((1.5j, -0.4 + 0j), 0.0)
    assert alg.elements_close(alg.multiply(a, b), alg.multiply(b, a))


def test_adjoint_flips_label_and_conjugates():
    a = alg.weyl((1 + 2j,), 0.2, coeff=3 - 1j)
    assert alg.adjoint(a).coefficient((-1 - 2j,)) == 3 + 1j


def test_label_merge_rounds_tiny_differences():
    a = alg.weyl((1.0 + 0j,), 0.0) + alg.weyl((1.0 + 1e-13 + 0j,), 0.0)
    assert len(a.terms) == 1
    assert a.coefficient((1.0 + 0j,)) == 2.0


def test_tiny_coefficients_are_pruned():
    a = alg.weyl((1 + 0j,), 0.0, coeff=1e-16)
    assert a.terms == {}


def test_mixed_hbar_rejected():
    with pytest.raises(MismatchedHbar):
        alg.multiply(alg.weyl((1j,), 0.1), alg.weyl((1j,), 0.2))
    with pytest.raises(MismatchedDimension):
        alg.multiply(alg.weyl((1j,), 0.1), alg.weyl((1j, 0j), 0.1))
    with pytest.raises(NegativeHbar):
        alg.weyl((1j,), -0.5)
    for hbar in (math.nan, math.inf):
        with pytest.raises(DomainViolation, match="hbar"):
            alg.weyl((1j,), hbar)


def test_poisson_bracket_needs_h_zero():
    with pytest.raises(NonzeroHbar):
        alg.poisson_bracket(alg.weyl((1j,), 0.1), alg.weyl((1 + 0j,), 0.1))


def test_scaled_commutator_needs_h_positive():
    with pytest.raises(ZeroHbar):
        alg.scaled_commutator(alg.weyl((1j,), 0.0), alg.weyl((1 + 0j,), 0.0))


def test_poisson_bracket_on_generators():
    # {W(f), W(g)} = sigma(g, f) W(f+g)
    f, g = (1 + 0j,), (1j,)
    br = alg.poisson_bracket(alg.weyl(f), alg.weyl(g))
    assert br.coefficient((1 + 1j,)) == pytest.approx(alg.sigma(g, f))


def test_scaled_commutator_anchor():
    # (1/(i h)) [W(f), W(g)] = -(2/h) sin(h sigma(f,g)/2) W(f+g)
    h = 0.1
    sc = alg.scaled_commutator(alg.weyl((1 + 0j,), h), alg.weyl((1j,), h))
    expected = -(2.0 / h) * math.sin(h * 0.5)
    assert sc.coefficient((1 + 1j,)) == pytest.approx(expected, rel=1e-14)
    assert sc.coefficient((1 + 1j,)).real == pytest.approx(-0.9995833854135666)


def test_scaled_commutator_approaches_poisson_bracket():
    f, g = (0.8 + 0.3j, -1j), (0.2 - 0.5j, 0.7 + 0j)
    target = alg.poisson_bracket(alg.weyl(f), alg.weyl(g))
    errs = []
    for h in (0.1, 0.01, 0.001):
        sc = alg.scaled_commutator(alg.weyl(f, h), alg.weyl(g, h))
        errs.append(abs(sc.coefficient(tuple(a + b for a, b in zip(f, g)))
                        - target.coefficient(tuple(a + b for a, b in zip(f, g)))))
    assert errs[0] > errs[1] > errs[2]


def test_central_state_reads_zero_coefficient():
    a = alg.unit(1, 0.0).scale(2.5) + alg.weyl((1j,), 0.0, coeff=7.0)
    assert alg.central_state(a) == 2.5
    assert alg.central_state(alg.weyl((1j,), 0.0)) == 0.0


def test_central_state_recovers_coefficients():
    # omega(W(-f) a) picks out the coefficient of W(f), up to the h-phase
    a = alg.weyl((1 + 1j,), 0.0, coeff=0.25) + alg.weyl((2j,), 0.0, coeff=-1.5)
    probe = alg.multiply(alg.weyl((-1 - 1j,), 0.0), a)
    assert alg.central_state(probe) == 0.25


def test_norm_bounds_order():
    a = alg.weyl((1j,), 0.0, coeff=3.0) + alg.weyl((1 + 0j,), 0.0, coeff=4.0)
    lo, up = alg.norm_bounds(a)
    assert lo == pytest.approx(5.0)
    assert up == pytest.approx(7.0)
    assert lo <= up


def test_norm_bounds_survive_huge_coefficients():
    a = alg.weyl((1j,), 0.0, coeff=1e200) + alg.weyl((1 + 0j,), 0.0, coeff=1e201)
    lo, up = alg.norm_bounds(a)
    assert math.isfinite(lo) and lo > 1e200


def test_json_round_trip():
    a = alg.weyl((1 + 2j, -0.5j), 0.25, coeff=0.5 - 0.25j) \
        + alg.unit(2, 0.25).scale(1.5)
    b = alg.from_json_dict(alg.to_json_dict(a))
    assert alg.elements_close(a, b, atol=0.0)
    assert b.hbar == 0.25


@settings(max_examples=60, deadline=None)
@given(a=elements(2, 0.3), b=elements(2, 0.3), c=elements(2, 0.3))
def test_multiplication_associative(a, b, c):
    lhs = alg.multiply(alg.multiply(a, b), c)
    rhs = alg.multiply(a, alg.multiply(b, c))
    assert alg.elements_close(lhs, rhs, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(a=elements(2, 0.7), b=elements(2, 0.7))
def test_adjoint_antihomomorphism(a, b):
    lhs = alg.adjoint(alg.multiply(a, b))
    rhs = alg.multiply(alg.adjoint(b), alg.adjoint(a))
    assert alg.elements_close(lhs, rhs, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(a=elements(1, 0.0, 2), b=elements(1, 0.0, 2), c=elements(1, 0.0, 2))
def test_poisson_jacobi(a, b, c):
    total = alg.poisson_bracket(a, alg.poisson_bracket(b, c)) \
        + alg.poisson_bracket(b, alg.poisson_bracket(c, a)) \
        + alg.poisson_bracket(c, alg.poisson_bracket(a, b))
    worst = max((abs(v) for v in total.terms.values()), default=0.0)
    assert worst < 1e-8


@settings(max_examples=40, deadline=None)
@given(a=elements(1, 0.0, 2), b=elements(1, 0.0, 2), c=elements(1, 0.0, 2))
def test_poisson_leibniz(a, b, c):
    lhs = alg.poisson_bracket(a, alg.multiply(b, c))
    rhs = alg.multiply(alg.poisson_bracket(a, b), c) \
        + alg.multiply(b, alg.poisson_bracket(a, c))
    assert alg.elements_close(lhs, rhs, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(a=elements(2, 0.5))
def test_central_state_positive_on_squares(a):
    # omega(a* a) >= 0 makes omega a state on every W^h
    val = alg.central_state(alg.multiply(alg.adjoint(a), a))
    assert val.imag == pytest.approx(0.0, abs=1e-10)
    assert val.real >= -1e-12


@settings(max_examples=60, deadline=None)
@given(a=elements(2, 0.0))
def test_norm_bounds_bracket_l2(a):
    lo, up = alg.norm_bounds(a)
    l2 = math.sqrt(sum(abs(v) ** 2 for v in a.terms.values()))
    assert lo == pytest.approx(l2, rel=1e-12)
    assert up >= lo - 1e-15


@pytest.mark.parametrize("d", [
    {}, 5, [1], {"terms": []}, {"hbar": 0.0}, {"hbar": "x", "terms": []},
    {"hbar": 0.0, "terms": []},
    {"hbar": 0.0, "terms": [[1]]},
    {"hbar": 0.0, "terms": [{"label": [[1, 0]]}]},
    {"hbar": 0.0, "terms": [{"label": [[1, 0]], "coeff": [1]}]},
    {"hbar": 0.0, "terms": [{"label": [1], "coeff": [1, 0]}]},
    {"hbar": 0.0, "terms": [{"label": [["a", "b"]], "coeff": [1, 0]}]},
    {"hbar": 0.0, "terms": [{"label": [[10 ** 400, 0]], "coeff": [1, 0]}]},
    {"hbar": math.nan, "terms": [{"label": [[1, 0]], "coeff": [1, 0]}]},
    {"hbar": 0.0, "terms": [{"label": [[math.inf, 0]], "coeff": [1, 0]}]},
    {"hbar": 0.0, "terms": [{"label": [[1, 0]], "coeff": [math.nan, 0]}]},
])
def test_from_json_dict_rejects_malformed_input(d):
    with pytest.raises(InvalidSpec):
        alg.from_json_dict(d)
