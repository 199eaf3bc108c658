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


def test_coefficient_modulus_beyond_float_range():
    # finite parts, |c| = 2.4e308: construction and products keep the term
    huge = complex(1.7e308, 1.7e308)
    a = WeylElement(0.0, 1, {(0j,): huge})
    assert a.terms == {(0j,): huge}
    b = alg.weyl((1j,), 0.0, coeff=1e154) * alg.weyl((0j,), 0.0, coeff=huge / 1e154)
    assert math.isfinite(b.terms[(1j,)].real)
    for el in (a, b):
        with pytest.raises(DomainViolation, match="float range"):
            alg.norm_bounds(el)
    # every modulus finite, their sum not
    c = alg.weyl((1j,), 0.0, coeff=1.7e308) + alg.weyl((0j,), 0.0, coeff=1.7e308)
    with pytest.raises(DomainViolation, match="float range"):
        alg.norm_bounds(c)


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


# -- the bilinear kernel against the pairwise loop it replaced ----------------

def oracle_combine(a, b, weight, skip_zero_sigma=False):
    """sum over term pairs of c_f c_g weight(sigma) W(f + g), one pair at a time,
    with the labels rounded by the module's canonical rounding."""
    terms = {}
    for f, cf in a.terms.items():
        for g, cg in b.terms.items():
            s = alg.sigma(f, g)
            if skip_zero_sigma and s == 0.0:
                continue
            label = alg._canon_label(u + v for u, v in zip(f, g))
            terms[label] = terms.get(label, 0.0) + cf * cg * weight(s)
    return WeylElement(a.hbar, a.dim, terms)


def oracle_multiply(a, b):
    h = a.hbar
    return oracle_combine(a, b, lambda s: complex(math.cos(-h * s / 2.0), math.sin(-h * s / 2.0)))


def oracle_poisson(a, b):
    # sigma(g, f) = -sigma(f, g); pairs with sigma == 0 add nothing
    return oracle_combine(a, b, lambda s: -s, skip_zero_sigma=True)


def oracle_adjoint(a):
    terms = {}
    for f, c in a.terms.items():
        label = alg._canon_label(-z for z in f)
        terms[label] = terms.get(label, 0.0) + c.conjugate()
    return WeylElement(a.hbar, a.dim, terms)


def pair_scale(a, b):
    """sum over term pairs of |c_f| |c_g|."""
    return sum(map(abs, a.terms.values())) * sum(map(abs, b.terms.values()))


def assert_matches(got, want, a, b):
    """Identical label keys; coefficients within 1e-13 of sum |c_f| |c_g|."""
    assert got.terms.keys() == want.terms.keys()
    for label, c in want.terms.items():
        assert abs(got.terms[label] - c) <= 1e-13 * pair_scale(a, b)


# -0.0 and a few small grid values make label sums collide
kernel_coord = hst.one_of(hst.floats(-3.0, 3.0), hst.sampled_from([-0.0, 0.0, 0.5, -1.0, 1.0]))


def kernel_elements(hbar):
    """Elements of 1-40 terms, so products fall on both sides of the loop threshold."""
    label = hst.tuples(*[hst.builds(complex, kernel_coord, kernel_coord) for _ in range(2)])
    coeff = hst.builds(complex, hst.floats(-2.0, 2.0), hst.floats(-2.0, 2.0))
    return hst.dictionaries(label.map(alg._canon_label), coeff, min_size=1, max_size=40).map(
        lambda terms: WeylElement(hbar, 2, terms))


def partner(a, how):
    """b for the pair (a, b): a itself or its adjoint, whose sums collide."""
    return a if how == "same" else alg.adjoint(a)


@settings(max_examples=40, deadline=None)
@given(a=kernel_elements(0.7), b=kernel_elements(0.7),
       how=hst.sampled_from(["independent", "same", "adjoint"]))
def test_product_and_commutator_match_pairwise_loop(a, b, how):
    if how != "independent":
        b = partner(a, how)
    assert_matches(alg.multiply(a, b), oracle_multiply(a, b), a, b)
    h = a.hbar
    sc = alg.scaled_commutator(a, b)
    assert_matches(sc, oracle_combine(
        a, b, lambda s: -(2.0 / h) * math.sin(h * s / 2.0)), a, b)
    # ... which is (ab - ba) / (i h), the commutator the kernel no longer forms
    two_products = (oracle_multiply(a, b) - oracle_multiply(b, a)).scale(1.0 / (1j * h))
    assert alg.elements_close(sc, two_products, atol=1e-13 * pair_scale(a, b) / h)


@settings(max_examples=40, deadline=None)
@given(a=kernel_elements(0.0), b=kernel_elements(0.0),
       how=hst.sampled_from(["independent", "same", "adjoint"]))
def test_poisson_bracket_and_adjoint_match_pairwise_loop(a, b, how):
    if how != "independent":
        b = partner(a, how)
    assert_matches(alg.poisson_bracket(a, b), oracle_poisson(a, b), a, b)
    got, want = alg.adjoint(a), oracle_adjoint(a)
    assert got.terms.keys() == want.terms.keys()
    assert all(got.terms[label] == c for label, c in want.terms.items())


@settings(max_examples=30, deadline=None)
@given(a=kernel_elements(0.4), b=kernel_elements(0.4))
def test_loop_and_array_paths_agree(a, b):
    # the threshold only picks the faster path; the result is the same
    for weight in (alg._phase, alg._commutator_weight, alg._bracket_weight):
        loop = alg._combine_loop(a, b, weight)
        arrays = alg._combine_arrays(a, b, weight)
        assert loop.terms.keys() == arrays.terms.keys()
        assert all(abs(arrays.terms[label] - c) <= 1e-15 * (1.0 + abs(c))
                   for label, c in loop.terms.items())


def _signed(label):
    return [(z.real, z.imag, math.copysign(1.0, z.real), math.copysign(1.0, z.imag))
            for z in label]


def test_canonical_rounding_is_one_rule():
    rng = np.random.default_rng(11)
    xs = [1e300, -1e300, -0.0, 0.0, 5e-13, -5e-13, 4503.5996, 4503.6, 4504.0, 7e15, *map(
        float, np.concatenate([rng.uniform(-3, 3, 400), rng.uniform(-1e4, 1e4, 100),
                               rng.uniform(-1e-11, 1e-11, 100)]))]
    negative_zero = WeylElement(0.0, 1, {(complex(-0.0, -0.0),): 1.0})
    for x, y in zip(xs, xs[1:] + xs[:1]):
        z = complex(x, y)
        (scalar,) = alg.weyl((z,)).terms
        raw = WeylElement(0.0, 1, {(z,): 1.0})
        (kernel,) = alg._combine_arrays(raw, negative_zero, alg._phase).terms
        (flipped,) = alg.adjoint(WeylElement(0.0, 1, {(-z,): 1.0})).terms
        assert _signed(scalar) == _signed(kernel) == _signed(flipped)


def test_canonical_rounding_keeps_grid_labels():
    # labels on a 1e-3 grid, on round(., 6) grids and their sums round as
    # Python's round(x, 12) does, bit for bit
    rng = np.random.default_rng(12)
    grid = [k / 1000 for k in rng.integers(-3000, 3001, 300).tolist()]
    six = [round(v, 6) for v in rng.uniform(-1, 1, 300).tolist()]
    for values in (grid, six):
        for x in values + [u + v for u, v in zip(values, values[1:])]:
            assert alg._canon(x) == round(x, 12)
            assert math.copysign(1.0, alg._canon(x)) == math.copysign(1.0, round(x, 12))


@pytest.mark.parametrize("terms", [1, 5])
def test_label_overflow_raises_on_both_paths(terms):
    a = WeylElement(0.5, 1, {(complex(1e308, k),): 1.0 for k in range(terms)})
    with pytest.raises(DomainViolation, match="float range"):
        alg.multiply(a, a)
    b = WeylElement(0.5, 1, {(complex(1e200, k),): 1.0 for k in range(terms)})
    c = WeylElement(0.5, 1, {(complex(k, 1e200),): 1.0 for k in range(terms)})
    with pytest.raises(DomainViolation, match="float range"):
        alg.scaled_commutator(b, c)


@pytest.mark.parametrize("build", [
    lambda: alg.weyl((math.nan, 1j), 0.3),
    lambda: alg.weyl((complex(0.0, math.inf),), 0.0),
    lambda: alg.weyl((1.0,), 0.0, coeff=math.nan),
    lambda: alg.WeylElement(0.3, 1, {(1j,): math.nan}),
    lambda: alg.WeylElement(0.3, 1, {(1j,): math.inf}),
    lambda: alg.WeylElement(0.0, 1, {(complex(math.nan, 0.0),): 1.0}),
])
def test_non_finite_labels_and_coefficients_are_rejected(build):
    with pytest.raises(DomainViolation, match="finite"):
        build()
