import math

import numpy as np
import pytest

from weylgas import algebra as alg
from weylgas import berezin as bz
from weylgas import quantize as qz
from weylgas.errors import NegativeHbar, NonzeroHbar
from weylgas.errors import DomainViolation


def test_quantize_scales_each_coefficient():
    f = (1 + 2j, -0.5j)
    a = alg.weyl(f, 0.0, coeff=2.0) + alg.unit(2, 0.0)
    q = qz.quantize(a, 0.4)
    assert q.hbar == 0.4
    damp = math.exp(-0.4 * alg.label_norm_sq(f) / 4.0)
    assert q.coefficient(f) == pytest.approx(2.0 * damp)
    assert q.coefficient((0j, 0j)) == 1.0  # unit is fixed


def test_quantize_at_zero_is_identity():
    a = alg.weyl((1j,), 0.0, coeff=3.0)
    assert qz.quantize(a, 0.0) is a


def test_quantize_rejects_bad_inputs():
    with pytest.raises(NonzeroHbar):
        qz.quantize(alg.weyl((1j,), 0.2), 0.3)
    with pytest.raises(NegativeHbar):
        qz.quantize(alg.weyl((1j,), 0.0), -0.1)
    with pytest.raises(DomainViolation, match="hbar"):
        qz.quantize(alg.weyl((1j,), 0.0), math.nan)


def test_preimage_inverts_quantize():
    a = alg.weyl((1 + 1j,), 0.0, coeff=0.7) + alg.weyl((2j,), 0.0, coeff=-0.2)
    q = qz.quantize(a, 0.8)
    back, l2 = qz.preimage(q)
    assert alg.elements_close(back, a, atol=1e-12)
    assert l2 == pytest.approx(math.sqrt(0.7 ** 2 + 0.2 ** 2), rel=1e-12)


def test_vonneumann_residual_anchor():
    # |Q(f)Q(g) - Q(fg)| at f=(1), g=(i), h=0.1:
    # exp(-h/2) * 2|sin(h sigma/4)| ... frozen against the closed form
    val = qz.vonneumann_residual((1 + 0j,), (1j,), 0.1)
    closed = math.exp(-0.05) * 2.0 * abs(math.sin(0.025))
    assert val == pytest.approx(closed, rel=1e-12)
    assert val == pytest.approx(4.7556517e-2, rel=1e-6)


def test_dirac_residual_anchor():
    val = qz.dirac_residual((1 + 0j,), (1j,), 0.1)
    closed = math.exp(-0.05) * abs(1.0 - (2.0 / 0.1) * math.sin(0.05))
    assert val == pytest.approx(closed, rel=1e-10)
    assert val == pytest.approx(3.9629605e-4, rel=1e-6)


def test_dirac_slope_generic_vs_orthogonal():
    hs = np.logspace(-5, -3, 9)

    def slope(f, g):
        r = [qz.dirac_residual(f, g, float(h)) for h in hs]
        return np.polyfit(np.log(hs), np.log(r), 1)[0]

    # Re<f,g> = 0: leading dirac defect cancels, slope doubles
    assert slope((1 + 0j,), (1j,)) == pytest.approx(2.0, abs=0.05)
    # generic pair: first order in h
    assert slope((1 + 0.5j,), (0.3 + 1j,)) == pytest.approx(1.0, abs=0.05)


def test_residuals_vanish_with_h():
    f, g = (0.9 - 0.2j, 1j), (0.1 + 1j, -0.7 + 0j)
    vn = [qz.vonneumann_residual(f, g, h) for h in (0.1, 0.01, 0.001)]
    dr = [qz.dirac_residual(f, g, h) for h in (0.1, 0.01, 0.001)]
    assert vn[0] > vn[1] > vn[2]
    assert dr[0] > dr[1] > dr[2]


def test_rieffel_profile_wants_increasing_grid():
    a = alg.weyl((1j,), 0.0)
    with pytest.raises(ValueError):
        qz.rieffel_profile(a, [0.1, 0.05])


def test_rieffel_profile_brackets_norm():
    a = alg.weyl((1 + 0j,), 0.0) + alg.weyl((1j,), 0.0)
    rows = qz.rieffel_profile(a, [0.01, 0.1, 1.0])
    for _, lo, up in rows:
        assert lo <= up
    # single-generator element: bounds collapse
    rows1 = qz.rieffel_profile(alg.weyl((1j,), 0.0, coeff=2.0), [0.5])
    _, lo, up = rows1[0]
    assert lo == pytest.approx(up)


def test_witness_target_converges_but_preimages_blow_up():
    out = qz.nonsurjectivity_witness((1 + 0j,), 12, 1.0)
    target = out["target_l2"]
    pre = out["preimage_l2"]
    # partial l2 norms of sum n^{-2} W(n f) approach sqrt(pi^4/90)
    assert target[-1] == pytest.approx(math.sqrt(math.pi ** 4 / 90.0), abs=1e-3)
    assert all(b >= a for a, b in zip(target, target[1:]))
    # the would-be preimage coefficients grow like e^{n^2/4}/n^2
    assert pre[9] > 1e8
    assert pre[9] == pytest.approx(
        math.sqrt(sum((math.exp(n * n / 4.0) / n ** 2) ** 2 for n in range(1, 11))),
        rel=1e-12)


def test_witness_validates_input():
    with pytest.raises(ValueError):
        qz.nonsurjectivity_witness((1 + 0j,), 1, 1.0)
    with pytest.raises(ValueError):
        qz.nonsurjectivity_witness((0j,), 5, 1.0)


def test_labels_are_phase_space_points():
    # f_j = lam_j + i mu_j: the Weyl twist and the quantization damping of a
    # label agree with the Schrodinger representation and the Berezin integral
    rng = np.random.default_rng(37)
    h = 0.37
    f, g = (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2) for _ in range(2))
    phi = bz.WavePacket(0.6 - 0.3j, (0.4, -0.2), (1.3, 0.7), (-0.8, 0.5))
    psi = bz.coherent_state([-0.2, 0.1], [0.5, -0.3], h)
    [twist] = alg.multiply(alg.weyl(f, h), alg.weyl(g, h)).terms.values()
    product = bz.overlap(phi, bz.weyl_action(
        f.real, f.imag, bz.weyl_action(g.real, g.imag, psi, h), h))
    joint = bz.schrodinger_matrix_element(f.real + g.real, f.imag + g.imag, phi, psi, h)
    assert twist == pytest.approx(product / joint, rel=1e-12)
    damping = qz.quantize(alg.weyl(f), h).coefficient(f)
    assert damping == pytest.approx(
        bz.berezin_matrix_element(f.real, f.imag, phi, psi, h)
        / bz.schrodinger_matrix_element(f.real, f.imag, phi, psi, h), rel=1e-12)


def test_bad_witness_and_profile_inputs_are_domain_violations():
    with pytest.raises(DomainViolation):
        qz.rieffel_profile(alg.weyl((1j,), 0.0), [0.1, 0.05])
    with pytest.raises(DomainViolation):
        qz.nonsurjectivity_witness((1 + 0j,), 1, 1.0)
    with pytest.raises(DomainViolation):
        qz.nonsurjectivity_witness((0j,), 5, 1.0)
    # exp(h n^2 |f|^2 / 4) leaves the float range at n = 54
    with pytest.raises(DomainViolation):
        qz.nonsurjectivity_witness((1 + 0j,), 54, 1.0)
    assert len(qz.nonsurjectivity_witness((1 + 0j,), 53, 1.0)["preimage_l2"]) == 53
    # at h = 0 nothing overflows, so only the term bound stops a long series
    with pytest.raises(DomainViolation):
        qz.nonsurjectivity_witness((1 + 0j,), qz._MAX_WITNESS_TERMS + 1, 0.0)
