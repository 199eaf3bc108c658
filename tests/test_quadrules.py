import numpy as np
import pytest
from scipy.special import roots_legendre

from weylgas import _quadrules as qr
from weylgas import berezin as bz
from weylgas import testfn as tf


@pytest.mark.parametrize("rule", [qr.gauss_legendre, qr.gauss_hermite])
def test_rule_is_shared_and_read_only(rule):
    x, w = rule(37)
    assert rule(37) is rule(37)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_rules_equal_fresh_construction():
    for got, fresh in ((qr.gauss_legendre(50), roots_legendre(50)),
                       (qr.gauss_hermite(50), np.polynomial.hermite.hermgauss(50))):
        assert all(np.array_equal(a, b) for a, b in zip(got, fresh))


def test_cold_and_warm_cache_give_identical_results():
    packet = bz.WavePacket(0.8 + 0.1j, (0.3, -0.2), (0.9, 1.1), (0.5, 0.0))
    # a moving packet gives the critical thermal correction a momentum term,
    # so it runs on the Gauss-Hermite rule
    moving = tf.gaussian(1.0, (0.2, 0.0, 0.0), 0.5, (0.7, 0.0, 0.0))

    def run():
        return (tf.axis_sine_overlaps(0.3, 0.4, 1.1, 2.0, 24),
                tf.restricted_norm_sq(tf.gaussian(1.0, (0.2,), 0.5, (0.7,)), 1.0),
                bz.berezin_matrix_element((0.4, -0.3), (0.2, 0.1), packet, packet, 0.5),
                tf.thermal_pair(moving, moving, 1.0, 1.0, 0.0))

    qr.gauss_legendre.cache_clear()
    qr.gauss_hermite.cache_clear()
    cold = run()
    warm = run()
    assert qr.gauss_hermite.cache_info().hits > 0
    assert np.array_equal(cold[0], warm[0])
    assert cold[1:] == warm[1:]
