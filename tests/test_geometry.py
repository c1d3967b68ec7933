import math

import pytest

from gnyamabe.geometry import (Dims, coupling_constant, reference_constants,
                               sobolev_constant, sphere_volume,
                               surface_measure, unit_volume_sphere_scalar,
                               y_infinity, yamabe_sphere)


def test_sphere_volume_low_dims():
    assert sphere_volume(1) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_volume(2) == pytest.approx(4 * math.pi, rel=1e-15)
    # Gamma(5/2) = (3/4) sqrt(pi) gives (8/3) pi^2
    assert sphere_volume(4) == pytest.approx(8 * math.pi ** 2 / 3, rel=1e-14)


def test_sphere_volume_rejects_degenerate():
    with pytest.raises(ValueError):
        sphere_volume(0)
    with pytest.raises(ValueError):
        sphere_volume(-3)


@pytest.mark.parametrize("call, match", [
    (lambda: Dims(2.5, 2), "integers"),
    (lambda: Dims(2, 1.5), "integers"),
    (lambda: surface_measure(0), "ambient dimension must be >= 1"),
], ids=["m-fraction", "n-fraction", "surface-measure-0"])
def test_dimension_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_sphere_volume_recurrence():
    for k in range(3, 13):
        expected = 2 * math.pi * sphere_volume(k - 2) / (k - 1)
        assert sphere_volume(k) == pytest.approx(expected, rel=1e-13)


def test_surface_measure():
    assert surface_measure(1) == 2.0
    assert surface_measure(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert surface_measure(3) == pytest.approx(4 * math.pi, rel=1e-15)


def test_yamabe_sphere_values():
    assert yamabe_sphere(4) == pytest.approx(8 * math.sqrt(6) * math.pi,
                                             rel=1e-14)
    assert abs(yamabe_sphere(4) - 61.56239) < 5e-4
    assert abs(yamabe_sphere(5) - 78.99686) < 5e-4
    assert abs(yamabe_sphere(9) - 147.8778) < 5e-4


def test_yamabe_sphere_is_single_expression():
    for k in range(3, 10):
        assert yamabe_sphere(k) == k * (k - 1) * sphere_volume(k) ** (2.0 / k)


def test_yamabe_sphere_domain():
    with pytest.raises(ValueError):
        yamabe_sphere(2)


def test_sobolev_constant():
    assert sobolev_constant(4) == pytest.approx(
        6.0 / (8 * math.sqrt(6) * math.pi), rel=1e-13)
    y3 = 6.0 * (2 * math.pi ** 2) ** (2.0 / 3.0)
    assert sobolev_constant(3) == pytest.approx(8.0 / y3, rel=1e-13)
    with pytest.raises(ValueError):
        sobolev_constant(2)


def test_coupling_constant_22():
    assert coupling_constant(Dims(2, 2)) == pytest.approx(2 * math.sqrt(6),
                                                          rel=1e-14)


def test_coupling_constant_32():
    # a_5 = 16/3; direct substitution into the closed form
    expected = (16.0 / 3.0) ** 0.4 * 5.0 * 2.0 ** -0.4 * 3.0 ** -0.6
    assert coupling_constant(Dims(3, 2)) == pytest.approx(expected, rel=1e-13)


def test_coupling_constant_log_space_agrees_with_naive():
    for m in range(1, 8):
        for n in range(1, 8):
            if m + n < 3 or m + n > 9:
                continue
            d = Dims(m, n)
            k = d.k
            naive = d.a ** (n / k) * k * n ** (-n / k) * m ** (-m / k)
            val = coupling_constant(d)
            assert val > 0
            assert val == pytest.approx(naive, rel=1e-14)


@pytest.mark.parametrize("s_g, sigma_inv", [
    (math.nan, 2.4), (math.inf, 2.4), (8 * math.pi, math.nan),
    (8 * math.pi, math.inf)], ids=["s_g-nan", "s_g-inf", "sigma_inv-nan",
                                   "sigma_inv-inf"])
def test_y_infinity_rejects_non_finite(s_g, sigma_inv):
    with pytest.raises(ValueError, match="finite"):
        y_infinity(Dims(2, 2), s_g, sigma_inv)


def test_unit_volume_sphere_scalar():
    assert unit_volume_sphere_scalar(2) == pytest.approx(8 * math.pi,
                                                         rel=1e-14)
    assert unit_volume_sphere_scalar(3) == pytest.approx(
        6.0 * (2 * math.pi ** 2) ** (2.0 / 3.0), rel=1e-14)
    for m in range(3, 10):
        assert unit_volume_sphere_scalar(m) == yamabe_sphere(m)
    with pytest.raises(ValueError):
        unit_volume_sphere_scalar(1)


def test_dims_validation():
    with pytest.raises(ValueError):
        Dims(0, 2)
    with pytest.raises(ValueError):
        Dims(2, 0)
    with pytest.raises(ValueError):
        Dims(1, 1)  # total dimension 2


def test_dims_exponents():
    d = Dims(2, 2)
    assert d.k == 4
    assert d.a == 6.0
    assert d.p == 4.0
    assert d.q == 3.0
    for m, n in [(2, 3), (5, 2), (1, 2), (4, 5)]:
        d = Dims(m, n)
        k = d.k
        assert d.a == pytest.approx(4 * (k - 1) / (k - 2), rel=1e-15)
        assert d.q == pytest.approx(d.p - 1.0, rel=1e-15)


def test_reference_constants():
    ref = reference_constants()
    assert ref["Y_CP2"] == pytest.approx(12 * math.sqrt(2) * math.pi,
                                         rel=1e-15)
    assert abs(ref["Y_CP2"] - 53.31459) <= 1e-5
    assert abs(ref["Y_S2xS2_product"] - 50.26548) <= 1e-5
    assert ref["Y_S2xS2_product"] < ref["Y_CP2"]
