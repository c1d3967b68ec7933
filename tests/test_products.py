import math

import numpy as np
import pytest

import gnyamabe.products as products
from gnyamabe.functional import PiecewiseLinearProfile, gn_value
from gnyamabe.geometry import (Dims, unit_volume_sphere_scalar, y_infinity,
                               yamabe_sphere)
from gnyamabe.products import bound_from_profile, build_table, table_pairs

from golden import GOLDEN_TABLE
from oracles import optimal_dilation

D22 = Dims(2, 2)


def test_y_infinity_anchor_22():
    val = y_infinity(D22, 8 * math.pi, 2.41877)
    assert abs(val - 59.40481) < 5e-3
    # C(2,2) (8 pi)^(1/2) collapses to 8 sqrt(3 pi)
    assert val == pytest.approx(8 * math.sqrt(3 * math.pi) * 2.41877,
                                rel=1e-13)


def test_y_infinity_anchor_52():
    d = Dims(5, 2)
    val = y_infinity(d, unit_volume_sphere_scalar(5), 1.75469)
    assert abs(val - 113.2670) < 5e-3


def test_y_infinity_linear_in_sigma():
    assert y_infinity(D22, 8 * math.pi, 0.0) == 0.0


def test_optimal_dilation_symmetric():
    lam0, f_min = optimal_dilation(3.7, 3.7, D22)
    assert lam0 == pytest.approx(1.0, rel=1e-14)
    assert f_min == pytest.approx(2 * 3.7, rel=1e-14)


def test_optimal_dilation_22_example():
    lam0, f_min = optimal_dilation(4.0, 1.0, D22)
    assert lam0 == pytest.approx(0.5, rel=1e-14)
    assert f_min == pytest.approx(4.0, rel=1e-14)


def test_optimal_dilation_is_minimal():
    d = Dims(3, 2)
    for a, b in [(1.0, 2.0), (5.5, 0.3), (0.01, 7.0)]:
        lam0, f_min = optimal_dilation(a, b, d)

        def f(lam):
            return lam ** (2 * d.m / d.k) * a + lam ** (-2 * d.n / d.k) * b

        assert f_min <= f(lam0 / 2) + 1e-14
        assert f_min <= f(2 * lam0) + 1e-14
        assert f_min == pytest.approx(f(lam0), rel=1e-13)


def test_bound_from_bundled_profile(testfn22):
    s_g = unit_volume_sphere_scalar(2)
    bound = bound_from_profile(testfn22, D22, s_g)
    assert bound < 8 * math.sqrt(3 * math.pi) * 2.427458
    assert bound < yamabe_sphere(4)


def test_bound_of_resampled_ground_state_attains_infimum(gs22):
    sigma_inv = gn_value(gs22.profile, D22).sigma_inv
    s_g = unit_volume_sphere_scalar(2)
    ts = gs22.profile.ts
    hs = gs22.profile.hs
    pl = PiecewiseLinearProfile(np.append(ts, ts[-1] + 1.0),
                                np.append(hs, 0.0))
    bound = bound_from_profile(pl, D22, s_g)
    assert bound == pytest.approx(y_infinity(D22, s_g, sigma_inv), rel=1e-6)


def test_triangle_bound_above_infimum(gs22):
    sigma_inv = gn_value(gs22.profile, D22).sigma_inv
    s_g = unit_volume_sphere_scalar(2)
    tri = PiecewiseLinearProfile(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert bound_from_profile(tri, D22, s_g) >= y_infinity(D22, s_g, sigma_inv)


def test_table_pairs_order_and_count():
    pairs = table_pairs(9)
    assert len(pairs) == 21
    assert pairs == [(m, n) for (m, n, *_rest) in GOLDEN_TABLE]
    assert table_pairs(4) == [(2, 2)]
    with pytest.raises(ValueError):
        table_pairs(3)


def test_table_spot_values(table9):
    rows, _ = table9
    by_pair = {(r.m, r.n): r for r in rows}
    r44 = by_pair[(4, 4)]
    assert abs(r44.sigma_inv - 3.81586) < 5e-4
    assert abs(r44.y_inf - 129.3551) < 5e-3


# sigma_inv of every table row from the tight-control reference:
# find_ground_state(Dims(m, n), tol_alpha=1e-14,
# ctrl=tightened(DEFAULT_CONTROLS, 10.0)) with ode._DECAY_THRESHOLD = 1e-10,
# whose brackets are at most 1e-14 alpha0 wide. The default table agrees
# to 1.8e-14 relative, (2, 7) being the farthest; tests/golden.py pins the
# same values only to 5e-4.
_CONVERGED_SIGMA_INV = [
    (2, 2, 2.418769989535969),
    (2, 3, 3.8794757585083346),
    (3, 2, 2.1136065504095813),
    (2, 4, 5.6640828821276115),
    (3, 3, 3.199256908744252),
    (4, 2, 1.9028207338542509),
    (2, 5, 7.719374786786644),
    (3, 4, 4.539604822986159),
    (4, 3, 2.758108229769716),
    (5, 2, 1.754698082512176),
    (2, 6, 10.001924249026343),
    (3, 5, 6.1084325118317695),
    (4, 4, 3.815863278257845),
    (5, 3, 2.455644445250792),
    (6, 2, 1.6464983164289857),
    (2, 7, 12.476422952931797),
    (3, 6, 7.881720615249013),
    (4, 5, 5.062750837782688),
    (5, 4, 3.3208379194474116),
    (6, 3, 2.2377806546649754),
    (7, 2, 1.5645582898186503),
]


def test_table_matches_converged_reference(table9):
    rows, _ = table9
    assert [(r.m, r.n) for r in rows] == [
        (m, n) for m, n, _ in _CONVERGED_SIGMA_INV]
    for r, (_, _, reference) in zip(rows, _CONVERGED_SIGMA_INV):
        assert abs(r.sigma_inv / reference - 1.0) <= 1e-10, (r.m, r.n)


def test_row_invariant_recomputes(table9):
    rows, _ = table9
    for r in rows:
        d = Dims(r.m, r.n)
        expected = y_infinity(d, unit_volume_sphere_scalar(r.m), r.sigma_inv)
        assert r.y_inf == pytest.approx(expected, rel=1e-12)
        assert r.y_sphere == yamabe_sphere(d.k)


def test_y_inf_below_sphere_on_every_row(table9):
    rows, _ = table9
    assert len(rows) == 21
    for r in rows:
        assert r.y_inf < r.y_sphere, f"({r.m},{r.n})"


def test_sigma_monotonicity_across_table(table9):
    rows, _ = table9
    by_pair = {(r.m, r.n): r.sigma_inv for r in rows}
    for (m, n), val in by_pair.items():
        if (m + 1, n) in by_pair:
            assert by_pair[(m + 1, n)] < val
        if (m, n + 1) in by_pair:
            assert by_pair[(m, n + 1)] > val


def test_build_table_collects_errors(monkeypatch):
    real = products.find_ground_state

    def flaky(d, **kwargs):
        if (d.m, d.n) == (2, 3):
            raise RuntimeError("synthetic failure")
        return real(d, **kwargs)

    monkeypatch.setattr(products, "find_ground_state", flaky)
    errors = []
    rows = build_table(5, collect_errors=errors)
    assert [(r.m, r.n) for r in rows] == [(2, 2), (3, 2)]
    assert len(errors) == 1
    assert errors[0][:2] == (2, 3)

    with pytest.raises(RuntimeError):
        build_table(5)


def test_build_table_reports_rows_not_below_sphere(monkeypatch):
    monkeypatch.setattr(products, "yamabe_sphere", lambda k: 1.0)
    with pytest.warns(UserWarning, match="not below the sphere"):
        products.build_table(4)




@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 5)])
def test_bound_is_y_infinity_of_the_gn_value(testfn22, m, n):
    """The bound is the limiting constant at the profile's functional
    value, bit for bit: one closed form serves both."""
    d = Dims(m, n)
    s_g = unit_volume_sphere_scalar(m)
    tri = PiecewiseLinearProfile(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    for profile in (testfn22, tri):
        assert bound_from_profile(profile, d, s_g) == y_infinity(
            d, s_g, gn_value(profile, d).sigma_inv)
