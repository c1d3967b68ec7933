import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnyamabe import functional
from gnyamabe.functional import (GNResult, PiecewiseLinearProfile,
                                 ProfileFormatError, bundled_test_function,
                                 gn_value, radial_integrals,
                                 read_profile_file)
from gnyamabe.geometry import Dims, surface_measure, unit_volume_sphere_scalar
from gnyamabe.ode import RadialProfile
from gnyamabe.shooting import find_ground_state

from oracles import (dilate, hermite_integrals, optimal_dilation,
                     piecewise_linear_integrals, profile_quotient, scale,
                     sech_integrals, sech_sigma_inv, triangle_integrals_n2)

D22 = Dims(2, 2)


def triangle():
    return PiecewiseLinearProfile(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


def test_triangle_integrals_closed_form():
    i_grad, i_sq, i_p = radial_integrals(triangle(), D22)
    ref_grad, ref_sq, ref_p = triangle_integrals_n2()
    assert i_grad == pytest.approx(ref_grad, rel=1e-13)
    assert i_sq == pytest.approx(ref_sq, rel=1e-13)
    assert i_p == pytest.approx(ref_p, rel=1e-12)


def test_gn_result_recomputes_from_norms(gs22, testfn22):
    for profile in (gs22.profile, testfn22, triangle()):
        res = gn_value(profile, D22)
        assert res.grad_sq > 0 and res.l2_sq > 0 and res.lp_norm > 0
        k = D22.k
        recomputed = (res.grad_sq ** (D22.n / k) * res.l2_sq ** (D22.m / k)
                      / res.lp_norm ** 2)
        assert res.sigma_inv == pytest.approx(recomputed, rel=1e-12)


def test_yamabe_quotient_triangle_closed_form():
    s_g = 8 * math.pi
    expected = (6 * math.pi + 8 * math.pi * math.pi / 6) \
        / math.sqrt(math.pi / 15)
    assert profile_quotient(triangle(), D22, s_g) == pytest.approx(
        expected, rel=1e-12)


def test_quotient_bounded_below_by_dilation_minimum(gs22):
    s_g = unit_volume_sphere_scalar(2)
    for profile in (triangle(), gs22.profile):
        res = gn_value(profile, D22)
        q = profile_quotient(profile, D22, s_g)
        i_grad, i_sq, i_p = res.grad_sq, res.l2_sq, res.lp_norm ** D22.p
        denom = i_p ** (2.0 / D22.p)
        _, f_min = optimal_dilation(D22.a * i_grad / denom,
                                    s_g * i_sq / denom, D22)
        assert q >= f_min * (1.0 - 1e-12)


def test_dilated_quotient_attains_minimum(gs22, testfn22):
    s_g = unit_volume_sphere_scalar(2)
    for profile in (testfn22, gs22.profile):
        i_grad, i_sq, i_p = radial_integrals(profile, D22)
        denom = i_p ** (2.0 / D22.p)
        lam0, f_min = optimal_dilation(D22.a * i_grad / denom,
                                       s_g * i_sq / denom, D22)
        attained = profile_quotient(dilate(profile, lam0), D22, s_g)
        assert attained == pytest.approx(f_min, rel=1e-9)


def test_scale_invariance(gs22, testfn22, sech31_profile):
    cases = [(gs22.profile, D22), (testfn22, D22), (sech31_profile, Dims(3, 1))]
    for profile, d in cases:
        base = gn_value(profile, d).sigma_inv
        for c in (0.1, 3.0, 100.0):
            val = gn_value(scale(profile, c), d).sigma_inv
            assert val == pytest.approx(base, rel=1e-12)


def test_dilation_invariance(gs22, testfn22, sech31_profile):
    cases = [(gs22.profile, D22), (testfn22, D22), (sech31_profile, Dims(3, 1))]
    for profile, d in cases:
        base = gn_value(profile, d).sigma_inv
        for lam in (0.5, 2.0, 10.0):
            val = gn_value(dilate(profile, lam), d).sigma_inv
            assert val == pytest.approx(base, rel=1e-10)


def test_dilation_identity(gs22):
    same = dilate(gs22.profile, 1.0)
    assert np.array_equal(same.ts, gs22.profile.ts)
    assert np.array_equal(same.hs, gs22.profile.hs)
    assert np.array_equal(same.dhs, gs22.profile.dhs)
    assert same.tail == gs22.profile.tail


def test_dilation_l2_scaling(gs22):
    base = radial_integrals(gs22.profile, D22)[1]
    for lam in (0.5, 2.0, 10.0):
        scaled = radial_integrals(dilate(gs22.profile, lam), D22)[1]
        assert scaled == pytest.approx(lam ** -D22.n * base, rel=1e-12)


@pytest.mark.parametrize("m, n", [(2, 2), (3, 4), (2, 7)])
def test_quadrature_matches_hermite_referee(m, n):
    d = Dims(m, n)
    profile = find_ground_state(d).profile
    ours = radial_integrals(profile, d)
    for a, b in zip(ours, hermite_integrals(profile, d)):
        assert a == pytest.approx(b, rel=1e-13)


@pytest.mark.parametrize("n", range(2, 11))
def test_solver_rule_exact_on_a_cubic(n):
    """h = 1 - 3 t^2 + 2 t^3 on [0, 1], sampled with its exact slopes on an
    uneven grid, is its own cubic Hermite interpolant. The solver rule's 8
    Gauss-Legendre nodes integrate h'^2 t^(n-1) (degree n + 3) and
    h^2 t^(n-1) (degree n + 5) exactly up to n = 10."""
    ts = np.array([0.0, 0.1, 0.35, 0.5, 0.8, 1.0])
    profile = RadialProfile(ts, 1.0 - 3.0 * ts ** 2 + 2.0 * ts ** 3,
                            6.0 * ts ** 2 - 6.0 * ts, n=n)
    i_grad, i_sq, _ = radial_integrals(profile, Dims(2, n))
    # int_0^1 t^(j + n - 1) dt = 1 / (n + j), over the monomials t^j of
    # h'^2 = 36 (t^2 - 2 t^3 + t^4) and of h^2
    grad = 36 * sum(Fraction(c, n + j) for j, c in ((2, 1), (3, -2), (4, 1)))
    sq = sum(Fraction(c, n + j) for j, c in
             ((0, 1), (2, -6), (3, 4), (4, 9), (5, -12), (6, 4)))
    omega = surface_measure(n)
    assert i_grad == pytest.approx(omega * float(grad), rel=1e-14, abs=0)
    assert i_sq == pytest.approx(omega * float(sq), rel=1e-14, abs=0)


# coarse piecewise-linear functions (m, n, ts, hs), every one with a
# non-integer p. On a segment that ends at h = 0 (the final one always,
# interior ones in the last two) 16-node Gauss-Legendre missed I_p by up
# to 7.6e-7 relative, 1.9e-7 for the first function
_COARSE_FUNCTIONS = [
    (2, 7, [0.0, 10.0], [1.0, 0.0]),
    (3, 4, [0.0, 0.5, 2.0, 3.0], [2.0, 1.5, 0.25, 0.0]),
    (2, 12, [0.0, 1.0, 4.0], [1.0, 0.7, 0.0]),
    (4, 1, [0.0, 3.0], [1.2, 0.0]),
    (2, 3, [0.0, 2.0, 2.5], [1.0, 1.0, 0.0]),
    (2, 7, [0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 0.5, 0.0]),
    (2, 7, [0.0, 10.0, 20.0], [1.0, 0.0, 0.0]),
]


@pytest.mark.parametrize("m, n, ts, hs", _COARSE_FUNCTIONS)
def test_piecewise_linear_matches_mpmath(m, n, ts, hs):
    """All three integrals of coarse piecewise-linear functions within
    1e-13 relative of mpmath tanh-sinh."""
    d = Dims(m, n)
    ours = radial_integrals(PiecewiseLinearProfile(ts, hs), d)
    for a, b in zip(ours, piecewise_linear_integrals(ts, hs, d)):
        assert a == pytest.approx(b, rel=1e-13, abs=0)


def test_ground_state_is_local_minimum(gs22):
    """Five localized bumps, amplitude 1e-3, never decrease the functional."""
    from gnyamabe.ode import RadialProfile

    base = gn_value(gs22.profile, D22).sigma_inv
    ts, hs, dhs = gs22.profile.ts, gs22.profile.hs, gs22.profile.dhs
    for center in (0.5, 1.5, 3.0, 5.0, 8.0):
        bump = 1e-3 * np.exp(-((ts - center) ** 2))
        dbump = -2.0 * (ts - center) * bump
        perturbed_h = hs + bump
        perturbed_dh = dhs + dbump
        perturbed_dh[0] = 0.0  # keep the radial symmetry condition exact
        perturbed = RadialProfile(ts.copy(), perturbed_h, perturbed_dh,
                                  n=2, tail=gs22.profile.tail)
        assert gn_value(perturbed, D22).sigma_inv >= base - 1e-9


def test_radial_integrals_mismatched_dimension(sech31_profile):
    with pytest.raises(ValueError):
        radial_integrals(sech31_profile, D22)


def test_solver_profile_matches_sech_quadrature(gs31):
    i_solver = radial_integrals(gs31.profile, Dims(3, 1))
    i_oracle = sech_integrals(3)
    for a, b in zip(i_solver, i_oracle):
        assert a == pytest.approx(b, rel=1e-8)
    sigma = gn_value(gs31.profile, Dims(3, 1)).sigma_inv
    assert sigma == pytest.approx(sech_sigma_inv(3), rel=1e-8)


def test_bundled_test_function_loads(testfn22):
    assert len(testfn22.ts) == 22
    assert testfn22.ts[0] == 0.0
    assert testfn22.hs[0] == 1.0
    assert testfn22.ts[-1] == 10.0
    assert testfn22.hs[-1] == 0.0


# float.hex of the bundled test function's (I_grad, I_sq, I_p) and its L at
# (2, 2). The piecewise-linear path runs on Python floats, with no numpy
# kernel, so these are not among the CPU-dependent pins of ROADMAP item 9
_TESTFN_PINS = ('0x1.312f63cc3125dp+1', '0x1.353f707999613p+1',
                '0x1.f483f76b4ab93p-1', '0x1.36b6dad6f9a83p+1')


def test_bundled_test_function_pinned_bit_for_bit(testfn22):
    got = (*radial_integrals(testfn22, D22), gn_value(testfn22, D22).sigma_inv)
    assert tuple(x.hex() for x in got) == _TESTFN_PINS


def test_profile_stores_tuples_of_floats(testfn22):
    profile = PiecewiseLinearProfile(np.array([0.0, 1.0]), [1, 0])
    for fields in ((profile.ts, profile.hs), (testfn22.ts, testfn22.hs)):
        for field in fields:
            assert type(field) is tuple
            assert all(type(x) is float for x in field)


def test_stored_rules_are_numpys_bit_for_bit():
    """The stored Gauss-Legendre and Gauss-Laguerre doubles are those
    numpy.polynomial computes, in both the solver profiles' arrays and
    the piecewise-linear rule."""
    from numpy.polynomial.laguerre import laggauss
    from numpy.polynomial.legendre import leggauss

    s, gw, _, _, xl, wl = functional._solver_rule()[2]
    x8, w8 = leggauss(8)
    assert s.tobytes() == (0.5 * (x8 + 1.0)).tobytes()
    assert gw.tobytes() == (0.5 * w8).tobytes()
    ref_xl, ref_wl = laggauss(16)
    assert xl.tobytes() == ref_xl.tobytes()
    assert wl.tobytes() == ref_wl.tobytes()
    x16, w16 = leggauss(16)
    s16 = 0.5 * (x16 + 1.0)
    assert functional._LINE_RULE == tuple(
        zip(s16.tolist(), s16[::-1].tolist(), (0.5 * w16).tolist()))


def test_bundled_checksum_guard(monkeypatch):
    import gnyamabe.functional as fmod
    monkeypatch.setattr(fmod, "_TESTFN_SHA256", "0" * 64)
    with pytest.raises(RuntimeError):
        bundled_test_function()


def test_bundled_bound(testfn22):
    val = gn_value(testfn22, D22).sigma_inv
    assert val < 2.427458
    assert val > 2.41877


def test_profile_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearProfile(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        PiecewiseLinearProfile(np.array([0.5, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        PiecewiseLinearProfile(np.array([0.0, 1.0, 0.5]),
                               np.array([1.0, 0.5, 0.0]))


@pytest.mark.parametrize("ts, hs, match", [
    ([0.0, 0.5, 1.0], [1.0, 0.0], ">= 2 breakpoints"),
    ([0.0], [0.0], ">= 2 breakpoints"),
    ([0.0, 0.5, 1.0], [1.0, -0.5, 0.0], "non-negative"),
], ids=["shapes", "one-breakpoint", "negative"])
def test_profile_rejects_bad_breakpoints(ts, hs, match):
    with pytest.raises(ValueError, match=match):
        PiecewiseLinearProfile(np.array(ts), np.array(hs))


@pytest.mark.parametrize("ts, hs", [([0.0, 0.5, 1.0], [1.0, math.nan, 0.0]),
                                    ([0.0, math.inf], [1.0, 0.0])],
                         ids=["nan-value", "inf-breakpoint"])
def test_profile_rejects_non_finite(ts, hs):
    with pytest.raises(ValueError, match="finite"):
        PiecewiseLinearProfile(np.array(ts), np.array(hs))


def test_read_profile_file(tmp_path):
    good = tmp_path / "good.dat"
    good.write_text("# comment\n0 1\n1 0.5\n2 0\n")
    profile = read_profile_file(good)
    assert len(profile.ts) == 3

    bad_order = tmp_path / "bad_order.dat"
    bad_order.write_text("0 1\n2 0.5\n1 0\n")
    with pytest.raises(ProfileFormatError, match="line 3"):
        read_profile_file(bad_order)

    bad_token = tmp_path / "bad_token.dat"
    bad_token.write_text("0 1\nx 0.5\n2 0\n")
    with pytest.raises(ProfileFormatError, match="line 2"):
        read_profile_file(bad_token)

    bad_end = tmp_path / "bad_end.dat"
    bad_end.write_text("0 1\n1 0.5\n")
    with pytest.raises(ProfileFormatError, match="final value"):
        read_profile_file(bad_end)

    bad_start = tmp_path / "bad_start.dat"
    bad_start.write_text("0.5 1\n1 0\n")
    with pytest.raises(ProfileFormatError, match="t = 0"):
        read_profile_file(bad_start)


# random valid test functions: 2 to 8 breakpoints from t = 0, positive
# steps, h(0) > 0, non-negative values and a final zero
_steps = st.lists(st.floats(1e-2, 10.0), min_size=1, max_size=7)
_values = st.floats(0.0, 10.0)


@st.composite
def _breakpoints(draw):
    steps = draw(_steps)
    ts = np.concatenate([[0.0], np.cumsum(steps)])
    inner = draw(st.lists(_values, min_size=len(steps) - 1,
                          max_size=len(steps) - 1))
    hs = np.array([draw(st.floats(0.1, 10.0))] + inner + [0.0])
    return ts, hs


@settings(derandomize=True, deadline=None)
@given(_breakpoints(), st.sampled_from([(2, 2), (3, 1), (3, 4), (2, 7)]),
       st.floats(1e-3, 1e3), st.floats(1e-2, 1e2))
def test_value_invariant_under_scale_and_dilation(bp, mn, c, lam):
    d = Dims(*mn)
    profile = PiecewiseLinearProfile(*bp)
    base = gn_value(profile, d).sigma_inv
    assert gn_value(scale(profile, c), d).sigma_inv == pytest.approx(
        base, rel=1e-12)
    assert gn_value(dilate(profile, lam), d).sigma_inv == pytest.approx(
        base, rel=1e-12)


@settings(derandomize=True, deadline=None)
@given(_breakpoints())
def test_breakpoint_file_round_trip(tmp_path_factory, bp):
    ts, hs = bp
    path = tmp_path_factory.getbasetemp() / "round_trip.dat"
    path.write_text("".join(f"{t!r} {h!r}\n"
                            for t, h in zip(ts.tolist(), hs.tolist())))
    profile = read_profile_file(path)
    assert np.array_equal(profile.ts, ts)
    assert np.array_equal(profile.hs, hs)
