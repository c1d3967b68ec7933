import argparse
import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnyamabe import functional, ode, periodic, products, shooting
from gnyamabe.cli import _SANE_TOL_ALPHA, _build_parser, main
from gnyamabe.geometry import Dims
from gnyamabe.periodic import count_periodic_solutions, orbit_for_period

TESTFN_PATH = str(resources.files("gnyamabe.data").joinpath("testfn_2_2.dat"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ground_state_report(capsys):
    code, out, err = run(capsys, "ground-state", "2", "2")
    assert code == 0
    assert "2.2062" in out
    assert "2.41877" in out


def test_ground_state_json_and_dump(capsys, tmp_path):
    dump = tmp_path / "profile.dat"
    code, out, _ = run(capsys, "ground-state", "3", "1", "--format", "json",
                       "--dump", str(dump))
    assert code == 0
    record = json.loads(out)
    assert record["alpha0"] == pytest.approx(math.sqrt(2), rel=1e-6)
    rows = dump.read_text().strip().splitlines()
    assert all(len(r.split()) == 3 for r in rows)
    assert float(rows[0].split()[1]) == pytest.approx(math.sqrt(2), rel=1e-9)


def test_ground_state_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["ground-state", "0", "2"])
    assert exc.value.code == 2


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["table", "--frobnicate"])
    assert exc.value.code == 2


def test_tol_alpha_range_enforced():
    with pytest.raises(SystemExit) as exc:
        main(["ground-state", "2", "2", "--tol-alpha", "1e-20"])
    assert exc.value.code == 2


def test_tol_alpha_reaches_the_search(capsys, monkeypatch):
    """A valid --tol-alpha is passed to the search, and it is the only
    keyword passed."""
    calls = []
    search = shooting.find_ground_state

    def spy(d, **options):
        calls.append(options)
        return search(d, **options)

    monkeypatch.setattr(shooting, "find_ground_state", spy)
    code, out, _ = run(capsys, "ground-state", "3", "1", "--tol-alpha",
                       "1e-8", "--format", "json")
    assert code == 0
    assert calls == [{"tol_alpha": 1e-8}]
    # alpha0 is reported to 7 digits, so both tolerances print sqrt 2
    assert json.loads(out)["alpha0"] == pytest.approx(math.sqrt(2),
                                                       rel=1e-6)


def test_table_takes_no_tol_alpha():
    """Every table row searches at the library's default tolerance; only
    ground-state takes --tol-alpha."""
    with pytest.raises(SystemExit) as exc:
        main(["table", "--max-dim", "4", "--tol-alpha", "1e-8"])
    assert exc.value.code == 2


def test_tol_alpha_range_is_the_library_range():
    """The CLI cannot import shooting to build its parser, so it copies
    the range of tol_alpha that find_ground_state accepts."""
    assert _SANE_TOL_ALPHA == shooting._TOL_ALPHA_RANGE


def _failing_shot(alpha, d):
    raise ode.IntegrationFailure(f"step underflow (alpha={alpha!r})")


def test_numerical_failure_exit_code(capsys, monkeypatch):
    """When a shot fails, the search fails with it and the CLI exits 1."""
    monkeypatch.setattr(shooting, "integrate_shot", _failing_shot)
    code, out, err = run(capsys, "ground-state", "2", "2")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_large_alpha0_exit_code(capsys):
    """No bound on alpha stops the search: the (2, 16), (2, 30) and
    (30, 30) ground states, which lie past 2^20, are found. The first
    shots of (2, 30) and (30, 30), from alpha = 2, creep towards h = 1
    and turn up late, at t = 54.65 and 76.00."""
    for m, n, alpha0 in ((2, 16, 1.085251e6), (2, 30, 2.212815e13),
                         (30, 30, 9.015785e7)):
        code, out, err = run(capsys, "ground-state", str(m), str(n),
                             "--format", "json")
        assert code == 0 and err == ""
        assert json.loads(out)["alpha0"] == pytest.approx(alpha0, rel=1e-6)


def test_unresolved_alpha0_exit_code(capsys):
    """Where the search now ends: (5, 45) and (10, 45) solve, but the
    shots of (2, 60) do not resolve alpha0, whose latest shot stalls above
    h = 1 with energy E < 0 before it turns up. The CLI exits 1 with one
    error line that says so."""
    for m, n in ((5, 45), (10, 45)):
        code, out, err = run(capsys, "ground-state", str(m), str(n))
        assert code == 0 and out and err == ""
    code, out, err = run(capsys, "ground-state", "2", "60")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "alpha0 not resolved" in err and "stalled above h = 1" in err


def test_table_json_single_row(capsys):
    code, out, _ = run(capsys, "table", "--max-dim", "4", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 1
    assert records[0]["m"] == 2 and records[0]["n"] == 2
    assert abs(records[0]["sigma_inv"] - 2.41877) < 5e-4


def test_table_csv_row_23(capsys):
    code, out, _ = run(capsys, "table", "--max-dim", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,alpha0,sigma_inv,y_inf,y_sphere"
    assert len(lines) == 4  # header + (2,2), (2,3), (3,2)
    row23 = next(l for l in lines if l.startswith("2,3,"))
    sigma = float(row23.split(",")[3])
    assert abs(sigma - 3.87947) < 5e-4


def test_table_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["table", "--max-dim", "3"])
    assert exc.value.code == 2


def test_table_rows_fail_each_on_its_own_line(capsys, monkeypatch):
    """When every shot fails, no row of the table up to k = 5 has its
    alpha0: every row fails, each on its own stderr line, and the table
    exits 1."""
    monkeypatch.setattr(shooting, "integrate_shot", _failing_shot)
    code, out, err = run(capsys, "table", "--max-dim", "5")
    assert code == 1
    assert out == "m,n,alpha0,sigma_inv,y_inf,y_sphere\n"
    lines = err.splitlines()
    assert [line.split(" failed:")[0] for line in lines] == [
        "row (2, 2)", "row (2, 3)", "row (3, 2)"]


def test_bound_bundled_profile(capsys):
    code, out, _ = run(capsys, "bound", TESTFN_PATH, "2", "2")
    assert code == 0
    assert "L < 2.427458: PASS" in out
    assert "bound < Y_4: PASS" in out


def test_bound_triangle_file(capsys, tmp_path):
    path = tmp_path / "triangle.dat"
    path.write_text("0 1\n1 0\n")
    code, out, _ = run(capsys, "bound", str(path), "2", "2")
    assert code == 0
    bound = float(next(l for l in out.splitlines()
                       if "upper bound" in l).split("=")[1].split()[0])
    assert bound > 59.0  # any test function sits above the infimum


@pytest.mark.parametrize("text, line", [
    ("0 1\n2 0.5\n1 0\n", "line 3"),
    ("0 1\n0.5 nan\n1 0\n", "line 2"),
    ("0 1\ninf 0\n", "line 2"),
    ("0 1\n0.5 1 2\n1 0\n", "line 2: expected 't h'"),
    ("0 1\n0.5 -1\n1 0\n", "line 2: negative value"),
], ids=["unordered", "nan-value", "inf-breakpoint", "three-fields",
        "negative-value"])
def test_bound_malformed_file(capsys, tmp_path, text, line):
    path = tmp_path / "bad.dat"
    path.write_text(text)
    code, out, err = run(capsys, "bound", str(path), "2", "2")
    assert code == 1
    assert line in err
    assert out == ""


@pytest.mark.parametrize("text, m, n, message", [
    ("0 0\n1 0\n", 2, 2, "must not all be 0"),
    ("0 1e-200\n1 0\n", 2, 2, "I_p = 0.0 is not positive and finite"),
    ("0 1e200\n1 0\n", 2, 2, "I_p on the segment t in [0, 1], h from "
     "1e+200 to 0, leaves the double range"),
    ("0 1\n1 1\n1e160 0\n", 2, 7, "I_p on the segment t in [1, 1e+160], "
     "h from 1 to 0, leaves the double range"),
    ("0 1\n1e-300 0\n", 2, 1, None),
    ("0 1\n1e200 0\n", 2, 1, None),
    ("0 1e10\n5e-324 0\n", 2, 1, "I_grad = nan: the integral leaves the "
     "double range"),
], ids=["all-zero", "underflow", "overflow-h", "overflow-t", "steep",
        "flat", "overflow-slope"])
def test_bound_degenerate_profile(capsys, tmp_path, text, m, n, message):
    """A profile with no mass, or one whose L^p integral underflows or
    overflows, ends in one error line and exit 1, not a ZeroDivisionError
    or an OverflowError. So does one whose gradient integral leaves the
    double range: the error names I_grad, also where an overflowing
    slope makes its quadrature nan. A steep or flat triangle (message
    None) answers: each quadrature term multiplies the slope by its
    weight before the second slope, so I_grad stays a double, and L is
    the undilated triangle's."""
    path = tmp_path / "degenerate.dat"
    path.write_text(text)
    code, out, err = run(capsys, "bound", str(path), str(m), str(n))
    if message is None:
        assert (code, err) == (0, "")
        _assert_triangle_answer(out, path, m, n)
        return
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def _assert_triangle_answer(out: str, path, m: int, n: int):
    """`bound`'s output `out` on the dilated triangle in `path` reports the
    L of the triangle on [0, 1], which the profile's own L matches to 4
    ulps."""
    d = Dims(m, n)
    triangle = functional.PiecewiseLinearProfile([0.0, 1.0], [1.0, 0.0])
    want = functional.gn_value(triangle, d).sigma_inv
    got = functional.gn_value(functional.read_profile_file(path), d).sigma_inv
    assert abs(got - want) <= 4 * math.ulp(want)
    assert f"L(f)        = {want:.7g}\n" in out


@pytest.mark.parametrize("text, m, n, answers", [
    ("0 1e200\n1 0\n", 2, 2, False),
    ("0 1\n1 1\n1e160 0\n", 2, 7, False),
    ("0 1\n1e-300 0\n", 2, 1, True),
], ids=["overflow-h", "overflow-t", "steep"])
def test_bound_out_of_range_prints_one_line(tmp_path, text, m, n, answers):
    """In a process of its own, where warnings are not captured, a
    profile whose integrals leave the double range prints its error line
    and nothing else, and the steep triangle, whose integrals no longer
    leave it, prints its answer and nothing on stderr."""
    path = tmp_path / "degenerate.dat"
    path.write_text(text)
    proc = _child("-W", "default", "-m", "gnyamabe", "bound", str(path),
                  str(m), str(n))
    if answers:
        assert (proc.returncode, proc.stderr) == (0, "")
        _assert_triangle_answer(proc.stdout, path, m, n)
        return
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


_FUZZ_VALUES = st.sampled_from(
    [0.0, 5e-324, 1e-300, 1e-10, 1.0, 1e10, 1e200, 1.7e308])


@st.composite
def _fuzz_breakpoints(draw):
    """2-5 (t, h) pairs from _FUZZ_VALUES: as drawn, or, half of the time,
    in the documented shape, t rising from 0 to a final h = 0."""
    if draw(st.booleans()):
        return draw(st.lists(st.tuples(_FUZZ_VALUES, _FUZZ_VALUES),
                             min_size=2, max_size=5))
    ts = sorted(draw(st.lists(_FUZZ_VALUES.filter(bool), min_size=1,
                              max_size=4, unique=True)))
    hs = draw(st.lists(_FUZZ_VALUES, min_size=len(ts), max_size=len(ts)))
    return list(zip([0.0, *ts], [*hs, 0.0]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_fuzz_breakpoints(), st.integers(2, 7), st.integers(1, 7))
def test_bound_fuzz(tmp_path_factory, breakpoints, m, n):
    """`bound` on profile files of 2-5 breakpoints whose t and h run from
    0 through the subnormals to the top of the double range, at every
    (m, n) with m in 2..7 and n in 1..7: it exits 0, 1 or 2, a failure
    leaves one stderr line starting `error:` and nothing else, and a
    success prints no nan or inf. No exception escapes, numpy warnings
    included."""
    path = tmp_path_factory.getbasetemp() / "fuzz.dat"
    path.write_text("".join(f"{t!r} {h!r}\n" for t, h in breakpoints))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["bound", str(path), str(m), str(n)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1
    else:
        assert not re.search(r"nan|inf", out.getvalue(), re.IGNORECASE)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(st.integers(1, 30), st.integers(1, 30))
def test_ground_state_fuzz(m, n):
    """`ground-state m n` at m and n in 1..30, where alpha0 runs up to
    2.2e13, at (2, 30): it exits 0, 1 or 2, a failure leaves one stderr
    line starting `error:` and nothing else (after the usage line, for
    the usage error of (1, 1)), and a success prints no nan or inf. No
    exception escapes, numpy warnings included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["ground-state", str(m), str(n)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 2:
        usage, *lines = lines
        assert usage.startswith("usage:")
        lines = [line.removeprefix("gnyamabe: ") for line in lines]
    if code:
        assert len(lines) == 1 and lines[0].startswith("error:")
    else:
        assert not re.search(r"nan|inf", out.getvalue(), re.IGNORECASE)


def test_bound_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "bound", str(tmp_path / "nope.dat"), "2", "2")
    assert code == 1


def test_bound_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bound", TESTFN_PATH, "1", "2"])
    assert exc.value.code == 2


def test_bound_runs_one_quadrature(capsys, monkeypatch):
    """L(f) and the bound come from one evaluation of the integrals."""
    calls = []

    def counted(*args):
        calls.append(args)
        return radial_integrals(*args)

    radial_integrals = functional.radial_integrals
    monkeypatch.setattr(functional, "radial_integrals", counted)
    code, out, _ = run(capsys, "bound", TESTFN_PATH, "2", "2")
    assert code == 0 and "bound < Y_4: PASS" in out
    assert len(calls) == 1


def test_periodic_small_radius(capsys):
    code, out, _ = run(capsys, "periodic", "4", "0.01")
    assert code == 0
    assert "nonconstant solutions: 0" in out


def test_periodic_large_radius(capsys):
    code, out, _ = run(capsys, "periodic", "4", "100", "--format", "json")
    assert code == 0
    record = json.loads(out)
    # every harmonic down to the separatrix is resolved and carries its
    # own number, with the period of its orbit at 7 digits
    assert [o["k"] for o in record["orbits"]] == \
        list(range(1, record["count"] + 1))
    for o in record["orbits"]:
        target = 2.0 * math.pi * 100 / o["k"]
        assert o["period"] == float(f"{target:.7g}")
        # both at 7 digits: u_max to 5e-8, delta to 5e-7 of itself
        assert abs(o["u_max"] - (1.0 - o["delta"])) <= 5e-8 + 5e-7 * o["delta"]
    assert record["orbits"][0]["delta"] < 1e-270
    assert "unlisted" not in record


def test_periodic_large_radius_in_process():
    for k in range(1, count_periodic_solutions(4, 100.0) + 1):
        target = 2.0 * math.pi * 100.0 / k
        assert orbit_for_period(4, target).period == pytest.approx(
            target, rel=1e-12)


def test_periodic_text_matches_json(capsys):
    """Text prints the period of the orbit found, as JSON does, not the
    target 2 pi r / k, and the separatrix distance next to u_max."""
    _, text, _ = run(capsys, "periodic", "4", "100")
    _, out, _ = run(capsys, "periodic", "4", "100", "--format", "json")
    found = re.findall(r"k=(\d+): period (\S+), u_max (\S+), delta (\S+)",
                       text)
    assert [(int(k), float(p), float(u), float(d)) for k, p, u, d in found] \
        == [(o["k"], o["period"], o["u_max"], o["delta"])
            for o in json.loads(out)["orbits"]]


def _child(*argv):
    """`python *argv` in a process of its own, on this checkout's src."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def _periodic_child(*argv):
    return _child("-m", "gnyamabe", "periodic", *argv)


def test_periodic_listing_is_bounded():
    """A radius with about 1.4e12 harmonics: the count stays exact, the
    first 1000 harmonics are listed and the rest are counted."""
    text = _periodic_child("4", "1e12")
    assert text.returncode == 0
    lines = text.stdout.splitlines()
    assert len(lines) == 5 + 1000 + 1
    count = int(lines[4].split(":")[1])
    assert count > 10 ** 12
    assert lines[-2].startswith("    k=1000: ")
    assert lines[-1] == (f"    ... {count - 1000} more harmonics, "
                         "k > 1000, not listed")
    record = json.loads(_periodic_child("4", "1e12", "--format",
                                        "json").stdout)
    assert record["count"] == count
    assert record["unlisted"] == count - 1000
    assert record["orbits"] == []  # every listed harmonic is beyond reach


@pytest.mark.parametrize("r", ["1e16", "1e300", "1e308"])
def test_periodic_refuses_an_inexact_count(capsys, r):
    """From 2 pi r / T_min = 2^53 on, the harmonic count is not exact in
    doubles, and at 1e308 2 pi r overflows: one error line, no output."""
    code, out, err = run(capsys, "periodic", "3", r)
    assert code == 1
    assert out == ""
    assert err.startswith("error: circle radius")
    assert err.count("\n") == 1


def test_periodic_count_below_the_cap(capsys):
    code, out, _ = run(capsys, "periodic", "3", "1e15", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 999_999_999_999_999


_FUZZ_RADII = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1.0, 1e15, 1e16, 1e300, 1e308,
                     1.7e308]),
    st.floats(-323.3, 308.23).map(lambda e: 10.0 ** e))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(3, 12), _FUZZ_RADII)
def test_periodic_fuzz(n, r):
    """`periodic n r` at every n in 3..12 and radii from 5e-324 to
    1.7e308, evenly spread in their exponent: it exits 0 or 1, a failure
    leaves one stderr line starting `error:` and nothing else, and a
    success prints no nan or inf."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["periodic", str(n), repr(r)])
    assert code in (0, 1)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        assert not re.search(r"nan|inf", out.getvalue(), re.IGNORECASE)


def test_periodic_dump(capsys, tmp_path):
    dump = tmp_path / "orbit.dat"
    code, out, _ = run(capsys, "periodic", "3", "1.5", "--dump", str(dump))
    assert code == 0
    rows = [r.split() for r in dump.read_text().strip().splitlines()]
    assert all(len(r) == 3 for r in rows)
    # the dumped orbit closes on its own period
    (t0, u0, du0), (t1, u1, du1) = [map(float, r) for r in (rows[0],
                                                            rows[-1])]
    assert t0 == 0.0
    assert t1 == pytest.approx(float(out.split("period ")[-1].split(",")[0]),
                               rel=1e-6)
    assert abs(u1 - u0) < 1e-8 and abs(du0) == 0.0 and abs(du1) < 1e-8


def test_periodic_dump_skips_orbits_at_the_separatrix(capsys, tmp_path):
    """Time integration cannot follow an orbit within 1e-8 of the
    separatrix: the dump takes the longest orbit above that."""
    dump = tmp_path / "orbit.dat"
    code, out, _ = run(capsys, "periodic", "4", "100", "--format", "json",
                       "--dump", str(dump))
    assert code == 0
    orbit = next(o for o in json.loads(out)["orbits"] if o["delta"] >= 1e-8)
    ts, us, dus = np.loadtxt(dump, unpack=True)
    assert ts[-1] == pytest.approx(orbit["period"], rel=1e-6)
    assert abs(us[-1] - us[0]) < 1e-8 and abs(dus[-1]) < 1e-5


def test_periodic_dump_without_a_listed_orbit(capsys, tmp_path):
    """A radius with no nonconstant solution lists no orbit: --dump says
    so on stderr and writes no file."""
    dump = tmp_path / "orbit.dat"
    code, out, err = run(capsys, "periodic", "4", "0.5", "--dump", str(dump))
    assert code == 0
    assert "nonconstant solutions: 0" in out
    assert err == "no listed orbit with delta >= 1e-08 to dump\n"
    assert not dump.exists()


def test_periodic_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["periodic", "2", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("r", ["0", "-1", "inf", "nan"])
def test_periodic_radius_usage_error(capsys, r):
    with pytest.raises(SystemExit) as exc:
        main(["periodic", "4", r])
    assert exc.value.code == 2
    assert "circle radius r must be positive and finite" \
        in capsys.readouterr().err


def test_constants_reference_values(capsys):
    code, out, _ = run(capsys, "constants", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert abs(record["reference"]["Y_CP2"] - 53.31459) <= 2e-5
    assert abs(record["reference"]["Y_S2xS2_product"] - 50.26548) <= 2e-5
    sphere9 = next(e for e in record["spheres"] if e["k"] == 9)
    assert abs(sphere9["yamabe_sphere"] - 147.8778) < 5e-4


def test_constants_text_contains_anchors(capsys):
    code, out, _ = run(capsys, "constants")
    assert code == 0
    assert "53.314595" in out
    assert "50.265482" in out


def test_byte_identical_reruns(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["table", "--max-dim", "5", "--out", str(f1)]) == 0
    assert main(["table", "--max-dim", "5", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    c1, c2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
    assert main(["constants", "--out", str(c1)]) == 0
    assert main(["constants", "--out", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()


# every argument of the parser, as (flags, dest, default, choices, type
# name, help), read from the parser objects: formatted help text changes
# between Python versions, these do not
_HELP_ARG = (("-h", "--help"), "help", argparse.SUPPRESS, None, None,
             "show this help message and exit")
_OUT_ARG = (("--out",), "out", None, None, None, None)
_TOL_ARG = (("--tol-alpha",), "tol_alpha", None, None, "float",
            "relative tolerance of the alpha0 search: it stops on a "
            "bracket at most X * alpha0 wide; X in [1e-14, 0.01] "
            "(default 1e-12)")
_PARSER_PINS = {
    None: (None, None, [
        _HELP_ARG,
        ((), "command", None,
         ("ground-state", "table", "bound", "periodic", "constants"),
         None, None)]),
    "ground-state": ("locate alpha0(m, n) and evaluate sigma_inv",
                     "_cmd_ground_state", [
        _HELP_ARG,
        ((), "m", None, None, "int", None),
        ((), "n", None, None, "int", None),
        _TOL_ARG,
        (("--format",), "format", "text", ("text", "csv", "json"), None,
         None),
        _OUT_ARG,
        (("--dump",), "dump", None, None, None,
         "write the profile as 't h dh' rows")]),
    "table": ("constants table for all m, n >= 2 with m + n <= MAX",
              "_cmd_table", [
        _HELP_ARG,
        (("--max-dim",), "max_dim", 9, None, "int", None),
        (("--format",), "format", "csv", ("csv", "json", "text"), None,
         None),
        _OUT_ARG]),
    "bound": ("upper bound from a piecewise-linear profile file",
              "_cmd_bound", [
        _HELP_ARG,
        ((), "profile", None, None, None, "breakpoint file, 't h' per line"),
        ((), "m", None, None, "int", None),
        ((), "n", None, None, "int", None),
        (("--format",), "format", "text", ("text", "json"), None, None),
        _OUT_ARG]),
    "periodic": ("circle-factor periodic solutions", "_cmd_periodic", [
        _HELP_ARG,
        ((), "n", None, None, "int", None),
        ((), "r", None, None, "float", None),
        (("--format",), "format", "text", ("text", "json"), None, None),
        _OUT_ARG,
        (("--dump",), "dump", None, None, None,
         "write the longest listed orbit that time integration can "
         "follow, delta >= 1e-08, as 't u du' rows")]),
    "constants": ("closed-form sphere constants and reference values",
                  "_cmd_constants", [
        _HELP_ARG,
        (("--format",), "format", "text", ("text", "csv", "json"), None,
         None),
        _OUT_ARG]),
}


def _arguments(parser):
    return [(tuple(a.option_strings), a.dest, a.default,
             None if a.choices is None else tuple(a.choices),
             None if a.type is None else a.type.__name__, a.help)
            for a in parser._actions]


def test_parser_arguments_pinned():
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {None: (None, None, _arguments(parser))}
    for choice in sub._choices_actions:
        cmd = sub.choices[choice.dest]
        found[choice.dest] = (choice.help, cmd.get_default("func").__name__,
                              _arguments(cmd))
    assert found == _PARSER_PINS
    assert list(found) == list(_PARSER_PINS)


def test_help_numbers_are_the_codes():
    """The parser is built without importing `ode`, `shooting`,
    `products` or `periodic`, so the help texts write out their numbers;
    these must be the code's."""
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {(name, a.dest): a.help for name, cmd in sub.choices.items()
             for a in cmd._actions}
    # the one default of the search, which only ground-state sets
    tol_alpha = shooting.DEFAULT_TOL_ALPHA
    assert inspect.signature(shooting.find_ground_state).parameters[
        "tol_alpha"].default == tol_alpha
    assert "tol_alpha" not in inspect.signature(
        products.build_table).parameters
    assert helps["ground-state", "tol_alpha"].endswith(
        f"(default {tol_alpha:g})")
    assert ("table", "tol_alpha") not in helps
    assert (f"delta >= {periodic._TIME_DELTA_FLOOR:g},"
            in helps["periodic", "dump"])


def test_readme_names_every_option():
    """The README's "Command line" section names every option of the
    subcommands, and no option the parser lacks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {flag for cmd in sub.choices.values() for a in cmd._actions
               if not isinstance(a, argparse._HelpAction)
               for flag in a.option_strings}
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == options
