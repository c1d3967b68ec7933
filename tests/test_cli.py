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
from gnyamabe.cli import _build_parser, main
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


@pytest.mark.parametrize("tmax", ["1", "1000.5", "-3", "nan", "inf"])
@pytest.mark.parametrize("command", [["ground-state", "2", "2"], ["table"]],
                         ids=["ground-state", "table"])
def test_tmax_range_enforced(capsys, command, tmax):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--tmax", tmax])
    assert exc.value.code == 2
    assert "--tmax must lie in (1, 1000]" in capsys.readouterr().err


def test_tol_alpha_reaches_the_search(capsys, monkeypatch):
    """A valid --tol-alpha is passed to the search, and it is the only
    keyword passed: the search keeps its own default t_max."""
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


def test_numerical_failure_exit_code(capsys):
    code, out, err = run(capsys, "ground-state", "2", "2", "--tmax", "2.0")
    assert code == 1
    assert "error:" in err


def test_bracket_ceiling_exit_code(capsys):
    """At default controls the (2, 16) ground state lies past the bracket
    ceiling 2^20; the error names the pair and the ceiling and does not
    blame the integration controls."""
    code, out, err = run(capsys, "ground-state", "2", "16")
    assert code == 1
    assert out == ""
    assert "(2, 16)" in err and "1.04858e+06" in err
    assert "controls" not in err


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


def test_table_rows_fail_at_a_short_horizon(capsys):
    """--tmax 1.5 leaves no shot time to turn up or cross: every row
    fails, each on its own stderr line, and the table exits 1."""
    code, out, err = run(capsys, "table", "--max-dim", "5", "--tmax", "1.5")
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
    ("0 1\n1e-300 0\n", 2, 1, "I_grad = inf is not positive and finite"),
    ("0 1\n1e200 0\n", 2, 1, "I_grad = 0.0 is not positive and finite"),
], ids=["all-zero", "underflow", "overflow-h", "overflow-t", "steep",
        "flat"])
def test_bound_degenerate_profile(capsys, tmp_path, text, m, n, message):
    """A profile with no mass, or one whose L^p integral underflows or
    overflows, ends in one error line and exit 1, not a ZeroDivisionError
    or an OverflowError. So does one whose gradient integral leaves the
    double range: the error names I_grad, and a flat profile no longer
    reports an upper bound of 0."""
    path = tmp_path / "degenerate.dat"
    path.write_text(text)
    code, out, err = run(capsys, "bound", str(path), str(m), str(n))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("text, m, n", [
    ("0 1e200\n1 0\n", 2, 2),
    ("0 1\n1 1\n1e160 0\n", 2, 7),
    ("0 1\n1e-300 0\n", 2, 1),
], ids=["overflow-h", "overflow-t", "steep"])
def test_bound_out_of_range_prints_one_line(tmp_path, text, m, n):
    """In a process of its own, where numpy's warnings are not captured,
    a profile whose integrals leave the double range prints its error
    line and nothing else."""
    path = tmp_path / "degenerate.dat"
    path.write_text(text)
    proc = _child("-W", "default", "-m", "gnyamabe", "bound", str(path),
                  str(m), str(n))
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
    """A radius with about 1.4e300 harmonics: the count stays exact, the
    first 1000 harmonics are listed and the rest are counted."""
    text = _periodic_child("4", "1e300")
    assert text.returncode == 0
    lines = text.stdout.splitlines()
    assert len(lines) == 5 + 1000 + 1
    count = int(lines[4].split(":")[1])
    assert count > 10 ** 300
    assert lines[-2].startswith("    k=1000: ")
    assert lines[-1] == (f"    ... {count - 1000} more harmonics, "
                         "k > 1000, not listed")
    record = json.loads(_periodic_child("4", "1e300", "--format",
                                        "json").stdout)
    assert record["count"] == count
    assert record["unlisted"] == count - 1000
    assert record["orbits"] == []  # every listed harmonic is beyond reach


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
_TMAX_ARG = (("--tmax",), "tmax", None, None, "float",
             "horizon of each shot: one that has neither crossed zero nor "
             "turned up by t = X fails; X in (1, 1000] (default 50)")
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
        _TMAX_ARG,
        (("--format",), "format", "text", ("text", "csv", "json"), None,
         None),
        _OUT_ARG,
        (("--dump",), "dump", None, None, None,
         "write the profile as 't h dh' rows")]),
    "table": ("constants table for all m, n >= 2 with m + n <= MAX",
              "_cmd_table", [
        _HELP_ARG,
        (("--max-dim",), "max_dim", 9, None, "int", None),
        _TOL_ARG,
        _TMAX_ARG,
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
    # the one default of both searches
    tol_alpha = shooting.DEFAULT_TOL_ALPHA
    for search in (shooting.find_ground_state, products.build_table):
        assert inspect.signature(search).parameters["tol_alpha"].default \
            == tol_alpha
    for name in ("ground-state", "table"):
        assert helps[name, "tmax"].endswith(
            f"(default {ode.DEFAULT_T_MAX:g})")
        assert helps[name, "tol_alpha"].endswith(f"(default {tol_alpha:g})")
    assert (f"delta >= {periodic._TIME_DELTA_FLOOR:g},"
            in helps["periodic", "dump"])
