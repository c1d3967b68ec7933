import json
import math
import re
from importlib import resources

import pytest

from gnyamabe.cli import main

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


def test_numerical_failure_exit_code(capsys):
    code, out, err = run(capsys, "ground-state", "2", "2", "--tmax", "2.0")
    assert code == 1
    assert "error:" in err


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
], ids=["unordered", "nan-value", "inf-breakpoint"])
def test_bound_malformed_file(capsys, tmp_path, text, line):
    path = tmp_path / "bad.dat"
    path.write_text(text)
    code, out, err = run(capsys, "bound", str(path), "2", "2")
    assert code == 1
    assert line in err
    assert out == ""


def test_bound_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "bound", str(tmp_path / "nope.dat"), "2", "2")
    assert code == 1


def test_periodic_small_radius(capsys):
    code, out, _ = run(capsys, "periodic", "4", "0.01")
    assert code == 0
    assert "nonconstant solutions: 0" in out


def test_periodic_large_radius(capsys):
    code, out, _ = run(capsys, "periodic", "4", "100", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["count"] >= 1
    # harmonics 1..19 lie beyond the resolvable window and are left out;
    # every listed orbit carries its own harmonic number
    ks = [o["k"] for o in record["orbits"]]
    assert len(set(ks)) == len(ks)
    assert ks[0] == 20 and ks[-1] == record["count"]
    for o in record["orbits"]:
        target = 2.0 * math.pi * 100 / o["k"]
        if o["u_max"] < 1.0:
            assert o["period"] == float(f"{target:.7g}")
        else:
            # within 5e-8 of the separatrix the period map misses its
            # target by up to 8e-4 relative, well below the 3% gap
            # between neighbouring harmonics there
            assert o["period"] == pytest.approx(target, rel=1e-3)


def test_periodic_text_matches_json(capsys):
    """Text prints the period of the orbit found, as JSON does, not the
    target 2 pi r / k: the two differ where the period map misses."""
    _, text, _ = run(capsys, "periodic", "4", "100")
    _, out, _ = run(capsys, "periodic", "4", "100", "--format", "json")
    found = re.findall(r"k=(\d+): period (\S+), u_max (?!~)", text)
    assert [(int(k), float(p)) for k, p in found] == \
        [(o["k"], o["period"]) for o in json.loads(out)["orbits"]]


def test_periodic_dump(capsys, tmp_path):
    dump = tmp_path / "orbit.dat"
    code, out, _ = run(capsys, "periodic", "3", "1.5", "--dump", str(dump))
    assert code == 0
    assert dump.exists()
    assert all(len(r.split()) == 3
               for r in dump.read_text().strip().splitlines())


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
