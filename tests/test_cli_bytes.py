"""Byte-for-byte output of every CLI subcommand.

`cli_bytes.json` holds, for each case, the argument list, the exact
standard output and, for `--dump` cases, the size and SHA-256 of the
dumped file. The recorded bytes are the CLI's output contract: a change
to any of them is a change of output format, not a refactor.
"""

import hashlib
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from gnyamabe.cli import main
from gnyamabe.periodic import hamiltonian, orbit_period, potential

from oracles import exponents_m1, sech_dh, sech_h

CASES = json.loads((Path(__file__).parent / "cli_bytes.json").read_text())
TESTFN_PATH = str(resources.files("gnyamabe.data").joinpath("testfn_2_2.dat"))


def run_case(name, capsys, tmp_path):
    case = CASES[name]
    dump = tmp_path / "dump.dat"
    argv = [a.format(dump=dump, testfn=TESTFN_PATH) for a in case["argv"]]
    assert main(argv) == 0
    return capsys.readouterr().out, dump


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_pinned(name, capsys, tmp_path):
    out, dump = run_case(name, capsys, tmp_path)
    assert out == CASES[name]["stdout"]
    if "dump_sha256" in CASES[name]:
        data = dump.read_bytes()
        assert len(data) == CASES[name]["dump_bytes"]
        assert hashlib.sha256(data).hexdigest() == CASES[name]["dump_sha256"]


def test_table_csv_and_json_records(capsys, tmp_path):
    csv_out, _ = run_case("table-csv", capsys, tmp_path)
    lines = csv_out.strip().splitlines()
    assert lines[0] == "m,n,alpha0,sigma_inv,y_inf,y_sphere"
    assert lines[1].startswith("2,2,2.206201,2.41877,")
    json_out, _ = run_case("table-json", capsys, tmp_path)
    records = json.loads(json_out)
    assert len(records) == len(lines) - 1
    assert all(set(r) == set(lines[0].split(",")) for r in records)
    assert (records[0]["m"], records[0]["n"]) == (2, 2)


def test_ground_state_dump_matches_sech(capsys, tmp_path):
    """The pinned (3, 1) dump against the closed form sqrt(2) sech(t): its
    bytes depend on which shot of the converged bracket the profile comes
    from, this referee does not."""
    _, dump = run_case("ground-state-dump", capsys, tmp_path)
    ts, hs, dhs = np.loadtxt(dump, unpack=True)
    q, _ = exponents_m1(3)
    assert ts[0] == 0.0 and ts[-1] > 14.0  # reaches the h ~ 1e-6 cut
    assert float(np.abs(hs - sech_h(ts, q)).max()) < 2e-7
    assert float(np.abs(dhs - sech_dh(ts, q)).max()) < 2e-7


def test_periodic_dump_matches_quadrature(capsys, tmp_path):
    """The pinned n = 3 orbit dump conserves the energy of its start
    (u_max, 0) and returns there after the quadrature period: its bytes
    depend on the stepper, this referee does not."""
    _, dump = run_case("periodic-dump", capsys, tmp_path)
    ts, us, dus = np.loadtxt(dump, unpack=True)
    u_max = us[0]
    assert ts[0] == 0.0 and dus[0] == 0.0
    # t is dumped to 12 significant digits
    assert abs(ts[-1] - orbit_period(3, u_max)) <= 1e-11 * ts[-1]
    energy = float(potential(u_max, 3))
    drift = np.abs(hamiltonian(us, dus, 3) - energy)
    assert float(drift.max()) <= 1e-10 * abs(energy)
    assert abs(us[-1] - u_max) <= 1e-10 and abs(dus[-1]) <= 1e-10
