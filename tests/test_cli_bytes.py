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

import pytest

from gnyamabe.cli import main

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
