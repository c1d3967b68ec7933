"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracing
import workloads

GOLDEN = run.load_golden()


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(99) == 50.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(999) == 90.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(10000) == 99.9
    for samples in (20, 100, 147, 1000, 12345):
        pct = run.tail_percentile(samples)
        assert samples * (100.0 - pct) / 100.0 >= 10.0


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 11))
    assert run.percentile(values, 50.0) == 5.5
    assert run.percentile(values, 90.0) == pytest.approx(9.1)
    assert run.percentile([3.0], 90.0) == 3.0


def span(name, start, end, parent, job=0, info=None):
    return [name, start, end, parent, job, info]


def test_self_time_of_nested_spans():
    spans = [
        span("products.build_table", 0.0, 10.0, -1),
        span("shooting.find_ground_state", 1.0, 4.0, 0),
        span("ode.integrate_shot", 2.0, 3.0, 1),
        span("functional.gn_value", 5.0, 7.0, 0),
        span("products.build_table", 20.0, 21.0, -1, job=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0,
                                                       1.0])
    totals = tracing.layer_self_times(spans, {0: 10.5})
    assert totals == pytest.approx({"products": 5.0, "shooting": 2.0,
                                    "ode": 1.0, "functional": 2.0,
                                    "unattributed": 0.5})


def test_self_time_counts_overlapping_children_once():
    spans = [span("cli.main", 0.0, 10.0, -1),
             span("ode.integrate_shot", 1.0, 5.0, 0),
             span("ode.integrate_shot", 4.0, 6.0, 0),
             span("ode.integrate_shot", 9.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_and_restores(tmp_path):
    import gnyamabe
    from gnyamabe import Dims, ode, shooting

    original = shooting.integrate_shot
    tracer = tracing.Tracer()
    tracer.job = 3
    tracer.install()
    try:
        assert shooting.integrate_shot is not original
        shooting.bracket_alpha(Dims(2, 2))
    finally:
        tracer.uninstall()
    assert shooting.integrate_shot is original
    assert ode.integrate_shot is original
    assert gnyamabe.integrate_shot is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "shooting.bracket_alpha"
    assert names[1:] and set(names[1:]) == {"ode.integrate_shot"}
    assert all(s[3] == 0 and s[4] == 3 for s in tracer.spans[1:])
    assert tracer.spans[-1][5] == "CrossedZero"


def test_importtime_parsing():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:       200 |        200 |       scipy.linalg",
        "import time:       300 |        500 |     scipy",
        "import time:        50 |         50 |     scipy.integrate",
        "import time:        10 |        600 |   gnyamabe.ode",
        "import time:        20 |        620 | gnyamabe",
    ])
    parsed = tracing.parse_importtime(text)
    assert parsed["package_s"] == pytest.approx(620e-6)
    assert parsed["scipy_s"] == pytest.approx(550e-6)
    assert parsed["modules"] == 5


def good_rows():
    return [SimpleNamespace(m=m, n=n, sigma_inv=s, y_inf=y, y_sphere=ys)
            for (m, n), (s, y, ys) in GOLDEN["rows"].items()]


def test_wrong_table_row_counts_in_fail_rate():
    rows = good_rows()
    rows[4] = SimpleNamespace(**{**vars(rows[4]),
                                 "sigma_inv": rows[4].sigma_inv + 1e-2})
    items = [workloads.item("row", 1.0, workloads.check_row(r, GOLDEN))
             for r in rows]
    stats = run.summarize_items(items)
    assert stats["attempted"] == 21
    assert stats["failed"] == 1
    assert stats["fail_rate"] == pytest.approx(1 / 21)
    assert "sigma_inv" in stats["failures"][0]


def test_row_not_below_sphere_fails():
    row = good_rows()[0]
    row.y_sphere = row.y_inf
    assert workloads.check_row(row, GOLDEN) is not None


def test_orbit_period_check():
    orbit = SimpleNamespace(n=4, period=10.0 * (1.0 + 2e-9))
    assert workloads.check_orbit(orbit, 4, 10.0) is not None
    orbit.period = 10.0 * (1.0 + 5e-10)
    assert workloads.check_orbit(orbit, 4, 10.0) is None


def periodic_record(n, r):
    count = workloads.harmonic_count(n, r)
    return {"n": n, "r": r, "count": count,
            "u_const": float(f"{((n - 2) / n) ** ((n - 2) / 4.0):.7g}"),
            "t_min": float(f"{workloads.minimal_period(n):.7g}"),
            "orbits": [{"k": k, "period": float(f"{2 * math.pi * r / k:.7g}"),
                        "u_max": 0.9} for k in range(1, count + 1)]}


def test_cli_checks_accept_right_and_reject_wrong_output():
    args = ["periodic", "5", "1.0"]
    record = periodic_record(5, 1.0)
    assert workloads.check_cli("periodic", args, record, GOLDEN) is None
    record["count"] += 1
    assert workloads.check_cli("periodic", args, record, GOLDEN) is not None

    # a harmonic beyond the resolvable window may be left out, but the
    # orbits that are listed keep their own harmonic numbers
    args = ["periodic", "4", "3.0"]
    record = periodic_record(4, 3.0)
    del record["orbits"][0]
    assert workloads.check_cli("periodic", args, record, GOLDEN) is None
    for k, orbit in enumerate(record["orbits"], start=1):
        orbit["k"] = k
    why = workloads.check_cli("periodic", args, record, GOLDEN)
    assert why is not None and "2 pi r / k" in why

    gs = {"m": 2, "n": 2, "alpha0": 2.206201, "sigma_inv": 2.41877,
          "grad_sq": 1.0, "l2_sq": 1.0, "lp_norm": 1.0}
    why = workloads.check_cli("ground-state", ["ground-state", "2", "2"],
                              gs, GOLDEN)
    assert "norms" in why


def test_failed_cli_process_counts_in_fail_rate(tmp_path):
    script = tmp_path / "fake.py"
    script.write_text("import sys\nprint('{}')\nsys.exit(3)\n")
    wall, items = workloads.run_cli(
        [("constants", ["constants"])], GOLDEN, run.child_env(),
        str(tmp_path), [sys.executable, str(script)], lambda: 0.0)
    assert items[0]["exit_code"] == 3
    stats = run.summarize_items(items)
    assert stats["failed"] == 1 and stats["fail_rate"] == 1.0


def test_inputs_repeat_for_a_seed():
    for name in workloads.WORKLOADS:
        assert (workloads.make_inputs(name, 5, 2)
                == workloads.make_inputs(name, 5, 2))
    assert (workloads.make_inputs("periodic_sweep", 5, 0)
            != workloads.make_inputs("periodic_sweep", 6, 0))


def test_sweep_radii_span_the_harmonic_range():
    for job in range(10):
        radii, picks = workloads.make_inputs("periodic_sweep", 1, job)
        assert [n for n, _ in radii] == list(workloads.PERIODIC_DIMS)
        lo, hi = workloads.SWEEP_HARMONICS
        for n, r in radii:
            assert lo - 1e-5 <= 2 * math.pi * r / workloads.minimal_period(n) \
                <= hi + 1e-5
        assert len(picks) == workloads.ORBIT_CHECKS


def test_sweep_band_keeps_periods_under_the_cap():
    n, r = 4, 44.0 * workloads.minimal_period(4) / (2 * math.pi)
    count = workloads.harmonic_count(n, r)
    band = workloads.sweep_band(n, r, count)
    cap = workloads.SWEEP_PERIOD_CAP * workloads.minimal_period(n)
    assert band[-1] == count == 43
    assert 2 * math.pi * r / band[0] <= cap < 2 * math.pi * r / (band[0] - 1)


def test_tail_percentile_is_fixed_per_workload():
    items = [workloads.item("row", float(ms), None) for ms in range(1, 31)]
    for name in workloads.WORKLOADS:
        pct = run.TAIL_PERCENTILE[name]
        assert run.summarize_items(items, pct)["tail"] == \
            run.percentile(range(1, 31), pct)
    assert run.TAIL_PERCENTILE["cli_cold"] == 50.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_scaled_job_uses_the_loops_around_each_item():
    ref = run.SPEED_REFERENCE_S
    items = [workloads.item("row", 100.0, None, ref),
             workloads.item("row", 300.0, None, 3.0 * ref)]
    # 0.1 s of the job lies outside its items
    job = {"wall": 0.5, "items": items, "loop_after": 3.0 * ref}
    seconds, item_ms = run.scaled_job(job)
    assert item_ms == pytest.approx([100.0 / 3.0, 300.0 / 3.0])
    assert seconds == pytest.approx(0.4 / 3.0 + 0.1 * 3.0 / 7.0)


def test_scaled_job_ignores_one_stray_loop():
    ref = run.SPEED_REFERENCE_S
    loops = [ref] * 5 + [4.0 * ref] + [ref] * 5
    items = [workloads.item("harmonic", 50.0, None, loop) for loop in loops]
    job = {"wall": 0.55, "items": items, "loop_after": ref}
    assert run.scaled_job(job)[1] == pytest.approx([50.0] * 11)
    # a lasting change of speed is followed
    loops = [ref] * 20 + [2.0 * ref] * 20
    items = [workloads.item("harmonic", 50.0, None, loop) for loop in loops]
    job = {"wall": 2.0, "items": items, "loop_after": 2.0 * ref}
    item_ms = run.scaled_job(job)[1]
    assert item_ms[:14] == pytest.approx([50.0] * 14)
    assert item_ms[-15:] == pytest.approx([25.0] * 15)


def test_timed_scales_to_the_reference_speed():
    result, scale = run.timed(lambda: "done", loops=2)
    assert result == "done"
    assert 0.0 < scale < float("inf")
