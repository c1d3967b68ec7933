"""gnyamabe benchmark: one command for every workload.

    python3 perfbench/run.py --workload table9 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The run measures for ``--seconds`` seconds, checks every output,
prints its metrics by name with their units and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced jobs and
reports the per-layer metrics and the tracing overhead instead. See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden.py"
OUT_DIR = ROOT / ".perfbench"

# one BLAS/OpenMP thread, set by main() before numpy loads here or in any
# child process
THREAD_SETTINGS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

SETUP_PROBES = 5
IMPORT_PROBES = 3
MIN_TAIL_SAMPLES = 10
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
# The speed of one thread on a shared virtual machine drifts by tens of
# percent over seconds to minutes. A fixed pure-Python loop is timed just
# before every item, after every job and around every set-up probe, and
# times are reported at the speed where that loop takes SPEED_REFERENCE_S;
# the raw wall times are kept in the run record.
SPEED_LOOP = 6000
SPEED_REFERENCE_S = 0.0008
# One loop is too short to read the speed alone: its own jitter, scaled
# into each item, widens the tail. An item is scaled by the median of the
# loops of the items around it, a second or so, which still follows the
# drift.
SCALE_WINDOW = 5

# the tail percentile reported as item_ms_tail: the highest of the ladder
# that a run at the commit that added the benchmark filled with at least
# MIN_TAIL_SAMPLES items beyond it (table9 about 380 items a run,
# periodic_sweep 390 to 700, cli_cold 30 to 50). Fixed per workload, so
# that a faster program with more items does not change what is measured.
TAIL_PERCENTILE = {"table9": 90.0, "periodic_sweep": 90.0, "cli_cold": 50.0}

END_TO_END = {
    "job_s": "s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CLI_SUBCOMMANDS = ("constants", "bound", "ground-state", "periodic")
LAYERS = ("products", "shooting", "ode", "functional", "periodic", "cli",
          "unattributed")
PER_LAYER = {
    "import.gnyamabe_s": "s",
    "import.scipy_s": "s",
    "import.modules": "count",
    **{f"cli.process_ms.{c}": "ms" for c in CLI_SUBCOMMANDS},
    **{f"cli.main_ms.{c}": "ms" for c in CLI_SUBCOMMANDS},
    "cli.nonzero_exits": "count/job",
    "products.rows": "count/job",
    "products.row_errors": "count/job",
    "products.self_ms_per_row": "ms",
    "shooting.ground_states": "count/job",
    "shooting.find_ground_state_ms": "ms",
    "shooting.self_ms": "ms",
    "shooting.shots_per_gs": "count",
    "shooting.bracket_shots_per_gs": "count",
    "shooting.candidate_stop_ratio": "ratio",
    "shooting.bracket_width_max": "1",
    "ode.shots": "count/job",
    "ode.profile_shots": "count/job",
    "ode.shot_ms": "ms",
    "ode.busy_s": "s/job",
    "ode.failures": "count/job",
    "functional.gn_value_ms.solver": "ms",
    "functional.gn_value_ms.pl": "ms",
    "functional.bound_ms": "ms",
    "periodic.orbit_for_period_ms": "ms",
    "periodic.orbit_period_ms": "ms",
    "periodic.orbit_period_calls_per_orbit": "count",
    "periodic.unresolved_ratio": "ratio",
    "periodic.circle_quotient_ms": "ms",
    "periodic.return_time_ms": "ms",
    "proc.cpu_per_wall": "ratio",
    **{f"selftime.{layer}_s": "s/job" for layer in LAYERS},
    "trace.job_s": "s",
    "trace.untraced_job_s": "s",
    "trace.overhead_s": "s",
    "trace.spans_per_job": "count/job",
    "trace.wrapper_cost_s": "s/job",
}


# -- statistics


def percentile(values, pct: float) -> float:
    """Linear interpolation between the closest ranks."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float | None:
    """Highest percentile of the ladder that still has at least
    MIN_TAIL_SAMPLES samples beyond it, or None when even the median
    has fewer."""
    best = None
    for pct in PERCENTILE_LADDER:
        if samples * (100.0 - pct) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9:
            best = pct
    return best


def summarize_items(items: list[dict], tail: float = 90.0) -> dict:
    """Attempted and failed counts, fail rate and latency percentiles of
    the items of a run."""
    times = [it["ms"] for it in items]
    failed = sum(1 for it in items if not it["ok"])
    return {
        "attempted": len(items),
        "failed": failed,
        "fail_rate": failed / len(items) if items else 1.0,
        "p50": percentile(times, 50.0) if times else 0.0,
        "tail": percentile(times, tail) if times else 0.0,
        "tail_percentile": tail,
        "tail_allowed": tail_percentile(len(times)),
        "failures": sorted({it["why"] for it in items if not it["ok"]})[:10],
    }


# -- set-up


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def load_golden() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_golden", GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rows = {(m, n): (s, y, ys) for m, n, s, y, ys in module.GOLDEN_TABLE}
    return {
        "rows": rows,
        "pairs": [(m, n) for m, n, *_ in module.GOLDEN_TABLE],
        "sigma_tol": module.SIGMA_TOL,
        "y_inf_tol": module.Y_INF_TOL,
        "y_sphere_tol": module.Y_SPHERE_TOL,
        "alpha0_22": module.ALPHA0_22,
        "sigma_inv_22": module.SIGMA_INV_22,
        "testfn_bound_22": module.TESTFN_BOUND_22,
    }


def setup() -> dict:
    """Import the package from the checkout and load the golden table."""
    sys.path.insert(0, str(SRC))
    import gnyamabe

    if Path(gnyamabe.__file__).resolve().parent != SRC / "gnyamabe":
        raise RuntimeError(f"gnyamabe imported from {gnyamabe.__file__}, "
                           f"not from {SRC}")
    return load_golden()


def speed_loop() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    start = time.perf_counter()
    total = 0.0
    for i in range(1, SPEED_LOOP):
        total += math.sqrt(i) * (i % 7)
    return time.perf_counter() - start


def timed(fn, loops: int = 10):
    """Run ``fn()`` between two runs of ``loops`` speed loops; return its
    result and the factor that scales its wall time to the reference
    speed."""
    before = sum(speed_loop() for _ in range(loops))
    result = fn()
    after = sum(speed_loop() for _ in range(loops))
    return result, 2.0 * loops * SPEED_REFERENCE_S / (before + after)


def scaled_job(job: dict) -> tuple[float, list[float]]:
    """A job's time (s) and its items' times (ms) at the reference speed.
    An item is scaled by the median of the speed loops from SCALE_WINDOW
    items before it to SCALE_WINDOW items after the next one (the loop
    after the job stands in for the last item's next); the job's time
    outside its items by the mean of all its loops."""
    items = job["items"]
    loops = [it["loop_s"] for it in items] + [job["loop_after"]]
    item_ms = [it["ms"] * SPEED_REFERENCE_S / statistics.median(
        loops[max(0, i - SCALE_WINDOW):i + 2 + SCALE_WINDOW])
        for i, it in enumerate(items)]
    outside = job["wall"] - sum(it["ms"] for it in items) / 1e3
    return (sum(item_ms) / 1e3
            + outside * SPEED_REFERENCE_S / statistics.mean(loops), item_ms)


def timed_setups(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall time, speed scale) of fresh processes that only set up:
    interpreter start, import and loading the golden table."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    probes = []
    for _ in range(SETUP_PROBES):
        (code, _, err, wall, _), scale = timed(lambda: workloads.run_child(
            argv, child_env(), str(ROOT)))
        if code != 0:
            raise RuntimeError(f"set-up probe failed ({code}): {err[-500:]}")
        probes.append((wall, scale))
    return probes


def import_profile() -> dict:
    """Medians of IMPORT_PROBES ``python -X importtime -c 'import
    gnyamabe'`` runs."""
    runs = []
    for _ in range(IMPORT_PROBES):
        code, _, err, _, _ = workloads.run_child(
            [sys.executable, "-X", "importtime", "-c", "import gnyamabe"],
            child_env(), str(ROOT))
        if code != 0:
            raise RuntimeError(f"import probe failed ({code}): {err[-500:]}")
        runs.append(tracing.parse_importtime(err))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


# -- machine record


def machine() -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        # a checkout without .git must not report an enclosing repository
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gnyamabe").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".dat"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": THREAD_SETTINGS,
    }


# -- measurement


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Run:
    """One measured run of a workload: a closed loop of jobs until the
    time is up. With tracing, odd jobs run traced and even jobs untraced."""

    def __init__(self, workload, seed, seconds, trace, golden):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.golden = golden
        self.tracer = tracing.Tracer()
        self.jobs: list[dict] = []
        self.unresolved = 0
        # the speed loop of the current job; traced jobs are not scaled
        # and skip it, so that it adds nothing to their spans
        self.speed = speed_loop

    def run(self) -> None:
        from gnyamabe import products, shooting

        marks: list = []
        original = products.find_ground_state
        if self.workload == "table9":
            # look the search up through its own module on every call, so
            # that on traced jobs the tracer's wrapper there is what runs
            products.find_ground_state = workloads.row_marker(
                marks, lambda *a, **k: shooting.find_ground_state(*a, **k),
                lambda: self.speed())
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        try:
            j = 0
            while True:
                traced = self.trace and j % 2 == 1
                self.jobs.append(self.one_job(j, traced, marks))
                j += 1
                if (time.perf_counter() - wall0 >= self.seconds
                        and (not self.trace or j >= 2)):
                    break
        finally:
            products.find_ground_state = original
        self.wall = time.perf_counter() - wall0
        self.cpu = cpu_seconds() - cpu0

    def one_job(self, j: int, traced: bool, marks: list) -> dict:
        inputs = workloads.make_inputs(self.workload, self.seed, j)
        self.speed = (lambda: 0.0) if traced else speed_loop
        if traced and self.workload != "cli_cold":
            self.tracer.job = j
            self.tracer.install()
        try:
            if self.workload == "table9":
                wall, items = workloads.run_table9(inputs, self.golden, marks)
            elif self.workload == "periodic_sweep":
                wall, items, unresolved = workloads.run_periodic(
                    inputs, self.speed)
                self.unresolved += unresolved
            else:
                prefix = ([sys.executable, str(HERE / "cli_child.py"), str(j)]
                          if traced else [sys.executable, "-m", "gnyamabe"])
                wall, items = workloads.run_cli(inputs, self.golden,
                                                child_env(), str(ROOT),
                                                prefix, self.speed)
                if traced:
                    for it in items:
                        self.merge_child_spans(it.pop("stderr"))
        finally:
            self.tracer.uninstall()
        for it in items:
            it.pop("stderr", None)
        return {"job": j, "traced": traced, "wall": wall,
                "loop_after": self.speed(), "items": items}

    def merge_child_spans(self, stderr: str) -> None:
        for line in stderr.splitlines():
            if line.startswith(tracing.SPAN_MARKER):
                offset = len(self.tracer.spans)
                for name, start, end, parent, job, info in json.loads(
                        line[len(tracing.SPAN_MARKER):]):
                    self.tracer.spans.append(
                        [name, start, end,
                         parent + offset if parent >= 0 else -1, job, info])

    def untraced(self):
        return [job for job in self.jobs if not job["traced"]]

    def end_to_end(self, setup_probes) -> dict:
        """End-to-end metrics of the untraced jobs, times at the reference
        speed."""
        jobs = self.untraced()
        job_s, items = [], []
        for job in jobs:
            seconds, item_ms = scaled_job(job)
            job_s.append(seconds)
            items += [{**it, "ms": ms}
                      for it, ms in zip(job["items"], item_ms)]
        stats = summarize_items(items, TAIL_PERCENTILE[self.workload])
        if self.workload == "cli_cold":
            peak_kb = max(it["rss_mb"] for it in items) * 1024.0
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "job_s": statistics.median(job_s),
            "item_ms_p50": stats["p50"],
            "item_ms_tail": stats["tail"],
            "setup_s": statistics.median(wall * scale
                                         for wall, scale in setup_probes),
            "peak_rss_mb": peak_kb / 1024.0,
        }, stats

    def per_layer(self) -> dict:
        traced = [job for job in self.jobs if job["traced"]]
        untraced = self.untraced()
        njobs = len(traced)
        spans = self.tracer.spans
        m = layer_metrics(spans, njobs)
        imports = import_profile()
        m["import.gnyamabe_s"] = imports["package_s"]
        m["import.scipy_s"] = imports["scipy_s"]
        m["import.modules"] = imports["modules"]
        cli_items = [it for job in untraced for it in job["items"]
                     if "subcommand" in it]
        for sub in CLI_SUBCOMMANDS:
            times = [it["ms"] for it in cli_items if it["subcommand"] == sub]
            m[f"cli.process_ms.{sub}"] = (statistics.median(times)
                                          if times else 0.0)
        m["cli.nonzero_exits"] = sum(
            1 for job in self.jobs for it in job["items"]
            if it.get("exit_code", 0) != 0) / len(self.jobs)
        harmonics = sum(1 for job in self.jobs for it in job["items"]
                        if it["kind"] == "harmonic")
        m["periodic.unresolved_ratio"] = (self.unresolved / harmonics
                                          if harmonics else 0.0)
        m["proc.cpu_per_wall"] = self.cpu / self.wall
        walls = {job["job"]: job["wall"] for job in traced}
        for layer, total in tracing.layer_self_times(spans, walls).items():
            if layer in LAYERS:
                m[f"selftime.{layer}_s"] = total / njobs
        for layer in LAYERS:
            m.setdefault(f"selftime.{layer}_s", 0.0)
        m["trace.job_s"] = statistics.median(walls.values())
        m["trace.untraced_job_s"] = statistics.median(
            job["wall"] for job in untraced)
        m["trace.overhead_s"] = m["trace.job_s"] - m["trace.untraced_job_s"]
        m["trace.spans_per_job"] = len(spans) / njobs
        m["trace.wrapper_cost_s"] = (m["trace.spans_per_job"]
                                     * tracing.wrapper_cost())
        return m


def layer_metrics(spans, njobs: int) -> dict:
    """Per-layer counts and times from the spans of ``njobs`` traced jobs."""
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)
    selfs = tracing.self_times(spans)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def mean_ms(name, pick=lambda i: True):
        chosen = [dur(i) for i in by_name[name] if pick(i)]
        return 1e3 * sum(chosen) / len(chosen) if chosen else 0.0

    def parent_name(i):
        return spans[spans[i][3]][0] if spans[i][3] >= 0 else None

    def has_ancestor(i, name):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    def layer_self(layer):
        return sum(s for span, s in zip(spans, selfs)
                   if span[0].split(".", 1)[0] == layer)

    m = {}
    tables = [spans[i][5] for i in by_name["products.build_table"]
              if isinstance(spans[i][5], list)]
    rows = sum(r for r, _ in tables)
    m["products.rows"] = rows / njobs
    m["products.row_errors"] = sum(e for _, e in tables) / njobs
    m["products.self_ms_per_row"] = (1e3 * layer_self("products") / rows
                                     if rows else 0.0)

    gs = [i for i in by_name["shooting.find_ground_state"]
          if isinstance(spans[i][5], float)]
    shots = by_name["ode.integrate_shot"] + by_name["ode.shoot_profile"]
    m["shooting.ground_states"] = len(gs) / njobs
    m["shooting.find_ground_state_ms"] = mean_ms("shooting.find_ground_state")
    m["shooting.self_ms"] = (1e3 * layer_self("shooting") / len(gs)
                             if gs else 0.0)
    gs_shots = [i for i in shots
                if has_ancestor(i, "shooting.find_ground_state")]
    m["shooting.shots_per_gs"] = len(gs_shots) / len(gs) if gs else 0.0
    bracket_shots = [i for i in by_name["ode.integrate_shot"]
                     if parent_name(i) == "shooting.bracket_alpha"]
    m["shooting.bracket_shots_per_gs"] = (len(bracket_shots) / len(gs)
                                          if gs else 0.0)
    last_shot = {}
    for i in by_name["ode.integrate_shot"]:
        if parent_name(i) == "shooting.find_ground_state":
            last_shot[spans[i][3]] = spans[i][5]
    m["shooting.candidate_stop_ratio"] = (
        sum(1 for i in gs if last_shot.get(i) == "Candidate") / len(gs)
        if gs else 0.0)
    m["shooting.bracket_width_max"] = max(
        (spans[i][5] for i in gs), default=0.0)

    m["ode.shots"] = len(shots) / njobs
    m["ode.profile_shots"] = len(by_name["ode.shoot_profile"]) / njobs
    m["ode.shot_ms"] = (1e3 * sum(dur(i) for i in shots) / len(shots)
                        if shots else 0.0)
    m["ode.busy_s"] = sum(dur(i) for i in shots) / njobs
    m["ode.failures"] = sum(1 for i in shots
                            if str(spans[i][5]).startswith("raised")) / njobs

    m["functional.gn_value_ms.solver"] = mean_ms(
        "functional.gn_value", lambda i: spans[i][5] == "solver")
    m["functional.gn_value_ms.pl"] = mean_ms(
        "functional.gn_value", lambda i: spans[i][5] == "pl")
    m["functional.bound_ms"] = mean_ms("products.bound_from_profile")

    inversions = by_name["periodic.orbit_for_period"]
    m["periodic.orbit_for_period_ms"] = mean_ms("periodic.orbit_for_period")
    m["periodic.orbit_period_ms"] = mean_ms("periodic.orbit_period")
    m["periodic.orbit_period_calls_per_orbit"] = (
        sum(1 for i in by_name["periodic.orbit_period"]
            if has_ancestor(i, "periodic.orbit_for_period"))
        / len(inversions) if inversions else 0.0)
    m["periodic.circle_quotient_ms"] = mean_ms("periodic.circle_quotient")
    m["periodic.return_time_ms"] = mean_ms("periodic.return_time")

    for sub in CLI_SUBCOMMANDS:
        m[f"cli.main_ms.{sub}"] = mean_ms(
            "cli.main", lambda i, sub=sub: spans[i][5] == sub)
    return m


# -- entry point


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_SETTINGS)
    if not (SRC / "gnyamabe" / "__init__.py").is_file() or \
            not GOLDEN.is_file():
        print(f"error: no gnyamabe source checkout at {ROOT} "
              "(need src/gnyamabe and tests/golden.py)", file=sys.stderr)
        return 2
    if args.setup_only:
        setup()
        return 0

    setup_probes = timed_setups(args.workload, args.seed)
    golden = setup()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              golden)
    run.run()
    metrics_e2e, stats = run.end_to_end(setup_probes)
    if args.trace:
        values = run.per_layer()
        units = PER_LAYER
    else:
        values, units = metrics_e2e, END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    items = [it for job in run.jobs for it in job["items"]]
    totals = summarize_items(items)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "closed_loop": {"callers": 1, "processes": 1},
        "jobs": len(run.jobs),
        "untraced_jobs": len(run.untraced()),
        "job_walls_s": [job["wall"] for job in run.jobs],
        "job_scaled_s": [scaled_job(job)[0] for job in run.untraced()],
        "setup_walls_s": [wall for wall, _ in setup_probes],
        "setup_speed_scales": [scale for _, scale in setup_probes],
        "item_samples": stats["attempted"],
        "item_tail_percentile": stats["tail_percentile"],
        "item_tail_percentile_allowed": stats["tail_allowed"],
        "fail_rate": totals["fail_rate"],
        "failures": totals["failures"],
        "end_to_end": metrics_e2e,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(
            json.dumps(run.tracer.spans))

    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'fail_rate':40s} {totals['fail_rate']:.6g} ratio "
          f"({totals['failed']} of {totals['attempted']} items)")
    print(f"{'item samples':40s} {stats['attempted']} (item_ms_tail is "
          f"p{stats['tail_percentile']:g}; the highest percentile with >= "
          f"{MIN_TAIL_SAMPLES} samples beyond it: "
          f"{'none' if stats['tail_allowed'] is None else 'p%g' % stats['tail_allowed']})")
    for why in totals["failures"]:
        print(f"failure: {why}")
    print("record " + json.dumps({k: record[k] for k in (
        "workload", "seed", "machine", "jobs", "item_samples",
        "item_tail_percentile")}))
    print(json.dumps({"correct": totals["failed"] == 0,
                      "attempted": totals["attempted"],
                      "failed": totals["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
