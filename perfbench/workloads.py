"""The three benchmark workloads: seeded inputs, one job, and the checks.

Each workload is a closed loop with a single caller: the next job starts
only after the previous one has finished. A job returns its wall time and
one record per item, ``{"kind", "ms", "ok", "why"}``; an item fails on an
exception, a non-zero exit or a failed correctness check.

- ``table9``: ``build_table(9)``; one item per row (21 per job). The seed
  is recorded but unused: the table has no inputs.
- ``periodic_sweep``: one seeded radius for each ``n`` = 3..8 per job.
  Each radius runs ``count_periodic_solutions`` and then
  ``orbit_for_period`` for every harmonic in the sweep band, as the
  ``periodic`` subcommand does; one item per harmonic inversion.
  ``return_time`` and ``circle_quotient`` then run on ``ORBIT_CHECKS`` of
  the resolved orbits.
- ``cli_cold``: one fresh ``python -m gnyamabe ... --format json`` process
  per item, over a seeded shuffle of ``CLI_KINDS`` per job.

Radii are drawn by their harmonic count ``2 pi r / T_min``, 40 to 48 for
the sweep. The sweep inverts the harmonics whose period is at most
``SWEEP_PERIOD_CAP`` times the minimal period, three in eight. Longer
periods reach towards the separatrix, where ``orbit_for_period`` misses
the requested period by more than the 1e-9 the check demands (about
1e-9 at twice the minimal period for n = 7 and 8, up to 2e-4 next to the
separatrix) and the JSON of the ``periodic`` subcommand numbers its orbits
by position once a low harmonic is beyond the window. Those are program
defects; the benchmark keeps to inputs on which no operation fails, and
the CLI item's radius has at most ``CLI_HARMONICS[1]`` harmonics.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import threading
import time

WORKLOADS = ("table9", "periodic_sweep", "cli_cold")

TABLE_DIM = 9
PERIODIC_DIMS = tuple(range(3, 9))
# range of 2 pi r / T_min, about the harmonic count of a radius: six sweep
# radii make a job of a few seconds; the CLI item gets a small radius
SWEEP_HARMONICS = (40.0, 48.0)
CLI_HARMONICS = (1.05, 2.5)
# the sweep inverts the harmonics with period at most this many T_min;
# beyond about 2 T_min the period map misses 1e-9 for the larger n
SWEEP_PERIOD_CAP = 1.6
ORBIT_CHECKS = 2
PERIOD_RTOL = 1e-9
RETURN_RTOL = 1e-8
CLI_KINDS = ("constants", "bound", "ground-state", "ground-state-1e-8",
             "periodic")
CLI_TIMEOUT_S = 60.0

# 7 significant digits in the CLI's JSON; relative half-unit is 5e-7
SIG7_RTOL = 1e-6


def rng_for(workload: str, seed: int, job: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{job}")


def table_pairs_closed_form(max_dim: int) -> list[tuple[int, int]]:
    return [(k - n, n) for k in range(4, max_dim + 1)
            for n in range(k - 2, 1, -1)]


def minimal_period(n: int) -> float:
    return 2.0 * math.pi / math.sqrt(n - 2.0)


def harmonic_count(n: int, r: float) -> int:
    """Harmonics k >= 1 whose period 2 pi r / k exceeds the minimal period,
    counted one by one."""
    count = 0
    while 2.0 * math.pi * r / (count + 1) > minimal_period(n):
        count += 1
    return count


def sweep_band(n: int, r: float, count: int) -> range:
    """The harmonics of radius ``r`` that the sweep inverts: those with
    period 2 pi r / k at most SWEEP_PERIOD_CAP T_min."""
    first = math.ceil(2.0 * math.pi * r / (SWEEP_PERIOD_CAP
                                           * minimal_period(n)))
    return range(max(first, 1), count + 1)


def draw_radius(rng: random.Random, n: int, harmonics) -> float:
    ratio = rng.uniform(*harmonics)
    return round(ratio * minimal_period(n) / (2.0 * math.pi), 6)


def make_inputs(workload: str, seed: int, job: int):
    """Inputs of one job; the same (workload, seed, job) gives the same
    inputs."""
    rng = rng_for(workload, seed, job)
    if workload == "table9":
        return TABLE_DIM
    if workload == "periodic_sweep":
        radii = [(n, draw_radius(rng, n, SWEEP_HARMONICS))
                 for n in PERIODIC_DIMS]
        # the cross-checked orbits, as fractions of the resolved list
        picks = [rng.random() for _ in range(ORBIT_CHECKS)]
        return radii, picks
    if workload == "cli_cold":
        # consecutive jobs walk one seeded order of the table pairs, so a
        # run of a few jobs sees many different pairs rather than repeats
        pairs = table_pairs_closed_form(TABLE_DIM)
        rng_for(workload, seed, -1).shuffle(pairs)
        gs_pairs = iter([pairs[(2 * job) % len(pairs)],
                         pairs[(2 * job + 1) % len(pairs)]])
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        return [(kind, cli_args(kind, rng, gs_pairs)) for kind in kinds]
    raise ValueError(f"unknown workload {workload!r}")


def cli_args(kind, rng, gs_pairs) -> list[str]:
    if kind == "constants":
        return ["constants"]
    if kind == "bound":
        return ["bound", os.path.join("src", "gnyamabe", "data",
                                      "testfn_2_2.dat"), "2", "2"]
    if kind.startswith("ground-state"):
        m, n = next(gs_pairs)
        extra = ["--tol-alpha", "1e-8"] if kind.endswith("1e-8") else []
        return ["ground-state", str(m), str(n), *extra]
    n = rng.choice(PERIODIC_DIMS)
    return ["periodic", str(n), repr(draw_radius(rng, n, CLI_HARMONICS))]


def item(kind: str, ms: float, why: str | None, loop_s: float = 0.0) -> dict:
    """One item's record; ``loop_s`` is the speed loop timed just before
    it (0 when none was)."""
    return {"kind": kind, "ms": ms, "ok": why is None, "why": why,
            "loop_s": loop_s}


# -- correctness checks: each returns None when the output is right, or
# -- a one-line reason


def check_row(row, golden: dict) -> str | None:
    ref = golden["rows"].get((row.m, row.n))
    if ref is None:
        return f"unexpected row ({row.m}, {row.n})"
    sigma, y_inf, y_sphere = ref
    if abs(row.sigma_inv - sigma) > golden["sigma_tol"]:
        return f"sigma_inv {row.sigma_inv!r} vs golden {sigma}"
    if abs(row.y_inf - y_inf) > golden["y_inf_tol"]:
        return f"y_inf {row.y_inf!r} vs golden {y_inf}"
    if abs(row.y_sphere - y_sphere) > golden["y_sphere_tol"]:
        return f"y_sphere {row.y_sphere!r} vs golden {y_sphere}"
    if not row.y_inf < row.y_sphere:
        return f"y_inf {row.y_inf!r} not below y_sphere {row.y_sphere!r}"
    return None


def check_orbit(orbit, n: int, target: float) -> str | None:
    if orbit.n != n:
        return f"orbit dimension {orbit.n} != {n}"
    if abs(orbit.period / target - 1.0) > PERIOD_RTOL:
        return (f"period {orbit.period!r} misses target {target!r} "
                f"(rel {orbit.period / target - 1.0:.1e})")
    return None


def _close(a, b, rel=SIG7_RTOL) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel)


def _sphere_volume(k: int) -> float:
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def _yamabe_sphere(k: int) -> float:
    return k * (k - 1) * _sphere_volume(k) ** (2.0 / k)


def check_cli(kind: str, args: list[str], record: dict,
              golden: dict) -> str | None:
    """Compare one CLI JSON record with golden and closed-form values."""
    if kind == "constants":
        ref = record["reference"]
        if not _close(ref["Y_CP2"], 12.0 * math.sqrt(2.0) * math.pi):
            return f"Y_CP2 {ref['Y_CP2']}"
        if not _close(ref["Y_S2xS2_product"], 16.0 * math.pi):
            return f"Y_S2xS2_product {ref['Y_S2xS2_product']}"
        if [e["k"] for e in record["spheres"]] != list(range(1, 10)):
            return "sphere rows are not k = 1..9"
        for e in record["spheres"]:
            k = e["k"]
            if not _close(e["vol_sphere"], _sphere_volume(k)):
                return f"vol_sphere({k}) {e['vol_sphere']}"
            if k >= 3 and not (
                    _close(e["yamabe_sphere"], _yamabe_sphere(k))
                    and _close(e["sobolev"], 4.0 * (k - 1) / (k - 2)
                               / _yamabe_sphere(k))):
                return f"sphere constants for k = {k}"
        return None
    if kind == "bound":
        m, n = 2, 2
        k = m + n
        s_g = m * (m - 1) * _sphere_volume(m) ** (2.0 / m)
        a_k = 4.0 * (k - 1) / (k - 2)
        coupling = a_k ** (n / k) * k * n ** (-n / k) * m ** (-m / k)
        lval = record["L"]
        if not golden["sigma_inv_22"] - golden["sigma_tol"] <= lval \
                < golden["testfn_bound_22"]:
            return f"L {lval} outside [sigma_inv(2,2), published bound)"
        if not _close(record["bound"], coupling * s_g ** (m / k) * lval,
                      rel=2 * SIG7_RTOL):
            return f"bound {record['bound']} != C s^(m/k) L"
        if not _close(record["y_sphere"], _yamabe_sphere(k)):
            return f"y_sphere {record['y_sphere']}"
        if not (record["below_sphere"] is True
                and record["bound"] < record["y_sphere"]):
            return "bound not below the sphere invariant"
        return None
    if kind.startswith("ground-state"):
        m, n = int(args[1]), int(args[2])
        k = m + n
        if (record["m"], record["n"]) != (m, n):
            return f"record for ({record['m']}, {record['n']})"
        sigma = golden["rows"][(m, n)][0]
        if abs(record["sigma_inv"] - sigma) > golden["sigma_tol"]:
            return f"sigma_inv {record['sigma_inv']} vs golden {sigma}"
        assembled = (record["grad_sq"] ** (n / k) * record["l2_sq"] ** (m / k)
                     / record["lp_norm"] ** 2)
        if not _close(record["sigma_inv"], assembled, rel=5 * SIG7_RTOL):
            return "sigma_inv disagrees with its own norms"
        if (m, n) == (2, 2) and abs(record["alpha0"]
                                    - golden["alpha0_22"]) > 1e-4:
            return f"alpha0(2, 2) {record['alpha0']}"
        return None
    if kind == "periodic":
        n, r = int(args[1]), float(args[2])
        count = harmonic_count(n, r)
        if record["count"] != count:
            return f"count {record['count']} != {count}"
        if not _close(record["t_min"], minimal_period(n)):
            return f"t_min {record['t_min']}"
        if not _close(record["u_const"], ((n - 2) / n) ** ((n - 2) / 4.0)):
            return f"u_const {record['u_const']}"
        # orbits beyond the resolvable window are left out; the rest must
        # carry their own harmonic number
        ks = [o["k"] for o in record["orbits"]]
        if ks != sorted(set(ks)) or not set(ks) <= set(range(1, count + 1)):
            return f"orbit harmonics {ks} are not distinct ones of 1..{count}"
        for o in record["orbits"]:
            expected = 2.0 * math.pi * r / o["k"]
            if not _close(o["period"], expected):
                return (f"orbit k={o['k']} period {o['period']} != "
                        f"2 pi r / k = {expected:.7g}")
        return None
    raise ValueError(f"unknown CLI item kind {kind!r}")


# -- jobs


def run_table9(max_dim, golden, mark_rows) -> tuple[float, list[dict]]:
    """One build_table(max_dim). ``mark_rows`` is a list that the row
    marker appends ``(start, end, loop_s, m, n)`` to as each row's
    ground-state search starts; between start and end it ran a speed loop
    of ``loop_s`` seconds. A row lasts from its mark's end to the next
    mark's start. Items come in the order the rows ran; the returned wall
    time leaves out the speed loops."""
    from gnyamabe import products

    errors: list = []
    mark_rows.clear()
    start = time.perf_counter()
    rows = products.build_table(max_dim, collect_errors=errors)
    end = time.perf_counter()
    marks = list(mark_rows)
    ends = [mark[0] for mark in marks[1:]] + [end]
    by_pair = {(r.m, r.n): r for r in rows}
    failed = {(m, n): f"{type(exc).__name__}: {exc}" for m, n, exc in errors}
    items = []
    for (_, row_start, loop, m, n), row_end in zip(marks, ends):
        if (m, n) in by_pair:
            why = check_row(by_pair[(m, n)], golden)
        else:
            why = failed.get((m, n), "row missing")
        items.append(item("row", (row_end - row_start) * 1e3, why, loop))
    seen = {(m, n) for *_, m, n in marks}
    items += [item("row", 0.0, "row missing", 0.0)
              for pair in golden["pairs"] if pair not in seen]
    looped = sum(mark_end - mark_start for mark_start, mark_end, *_ in marks)
    return end - start - looped, items


def row_marker(marks: list, find_ground_state, speed):
    """Wrap products.find_ground_state so that each call runs ``speed()``
    and stamps a row boundary around it."""

    def marked(d, *args, **kwargs):
        t0 = time.perf_counter()
        loop = speed()
        marks.append((t0, time.perf_counter(), loop, d.m, d.n))
        return find_ground_state(d, *args, **kwargs)

    return marked


def run_periodic(inputs, speed) -> tuple[float, list[dict], int]:
    """One sweep: the harmonics in the band of each radius, then the
    time-integration cross-checks; ``speed()`` runs before each item.
    Returns wall time without the speed loops, items and the number of
    harmonics beyond the resolvable window."""
    from gnyamabe import periodic

    radii, picks = inputs
    items = []
    resolved = []
    unresolved = 0
    start = time.perf_counter()
    loop = looped = speed()
    for n, r in radii:
        t0 = time.perf_counter()
        try:
            count = periodic.count_periodic_solutions(n, r)
        except Exception as exc:  # noqa: BLE001 - any failure is an item failure
            count, why = 0, f"{type(exc).__name__}: {exc}"
        else:
            expected = harmonic_count(n, r)
            why = (None if count == expected else
                   f"count {count} != {expected} for ({n}, {r})")
        if why:
            items.append(item("count", (time.perf_counter() - t0) * 1e3,
                              why, loop))
            count = 0
        for k in sweep_band(n, r, count):
            target = 2.0 * math.pi * r / k
            why = None
            try:
                orbit = periodic.orbit_for_period(n, target)
            except ValueError:
                unresolved += 1
                orbit = None
            except Exception as exc:  # noqa: BLE001
                orbit, why = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if orbit is not None:
                why = check_orbit(orbit, n, target)
                resolved.append((len(items), orbit))
            items.append(item("harmonic", (t1 - t0) * 1e3, why, loop))
            loop = speed()
            looped += loop
            t0 = time.perf_counter()
    for pick in picks:
        if not resolved:
            break
        idx, orbit = resolved[int(pick * len(resolved))]
        try:
            t_ret = periodic.return_time(orbit.n, orbit.u_max)
            quotient = periodic.circle_quotient(orbit.n, orbit.u_max)
        except Exception as exc:  # noqa: BLE001
            why = f"{type(exc).__name__}: {exc}"
        else:
            why = None
            if abs(t_ret / orbit.period - 1.0) > RETURN_RTOL:
                why = f"return time {t_ret!r} vs period {orbit.period!r}"
            elif not 0.0 < quotient < _yamabe_sphere(orbit.n):
                why = f"circle quotient {quotient!r} not in (0, Y_{orbit.n})"
        if why and items[idx]["ok"]:
            items[idx] = {**items[idx], "ok": False, "why": why}
    return time.perf_counter() - start - looped, items, unresolved


def run_child(argv: list[str], env: dict, cwd: str,
              timeout: float = CLI_TIMEOUT_S):
    """Run one process to completion; return (exit code, stdout, stderr,
    wall seconds, peak RSS in MB). A child that outlives ``timeout`` is
    killed, and still reaped."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out_chunks: list[bytes] = []
        reader = threading.Thread(
            target=lambda: out_chunks.append(proc.stdout.read()))
        reader.start()
        err = proc.stderr.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, b"".join(out_chunks).decode(), err.decode(),
            wall, usage.ru_maxrss / 1024.0)


def run_cli(inputs, golden, env, root, child_prefix,
            speed) -> tuple[float, list]:
    """One cycle of CLI items, each a fresh process started after
    ``speed()``. ``child_prefix`` is the command that stands in for
    ``python -m gnyamabe``. Returns wall time without the speed loops, and
    items; each item also carries the child's stderr, peak RSS and
    subcommand."""
    items = []
    looped = 0.0
    start = time.perf_counter()
    for kind, args in inputs:
        loop = speed()
        looped += loop
        code, out, err, wall, rss = run_child(
            [*child_prefix, *args, "--format", "json"], env, root)
        why = None
        if code != 0:
            why = f"exit code {code}: {err.strip()[-200:]}"
        else:
            try:
                why = check_cli(kind, args, json.loads(out), golden)
            except (ValueError, KeyError, TypeError) as exc:
                why = f"unreadable output: {type(exc).__name__}: {exc}"
        rec = item(kind, wall * 1e3, why, loop)
        rec.update(subcommand=args[0], rss_mb=rss, stderr=err,
                   exit_code=code)
        items.append(rec)
    return time.perf_counter() - start - looped, items
