"""Span recording around calls into the gnyamabe modules.

The tracer wraps module-level functions of the package from outside: it
replaces every reference to a target function in the loaded ``gnyamabe.*``
namespaces with a wrapper that records one span per call, and puts the
originals back on ``uninstall``. Nothing inside the program is changed.

A span is ``[name, start, end, parent, job, info]``: ``parent`` is the index
of the enclosing span (-1 for a top-level call), ``job`` the id of the
benchmark job that made the call, and ``info`` a small outcome: the shot
classification, the bracket width, ``[rows, row errors]`` of a table, or
"raised:<Exception>".
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import re
import sys
import time

# prefix of the stderr line on which a traced CLI child reports its spans
SPAN_MARKER = "perfbench-spans "

# (defining module, function name); the span is named "<layer>.<function>"
# where the layer is the last component of the module name
TARGETS = [
    ("gnyamabe.products", "build_table"),
    ("gnyamabe.products", "bound_from_profile"),
    ("gnyamabe.shooting", "find_ground_state"),
    ("gnyamabe.shooting", "bracket_alpha"),
    ("gnyamabe.ode", "integrate_shot"),
    ("gnyamabe.ode", "shoot_profile"),
    ("gnyamabe.functional", "gn_value"),
    ("gnyamabe.functional", "read_profile_file"),
    ("gnyamabe.periodic", "orbit_for_period"),
    ("gnyamabe.periodic", "orbit_period"),
    ("gnyamabe.periodic", "return_time"),
    ("gnyamabe.periodic", "circle_quotient"),
    ("gnyamabe.cli", "main"),
]


def _describe(name, args, kwargs, result) -> str | None:
    """Outcome of a finished call, kept small: only what the per-layer
    metrics read."""
    if name == "ode.integrate_shot":
        return type(result).__name__
    if name == "ode.shoot_profile":
        return type(result[0]).__name__
    if name == "shooting.find_ground_state":
        lo, hi = result.bracket
        return hi - lo
    if name == "functional.gn_value":
        return "solver" if hasattr(args[0], "dhs") else "pl"
    if name == "cli.main":
        return args[0][0] if args and args[0] else None
    if name == "products.build_table":
        errors = kwargs.get("collect_errors") or []
        return [len(result), len(errors)]
    return None


class Tracer:
    """Collects spans from wrapped package functions into ``self.spans``."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job,
                   None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                rec[5] = _describe(name, args, kwargs, result)
                return result
            except BaseException as exc:
                rec[5] = "raised:" + type(exc).__name__
                raise
            finally:
                stack.pop()
                rec[2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target whose module is importable, in every loaded
        gnyamabe namespace that refers to it."""
        for modname, attr in TARGETS:
            if modname not in sys.modules:
                continue
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(modname.rsplit(".", 1)[1] + "." + attr,
                                 original)
            for key, mod in list(sys.modules.items()):
                if key != "gnyamabe" and not key.startswith("gnyamabe."):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()


def wrapper_cost(calls: int = 50000, trials: int = 3) -> float:
    """Seconds a span wrapper adds to one call: a wrapped no-op against the
    bare no-op, best of ``trials``."""
    def noop():
        return None

    wrapped = Tracer()._wrap("bench.noop", noop)
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlapping children count once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, job, info in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, job, info) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_self_times(spans, job_walls: dict[int, float]) -> dict[str, float]:
    """Total self time per layer over the given jobs, plus "unattributed":
    job wall time outside every top-level span (the benchmark's own loop,
    and for CLI jobs interpreter start-up and import)."""
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    top = 0.0
    for (name, start, end, parent, job, info), own in zip(spans, selfs):
        if job not in job_walls:
            continue
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own
        if parent < 0:
            top += end - start
    totals["unattributed"] = sum(job_walls.values()) - top
    return totals


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(text: str, package: str = "gnyamabe") -> dict:
    """Read ``python -X importtime`` output (stderr) into the import metrics.

    Returns the cumulative seconds of ``package``, the summed cumulative
    seconds of scipy imports not nested inside another scipy import, and
    the number of modules in ``package``'s import subtree.
    """
    rows = []
    for line in text.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            rows.append((len(match.group(3)) // 2, match.group(4),
                         int(match.group(2)) * 1e-6))
    # the listing is post-order (children before their parent); walking it
    # backwards visits each parent before its children
    stack: list[tuple[int, str]] = []
    package_s = scipy_s = 0.0
    modules = 0
    for level, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        ancestors = [n for _, n in stack]
        if name == package and not ancestors:
            package_s = cumulative
        if name == package or package in ancestors:
            modules += 1
        if (name.split(".")[0] == "scipy"
                and not any(a.split(".")[0] == "scipy" for a in ancestors)):
            scipy_s += cumulative
        stack.append((level, name))
    return {"package_s": package_s, "scipy_s": scipy_s, "modules": modules}
