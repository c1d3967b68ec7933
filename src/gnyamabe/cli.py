"""Command-line front end.

Subcommands: ground-state, table, bound, periodic, constants. Exit codes:
0 success, 1 numerical or input-data failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .functional import (ProfileFormatError, gn_value, read_profile_file)
from .geometry import (Dims, sobolev_constant, sphere_volume,
                       unit_volume_sphere_scalar, yamabe_sphere)
from .ode import DEFAULT_CONTROLS, IntegrationControls, IntegrationFailure
from .periodic import (constant_solution, count_periodic_solutions,
                       integrate_orbit, minimal_period, orbit_for_period)
from .products import bound_from_profile, build_table, reference_constants
from .shooting import ShootingError, find_ground_state

# published upper bounds certified by bundled/known test functions
_REGRESSION_BOUNDS = {(2, 2): 2.427458}

_SANE_TOL_ALPHA = (1e-14, 1e-2)
_SANE_TMAX = (1.0, 1000.0)


def _sig7(x: float) -> float:
    """x rounded to 7 significant digits, the precision of every number
    the CLI reports. Rounding twice changes nothing, so a record's
    numbers print back at `.7g` exactly as the unrounded values would."""
    return float(f"{x:.7g}")


def _g7(value) -> str:
    """A table cell: floats at 7 significant digits, integers as is."""
    return f"{value:.7g}" if isinstance(value, float) else str(value)


def _aligned(titles, columns, rows) -> list[str]:
    """Right-aligned text table over row records: the integer columns
    two wide, the rest twelve, a missing entry shown as '-'."""
    widths = [2 if c in ("m", "n", "k") else 12 for c in columns]

    def line(cells):
        return " ".join(f"{c:>{w}}" for c, w in zip(cells, widths))

    return [line(titles)] + [
        line(_g7(row[c]) if c in row else "-" for c in columns)
        for row in rows]


def _render(fmt: str, record, text: list[str], columns=(), rows=(),
            cell=str) -> str:
    """The one output path of every subcommand: `record` as JSON, its CSV
    `rows` (cells written by `cell`, a missing one left empty) under the
    `columns` header, or the text lines."""
    if fmt == "json":
        return json.dumps(record, indent=2) + "\n"
    if fmt == "csv":
        text = [",".join(columns)] + [
            ",".join(cell(row[c]) if c in row else "" for c in columns)
            for row in rows]
    return "\n".join(text) + "\n"


def _dump(path, ts, ys, dys) -> None:
    """Write a sampled solution as plain-text rows "t y y'" for plotting."""
    with open(path, "w") as fh:
        for t, y, dy in zip(ts, ys, dys):
            fh.write(f"{t:.12g} {y:.17g} {dy:.17g}\n")


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _controls(args, parser) -> IntegrationControls:
    tmax = getattr(args, "tmax", None)
    if tmax is None:
        return DEFAULT_CONTROLS
    if not (_SANE_TMAX[0] < tmax <= _SANE_TMAX[1]):
        parser.error(f"--tmax must lie in ({_SANE_TMAX[0]:g}, "
                     f"{_SANE_TMAX[1]:g}]")
    return IntegrationControls(t_max=tmax)


def _tol_alpha(args, parser) -> float:
    tol = getattr(args, "tol_alpha", None)
    if tol is None:
        return 1e-12
    if not (_SANE_TOL_ALPHA[0] <= tol <= _SANE_TOL_ALPHA[1]):
        parser.error(f"--tol-alpha must lie in [{_SANE_TOL_ALPHA[0]:g}, "
                     f"{_SANE_TOL_ALPHA[1]:g}]")
    return tol


def _cmd_ground_state(args, parser) -> int:
    if args.m < 1 or args.n < 1 or args.m + args.n < 3:
        parser.error("need m >= 1, n >= 1 and m + n >= 3")
    d = Dims(args.m, args.n)
    ctrl = _controls(args, parser)
    gs = find_ground_state(d, tol_alpha=_tol_alpha(args, parser), ctrl=ctrl)
    res = gn_value(gs.profile, d)
    rec = {
        "m": d.m,
        "n": d.n,
        "alpha0": _sig7(gs.alpha0),
        "sigma_inv": _sig7(res.sigma_inv),
        "grad_sq": _sig7(res.grad_sq),
        "l2_sq": _sig7(res.l2_sq),
        "lp_norm": _sig7(res.lp_norm),
    }
    text = [f"ground state for (m, n) = ({d.m}, {d.n})",
            f"  alpha0     = {rec['alpha0']:.7g}",
            f"  sigma_inv  = {rec['sigma_inv']:.7g}",
            f"  |grad f|_2^2 = {rec['grad_sq']:.7g}",
            f"  |f|_2^2      = {rec['l2_sq']:.7g}",
            f"  |f|_p        = {rec['lp_norm']:.7g}"]
    _emit(_render(args.format, rec, text, columns=tuple(rec), rows=[rec]),
          args.out)
    if args.dump is not None:
        _dump(args.dump, gs.profile.ts, gs.profile.hs, gs.profile.dhs)
    return 0


_TABLE_COLUMNS = ("m", "n", "alpha0", "sigma_inv", "y_inf", "y_sphere")


def _cmd_table(args, parser) -> int:
    if args.max_dim < 4:
        parser.error("--max-dim must be at least 4")
    ctrl = _controls(args, parser)
    errors: list = []
    rows = build_table(args.max_dim, tol_alpha=_tol_alpha(args, parser),
                       ctrl=ctrl, collect_errors=errors)
    recs = [{"m": r.m, "n": r.n, "alpha0": _sig7(r.alpha0),
             "sigma_inv": _sig7(r.sigma_inv), "y_inf": _sig7(r.y_inf),
             "y_sphere": _sig7(r.y_sphere)} for r in rows]
    text = _aligned(_TABLE_COLUMNS, _TABLE_COLUMNS, recs)
    # table CSV cells keep the `.7g` text ("4"); the other CSVs write the
    # rounded float itself ("4.0")
    _emit(_render(args.format, recs, text, columns=_TABLE_COLUMNS,
                  rows=recs, cell=_g7), args.out)
    for m, n, exc in errors:
        print(f"row ({m}, {n}) failed: {exc}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_bound(args, parser) -> int:
    if args.m < 2 or args.n < 1:
        parser.error("need m >= 2 (positive first-factor curvature) and "
                     "n >= 1")
    d = Dims(args.m, args.n)
    profile = read_profile_file(args.profile)
    res = gn_value(profile, d)
    s_g = unit_volume_sphere_scalar(d.m)
    bound = bound_from_profile(profile, d, s_g)
    y_sph = yamabe_sphere(d.k)
    rec = {
        "m": d.m, "n": d.n,
        "L": _sig7(res.sigma_inv),
        "bound": _sig7(bound),
        "y_sphere": _sig7(y_sph),
        "below_sphere": bound < y_sph,
    }
    text = [
        f"test-function bound for (m, n) = ({d.m}, {d.n})",
        f"  L(f)        = {rec['L']:.7g}",
        f"  upper bound = {rec['bound']:.7g}   (s_g = {s_g:.7g})",
        f"  Y_{d.k} (sphere) = {rec['y_sphere']:.7g}",
        f"  bound < Y_{d.k}: {'PASS' if rec['below_sphere'] else 'FAIL'}",
    ]
    reg = _REGRESSION_BOUNDS.get((d.m, d.n))
    if reg is not None:
        verdict = "PASS" if res.sigma_inv < reg else "FAIL"
        text.append(f"  L < {reg}: {verdict}")
    _emit(_render(args.format, rec, text), args.out)
    return 0


def _cmd_periodic(args, parser) -> int:
    if args.n < 3:
        parser.error("total dimension n must be at least 3")
    if not 0.0 < args.r < math.inf:
        parser.error("circle radius r must be positive and finite")
    n, r = args.n, args.r
    target = 2.0 * math.pi * r
    rec = {
        "n": n, "r": r,
        "u_const": _sig7(constant_solution(n)),
        "t_min": _sig7(minimal_period(n)),
        "count": count_periodic_solutions(n, r),
        "orbits": [],
    }
    text = [
        f"circle factor analysis, dimension n = {n}, radius r = {r:g}",
        f"  constant solution u_c = {rec['u_const']:.7g}",
        f"  minimal period T_min  = {rec['t_min']:.7g}",
        f"  target period 2 pi r  = {target:.7g}",
        f"  nonconstant solutions: {rec['count']}",
    ]
    first = None
    for k in range(1, rec["count"] + 1):
        period = target / k
        try:
            orb = orbit_for_period(n, period)
        except ValueError:
            text.append(f"    k={k}: period {period:.7g}, u_max ~ 1 "
                        "(beyond double-precision window)")
            continue
        if first is None:
            first = orb
        rec["orbits"].append({"k": k, "period": _sig7(orb.period),
                              "u_max": _sig7(orb.u_max)})
        text.append(f"    k={k}: period {orb.period:.7g}, "
                    f"u_max {orb.u_max:.7g}")
    _emit(_render(args.format, rec, text), args.out)
    if args.dump is not None:
        if first is not None:
            _dump(args.dump, *integrate_orbit(n, first.u_max, first.period))
        else:
            print("no resolvable orbit to dump", file=sys.stderr)
    return 0


_SPHERE_COLUMNS = ("k", "vol_sphere", "yamabe_sphere", "sobolev")


def _cmd_constants(args, parser) -> int:
    ref = reference_constants()
    spheres = []
    for k in range(1, 10):
        entry = {"k": k, "vol_sphere": _sig7(sphere_volume(k))}
        if k >= 3:
            entry["yamabe_sphere"] = _sig7(yamabe_sphere(k))
            entry["sobolev"] = _sig7(sobolev_constant(k))
        spheres.append(entry)
    rec = {"reference": {key: _sig7(val) for key, val in ref.items()},
           "spheres": spheres}
    text = [
        "reference constants",
        f"  Y(CP^2)            = 12 sqrt(2) pi = {ref['Y_CP2']:.8g}",
        f"  Y(S^2 x S^2, prod) = 16 pi         = "
        f"{ref['Y_S2xS2_product']:.8g}",
        "",
        *_aligned(("k", "Vol(S^k)", "Y_k", "sigma_k"), _SPHERE_COLUMNS,
                  spheres),
    ]
    _emit(_render(args.format, rec, text, columns=_SPHERE_COLUMNS,
                  rows=spheres), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnyamabe",
        description="Gagliardo-Nirenberg constants by shooting and limiting "
                    "Yamabe constants of Riemannian products")
    sub = parser.add_subparsers(dest="command", required=True)

    gs = sub.add_parser("ground-state",
                        help="locate alpha0(m, n) and evaluate sigma_inv")
    gs.add_argument("m", type=int)
    gs.add_argument("n", type=int)
    gs.add_argument("--tol-alpha", type=float, default=None)
    gs.add_argument("--tmax", type=float, default=None)
    gs.add_argument("--format", choices=("text", "csv", "json"),
                    default="text")
    gs.add_argument("--out", default=None)
    gs.add_argument("--dump", default=None,
                    help="write the profile as 't h dh' rows")
    gs.set_defaults(func=_cmd_ground_state)

    tb = sub.add_parser("table", help="constants table for all m, n >= 2 "
                                      "with m + n <= MAX")
    tb.add_argument("--max-dim", type=int, default=9)
    tb.add_argument("--tol-alpha", type=float, default=None)
    tb.add_argument("--tmax", type=float, default=None)
    tb.add_argument("--format", choices=("csv", "json", "text"),
                    default="csv")
    tb.add_argument("--out", default=None)
    tb.set_defaults(func=_cmd_table)

    bd = sub.add_parser("bound", help="upper bound from a piecewise-linear "
                                      "profile file")
    bd.add_argument("profile", help="breakpoint file, 't h' per line")
    bd.add_argument("m", type=int)
    bd.add_argument("n", type=int)
    bd.add_argument("--format", choices=("text", "json"), default="text")
    bd.add_argument("--out", default=None)
    bd.set_defaults(func=_cmd_bound)

    pd = sub.add_parser("periodic", help="circle-factor periodic solutions")
    pd.add_argument("n", type=int)
    pd.add_argument("r", type=float)
    pd.add_argument("--format", choices=("text", "json"), default="text")
    pd.add_argument("--out", default=None)
    pd.add_argument("--dump", default=None,
                    help="write the fundamental orbit as 't u du' rows")
    pd.set_defaults(func=_cmd_periodic)

    ct = sub.add_parser("constants", help="closed-form sphere constants and "
                                          "reference values")
    ct.add_argument("--format", choices=("text", "csv", "json"),
                    default="text")
    ct.add_argument("--out", default=None)
    ct.set_defaults(func=_cmd_constants)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ShootingError, IntegrationFailure, ProfileFormatError,
            OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
