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
from .ode import DEFAULT_CONTROLS, IntegrationControls, IntegrationFailure, write_profile
from .periodic import (circle_orbit, constant_solution, count_periodic_solutions,
                       integrate_orbit, minimal_period, orbit_for_period,
                       write_orbit)
from .products import (ConstantsRow, bound_from_profile, build_table,
                       format_table_csv, format_table_json, reference_constants,
                       y_infinity)
from .shooting import ShootingError, find_ground_state

# published upper bounds certified by bundled/known test functions
_REGRESSION_BOUNDS = {(2, 2): 2.427458}

_SANE_TOL_ALPHA = (1e-14, 1e-2)
_SANE_TMAX = (1.0, 1000.0)


def _sig7(x: float) -> str:
    return f"{x:.7g}"


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
    record = {
        "m": d.m,
        "n": d.n,
        "alpha0": float(_sig7(gs.alpha0)),
        "sigma_inv": float(_sig7(res.sigma_inv)),
        "grad_sq": float(_sig7(res.grad_sq)),
        "l2_sq": float(_sig7(res.l2_sq)),
        "lp_norm": float(_sig7(res.lp_norm)),
    }
    if args.format == "json":
        text = json.dumps(record, indent=2) + "\n"
    elif args.format == "csv":
        text = ("m,n,alpha0,sigma_inv,grad_sq,l2_sq,lp_norm\n"
                + ",".join(str(record[key]) for key in
                           ("m", "n", "alpha0", "sigma_inv", "grad_sq",
                            "l2_sq", "lp_norm")) + "\n")
    else:
        text = (f"ground state for (m, n) = ({d.m}, {d.n})\n"
                f"  alpha0     = {_sig7(gs.alpha0)}\n"
                f"  sigma_inv  = {_sig7(res.sigma_inv)}\n"
                f"  |grad f|_2^2 = {_sig7(res.grad_sq)}\n"
                f"  |f|_2^2      = {_sig7(res.l2_sq)}\n"
                f"  |f|_p        = {_sig7(res.lp_norm)}\n")
    _emit(text, args.out)
    if args.dump is not None:
        write_profile(gs.profile, args.dump)
    return 0


def _cmd_table(args, parser) -> int:
    if args.max_dim < 4:
        parser.error("--max-dim must be at least 4")
    ctrl = _controls(args, parser)
    errors: list = []
    rows = build_table(args.max_dim, tol_alpha=_tol_alpha(args, parser),
                       ctrl=ctrl, collect_errors=errors)
    if args.format == "json":
        text = format_table_json(rows)
    elif args.format == "text":
        lines = [f"{'m':>2} {'n':>2} {'alpha0':>12} {'sigma_inv':>12} "
                 f"{'y_inf':>12} {'y_sphere':>12}"]
        for r in rows:
            lines.append(f"{r.m:>2} {r.n:>2} {_sig7(r.alpha0):>12} "
                         f"{_sig7(r.sigma_inv):>12} {_sig7(r.y_inf):>12} "
                         f"{_sig7(r.y_sphere):>12}")
        text = "\n".join(lines) + "\n"
    else:
        text = format_table_csv(rows)
    _emit(text, args.out)
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
    lines = [
        f"test-function bound for (m, n) = ({d.m}, {d.n})",
        f"  L(f)        = {_sig7(res.sigma_inv)}",
        f"  upper bound = {_sig7(bound)}   (s_g = {_sig7(s_g)})",
        f"  Y_{d.k} (sphere) = {_sig7(y_sph)}",
        f"  bound < Y_{d.k}: {'PASS' if bound < y_sph else 'FAIL'}",
    ]
    reg = _REGRESSION_BOUNDS.get((d.m, d.n))
    if reg is not None:
        verdict = "PASS" if res.sigma_inv < reg else "FAIL"
        lines.append(f"  L < {reg}: {verdict}")
    record = {
        "m": d.m, "n": d.n,
        "L": float(_sig7(res.sigma_inv)),
        "bound": float(_sig7(bound)),
        "y_sphere": float(_sig7(y_sph)),
        "below_sphere": bound < y_sph,
    }
    if args.format == "json":
        text = json.dumps(record, indent=2) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_periodic(args, parser) -> int:
    if args.n < 3:
        parser.error("total dimension n must be at least 3")
    if args.r <= 0:
        parser.error("circle radius r must be positive")
    n, r = args.n, args.r
    u_c = constant_solution(n)
    t_min = minimal_period(n)
    target = 2.0 * math.pi * r
    count = count_periodic_solutions(n, r)
    lines = [
        f"circle factor analysis, dimension n = {n}, radius r = {r:g}",
        f"  constant solution u_c = {_sig7(u_c)}",
        f"  minimal period T_min  = {_sig7(t_min)}",
        f"  target period 2 pi r  = {_sig7(target)}",
        f"  nonconstant solutions: {count}",
    ]
    orbits = []
    for k in range(1, count + 1):
        period = target / k
        try:
            orb = orbit_for_period(n, period)
            lines.append(f"    k={k}: period {_sig7(period)}, "
                         f"u_max {_sig7(orb.u_max)}")
            orbits.append((k, orb))
        except ValueError:
            lines.append(f"    k={k}: period {_sig7(period)}, u_max ~ 1 "
                         "(beyond double-precision window)")
    record = {
        "n": n, "r": r,
        "u_const": float(_sig7(u_c)),
        "t_min": float(_sig7(t_min)),
        "count": count,
        "orbits": [{"k": k, "period": float(_sig7(o.period)),
                    "u_max": float(_sig7(o.u_max))}
                   for k, o in orbits],
    }
    if args.format == "json":
        text = json.dumps(record, indent=2) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    if args.dump is not None:
        if orbits:
            _, orb = orbits[0]
            ts, us, dus = integrate_orbit(n, orb.u_max, orb.period)
            write_orbit(args.dump, ts, us, dus)
        else:
            print("no resolvable orbit to dump", file=sys.stderr)
    return 0


def _cmd_constants(args, parser) -> int:
    ref = reference_constants()
    rows = []
    for k in range(1, 10):
        entry = {"k": k, "vol_sphere": float(_sig7(sphere_volume(k)))}
        if k >= 3:
            entry["yamabe_sphere"] = float(_sig7(yamabe_sphere(k)))
            entry["sobolev"] = float(_sig7(sobolev_constant(k)))
        rows.append(entry)
    if args.format == "json":
        text = json.dumps({"reference": {key: float(_sig7(val))
                                         for key, val in ref.items()},
                           "spheres": rows}, indent=2) + "\n"
    elif args.format == "csv":
        lines = ["k,vol_sphere,yamabe_sphere,sobolev"]
        for e in rows:
            lines.append(f"{e['k']},{e['vol_sphere']},"
                         f"{e.get('yamabe_sphere', '')},"
                         f"{e.get('sobolev', '')}")
        text = "\n".join(lines) + "\n"
    else:
        lines = ["reference constants"]
        lines.append(f"  Y(CP^2)            = 12 sqrt(2) pi = "
                     f"{ref['Y_CP2']:.8g}")
        lines.append(f"  Y(S^2 x S^2, prod) = 16 pi         = "
                     f"{ref['Y_S2xS2_product']:.8g}")
        lines.append("")
        lines.append(f"{'k':>2} {'Vol(S^k)':>12} {'Y_k':>12} {'sigma_k':>12}")
        for e in rows:
            y = _sig7(e["yamabe_sphere"]) if "yamabe_sphere" in e else "-"
            s = _sig7(e["sobolev"]) if "sobolev" in e else "-"
            lines.append(f"{e['k']:>2} {_sig7(e['vol_sphere']):>12} "
                         f"{y:>12} {s:>12}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
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
