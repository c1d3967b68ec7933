"""Command-line front end.

Subcommands: ground-state, table, bound, periodic, constants. Exit codes:
0 success, 1 numerical or input-data failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .geometry import (Dims, reference_constants, sobolev_constant,
                       sphere_volume, unit_volume_sphere_scalar, y_infinity,
                       yamabe_sphere)

# Each handler imports the modules it runs, so `constants` loads no numpy;
# the help texts spell out ode.DEFAULT_T_MAX (50),
# shooting.DEFAULT_TOL_ALPHA (1e-12) and
# periodic._TIME_DELTA_FLOOR (1e-08), held to the code by tests/test_cli.py.

# published upper bounds certified by bundled/known test functions
_REGRESSION_BOUNDS = {(2, 2): 2.427458}

_SANE_TOL_ALPHA = (1e-14, 1e-2)
_TOL_ALPHA_HELP = ("relative tolerance of the alpha0 search: it stops on a "
                   "bracket at most X * alpha0 wide; X in "
                   f"[{_SANE_TOL_ALPHA[0]:g}, {_SANE_TOL_ALPHA[1]:g}] "
                   "(default 1e-12)")
_SANE_TMAX = (1.0, 1000.0)
_TMAX_HELP = ("horizon of each shot: one that has neither crossed zero nor "
              f"turned up by t = X fails; X in ({_SANE_TMAX[0]:g}, "
              f"{_SANE_TMAX[1]:g}] (default 50)")


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


def _search_options(args, parser) -> dict:
    """The search controls given on the command line, range-checked, as
    keywords of find_ground_state and build_table; an option left out
    keeps the library's default."""
    options = {}
    if args.tmax is not None:
        if not (_SANE_TMAX[0] < args.tmax <= _SANE_TMAX[1]):
            parser.error(f"--tmax must lie in ({_SANE_TMAX[0]:g}, "
                         f"{_SANE_TMAX[1]:g}]")
        options["t_max"] = args.tmax
    if args.tol_alpha is not None:
        if not (_SANE_TOL_ALPHA[0] <= args.tol_alpha <= _SANE_TOL_ALPHA[1]):
            parser.error(f"--tol-alpha must lie in [{_SANE_TOL_ALPHA[0]:g}, "
                         f"{_SANE_TOL_ALPHA[1]:g}]")
        options["tol_alpha"] = args.tol_alpha
    return options


def _cmd_ground_state(args, parser) -> int:
    from .functional import gn_value
    from .shooting import find_ground_state
    if args.m < 1 or args.n < 1 or args.m + args.n < 3:
        parser.error("need m >= 1, n >= 1 and m + n >= 3")
    d = Dims(args.m, args.n)
    gs = find_ground_state(d, **_search_options(args, parser))
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
    from .products import build_table
    if args.max_dim < 4:
        parser.error("--max-dim must be at least 4")
    errors: list = []
    rows = build_table(args.max_dim, collect_errors=errors,
                       **_search_options(args, parser))
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
    from .functional import gn_value, read_profile_file
    if args.m < 2 or args.n < 1:
        parser.error("need m >= 2 (positive first-factor curvature) and "
                     "n >= 1")
    d = Dims(args.m, args.n)
    profile = read_profile_file(args.profile)
    res = gn_value(profile, d)
    s_g = unit_volume_sphere_scalar(d.m)
    bound = y_infinity(d, s_g, res.sigma_inv)
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


# the periodic listing stops after this many harmonics; the count stays
# exact and the rest is reported as a number
_MAX_LISTED = 1000


def _cmd_periodic(args, parser) -> int:
    from .periodic import (_TIME_DELTA_FLOOR, constant_solution,
                           count_periodic_solutions, integrate_orbit,
                           minimal_period, orbit_for_period)
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
    longest = None
    for k in range(1, min(rec["count"], _MAX_LISTED) + 1):
        period = target / k
        try:
            orb = orbit_for_period(n, period)
        except ValueError:
            text.append(f"    k={k}: period {period:.7g}, u_max ~ 1 "
                        "(beyond double-precision window)")
            continue
        if longest is None and 1.0 - orb.u_max >= _TIME_DELTA_FLOOR:
            longest = orb
        rec["orbits"].append({"k": k, "period": _sig7(orb.period),
                              "u_max": _sig7(orb.u_max),
                              "delta": _sig7(orb.delta)})
        text.append(f"    k={k}: period {orb.period:.7g}, "
                    f"u_max {orb.u_max:.7g}, delta {orb.delta:.7g}")
    unlisted = rec["count"] - _MAX_LISTED
    if unlisted > 0:
        rec["unlisted"] = unlisted
        text.append(f"    ... {unlisted} more harmonics, k > {_MAX_LISTED}, "
                    "not listed")
    _emit(_render(args.format, rec, text), args.out)
    if args.dump is not None:
        if longest is not None:
            _dump(args.dump, *integrate_orbit(n, longest.u_max,
                                           longest.period))
        else:
            print(f"no listed orbit with delta >= {_TIME_DELTA_FLOOR:g} "
                  "to dump", file=sys.stderr)
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

    def command(name, help, func, formats, *own, search=False, dump=None):
        """Subcommand `name`: its `own` arguments, (name, keywords) pairs,
        then the options the subcommands share. The first of `formats` is
        the default; `search` adds the search controls, `dump` the help
        of --dump."""
        cmd = sub.add_parser(name, help=help)
        for arg, keywords in own:
            cmd.add_argument(arg, **keywords)
        if search:
            cmd.add_argument("--tol-alpha", type=float, default=None,
                             help=_TOL_ALPHA_HELP)
            cmd.add_argument("--tmax", type=float, default=None,
                             help=_TMAX_HELP)
        cmd.add_argument("--format", choices=formats, default=formats[0])
        cmd.add_argument("--out", default=None)
        if dump is not None:
            cmd.add_argument("--dump", default=None, help=dump)
        cmd.set_defaults(func=func)

    m_n = (("m", dict(type=int)), ("n", dict(type=int)))
    command("ground-state", "locate alpha0(m, n) and evaluate sigma_inv",
            _cmd_ground_state, ("text", "csv", "json"), *m_n, search=True,
            dump="write the profile as 't h dh' rows")
    command("table", "constants table for all m, n >= 2 with m + n <= MAX",
            _cmd_table, ("csv", "json", "text"),
            ("--max-dim", dict(type=int, default=9)), search=True)
    command("bound", "upper bound from a piecewise-linear profile file",
            _cmd_bound, ("text", "json"),
            ("profile", dict(help="breakpoint file, 't h' per line")), *m_n)
    command("periodic", "circle-factor periodic solutions", _cmd_periodic,
            ("text", "json"), ("n", dict(type=int)), ("r", dict(type=float)),
            dump="write the longest listed orbit that time integration can "
                 "follow, delta >= 1e-08, as 't u du' rows")
    command("constants", "closed-form sphere constants and reference values",
            _cmd_constants, ("text", "csv", "json"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
