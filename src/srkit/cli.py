"""Command-line interface.

Exit codes: 0 success, 1 negative verdict (not MSRD, exclusion found,
identity check failed), 2 usage error, 3 enumeration guard exceeded.
All output is deterministic for a fixed command line.
"""

from __future__ import annotations

import argparse
import json
import sys

from .ambient import parse_profile, profile_create, sphere_volume, format_profile
from .asymptotics import (
    BOUND_KEYS,
    AsymptoticScenario,
    emit_series,
    parse_grid,
)
from .bounds import TABLE_BOUNDS, bound_report
from .code import (
    dual,
    msrd_check,
    msrd_puncture_row,
    msrd_shorten_col,
    msrd_shorten_row,
)
from .constructions import (
    construct_combine,
    construct_d2,
    construct_dN,
    construct_dN_minus,
    construct_mds_lift,
    construct_msrd111,
    construct_msrd111_ext,
    gabidulin_mrd,
    simplex_lift,
)
from .distributions import (
    brute_distributions,
    macwilliams_ranklist,
    macwilliams_support,
    omega_exclusion_scan,
    omega_hat_exclusion_scan,
)
from .errors import BadDistance, SrkitError, TooLarge
from .field import field_from_order, prime_power
from .srcfile import parse_src, write_src

SCHEMA = "srkit.v1"


def _format_value(v):
    return "-" if v is None else str(v)


def _print_bounds_table(rep, out):
    rows = [(name, rep.entries[name], rep.linear[name]) for name in TABLE_BOUNDS]
    width = max(len(n) for n, _, _ in rows)
    vwidth = max(len(_format_value(v)) for _, v, _ in rows)
    print(f"d = {rep.d}", file=out)
    for name, value, lin in rows:
        star = " *" if name in rep.best and value is not None else "  "
        print(f"  {name:<{width}}  {_format_value(value):>{vwidth}}{star}  "
              f"linear {_format_value(lin)}", file=out)


def cmd_bounds(args, out):
    field = field_from_order(args.q)
    profile = profile_create(field, parse_profile(args.profile))
    ds = range(1, profile.N + 1) if args.all_d else [args.d]
    if not args.all_d and args.d is None:
        raise SrkitError("provide --d or --all-d")
    reports = [bound_report(profile, d) for d in ds]
    if args.format == "table":
        print(f"profile {format_profile(profile.original_blocks)} over "
              f"GF({field.q}), N={profile.N}", file=out)
        for rep in reports:
            _print_bounds_table(rep, out)
    elif args.format == "csv":
        print("d,bound,value,linear,best", file=out)
        for rep in reports:
            for name in TABLE_BOUNDS:
                v = rep.entries[name]
                print(f"{rep.d},{name},{_format_value(v)},"
                      f"{_format_value(rep.linear[name])},"
                      f"{int(name in rep.best and v is not None)}", file=out)
    else:
        doc = {"schema": SCHEMA, "q": field.q,
               "profile": format_profile(profile.original_blocks),
               "entries": [
                   {"d": rep.d, "bound": name, "value": rep.entries[name],
                    "linear": rep.linear[name],
                    "best": name in rep.best and rep.entries[name] is not None}
                   for rep in reports for name in TABLE_BOUNDS]}
        print(json.dumps(doc), file=out)
    return 0


def cmd_check(args, out):
    code = parse_src(args.src)
    witness = msrd_check(code, override=args.override)
    d_text = "-" if witness.d is None else str(witness.d)
    if witness.is_msrd:
        print(f"MSRD, d={d_text}, dim {code.k}", file=out)
        return 0
    from .bounds import linear_version
    cap = linear_version(witness.singleton_value, code.field.q)
    print(f"not MSRD, d={d_text}, dim {code.k} < singleton dimension {cap}",
          file=out)
    return 1


def cmd_dual(args, out):
    code = parse_src(args.src)
    d = dual(code)
    if args.out:
        write_src(d, args.out)
        print(f"dual written to {args.out} (dim {d.k})", file=out)
    else:
        from .srcfile import write_src_text
        out.write(write_src_text(d))
    return 0


def cmd_shorten(args, out):
    code = parse_src(args.src)
    if (args.row is None) == (args.col is None):
        raise SrkitError("provide exactly one of --row or --col")
    if args.row is not None:
        result = msrd_shorten_row(code, args.row, row=args.index,
                                  override=args.override)
    else:
        result = msrd_shorten_col(code, args.col, col=args.index,
                                  override=args.override)
    witness = msrd_check(result, override=args.override)
    print(f"shortened to {format_profile(result.profile.original_blocks)}: "
          f"MSRD={witness.is_msrd}, d={witness.d}, dim {result.k}", file=out)
    if args.out:
        write_src(result, args.out)
    return 0 if witness.is_msrd else 1


def cmd_puncture(args, out):
    code = parse_src(args.src)
    result = msrd_puncture_row(code, args.row, override=args.override)
    witness = msrd_check(result, override=args.override)
    print(f"punctured to {format_profile(result.profile.original_blocks)}: "
          f"MSRD={witness.is_msrd}, d={witness.d}, dim {result.k}", file=out)
    if args.out:
        write_src(result, args.out)
    return 0 if witness.is_msrd else 1


def _print_distributions(code, out, label=""):
    srd, rld, supd = brute_distributions(code)
    print(f"{label}sum-rank: " +
          " ".join(f"{r}:{c}" for r, c in enumerate(srd.counts) if c), file=out)
    print(f"{label}rank-list:", file=out)
    for r in sorted(rld.counts):
        print(f"  {','.join(map(str, r))}: {rld.counts[r]}", file=out)
    print(f"{label}support ({len(supd.counts)} distinct supports):", file=out)
    for u in sorted(supd.counts, key=lambda u: (u.rank_L, u.dim_vector)):
        print(f"  dim {','.join(map(str, u.dim_vector))}: {supd.counts[u]}",
              file=out)
    return srd, rld, supd


def cmd_distributions(args, out):
    code = parse_src(args.src)
    _, rld, supd = _print_distributions(code, out)
    status = 0
    ddist = None
    if args.dual:
        ddist = _print_distributions(dual(code), out, label="dual ")
    if args.check_macwilliams:
        if ddist is None:
            ddist = brute_distributions(dual(code))
        ok_s = macwilliams_support(supd, code.size()).counts == ddist[2].counts
        ok_r = macwilliams_ranklist(rld, code.size()).counts == ddist[1].counts
        print(f"macwilliams: support {'ok' if ok_s else 'FAIL'}, "
              f"rank-list {'ok' if ok_r else 'FAIL'}", file=out)
        if not (ok_s and ok_r):
            status = 1
    return status


def cmd_macwilliams(args, out):
    code = parse_src(args.src)
    _, rld, supd = brute_distributions(code)
    dual_sup = macwilliams_support(supd, code.size())
    dual_rl = macwilliams_ranklist(rld, code.size())
    print(f"dual support distribution ({len(dual_sup.counts)} supports):",
          file=out)
    for u in sorted(dual_sup.counts, key=lambda u: (u.rank_L, u.dim_vector)):
        print(f"  dim {','.join(map(str, u.dim_vector))}: {dual_sup.counts[u]}",
              file=out)
    print("dual rank-list distribution:", file=out)
    for r in sorted(dual_rl.counts):
        print(f"  {','.join(map(str, r))}: {dual_rl.counts[r]}", file=out)
    return 0


def cmd_omega(args, out):
    prime_power(args.q_int)
    if args.d < 1:
        raise BadDistance(f"distance must be at least 1, got {args.d}")
    shape = tuple(int(x) for x in args.shape.split(","))
    scan = omega_hat_exclusion_scan if args.dual else omega_exclusion_scan
    res = scan(shape, args.m, args.q_int, args.d, fast=args.fast)
    if res.excluded:
        witness = "(" + ",".join(map(str, res.witness)) + ")"
        print(f"Excluded, witness {witness}, omega={res.value}", file=out)
        return 1
    print(f"Inconclusive after {res.checked} dim vectors", file=out)
    return 0


def cmd_construct(args, out):
    field = field_from_order(args.q)
    name = args.name
    if name == "gabidulin":
        code = gabidulin_mrd(field, args.n, args.m, args.d)
    elif name == "mds-lift":
        code = construct_mds_lift(field, args.m, args.t, args.d)
    elif name == "d2":
        code = construct_d2(field, parse_profile(args.profile)).code
    elif name == "dn":
        code = construct_dN(field, parse_profile(args.profile))
    elif name == "dn-minus":
        code = construct_dN_minus(field, parse_profile(args.profile),
                                  alpha=args.alpha)
        if args.alpha >= 2:
            print("note: alpha >= 2 follows the sketched generalization",
                  file=out)
    elif name == "msrd111":
        code = construct_msrd111(field, parse_profile(args.profile), args.t2)
    elif name == "combine":
        code = construct_combine(field, parse_profile(args.profile), args.t2,
                                 args.m_hat)
    elif name == "msrd111-ext":
        code = construct_msrd111_ext(field, args.m, args.s)
    elif name == "simplex-lift":
        code, cert = simplex_lift(field, args.m, args.n, args.r)
        print(f"simplex lift: t={cert.t}, dim {cert.dim}, |C|={cert.size}, "
              f"srk={cert.sumrank}, induced plotkin {cert.induced_plotkin}, "
              f"meets={cert.meets_plotkin} (structural certificate)", file=out)
        if args.out:
            write_src(code, args.out)
        return 0 if cert.meets_plotkin else 1
    else:
        raise SrkitError(f"unknown construction {name!r}")
    line = f"constructed dim {code.k} in " \
           f"{format_profile(code.profile.original_blocks)} over GF({field.q})"
    if args.certify:
        witness = msrd_check(code, override=args.override)
        line += f"; MSRD={witness.is_msrd}, d={witness.d}"
    print(line, file=out)
    if args.out:
        write_src(code, args.out)
    if args.certify and not witness.is_msrd:
        return 1
    return 0


def cmd_asymptotics(args, out):
    prime_power(args.q_int)
    scenario = AsymptoticScenario(
        q=args.q_int, m_hat=args.m, n_hat=args.n,
        m_head=tuple(int(x) for x in args.head.split(",")) if args.head else (),
        n_head=tuple(int(x) for x in args.n_head.split(",")) if args.n_head else ())
    bounds = args.bounds.split(",")
    for b in bounds:
        if b not in BOUND_KEYS:
            raise SrkitError(f"unknown bound {b!r}; choose from "
                             + ",".join(BOUND_KEYS))
    csv = emit_series(scenario, bounds, parse_grid(args.grid))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
        print(f"wrote {args.out}", file=out)
    else:
        out.write(csv)
    return 0


def cmd_sphere_volume(args, out):
    field = field_from_order(args.q)
    profile = profile_create(field, parse_profile(args.profile))
    print(sphere_volume(profile, args.r), file=out)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="srkit",
        description="sum-rank metric codes: bounds, duality, distributions, "
                    "constructions, asymptotics")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--override", action="store_true",
                       help="lift the enumeration guard for this call")

    p = sub.add_parser("bounds", help="evaluate all cardinality bounds")
    p.add_argument("--q", required=True, help="field size, e.g. 2 or 2^4")
    p.add_argument("--profile", required=True, help="e.g. 2x2,1x2x7,1x1x5")
    p.add_argument("--d", type=int)
    p.add_argument("--all-d", action="store_true")
    p.add_argument("--format", choices=("table", "csv", "json"),
                   default="table")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("check", help="certify a .src code (MSRD + distance)")
    p.add_argument("src")
    add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("dual", help="dual code of a .src file")
    p.add_argument("src")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("shorten",
                       help="MSRD-preserving shortening on a row or column")
    p.add_argument("src")
    p.add_argument("--row", type=int, help="block index (1-based)")
    p.add_argument("--col", type=int, help="block index (1-based)")
    p.add_argument("--index", type=int, default=0,
                   help="row/column inside the block (0-based)")
    p.add_argument("--out")
    add_common(p)
    p.set_defaults(fn=cmd_shorten)

    p = sub.add_parser("puncture", help="MSRD-preserving row puncturing")
    p.add_argument("src")
    p.add_argument("--row", type=int, required=True,
                   help="block index (1-based)")
    p.add_argument("--out")
    add_common(p)
    p.set_defaults(fn=cmd_puncture)

    p = sub.add_parser("distributions",
                       help="sum-rank / rank-list / support distributions")
    p.add_argument("src")
    p.add_argument("--dual", action="store_true")
    p.add_argument("--check-macwilliams", action="store_true")
    p.set_defaults(fn=cmd_distributions)

    p = sub.add_parser("macwilliams",
                       help="dual distributions via the transforms only")
    p.add_argument("src")
    p.set_defaults(fn=cmd_macwilliams)

    p = sub.add_parser("omega", help="MSRD non-existence criterion scan")
    p.add_argument("--q", dest="q_int", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--shape", required=True, help="row counts, e.g. 3,3,2")
    p.add_argument("--d", type=int, required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--full", dest="fast", action="store_false", default=False)
    g.add_argument("--fast", dest="fast", action="store_true")
    p.add_argument("--dual", action="store_true",
                   help="use the dual-distance criterion")
    p.set_defaults(fn=cmd_omega)

    p = sub.add_parser("construct", help="build a code family member")
    p.add_argument("name", choices=("gabidulin", "mds-lift", "d2", "dn",
                                    "dn-minus", "msrd111", "combine",
                                    "msrd111-ext", "simplex-lift"))
    p.add_argument("--q", required=True)
    p.add_argument("--profile", help="block list for profile-driven families")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--t2", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--m-hat", type=int, dest="m_hat")
    p.add_argument("--out")
    p.add_argument("--certify", action="store_true")
    add_common(p)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser(
        "asymptotics",
        help="asymptotic bound series as CSV (entropy bounds need equal "
             "block shapes; no mixed-shape sphere bound exists)")
    p.add_argument("--q", dest="q_int", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="stabilized column count")
    p.add_argument("--n", type=int, required=True, help="stabilized row count")
    p.add_argument("--head", help="leading column counts before stabilizing")
    p.add_argument("--n-head", dest="n_head", help="leading row counts")
    p.add_argument("--bounds", required=True,
                   help="comma list from: " + ",".join(BOUND_KEYS))
    p.add_argument("--grid", default="0:1:0.005", help="a:b:step")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_asymptotics)

    p = sub.add_parser("sphere-volume", help="exact sum-rank ball size")
    p.add_argument("--q", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(fn=cmd_sphere_volume)

    return ap


def main(argv=None, out=None):
    out = sys.stdout if out is None else out
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 2
    try:
        return args.fn(args, out)
    except TooLarge as e:
        print(f"guard exceeded: {e}", file=sys.stderr)
        return 3
    except (SrkitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
