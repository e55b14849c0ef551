"""Command-line interface.

Exit codes: 0 success, 1 negative verdict (not MSRD, exclusion found,
identity check failed), 2 usage error, 3 enumeration guard exceeded.
All output is deterministic for a fixed command line.  Every integer on
the command line is ASCII decimal digits (`guard._decimal`), as in `.src`
files: no '+', '_', spaces or other scripts' digits; an integer flag may
carry a leading '-', so a negative value is refused by the command's own
range check.

Each command runs in a fresh process and loads only what it calls.  At
module level this file imports `errors`, `field` and `guard` (which holds
the bound names the `asymptotics --bounds` help lists), and building the
parser imports no other module, so `import srkit.cli` loads those three,
`srkit` and `srkit.cli`.  Each `cmd_*` imports its library calls when it
runs, and so loads:

    check, dual, shorten, puncture  srcfile, code, ambient, matq (check
                                    adds bounds for a code that is not MSRD)
    distributions, macwilliams      those four and distributions
    omega                           distributions, code, ambient, matq
    construct                       constructions, bounds, code, ambient,
                                    matq, srcfile
    bounds                          bounds, code, ambient, matq
    sphere-volume                   ambient, matq
    asymptotics                     asymptotics, matq
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BadParameters, SrkitError, TooLarge
from .field import field_from_order, prime_power
from .guard import BOUND_KEYS, _decimal, _signed_decimal

SCHEMA = "srkit.v1"


def _integer(text):
    """An integer flag's value: ASCII decimal digits after an optional '-'."""
    try:
        return _signed_decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a decimal integer: {text!r}") from None


def _field(text):
    """GF(q) for a --q value, q or p^k in ASCII decimal digits as
    `prime_power` reads them, with no space around it either."""
    if text != text.strip():
        raise BadParameters(f"--q takes no spaces, got {text!r}")
    return field_from_order(text)


def _format_value(v):
    return "-" if v is None else str(v)


def _print_bounds_table(rep, names, out):
    rows = [(name, rep.entries[name], rep.linear[name]) for name in names]
    width = max(len(n) for n, _, _ in rows)
    vwidth = max(len(_format_value(v)) for _, v, _ in rows)
    print(f"d = {rep.d}", file=out)
    for name, value, lin in rows:
        star = " *" if name in rep.best and value is not None else "  "
        print(f"  {name:<{width}}  {_format_value(value):>{vwidth}}{star}  "
              f"linear {_format_value(lin)}", file=out)


def cmd_bounds(args, out):
    from .ambient import format_profile, parse_profile, profile_create
    from .bounds import TABLE_BOUNDS, bound_report
    field = _field(args.q)
    profile = profile_create(field, parse_profile(args.profile))
    ds = range(1, profile.N + 1) if args.all_d else [args.d]
    if not args.all_d and args.d is None:
        raise SrkitError("provide --d or --all-d")
    reports = [bound_report(profile, d) for d in ds]
    if args.format == "table":
        print(f"profile {format_profile(profile.original_blocks)} over "
              f"GF({field.q}), N={profile.N}", file=out)
        for rep in reports:
            _print_bounds_table(rep, TABLE_BOUNDS, out)
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
    from .code import msrd_check
    from .srcfile import parse_src
    code = parse_src(args.src)
    witness = msrd_check(code, override=args.override)
    d_text = _format_value(witness.d)
    if witness.is_msrd:
        print(f"MSRD, d={d_text}, dim {code.k}", file=out)
        return 0
    from .bounds import linear_version
    cap = linear_version(witness.singleton_value, code.field.q)
    print(f"not MSRD, d={d_text}, dim {code.k} < singleton dimension {cap}",
          file=out)
    return 1


def cmd_dual(args, out):
    from .code import dual
    from .srcfile import parse_src, write_src, write_src_text
    code = parse_src(args.src)
    d = dual(code)
    if args.out:
        write_src(d, args.out)
        print(f"dual written to {args.out} (dim {d.k})", file=out)
    else:
        out.write(write_src_text(d))
    return 0


def cmd_shorten(args, out):
    from .code import msrd_shorten_col, msrd_shorten_row
    from .srcfile import parse_src
    code = parse_src(args.src)
    if (args.row is None) == (args.col is None):
        raise SrkitError("provide exactly one of --row or --col")
    if args.row is not None:
        result = msrd_shorten_row(code, args.row, row=args.index,
                                  override=args.override)
    else:
        result = msrd_shorten_col(code, args.col, col=args.index,
                                  override=args.override)
    return _report_derived("shortened", result, args, out)


def cmd_puncture(args, out):
    from .code import msrd_puncture_row
    from .srcfile import parse_src
    code = parse_src(args.src)
    result = msrd_puncture_row(code, args.row, override=args.override)
    return _report_derived("punctured", result, args, out)


def _report_derived(verb, result, args, out):
    """Certify, report and write a shortened or punctured code."""
    from .ambient import format_profile
    from .code import msrd_check
    from .srcfile import write_src
    witness = msrd_check(result, override=args.override)
    print(f"{verb} to {format_profile(result.profile.original_blocks)}: "
          f"MSRD={witness.is_msrd}, d={_format_value(witness.d)}, "
          f"dim {result.k}", file=out)
    if args.out:
        write_src(result, args.out)
    return 0 if witness.is_msrd else 1


def _support_order(u):
    """Listing order of support tuples: total rank, dim vector, then the
    canonical bases, so the output does not depend on how it was found."""
    return u.rank_L, u.dim_vector, tuple(p.basis for p in u.parts)


def _print_ranklists(counts, out):
    for r in sorted(counts):
        print(f"  {','.join(map(str, r))}: {counts[r]}", file=out)


def _print_supports(counts, out):
    for u in sorted(counts, key=_support_order):
        print(f"  dim {','.join(map(str, u.dim_vector))}: {counts[u]}",
              file=out)


def _print_distributions(code, out, label=""):
    from .distributions import brute_distributions
    srd, rld, supd = brute_distributions(code)
    print(f"{label}sum-rank: " +
          " ".join(f"{r}:{c}" for r, c in enumerate(srd.counts) if c), file=out)
    print(f"{label}rank-list:", file=out)
    _print_ranklists(rld.counts, out)
    print(f"{label}support ({len(supd.counts)} distinct supports):", file=out)
    _print_supports(supd.counts, out)
    return srd, rld, supd


def cmd_distributions(args, out):
    from .code import dual
    from .distributions import (
        brute_distributions,
        macwilliams_ranklist,
        macwilliams_support,
    )
    from .srcfile import parse_src
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
    from .distributions import (
        brute_distributions,
        macwilliams_ranklist,
        macwilliams_support,
    )
    from .srcfile import parse_src
    code = parse_src(args.src)
    _, rld, supd = brute_distributions(code)
    dual_sup = macwilliams_support(supd, code.size())
    dual_rl = macwilliams_ranklist(rld, code.size())
    print(f"dual support distribution ({len(dual_sup.counts)} supports):",
          file=out)
    _print_supports(dual_sup.counts, out)
    print("dual rank-list distribution:", file=out)
    _print_ranklists(dual_rl.counts, out)
    return 0


def _positive_ints(text, flag):
    """The comma list of positive integers given to `flag`, e.g. 3,3,2."""
    try:
        values = tuple(map(_decimal, text.split(",")))
        if min(values) >= 1:
            return values
    except ValueError:
        pass
    raise SrkitError(f"{flag} needs a comma list of positive integers, "
                     f"got {text!r}")


def cmd_omega(args, out):
    from .distributions import omega_exclusion_scan, omega_hat_exclusion_scan
    prime_power(args.q_int)
    scan = omega_hat_exclusion_scan if args.dual else omega_exclusion_scan
    res = scan(_positive_ints(args.shape, "--shape"), args.m, args.q_int,
               args.d, fast=args.fast)
    if res.excluded:
        witness = "(" + ",".join(map(str, res.witness)) + ")"
        print(f"Excluded, witness {witness}, omega={res.value}", file=out)
        return 1
    print(f"Inconclusive after {res.checked} dim vectors", file=out)
    return 0


def _blocks(args):
    from .ambient import parse_profile
    return parse_profile(args.profile)


# each family's flags, by argparse dest, and its builder, given the
# `constructions` module, the field and the parsed arguments
CONSTRUCT_FAMILIES = {
    "gabidulin": (("n", "m", "d"), lambda c, F, a:
                  c.gabidulin_mrd(F, a.n, a.m, a.d)),
    "mds-lift": (("m", "t", "d"), lambda c, F, a:
                 c.construct_mds_lift(F, a.m, a.t, a.d)),
    "d2": (("profile",), lambda c, F, a: c.construct_d2(F, _blocks(a)).code),
    "dn": (("profile",), lambda c, F, a: c.construct_dN(F, _blocks(a))),
    "dn-minus": (("profile",), lambda c, F, a:
                 c.construct_dN_minus(F, _blocks(a), alpha=a.alpha)),
    "msrd111": (("profile", "t2"), lambda c, F, a:
                c.construct_msrd111(F, _blocks(a), a.t2)),
    "combine": (("profile", "t2", "m_hat"), lambda c, F, a:
                c.construct_combine(F, _blocks(a), a.t2, a.m_hat)),
    "msrd111-ext": (("m", "s"), lambda c, F, a:
                    c.construct_msrd111_ext(F, a.m, a.s)),
    "simplex-lift": (("m", "n", "r"), lambda c, F, a:
                     c.simplex_lift(F, a.m, a.n, a.r, override=a.override)),
}


def cmd_construct(args, out):
    name = args.name
    needs, build = CONSTRUCT_FAMILIES[name]
    missing = [f"--{dest.replace('_', '-')}"
               for dest in needs if getattr(args, dest) is None]
    if missing:
        raise BadParameters(f"construct {name} needs {', '.join(missing)}")
    from . import constructions
    from .ambient import format_profile
    from .code import msrd_check
    from .srcfile import write_src
    field = _field(args.q)
    built = build(constructions, field, args)
    ok = True
    if name == "simplex-lift":
        code, cert = built
        line = f"simplex lift: t={cert.t}, dim {cert.dim}, |C|={cert.size}, " \
               f"srk={cert.sumrank}, induced plotkin {cert.induced_plotkin}, " \
               f"meets={cert.meets_plotkin} (structural certificate)"
        ok = cert.meets_plotkin
    else:
        code = built
        if name == "dn-minus" and args.alpha >= 2:
            print("note: alpha >= 2 follows the sketched generalization",
                  file=out)
        line = f"constructed dim {code.k} in " \
               f"{format_profile(code.profile.original_blocks)} over GF({field.q})"
        if args.certify:
            witness = msrd_check(code, override=args.override)
            line += f"; MSRD={witness.is_msrd}, d={_format_value(witness.d)}"
            ok = witness.is_msrd
    print(line, file=out)
    if args.out:
        write_src(code, args.out)
    return 0 if ok else 1


def cmd_asymptotics(args, out):
    from .asymptotics import AsymptoticScenario, emit_series, parse_grid
    prime_power(args.q_int)
    scenario = AsymptoticScenario(
        q=args.q_int, m_hat=args.m, n_hat=args.n,
        m_head=_positive_ints(args.head, "--head") if args.head else (),
        n_head=_positive_ints(args.n_head, "--n-head") if args.n_head else ())
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
    from .ambient import parse_profile, profile_create, sphere_volume
    field = _field(args.q)
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
    p.add_argument("--d", type=_integer)
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
    p.add_argument("--row", type=_integer, help="block index (1-based)")
    p.add_argument("--col", type=_integer, help="block index (1-based)")
    p.add_argument("--index", type=_integer, default=0,
                   help="row/column inside the block (0-based)")
    p.add_argument("--out")
    add_common(p)
    p.set_defaults(fn=cmd_shorten)

    p = sub.add_parser("puncture", help="MSRD-preserving row puncturing")
    p.add_argument("src")
    p.add_argument("--row", type=_integer, required=True,
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
    p.add_argument("--q", dest="q_int", type=_integer, required=True)
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--shape", required=True, help="row counts, e.g. 3,3,2")
    p.add_argument("--d", type=_integer, required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--full", dest="fast", action="store_false", default=False)
    g.add_argument("--fast", dest="fast", action="store_true")
    p.add_argument("--dual", action="store_true",
                   help="use the dual-distance criterion")
    p.set_defaults(fn=cmd_omega)

    p = sub.add_parser("construct", help="build a code family member")
    p.add_argument("name", choices=tuple(CONSTRUCT_FAMILIES))
    p.add_argument("--q", required=True)
    p.add_argument("--profile", help="block list for profile-driven families")
    p.add_argument("--n", type=_integer)
    p.add_argument("--m", type=_integer)
    p.add_argument("--d", type=_integer)
    p.add_argument("--t", type=_integer)
    p.add_argument("--t2", type=_integer)
    p.add_argument("--s", type=_integer)
    p.add_argument("--r", type=_integer)
    p.add_argument("--alpha", type=_integer, default=1)
    p.add_argument("--m-hat", type=_integer, dest="m_hat")
    p.add_argument("--out")
    p.add_argument("--certify", action="store_true")
    add_common(p)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser(
        "asymptotics",
        help="asymptotic bound series as CSV (entropy bounds need equal "
             "block shapes; no mixed-shape sphere bound exists)")
    p.add_argument("--q", dest="q_int", type=_integer, required=True)
    p.add_argument("--m", type=_integer, required=True, help="stabilized column count")
    p.add_argument("--n", type=_integer, required=True, help="stabilized row count")
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
    p.add_argument("--r", type=_integer, required=True)
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
