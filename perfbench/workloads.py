"""The benchmark's ops and their correctness checks.

An op is the sequence of public srkit calls that one ``srkit`` command makes
(``check``, ``shorten``, ``puncture``, ``construct --certify``,
``distributions --dual --check-macwilliams``, ``bounds --all-d``,
``sphere-volume``, ``omega``, ``asymptotics``, ``construct simplex-lift``).
Each call into a module runs inside a tracer span named ``<module>.<call>``;
with the null tracer the spans cost one method call each.

``run_op`` is the timed part.  ``check_op`` and ``exact_output`` run after
the clock stops.
"""

from __future__ import annotations

import hashlib
import json

from srkit.ambient import parse_profile, profile_create, sphere_volume
from srkit.asymptotics import AsymptoticScenario, emit_series, parse_grid
from srkit.bounds import TABLE_BOUNDS, bound_report
from srkit.code import dual, msrd_check, msrd_puncture_row, msrd_shorten_row
from srkit.constructions import simplex_lift
from srkit.distributions import (
    brute_distributions,
    macwilliams_ranklist,
    macwilliams_support,
    omega,
    omega_exclusion_scan,
)
from srkit.field import field_from_order
from srkit.srcfile import parse_src_text, write_src_text

from gen import build

# ---------------------------------------------------------------------------
# ops: each returns (output, nominal codewords walked)
# ---------------------------------------------------------------------------


def _parse(op, tr):
    with tr.span("srcfile.parse"):
        return parse_src_text(op["text"])


def _certify(code, tr):
    with tr.span("code.msrd_check", words=code.size(), q=code.field.q):
        return msrd_check(code)


def _write(code, tr):
    with tr.span("srcfile.write"):
        return write_src_text(code)


def _verdict(code, w):
    return {"msrd": w.is_msrd, "d": w.d, "k": code.k}


def op_check(op, tr):
    code = _parse(op, tr)
    return _verdict(code, _certify(code, tr)), code.size()


def op_shorten(op, tr):
    code = _parse(op, tr)
    with tr.span("code.shorten"):
        res = msrd_shorten_row(code, op["block"], row=0)
    out = _verdict(res, _certify(res, tr))
    out["blocks"] = [list(b) for b in res.profile.blocks]
    out["text"] = _write(res, tr)
    return out, code.size() + res.size()


def op_puncture(op, tr):
    code = _parse(op, tr)
    with tr.span("code.puncture"):
        res = msrd_puncture_row(code, op["block"])
    out = _verdict(res, _certify(res, tr))
    out["blocks"] = [list(b) for b in res.profile.blocks]
    out["text"] = _write(res, tr)
    return out, code.size() + res.size()


def op_construct(op, tr):
    with tr.span("constructions.build"):
        code = build(op["family"], op["q"], op["params"])
    out = _verdict(code, _certify(code, tr))
    out["text"] = _write(code, tr)
    return out, code.size()


def _supports(supd):
    return sorted([[list(map(list, p.basis)) for p in u.parts], c]
                  for u, c in supd.counts.items())


def op_spectrum(op, tr):
    code = _parse(op, tr)
    with tr.span("distributions.brute", words=code.size()) as sp:
        srd, rld, supd = brute_distributions(code)
        sp["keys"] = len(supd.counts)
    with tr.span("code.dual"):
        dc = dual(code)
    with tr.span("distributions.brute", words=dc.size()) as sp:
        dsrd, drld, dsupd = brute_distributions(dc)
        sp["keys"] = len(dsupd.counts)
    terms = op["expect"]["lattice"] * len(supd.counts) * code.profile.t
    with tr.span("distributions.macwilliams_support", terms=terms):
        ms = macwilliams_support(supd, code.size())
    with tr.span("distributions.macwilliams_ranklist"):
        mr = macwilliams_ranklist(rld, code.size())
    out = {"k": code.k, "dual_k": dc.k,
           "support_ok": ms.counts == dsupd.counts,
           "ranklist_ok": mr.counts == drld.counts,
           "sumrank": list(srd.counts), "dual_sumrank": list(dsrd.counts),
           "ranklist": sorted([list(u), c] for u, c in rld.counts.items()),
           "dual_ranklist": sorted([list(u), c] for u, c in drld.counts.items()),
           "supports": (supd, dsupd)}
    return out, code.size() + dc.size()


def _profile(op):
    return profile_create(field_from_order(op["q"]), parse_profile(op["profile"]))


def op_bounds(op, tr):
    prof = _profile(op)
    reports = []
    for d in range(1, prof.N + 1):
        with tr.span("bounds.report"):
            reports.append(bound_report(prof, d))
    return {"N": prof.N,
            "entries": [[rep.entries[b] for b in TABLE_BOUNDS] for rep in reports],
            "best": [sorted(rep.best) for rep in reports]}, 0


def op_sphere_volume(op, tr):
    prof = _profile(op)
    with tr.span("ambient.sphere_volume"):
        value = sphere_volume(prof, op["r"])
    return {"value": value, "dim": prof.dim}, 0


def op_omega(op, tr):
    with tr.span("distributions.omega_scan") as sp:
        res = omega_exclusion_scan(tuple(op["shape"]), op["m"], op["qi"], op["d"],
                                   fast=op["fast"])
        sp["checked"] = res.checked
    return {"excluded": res.excluded, "value": res.value,
            "witness": list(res.witness) if res.witness else None,
            "checked": res.checked}, 0


def op_asymptotics(op, tr):
    scenario = AsymptoticScenario(q=op["qi"], m_hat=op["m"], n_hat=op["n"])
    grid = parse_grid(op["grid"])
    with tr.span("asymptotics.emit_series", points=len(grid) * len(op["bounds"])):
        csv = emit_series(scenario, op["bounds"], grid)
    return {"csv": csv}, 0


def op_simplex_lift(op, tr):
    field = field_from_order(op["q"])
    with tr.span("constructions.simplex_lift"):
        code, cert = simplex_lift(field, op["m"], op["n"], op["r"])
    # the certificate walks the inner [n x m] MRD code of dimension m
    return {"t": cert.t, "dim": cert.dim, "size": cert.size,
            "sumrank": cert.sumrank, "plotkin": cert.induced_plotkin,
            "meets": cert.meets_plotkin, "inner_rank": cert.inner_rank_checked,
            "distinct": cert.columns_distinct, "k": code.k}, op["q"] ** op["m"]


RUNNERS = {
    "check": op_check, "shorten": op_shorten, "puncture": op_puncture,
    "construct": op_construct, "spectrum": op_spectrum, "bounds": op_bounds,
    "sphere-volume": op_sphere_volume, "omega": op_omega,
    "asymptotics": op_asymptotics, "simplex-lift": op_simplex_lift,
}


def run_op(op, tr):
    return RUNNERS[op["kind"]](op, tr)


# ---------------------------------------------------------------------------
# checks, outside the timed region
# ---------------------------------------------------------------------------

def _expect_equal(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def check_op(op, out):
    """List of mismatches between an op's output and its expected answer."""
    e = op["expect"]
    kind = op["kind"]
    problems = []
    if kind in ("check", "shorten", "puncture", "construct"):
        for key in ("msrd", "d", "k"):
            _expect_equal(problems, key, out[key], e[key])
        if "blocks" in e:
            _expect_equal(problems, "blocks", out["blocks"], e["blocks"])
    elif kind == "spectrum":
        q = op["q"]
        for key in ("k", "dual_k", "sumrank", "dual_sumrank", "ranklist",
                    "dual_ranklist"):
            _expect_equal(problems, key, out[key], e[key])
        _expect_equal(problems, "support transform", out["support_ok"], True)
        _expect_equal(problems, "rank-list transform", out["ranklist_ok"], True)
        _expect_equal(problems, "total", sum(out["sumrank"]), q ** e["k"])
        _expect_equal(problems, "dual total", sum(out["dual_sumrank"]),
                      q ** e["dual_k"])
    elif kind == "bounds":
        _expect_equal(problems, "N", out["N"], e["N"])
        col = TABLE_BOUNDS.index("singleton")
        for d, row in enumerate(out["entries"], start=1):
            _expect_equal(problems, f"singleton d={d}", row[col],
                          e["singleton"][d - 1])
            floor = e["msrd_floor"].get(str(d), 1)
            for name, v in zip(TABLE_BOUNDS, row):
                if v is not None and v < floor:
                    problems.append(f"{name} d={d} = {v} < MSRD size {floor}")
    elif kind == "sphere-volume":
        _expect_equal(problems, "volume", out["value"], e["value"])
        if e["space"] is not None:
            _expect_equal(problems, "whole space", out["value"], e["space"])
    elif kind == "omega":
        if op["fast"]:
            u, value = e["witness"], e["value"]
            excluded = value is not None and value < 0
            _expect_equal(problems, "excluded", out["excluded"], excluded)
            _expect_equal(problems, "value", out["value"],
                          value if excluded else None)
            if u is not None:
                shape = tuple(sorted(op["shape"], reverse=True))
                _expect_equal(problems, "omega at witness",
                              omega(shape, op["m"], op["qi"], op["d"], u), value)
        else:
            for key in ("excluded", "witness", "value", "checked"):
                _expect_equal(problems, key, out[key], e[key])
    elif kind == "asymptotics":
        _check_curves(problems, op, out["csv"])
    elif kind == "simplex-lift":
        for key in ("t", "dim", "size", "sumrank", "plotkin"):
            _expect_equal(problems, key, out[key], e[key])
        _expect_equal(problems, "meets", out["meets"], e["plotkin"] == e["size"])
        _expect_equal(problems, "inner rank", out["inner_rank"], True)
        _expect_equal(problems, "distinct columns", out["distinct"], True)
    return problems


def _check_curves(problems, op, csv):
    e = op["expect"]
    want = {}
    for name in op["bounds"]:
        for eta, v in zip(e["eta"], e["values"][name]):
            if v is not None:
                want[(name, round(eta, 9))] = v
    lines = csv.strip().split("\n")
    if lines[0] != "eta,bound,value":
        problems.append(f"bad header {lines[0]!r}")
    got = {}
    for line in lines[1:]:
        eta, name, value = line.split(",")
        got[(name, round(float(eta), 9))] = float(value)
    if set(got) != set(want):
        problems.append(f"rows differ: {sorted(set(got) ^ set(want))[:3]}")
    for key in set(got) & set(want):
        if abs(got[key] - want[key]) > 1e-6:
            problems.append(f"{key}: {got[key]} vs {want[key]}")


def exact_output(op, out):
    """Digest of every exact result of an op (asymptotic floats excluded)."""
    if op["kind"] == "asymptotics":
        exact = {}
    elif op["kind"] == "spectrum":
        exact = dict(out)
        exact["supports"] = [_supports(s) for s in out["supports"]]
    else:
        exact = out
    text = json.dumps(exact, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
