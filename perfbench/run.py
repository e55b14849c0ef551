"""Layered benchmark of srkit.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --compare OLD.json NEW.json

Each workload is a closed loop: one caller in one process runs ops back to
back, in rounds that visit every generated input once in a seeded order,
until --seconds of CPU time have passed and at least MIN_OPS ops have run.
Every op's output is checked against its expected answer after the clock
stops.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each op twice, once
with spans and once without (alternating which goes first), and prints the
per-layer metrics: span times and counters, the field and matq probes, and
the tracing overhead.  Results go to .perfbench/results/, spans to
.perfbench/traces/; the last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("certify", "spectrum", "closed-forms")
DEFAULT_SEED = 1          # digests.json holds the exact outputs for this seed
MIN_OPS = 100             # so that op_p90_ms has ten samples beyond it
# A run also ends, on a busy machine, after WALL_FACTOR * --seconds of wall
# time, and after MAX_WALL_FACTOR * --seconds even below MIN_OPS.
WALL_FACTOR = 1.5
MAX_WALL_FACTOR = 4
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "codewords_per_s": "words/s",
                    "peak_rss_mb": "MB"}
SPANS = ("srcfile.parse", "srcfile.write", "code.msrd_check", "code.shorten",
         "code.puncture", "code.dual", "constructions.build",
         "constructions.simplex_lift", "distributions.brute",
         "distributions.macwilliams_support",
         "distributions.macwilliams_ranklist", "distributions.omega_scan",
         "bounds.report", "ambient.sphere_volume", "asymptotics.emit_series")
WALK_QS = (2, 3, 4, 256)


# ---------------------------------------------------------------------------
# inputs and set-up
# ---------------------------------------------------------------------------

def load_inputs(workload, seed):
    """Generate (once per seed) and load the ops of a workload."""
    out = STATE / "inputs" / f"{workload}-s{seed}"
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(out)],
                   check=True, timeout=170)
    ops = []
    for path in sorted(out.glob("*.json")):
        op = json.loads(path.read_text())
        if "src" in op:
            op["text"] = (out / op["src"]).read_text()
        ops.append(op)
    return ops


def fields_used(ops):
    """Base fields and towers the ops touch; towers come from constructions."""
    fields, towers = set(), set()
    for op in ops:
        if "q" in op:
            fields.add(op["q"])
        q, fam, p = op.get("q"), op.get("family"), op.get("params", {})
        if fam in ("gabidulin", "mds-lift"):
            towers.add((q, p["m"]))
        elif fam in ("d2", "dn"):
            towers.update((q, m) for _, m in p["blocks"])
        elif op["kind"] == "simplex-lift":
            towers.add((q, op["m"]))
    return sorted(fields), sorted(towers)


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def measure_setup(fields, towers):
    """Median CPU time of fresh processes that import srkit.cli and
    create the workload's fields, from interpreter start to exit."""
    argv = [sys.executable, str(HERE / "setup_probe.py"),
            "--fields", ",".join(map(str, fields)),
            "--towers", ",".join(f"{q}:{m}" for q, m in towers)]
    times = []
    for _ in range(SETUP_REPEATS):
        before = _children_cpu()
        subprocess.run(argv, check=True, timeout=120)
        times.append(_children_cpu() - before)
    return statistics.median(times)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Loop:
    """Counters of one run; the op body is timed, the checks are not.

    Times are CPU seconds of this single-threaded process (ops do no I/O),
    so other load on a shared machine does not count as op time.
    """

    def __init__(self, wl, workload, seed, digests):
        self.wl = wl
        self.workload, self.seed = workload, seed
        self.digests = digests
        self.latencies = []
        self.by_op = {}
        self.round_op_s = []
        self.attempted = self.failed = self.completed = 0
        self.op_time = self.walk_time = 0.0
        self.words = 0
        self.problems = []
        self.new_digests = {}

    def timed(self, op, tr):
        tr.op_id = op["id"]
        t0 = time.process_time()
        try:
            with tr.span("op." + op["kind"]):
                out, words = self.wl.run_op(op, tr)
        except Exception as exc:  # the loop reports and keeps going
            return None, 0, time.process_time() - t0, exc
        return out, words, time.process_time() - t0, None

    def record(self, op, out, words, dt, exc):
        self.attempted += 1
        self.latencies.append(dt)
        self.by_op.setdefault(op["id"], []).append(dt * 1e3)
        self.op_time += dt
        if exc is not None:
            self.failed += 1
            self.problems.append(f"{op['id']}: {type(exc).__name__}: {exc}")
            return
        self.completed += 1
        if words:
            self.words += words
            self.walk_time += dt
        problems = self.wl.check_op(op, out)
        digest = self.wl.exact_output(op, out)
        self.new_digests[op["id"]] = digest
        if self.digests is not None and self.digests.get(op["id"]) != digest:
            problems.append(f"exact output digest {digest} differs from "
                            f"{self.digests.get(op['id'])}")
        if problems:
            self.failed += 1
            self.problems.extend(f"{op['id']}: {p}" for p in problems[:3])

    def rounds(self, ops, seconds):
        """Yield ops in seeded rounds until --seconds of CPU time and MIN_OPS
        are both reached, or a wall-clock cap is."""
        rng = random.Random(f"schedule:{self.workload}:{self.seed}")
        cpu0, wall0 = time.process_time(), time.perf_counter()
        while True:
            order = list(ops)
            rng.shuffle(order)
            before = self.op_time
            yield from order
            self.round_op_s.append(self.op_time - before)
            cpu = time.process_time() - cpu0
            wall = time.perf_counter() - wall0
            if self.attempted >= MIN_OPS and (
                    cpu >= seconds or wall >= WALL_FACTOR * seconds):
                return
            if wall >= MAX_WALL_FACTOR * seconds:
                return


def end_to_end(loop, setup_s):
    lat_ms = [x * 1e3 for x in loop.latencies]
    return {
        "setup_s": setup_s,
        "ops_per_s": loop.completed / loop.op_time,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "codewords_per_s": loop.words / loop.walk_time if loop.walk_time else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, traced_time, plain_time, probe_metrics):
    summary = tracer.summary()
    m = {}
    for name in SPANS:
        s = summary.get(name, {"calls": 0, "errors": 0, "total_s": 0.0})
        m[f"{name}_s"] = (s["total_s"] / s["calls"], "s") if s["calls"] else (0.0, "s")
        m[f"{name}_calls"] = (s["calls"], "count")
        m[f"{name}_errors"] = (s["errors"], "count")

    def counter(span, key):
        return summary.get(span, {}).get("counters", {}).get(key, 0)

    def rate(amount, span):
        total = summary.get(span, {}).get("total_s", 0.0)
        return amount / total if total else 0.0

    words = counter("code.msrd_check", "words")
    m["code.nominal_words"] = (words, "words")
    m["code.nominal_words_per_s"] = (rate(words, "code.msrd_check"), "words/s")
    for q in WALK_QS:
        recs = [r for r in tracer.spans
                if r[0] == "code.msrd_check" and r[5].get("q") == q]
        t = sum(r[2] - r[1] for r in recs)
        m[f"code.nominal_words_per_s.q{q}"] = (
            sum(r[5]["words"] for r in recs) / t if t else 0.0, "words/s")
    m["distributions.brute_words"] = (counter("distributions.brute", "words"),
                                      "words")
    m["distributions.support_keys"] = (counter("distributions.brute", "keys"),
                                       "count")
    terms = counter("distributions.macwilliams_support", "terms")
    m["distributions.transform_terms"] = (terms, "count")
    m["distributions.transform_terms_per_s"] = (
        rate(terms, "distributions.macwilliams_support"), "1/s")
    m["distributions.omega_vectors"] = (
        counter("distributions.omega_scan", "checked"), "count")
    m["asymptotics.points"] = (counter("asymptotics.emit_series", "points"),
                               "count")
    m["trace.overhead_frac"] = (traced_time / plain_time - 1.0, "frac")
    for name, value in probe_metrics.items():
        unit = name.split(".")[1].rsplit("_", 1)[1]
        m[name] = (value, unit)
    return m


def probe_codes(ops):
    """Codes whose codewords feed the matq probe: the workload's inputs, or
    the simplex lifts when no input carries a code."""
    from srkit.constructions import simplex_lift
    from srkit.field import field_from_order
    from srkit.srcfile import parse_src_text
    codes = [parse_src_text(op["text"]) for op in ops if "text" in op]
    if not codes:
        codes = [simplex_lift(field_from_order(op["q"]), op["m"], op["n"],
                              op["r"])[0]
                 for op in ops if op["kind"] == "simplex-lift"]
    return codes


def run_workload(workload, seed, seconds, trace, check_digests=True):
    ops = load_inputs(workload, seed)
    fields, towers = fields_used(ops)
    setup_s = None if trace else measure_setup(fields, towers)

    import setup_probe
    setup_probe.setup(fields, towers)
    import probes
    import tracing
    import workloads

    digests = None
    if check_digests and seed == DEFAULT_SEED:
        digests = json.loads((HERE / "digests.json").read_text()).get(workload, {})
    loop = Loop(workloads, workload, seed, digests)
    plain = tracing.NullTracer()
    tracer = tracing.Tracer() if trace else None
    traced_time = plain_time = 0.0
    for i, op in enumerate(loop.rounds(ops, seconds)):
        if not trace:
            loop.record(op, *loop.timed(op, plain))
            continue
        # alternate which copy runs first so cache warm-up favours neither
        if i % 2 == 0:
            untraced, traced = loop.timed(op, plain), loop.timed(op, tracer)
        else:
            traced, untraced = loop.timed(op, tracer), loop.timed(op, plain)
        plain_time += untraced[2]
        traced_time += traced[2]
        loop.record(op, *traced)

    modes = {}
    from srkit.field import field_from_order
    for q in sorted(set(fields) | {q ** m for q, m in towers}):
        modes[str(q)] = probes.arithmetic_mode(field_from_order(q))
    if trace:
        probe_metrics = probes.field_probe()
        probe_metrics.update(probes.matq_probe(probes.sample_blocks(probe_codes(ops))))
        metrics = per_layer(tracer, traced_time, plain_time, probe_metrics)
        (STATE / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(STATE / "traces" / f"{workload}-s{seed}.json")
        span_summary = tracer.summary()
    else:
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in end_to_end(loop, setup_s).items()}
        span_summary = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "commit": git_commit(), "field_modes": modes,
        "attempted": loop.attempted, "failed": loop.failed,
        "error_frac": loop.failed / loop.attempted,
        "op_samples": len(loop.latencies), "problems": loop.problems[:20],
        "round_op_s": loop.round_op_s,
        "op_median_ms": {k: statistics.median(v) for k, v in sorted(loop.by_op.items())},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": span_summary, "digests": loop.new_digests,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def print_result(res):
    print(f"workload {res['workload']} seed {res['seed']} trace {res['trace']}: "
          f"{res['attempted']} ops, {res['failed']} failed, "
          f"error_frac {res['error_frac']}, op_samples {res['op_samples']}, "
          f"fields {res['field_modes']}")
    for p in res["problems"]:
        print(f"  FAIL {p}", file=sys.stderr)
    for name, m in res["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    if res["spans"]:
        print(f"  {'span':<36} {'calls':>7} {'total_s':>10} {'self_s':>10}")
        for name, s in sorted(res["spans"].items()):
            print(f"  {name:<36} {s['calls']:>7} {s['total_s']:>10.4f} "
                  f"{s['self_s']:>10.4f}")


def compare(path_a, path_b):
    """Each metric of two result files side by side, with ratio B/A."""
    a = json.loads(Path(path_a).read_text())["results"]
    b = json.loads(Path(path_b).read_text())["results"]
    print(f"A = {path_a}\nB = {path_b}\nratio B/A, base A")
    print(f"{'metric':<44} {'unit':<8} {'workload':<13} {'A':>14} {'B':>14} "
          f"{'B/A':>8}")
    names = []
    for res in a:
        names.extend(n for n in res["metrics"] if n not in names)
    for name in names:
        for ra in a:
            rb = next((r for r in b if r["workload"] == ra["workload"]
                       and r["trace"] == ra["trace"]), None)
            if rb is None or name not in ra["metrics"] or name not in rb["metrics"]:
                continue
            va = ra["metrics"][name]["value"]
            vb = rb["metrics"][name]["value"]
            ratio = f"{vb / va:8.3f}" if va else "       -"
            print(f"{name:<44} {ra['metrics'][name]['unit']:<8} "
                  f"{ra['workload']:<13} {va:>14.6g} {vb:>14.6g} {ratio}")


def main(argv=None):
    ap = argparse.ArgumentParser(description="srkit benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result file (default under .perfbench/results)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--write-digests", action="store_true",
                    help="store this run's exact-output digests (default seed)")
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not (ROOT / "src" / "srkit" / "__init__.py").is_file():
        print(f"error: no srkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, args.trace,
                            check_digests=not args.write_digests) for w in names]
    for res in results:
        print_result(res)
    out = Path(args.out) if args.out else (
        STATE / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"results": results}, indent=1, default=str))
    if args.write_digests:
        if args.seed != DEFAULT_SEED:
            print("error: digests are stored for the default seed", file=sys.stderr)
            return 2
        path = HERE / "digests.json"
        stored = json.loads(path.read_text()) if path.exists() else {}
        for res in results:
            stored[res["workload"]] = res["digests"]
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
