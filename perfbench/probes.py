"""Micro-probes of the two bottom layers, run only in the traced run.

field: ns per add/mul call over fixed random element pairs, for q in
{2, 3, 4, 256, 65536}, and the set-up time of GF(256) and GF(65536).
matq: us per ``rank`` and ``colspace`` call on blocks taken from the
workload's own codewords.  Timings are CPU time, include the Python loop
around the call and are medians over repeats.
"""

from __future__ import annotations

import random
import statistics
from time import process_time

from srkit.code import codewords
from srkit.field import Field, conway_polynomial, field_from_order
from srkit.matq import colspace, rank

PROBE_QS = (2, 3, 4, 256, 65536)
PAIRS = 4096
REPEATS = 7


def arithmetic_mode(field):
    """Which of srkit's three arithmetic paths the field uses."""
    if getattr(field, "_mul_tab", None) is not None:
        return "full-table"
    if getattr(field, "_exp", None) is not None:
        return "log-table"
    return "polynomial"


def _per_call_ns(fn, pairs):
    times = []
    for _ in range(REPEATS):
        t0 = process_time()
        for a, b in pairs:
            fn(a, b)
        times.append(process_time() - t0)
    return statistics.median(times) / len(pairs) * 1e9


def field_probe():
    out = {}
    for q in PROBE_QS:
        F = field_from_order(q)
        rng = random.Random(f"field-probe:{q}")
        pairs = [(rng.randrange(q), rng.randrange(1, q)) for _ in range(PAIRS)]
        out[f"field.mul_ns.q{q}"] = _per_call_ns(F.mul, pairs)
        out[f"field.add_ns.q{q}"] = _per_call_ns(F.add, pairs)
    for q, p, k, repeats in ((256, 2, 8, 3), (65536, 2, 16, 1)):
        times = []
        for _ in range(repeats):
            t0 = process_time()
            Field(p, k, conway_polynomial.__wrapped__(p, k))
            times.append(process_time() - t0)
        out[f"field.init_s.q{q}"] = statistics.median(times)
    return out


def sample_blocks(codes, limit=512, words_per_code=64):
    """Nonzero blocks of the first codewords of each code, round-robin."""
    per_code = []
    for code in codes:
        blocks = []
        for i, word in enumerate(codewords(code)):
            if i > words_per_code:
                break
            blocks.extend(b for b in word.blocks if not b.is_zero())
        per_code.append(blocks)
    out = []
    while len(out) < limit and any(per_code):
        for blocks in per_code:
            if blocks and len(out) < limit:
                out.append(blocks.pop())
    return out


def matq_probe(blocks):
    out = {}
    for name, fn in (("rank", rank), ("colspace", colspace)):
        times = []
        for _ in range(REPEATS):
            t0 = process_time()
            for b in blocks:
                fn(b)
            times.append(process_time() - t0)
        out[f"matq.{name}_us"] = statistics.median(times) / len(blocks) * 1e6
    return out
