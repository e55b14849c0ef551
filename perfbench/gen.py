"""Seeded input generator for the srkit benchmark.

    python3 perfbench/gen.py --workload certify --seed 1 --out DIR

Writes one ``<id>.json`` per op (its kind, parameters and expected answer)
and, for ops that read a code, the ``<id>.src`` text beside it.  Codes are
built from families whose distance, dimension and MSRD verdict are known
from their parameters, then scrambled by a random sum-rank isometry: each
block X_i becomes A_i X_i B_i with A_i, B_i invertible, blocks of equal shape
are permuted, and the generators are replaced by a random invertible
combination of them.  The isometry keeps d, k, the MSRD verdict and the
rank-list distribution, so the expected answers of the unscrambled code
hold for the text the program receives.  The same seed gives the same files.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import theory as th  # noqa: E402
from srkit.asymptotics import BOUND_KEYS  # noqa: E402
from srkit.constructions import (  # noqa: E402
    construct_d2,
    construct_dN,
    construct_mds_lift,
    construct_msrd111_ext,
    gabidulin_mrd,
)
from srkit.field import field_from_order  # noqa: E402
from srkit.matq import Mat, rank  # noqa: E402

WORKLOADS = ("certify", "spectrum", "closed-forms")

# ---------------------------------------------------------------------------
# code families with known answers
# ---------------------------------------------------------------------------


def family_answer(fam, p):
    """(user-order blocks, d, k) from the parameters; MSRD by construction,
    so k is the Singleton exponent at d."""
    if fam == "gabidulin":
        blocks, d = [(p["n"], p["m"])], p["d"]
    elif fam == "d2":
        blocks, d = [tuple(b) for b in p["blocks"]], 2
    elif fam == "dn":
        blocks = [tuple(b) for b in p["blocks"]]
        d = sum(n for n, _ in blocks)
    elif fam == "msrd111-ext":
        blocks = [(1, p["m"])] * (p["s"] + 1) + [(1, 1)] * (p["m"] + 1)
        d = p["s"] + 2
    elif fam == "mds-lift":
        blocks, d = [(1, p["m"])] * p["t"], p["d"]
    else:
        raise ValueError(fam)
    return blocks, d, th.singleton_exponent(blocks, d)


def build(fam, q, p):
    """The family member, built as `srkit construct` builds it."""
    F = field_from_order(q)
    if fam == "gabidulin":
        return gabidulin_mrd(F, p["n"], p["m"], p["d"])
    if fam == "d2":
        return construct_d2(F, p["blocks"]).code
    if fam == "dn":
        return construct_dN(F, p["blocks"])
    if fam == "msrd111-ext":
        return construct_msrd111_ext(F, p["m"], p["s"])
    if fam == "mds-lift":
        return construct_mds_lift(F, p["m"], p["t"], p["d"])
    raise ValueError(fam)


# ---------------------------------------------------------------------------
# the isometry scrambler
# ---------------------------------------------------------------------------

def _rand_invertible(rng, F, n):
    while True:
        rows = [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]
        if rank(Mat(F, rows)) == n:
            return rows


def _matmul(F, a, b):
    return [[_dot(F, row, col) for col in zip(*b)] for row in a]


def _dot(F, xs, ys):
    acc = 0
    for x, y in zip(xs, ys):
        if x and y:
            acc = F.add(acc, F.mul(x, y))
    return acc


def user_generators(code):
    """Generators as lists of row-lists, blocks in the user's order."""
    prof = code.profile
    return [[[list(r) for r in b.rows] for b in prof.to_user_order(g.blocks)]
            for g in code.basis]


def planted_word(F, blocks, w):
    """A tuple of sum-rank weight exactly w: w unit-rank pieces.

    Pieces go to distinct blocks where possible and stack on the diagonal of
    a block otherwise, so the ranks add up.
    """
    word = [[[0] * m for _ in range(n)] for n, m in blocks]
    used = [0] * len(blocks)
    for piece in range(w):
        i = piece % len(blocks)
        while used[i] >= blocks[i][0]:
            i = (i + 1) % len(blocks)
        word[i][used[i]][used[i]] = 1
        used[i] += 1
    return word


def scramble(rng, F, blocks, gens):
    """Apply a random sum-rank isometry and a random change of basis."""
    t = len(blocks)
    A = [_rand_invertible(rng, F, n) for n, _ in blocks]
    B = [_rand_invertible(rng, F, m) for _, m in blocks]
    perm = list(range(t))
    for shape in sorted(set(blocks)):
        pos = [i for i in range(t) if blocks[i] == shape]
        shuffled = pos[:]
        rng.shuffle(shuffled)
        for a, b in zip(pos, shuffled):
            perm[a] = b
    mapped = []
    for g in gens:
        moved = [_matmul(F, _matmul(F, A[i], g[i]), B[i]) for i in range(t)]
        mapped.append([moved[perm[i]] for i in range(t)])
    k = len(mapped)
    G = _rand_invertible(rng, F, k)
    out = []
    for coeffs in G:
        new = [[[0] * m for _ in range(n)] for n, m in blocks]
        for c, g in zip(coeffs, mapped):
            if not c:
                continue
            for i, (n, m) in enumerate(blocks):
                for r in range(n):
                    row, src = new[i][r], g[i][r]
                    for col in range(m):
                        if src[col]:
                            row[col] = F.add(row[col], F.mul(c, src[col]))
        out.append(new)
    return out


def format_blocks(blocks):
    """Run-length text form of a block list, e.g. 2x2,1x2x3."""
    parts, i = [], 0
    while i < len(blocks):
        j = i
        while j < len(blocks) and blocks[j] == blocks[i]:
            j += 1
        n, m = blocks[i]
        parts.append(f"{n}x{m}" + (f"x{j - i}" if j - i > 1 else ""))
        i = j
    return ",".join(parts)


def src_text(F, blocks, gens):
    """.src text with the generators exactly as given (not reduced)."""
    mod = ",".join(str(c) for c in reversed(F.modulus))
    lines = ["srcv1", f"field {F.p} {F.k} mod={mod}",
             f"profile {format_blocks(blocks)}", f"dim {len(gens)}"]
    for i, g in enumerate(gens, start=1):
        lines.append(f"gen {i}")
        for j, block in enumerate(g):
            if j:
                lines.append("")
            lines.append(";".join(" ".join(map(str, r)) for r in block))
    return "\n".join(lines) + "\n"


def scrambled_code(rng, fam, q, p, plant=0):
    """(src text, blocks, d, k, msrd) for a scrambled family member.

    plant=w adds a word of weight w; with 2w <= d the distance becomes w.
    """
    blocks, d, k = family_answer(fam, p)
    code = build(fam, q, p)
    if code.k != k:
        raise RuntimeError(f"{fam} {p}: dimension {code.k}, theory says {k}")
    F = code.field
    gens = user_generators(code)
    msrd = True
    if plant:
        if 2 * plant > d:
            raise ValueError("a planted word fixes the distance only if 2w <= d")
        gens.append(planted_word(F, blocks, plant))
        d, k = plant, k + 1
        msrd = k == th.singleton_exponent(blocks, d)
    return src_text(F, blocks, scramble(rng, F, blocks, gens)), blocks, d, k, msrd


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

def _g(n, m, d):
    return {"n": n, "m": m, "d": d}


def _b(*blocks):
    return {"blocks": [list(b) for b in blocks]}


# certify: the five heaviest ops hold op_p90_ms and five checks of 50 to 70
# ms hold the median, so the latency metrics follow the walk like the rates
# check ops: (id, family, q, params, planted weight)
CERTIFY_CHECK = [
    ("gab-q2-4x5-d2", "gabidulin", 2, _g(4, 5, 2), 0),
    ("mds-q2-1x5x4-d2", "mds-lift", 2, {"m": 5, "t": 4, "d": 2}, 0),
    ("gab-q2-4x4-d2", "gabidulin", 2, _g(4, 4, 2), 0),
    ("mds-q2-1x4x4-d2", "mds-lift", 2, {"m": 4, "t": 4, "d": 2}, 0),
    ("gab-q2-5x5-d4-w2", "gabidulin", 2, _g(5, 5, 4), 2),
    ("mds-q2-1x3x6-d4-w2", "mds-lift", 2, {"m": 3, "t": 6, "d": 4}, 2),
    ("ext-q2-m7-s3", "msrd111-ext", 2, {"m": 7, "s": 3}, 0),
    ("dn-q2-2x8-1x8", "dn", 2, _b((2, 8), (1, 8)), 0),
    ("gab-q3-3x4-d2", "gabidulin", 3, _g(3, 4, 2), 0),
    ("d2-q3-1x3x3-1x2", "d2", 3, _b((1, 3), (1, 3), (1, 3), (1, 2)), 0),
    ("d2-q3-1x2x5", "d2", 3, _b(*[(1, 2)] * 5), 0),
    ("mds-q3-1x2x5-d2", "mds-lift", 3, {"m": 2, "t": 5, "d": 2}, 0),
    ("d2-q3-2x2x2-w1", "d2", 3, _b((2, 2), (2, 2)), 1),
    ("gab-q4-3x3-d2", "gabidulin", 4, _g(3, 3, 2), 0),
    ("d2-q4-2x2x2", "d2", 4, _b((2, 2), (2, 2)), 0),
    ("d2-q4-1x2x3-w1", "d2", 4, _b(*[(1, 2)] * 3), 1),
]
# shorten/puncture ops on MSRD inputs: (id, kind, family, q, params)
CERTIFY_EDIT = [
    ("shorten-mds-q2-1x5x4-d2", "shorten", "mds-lift", 2,
     {"m": 5, "t": 4, "d": 2}),
    ("shorten-gab-q3-3x3-d2", "shorten", "gabidulin", 3, _g(3, 3, 2)),
    ("puncture-mds-q2-1x7x5-d4", "puncture", "mds-lift", 2,
     {"m": 7, "t": 5, "d": 4}),
    ("puncture-mds-q2-1x3x5-d3", "puncture", "mds-lift", 2,
     {"m": 3, "t": 5, "d": 3}),
    ("puncture-ext-q2-m4-s3", "puncture", "msrd111-ext", 2, {"m": 4, "s": 3}),
]
# construct --certify ops: (id, family, q, params)
CERTIFY_CONSTRUCT = [
    ("construct-gab-q256-2x2-d2", "gabidulin", 256, _g(2, 2, 2)),
    ("construct-d2-q2-2x2x3", "d2", 2, _b(*[(2, 2)] * 3)),
]
# spectrum ops: equal column counts, so the closed-form MSRD counts apply
SPECTRUM = [
    ("d2-q2-2x2x3", "d2", 2, _b(*[(2, 2)] * 3)),
    ("dn-q2-2x2x3", "dn", 2, _b(*[(2, 2)] * 3)),
    ("d2-q2-2x3x2", "d2", 2, _b((2, 3), (2, 3))),
    ("d2-q2-2x2x2-1x2x2", "d2", 2, _b((2, 2), (2, 2), (1, 2), (1, 2))),
    ("dn-q2-2x3x2-1x3", "dn", 2, _b((2, 3), (2, 3), (1, 3))),
    ("mds-q2-1x3x4-d3", "mds-lift", 2, {"m": 3, "t": 4, "d": 3}),
    ("d2-q3-2x2x2", "d2", 3, _b((2, 2), (2, 2))),
    ("d2-q3-1x3x3", "d2", 3, _b(*[(1, 3)] * 3)),
    ("dn-q3-2x2x2-1x2", "dn", 3, _b((2, 2), (2, 2), (1, 2))),
    ("d2-q4-2x2x2", "d2", 4, _b((2, 2), (2, 2))),
]
# closed-forms: bound tables (q, profile), omega scans, curves, simplex lifts
BOUND_PROFILES = [
    (2, [(2, 2)] * 17), (2, [(2, 2)] + [(1, 2)] * 7 + [(1, 1)] * 5),
    (2, [(2, 2)] * 4), (2, [(3, 3)] * 3), (2, [(2, 2)] * 9),
    (3, [(2, 2)] + [(1, 2)] * 3), (4, [(2, 3), (1, 3), (1, 3)]),
    (65536, [(2, 2)] * 17), (65536, [(2, 2)] * 4),
    (65536, [(2, 3), (1, 3), (1, 3)]),
]
OMEGA = [((3, 3, 2), 3, 3, 7), ((3, 3), 3, 2, 4), ((2, 1, 1), 2, 3, 4),
         ((4, 4, 4), 4, 2, 5), ((3, 3, 3, 3), 3, 2, 6), ((4, 3, 3, 2), 4, 3, 5)]
# every asymptotic bound on each equal-shape scenario (q, m, n); the costs
# are alike, so op_p90_ms falls inside this group
CURVES = [(2, 4, 2), (2, 2, 2), (3, 3, 3), (2, 3, 2), (2, 3, 3), (3, 2, 2),
          (4, 2, 2), (2, 4, 4), (5, 2, 1), (3, 3, 2)]
GRID = "0:1:0.005"
SIMPLEX = [(2, 2, 2, 3), (2, 3, 2, 2), (3, 2, 2, 2), (4, 2, 2, 2)]


def _shuffled_blocks(rng, blocks):
    blocks = list(blocks)
    rng.shuffle(blocks)
    return blocks


def certify_ops(rng):
    ops = []
    for op_id, fam, q, p, plant in CERTIFY_CHECK:
        text, blocks, d, k, msrd = scrambled_code(rng, fam, q, p, plant)
        ops.append(({"id": "check-" + op_id, "kind": "check", "q": q,
                     "expect": {"msrd": msrd, "d": d, "k": k}}, text))
    for op_id, kind, fam, q, p in CERTIFY_EDIT:
        text, blocks, d, k, _ = scrambled_code(rng, fam, q, p)
        norm = th.normalize(blocks)
        N = sum(n for n, _ in blocks)
        # d-1 = n_1 + ... + n_j + delta with 0 <= delta < n_(j+1)
        j, delta = 0, d - 1
        while delta >= norm[j][0]:
            delta -= norm[j][0]
            j += 1
        if kind == "shorten":
            # admissible blocks j+1..t (1-based); keep the result nonzero
            choices = [s for s in range(j + 1, len(norm) + 1)
                       if k > norm[s - 1][1] and d < N]
            s = rng.choice(choices)
            new_k, new_d = k - norm[s - 1][1], d
        else:
            hi = j + 1 if delta > 0 else j
            s = rng.randint(1, hi)
            new_k, new_d = k, d - 1
        new_blocks = [(n - 1, m) if i == s - 1 else (n, m)
                      for i, (n, m) in enumerate(norm)]
        new_blocks = [b for b in new_blocks if b[0] >= 1]
        if new_k != th.singleton_exponent(new_blocks, new_d):
            raise RuntimeError(f"{op_id}: result would not be MSRD")
        ops.append(({"id": op_id, "kind": kind, "q": q, "block": s,
                     "expect": {"msrd": True, "d": new_d, "k": new_k,
                                "blocks": th.normalize(new_blocks)}}, text))
    for op_id, fam, q, p in CERTIFY_CONSTRUCT:
        blocks, d, k = family_answer(fam, p)
        ops.append(({"id": op_id, "kind": "construct", "q": q,
                     "family": fam, "params": p,
                     "expect": {"msrd": True, "d": d, "k": k}}, None))
    return ops


def spectrum_ops(rng):
    ops = []
    for op_id, fam, q, p in SPECTRUM:
        text, blocks, d, k, _ = scrambled_code(rng, fam, q, p)
        m = blocks[0][1]
        N = sum(n for n, _ in blocks)
        dim = sum(n * mm for n, mm in blocks)
        rl = th.msrd_ranklist(blocks, m, q, d)
        drl = th.msrd_ranklist(blocks, m, q, N - d + 2)
        expect = {"k": k, "dual_k": dim - k,
                  "ranklist": sorted([list(u), c] for u, c in rl.items()),
                  "dual_ranklist": sorted([list(u), c] for u, c in drl.items()),
                  "sumrank": th.sumrank_of(rl, N),
                  "dual_sumrank": th.sumrank_of(drl, N),
                  "lattice": th.lattice_size(blocks, q)}
        ops.append(({"id": "spectrum-" + op_id, "kind": "spectrum", "q": q,
                     "expect": expect}, text))
    return ops


def closed_forms_ops(rng):
    ops = []
    for q, blocks in BOUND_PROFILES:
        N = sum(n for n, _ in blocks)
        dim = sum(n * m for n, m in blocks)
        tag = f"q{q}-{format_blocks(blocks)}"
        text = format_blocks(_shuffled_blocks(rng, blocks))
        floors = {1: q ** dim, 2: q ** th.singleton_exponent(blocks, 2),
                  N: q ** th.singleton_exponent(blocks, N)}
        ops.append(({"id": "bounds-" + tag, "kind": "bounds", "q": q,
                     "profile": text,
                     "expect": {"N": N, "singleton": [
                         q ** th.singleton_exponent(blocks, d)
                         for d in range(1, N + 1)],
                         "msrd_floor": {str(d): v for d, v in floors.items()}}},
                    None))
        for r in sorted({1, N // 2, N}):
            ops.append(({"id": f"sphere-{tag}-r{r}", "kind": "sphere-volume",
                         "q": q, "profile": text, "r": r,
                         "expect": {"value": th.sphere_volume(blocks, q, r),
                                    "space": q ** dim if r == N else None}},
                        None))
    for shape, m, q, d in OMEGA:
        tag = f"{','.join(map(str, shape))}-m{m}-q{q}-d{d}"
        order = _shuffled_blocks(rng, shape)
        u, value = th.omega_fast(shape, m, q, d)
        ops.append(({"id": "omega-fast-" + tag, "kind": "omega", "fast": True,
                     "shape": order, "m": m, "qi": q, "d": d,
                     "expect": {"witness": u, "value": value}}, None))
        excluded, w, v, checked = th.omega_scan(shape, m, q, d)
        ops.append(({"id": "omega-full-" + tag, "kind": "omega", "fast": False,
                     "shape": order, "m": m, "qi": q, "d": d,
                     "expect": {"excluded": excluded, "witness": w,
                                "value": v, "checked": checked}}, None))
    bounds = list(BOUND_KEYS)
    for q, m, n in CURVES:
        grid = [round(i * 0.005, 12) for i in range(201)]
        values = {b: [th.asymptotic_value(b, eta, q, m, n) for eta in grid]
                  for b in bounds}
        ops.append(({"id": f"asymptotics-q{q}-m{m}-n{n}", "kind": "asymptotics",
                     "qi": q, "m": m, "n": n, "bounds": bounds, "grid": GRID,
                     "expect": {"eta": grid, "values": values}}, None))
    for q, m, n, r in SIMPLEX:
        Q = q ** m
        t = (Q ** r - 1) // (Q - 1)
        weight = n * Q ** (r - 1)
        N = n * t
        plotkin = (Q * weight) // (Q * weight - (Q - 1) * N) \
            if Q * weight > (Q - 1) * N else None
        ops.append(({"id": f"simplex-q{q}-m{m}-n{n}-r{r}", "kind": "simplex-lift",
                     "q": q, "m": m, "n": n, "r": r,
                     "expect": {"t": t, "dim": r * m, "size": q ** (r * m),
                                "sumrank": weight, "plotkin": plotkin}},
                    None))
    return ops


GENERATORS = {"certify": certify_ops, "spectrum": spectrum_ops,
              "closed-forms": closed_forms_ops}


def generate(workload, seed, out: Path):
    """Write the inputs of one workload and seed into out."""
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    for op, text in GENERATORS[workload](rng):
        if text is not None:
            (out / f"{op['id']}.src").write_text(text)
            op["src"] = f"{op['id']}.src"
        (out / f"{op['id']}.json").write_text(json.dumps(op, sort_keys=True))
    (out / "complete").write_text("")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)
    if not (out / "complete").exists():
        shutil.rmtree(out, ignore_errors=True)
        generate(args.workload, args.seed, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
