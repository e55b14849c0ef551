"""Shared fixtures: the worked example codes and independent brute oracles.

Oracle helpers here are deliberately separate from the library paths they
check (tiny local eliminations, direct enumeration).
"""

from __future__ import annotations

import random

import pytest

from srkit.ambient import MatrixTuple, profile_create
from srkit.code import code_create, unflatten
from srkit.field import field_create
from srkit.matq import Mat


@pytest.fixture(scope="session")
def F2():
    return field_create(2)


@pytest.fixture(scope="session")
def F3():
    return field_create(3)


@pytest.fixture(scope="session")
def F4():
    return field_create(2, 2)


def tup(profile, *blocks):
    return MatrixTuple(profile, [Mat(profile.field, b) for b in blocks])


def msrd_d6_code(field):
    """Three-dimensional distance-6 MSRD code in (1x2)^5 (1x1)^3, any field."""
    p = profile_create(field, [(1, 2)] * 5 + [(1, 1)] * 3)
    return code_create(p, [
        tup(p, [[1, 0]], [[1, 0]], [[1, 0]], [[1, 0]], [[1, 0]], [[1]], [[0]], [[0]]),
        tup(p, [[1, 0]], [[0, 1]], [[0, 1]], [[0, 1]], [[0, 1]], [[0]], [[1]], [[0]]),
        tup(p, [[0, 1]], [[1, 0]], [[0, 1]], [[1, 1]], [[1, 1]], [[0]], [[0]], [[1]]),
    ])


def msrd_d4_gf3_code():
    """Four-dimensional distance-4 MSRD code in (2x2|1x2|1x2|1x2) over GF(3)."""
    F3 = field_create(3)
    p = profile_create(F3, [(2, 2), (1, 2), (1, 2), (1, 2)])
    return code_create(p, [
        tup(p, [[2, 2], [1, 0]], [[2, 1]], [[1, 0]], [[0, 0]]),
        tup(p, [[0, 2], [2, 1]], [[1, 1]], [[0, 1]], [[0, 0]]),
        tup(p, [[1, 0], [1, 2]], [[2, 1]], [[0, 0]], [[1, 0]]),
        tup(p, [[2, 1], [1, 0]], [[1, 0]], [[0, 0]], [[0, 1]]),
    ])


def spherepack_d3_code():
    """Seven-dimensional distance-3 code in (2x2|2x2|1x2|1x2) over GF(2)."""
    F2 = field_create(2)
    p = profile_create(F2, [(2, 2), (2, 2), (1, 2), (1, 2)])
    return code_create(p, [
        tup(p, [[0, 1], [1, 0]], [[0, 0], [0, 0]], [[1, 0]], [[0, 0]]),
        tup(p, [[1, 0], [0, 0]], [[1, 0], [1, 0]], [[0, 1]], [[0, 0]]),
        tup(p, [[0, 1], [0, 1]], [[1, 1], [0, 0]], [[0, 0]], [[1, 0]]),
        tup(p, [[0, 1], [1, 0]], [[0, 0], [0, 1]], [[0, 0]], [[0, 1]]),
        tup(p, [[0, 1], [0, 0]], [[1, 1], [1, 0]], [[0, 0]], [[0, 0]]),
        tup(p, [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 0]], [[0, 0]]),
        tup(p, [[1, 1], [1, 0]], [[0, 0], [1, 1]], [[0, 0]], [[0, 0]]),
    ])


def dual_distribution_pair():
    """Two one-dimensional codes in (2x2)^2 over GF(2) with equal sum-rank
    distributions whose duals differ."""
    F2 = field_create(2)
    p = profile_create(F2, [(2, 2), (2, 2)])
    Ca = code_create(p, [tup(p, [[1, 0], [0, 1]], [[0, 0], [0, 0]])])
    Cb = code_create(p, [tup(p, [[1, 0], [0, 0]], [[1, 0], [0, 0]])])
    return Ca, Cb


def rank2_plus_pivot_code(n=2):
    """MSRD distance-2 code in (n x n | 1 x 1) whose dual is not MSRD."""
    from srkit.constructions import gabidulin_mrd
    F2 = field_create(2)
    p = profile_create(F2, [(n, n), (1, 1)])
    mrd = gabidulin_mrd(F2, n, n, 2)
    gens = [MatrixTuple(p, [g.blocks[0], Mat.zero(F2, 1, 1)]) for g in mrd.basis]
    z = Mat(F2, [[1 if (r, c) == (0, 0) else 0 for c in range(n)]
                 for r in range(n)])
    gens.append(MatrixTuple(p, [z, Mat(F2, [[1]])]))
    return code_create(p, gens)


def random_code(rng: random.Random, field, blocks, k):
    p = profile_create(field, blocks)
    gens = [unflatten(p, [rng.randrange(field.q) for _ in range(p.dim)])
            for _ in range(k)]
    return code_create(p, gens)


def random_subspace_tuple(rng: random.Random, profile):
    from srkit.ambient import SubspaceTuple
    from srkit.matq import Subspace
    parts = []
    for n, _ in profile.blocks:
        rows = [[rng.randrange(profile.field.q) for _ in range(n)]
                for _ in range(rng.randrange(n + 1))]
        parts.append(Subspace(profile.field, n, rows))
    return SubspaceTuple(profile, parts)


# ---------------------------------------------------------------------------
# independent oracle helpers
# ---------------------------------------------------------------------------

def oracle_rank_gf2(rows):
    """Bitmask Gaussian elimination rank over GF(2)."""
    masks = []
    for r in rows:
        m = 0
        for j, x in enumerate(r):
            if x:
                m |= 1 << j
        masks.append(m)
    rank = 0
    for col in range(max((len(r) for r in rows), default=0)):
        bit = 1 << col
        piv = next((i for i in range(rank, len(masks)) if masks[i] & bit), None)
        if piv is None:
            continue
        masks[rank], masks[piv] = masks[piv], masks[rank]
        for i in range(len(masks)):
            if i != rank and masks[i] & bit:
                masks[i] ^= masks[rank]
        rank += 1
    return rank


def oracle_rank_modp(rows, p):
    """Plain modular elimination rank, for small prime fields."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def oracle_sphere_counts(blocks, q):
    """Weight counts of the whole ambient space by direct tuple enumeration.

    Works digit-by-digit over prime fields only (q prime), which is all the
    brute sweeps need.
    """
    dim = sum(n * m for n, m in blocks)
    N = sum(n for n, _ in blocks)
    counts = [0] * (N + 1)
    total = q ** dim
    for code in range(total):
        digits = []
        c = code
        for _ in range(dim):
            digits.append(c % q)
            c //= q
        w = 0
        pos = 0
        for n, m in blocks:
            rows = [digits[pos + i * m: pos + (i + 1) * m] for i in range(n)]
            if q == 2:
                w += oracle_rank_gf2(rows)
            else:
                w += oracle_rank_modp(rows, q)
            pos += n * m
        counts[w] += 1
    return counts


def oracle_ops(q):
    """(add, mul) on element codes of GF(q) for q in {2, 3, 4}, written out
    directly; GF(4) is GF(2)[x] / (x^2 + x + 1), codes c0 + 2 c1."""
    if q == 4:
        def mul(a, b):
            r = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
            return r ^ 0b111 if r & 4 else r
        return (lambda a, b: a ^ b), mul
    return (lambda a, b: (a + b) % q), (lambda a, b: a * b % q)


def oracle_rank(rows, q):
    """Rank over GF(q), q in {2, 3, 4}."""
    if q == 2:
        return oracle_rank_gf2(rows)
    if q == 3:
        return oracle_rank_modp(rows, 3)
    add, mul = oracle_ops(4)
    inv = {1: 1, 2: 3, 3: 2}
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = inv[rows[rank][col]]
        rows[rank] = [mul(lead, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]  # characteristic 2: subtracting is adding
                rows[i] = [add(x, mul(f, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def oracle_combination(coeffs, rows, q):
    """sum_g coeffs[g] * rows[g] over GF(q), q in {2, 3, 4}."""
    add, mul = oracle_ops(q)
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [add(x, mul(c, y)) for x, y in zip(out, row)]
    return out
