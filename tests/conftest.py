"""Shared fixtures: the worked example codes and independent brute oracles.

Oracle helpers here are deliberately separate from the library paths they
check (tiny local eliminations, direct enumeration).
"""

from __future__ import annotations

import functools
import itertools
import math
import random

import pytest
from hypothesis import strategies as st

from srkit.ambient import MatrixTuple, profile_create
from srkit.code import code_create, unflatten
from srkit.field import field_create, field_from_order
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


# field orders for the property tests: two primes, three extension fields
ORDERS = (2, 3, 4, 8, 9)


@st.composite
def small_codes(draw, orders=(2,)):
    """A random code over GF(q), q drawn from `orders`, with at most 2^10
    words: a first block of up to 5x5, up to two more blocks of up to 3
    rows and 5 columns, and k near its top."""
    q = draw(st.sampled_from(orders))
    rows = draw(st.integers(1, 5))
    blocks = [(rows, draw(st.integers(rows, 5)))]
    for _ in range(draw(st.integers(0, 2))):
        n = draw(st.integers(1, 3))
        blocks.append((n, draw(st.integers(n, 5))))
    dim = sum(n * m for n, m in blocks)
    top = min(int(math.log(1 << 10, q) + 1e-9), dim)
    k = draw(st.integers(1, top).map(lambda x: top + 1 - x))  # k near top
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    F = field_from_order(q)
    while True:
        C = random_code(rng, F, blocks, k)
        if C.k == k:
            return C


def gf2_codes():
    """`small_codes` over GF(2): k <= 10."""
    return small_codes()


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


def oracle_rank_counts(n, m, q):
    """Number of n x m matrices over GF(q) of each rank 0..n, built row by
    row: a new row lies in the current row space (q^s choices, rank kept)
    or outside it (q^m - q^s choices, rank + 1)."""
    counts = [1]
    for _ in range(n):
        grown = [0] * (len(counts) + 1)
        for s, c in enumerate(counts):
            grown[s] += c * q ** s
            grown[s + 1] += c * (q ** m - q ** s)
        counts = grown
    return counts


def oracle_entropy(rho, n, m, q):
    """min over w in [-40, 0] of log f(e^w) - rho w in units of log q^{nm},
    f the one-block rank generating function, capped at 1.

    200 bisection steps on the derivative E_w[s] - rho (s ~ c_s e^{sw}),
    which increases with w; the clamped ends are taken as they are.
    """
    counts = oracle_rank_counts(n, m, q)

    def mean_and_log_f(w):
        logs = [math.log(c) + s * w for s, c in enumerate(counts)]
        top = max(logs)
        weights = [math.exp(x - top) for x in logs]
        total = math.fsum(weights)
        mean = math.fsum(s * x for s, x in enumerate(weights)) / total
        return mean, top + math.log(total)

    lo, hi = -40.0, 0.0
    if mean_and_log_f(hi)[0] <= rho:
        w = hi
    elif mean_and_log_f(lo)[0] >= rho:
        w = lo
    else:
        for _ in range(200):
            mid = (lo + hi) / 2
            if mean_and_log_f(mid)[0] < rho:
                lo = mid
            else:
                hi = mid
        w = (lo + hi) / 2
    return min(1.0, (mean_and_log_f(w)[1] - rho * w) / (n * m * math.log(q)))


@functools.lru_cache(maxsize=None)
def oracle_ops(q):
    """(add, mul) on element codes of GF(q) for q in {2, 3, 4, 8, 9},
    written out directly; GF(4) is GF(2)[x] / (x^2 + x + 1), codes c0 + 2 c1.
    GF(8) = GF(2)[x] / (x^3 + x + 1) and GF(9) = GF(3)[x] / (x^2 + 2x + 2)
    multiply by `oracle_mul`, read from a table."""
    if q == 4:
        def mul(a, b):
            r = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
            return r ^ 0b111 if r & 4 else r
        return (lambda a, b: a ^ b), mul
    if q in (8, 9):
        p, modulus = {8: (2, (1, 1, 0, 1)), 9: (3, (2, 2, 1))}[q]
        k = len(modulus) - 1
        table = [[oracle_mul(a, b, p, modulus) for b in range(q)]
                 for a in range(q)]
        return ((lambda a, b: oracle_add(a, b, p, k)),
                (lambda a, b: table[a][b]))
    return (lambda a, b: (a + b) % q), (lambda a, b: a * b % q)


def oracle_rank(rows, q):
    """Rank over GF(q), q in {2, 3, 4, 8, 9}."""
    if q == 2:
        return oracle_rank_gf2(rows)
    if q == 3:
        return oracle_rank_modp(rows, 3)
    return len(oracle_rref(rows, q))


def oracle_rref(rows, q):
    """The nonzero rows of the reduced row-echelon form over GF(q), q in
    {2, 3, 4, 8, 9}: the canonical basis of their span."""
    add, mul = oracle_ops(q)
    neg = {a: next(b for b in range(q) if add(a, b) == 0) for a in range(q)}
    inv = {a: next(b for b in range(q) if mul(a, b) == 1) for a in range(1, q)}
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
                f = neg[rows[i][col]]
                rows[i] = [add(x, mul(f, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return tuple(tuple(r) for r in rows[:rank])


def oracle_supports(code):
    """Support counts over every coefficient vector: each word is
    `oracle_combination` of the basis rows, each block's column space the
    `oracle_rref` basis of its columns, one tuple of bases per word (q in
    {2, 3, 4, 8, 9})."""
    q, dim = code.field.q, code.profile.dim
    counts = {}
    for coeffs in itertools.product(range(q), repeat=code.k):
        vec = oracle_combination(coeffs, code._flat, q) if code.k else [0] * dim
        key = tuple(oracle_rref([[vec[pos + a * m + b] for a in range(n)]
                                 for b in range(m)], q)
                    for pos, n, m in code.profile.slices)
        counts[key] = counts.get(key, 0) + 1
    return counts


def oracle_combination(coeffs, rows, q):
    """sum_g coeffs[g] * rows[g] over GF(q), q in {2, 3, 4, 8, 9}."""
    add, mul = oracle_ops(q)
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [add(x, mul(c, y)) for x, y in zip(out, row)]
    return out


def oracle_is_prime(n):
    """Trial division; quick for small n and for n with a small factor."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def oracle_is_irreducible(coeffs, p):
    """Whether a monic polynomial over GF(p) (coefficients lowest degree
    first) of degree >= 1 has no monic factor of degree 1..k//2: long
    division by every one of them."""
    k = len(coeffs) - 1
    for d in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            rest = list(coeffs)
            for i in range(k, d - 1, -1):
                c = rest[i]
                for j, g in enumerate(low + (1,)):
                    rest[i - d + j] = (rest[i - d + j] - c * g) % p
            if not any(rest[:d]):
                return False
    return True


def oracle_mul(a, b, p, modulus):
    """a * b on element codes of GF(p)[x] / (modulus): schoolbook product,
    then long division by the monic modulus (coefficients lowest first)."""
    k = len(modulus) - 1
    da = [a // p ** i % p for i in range(k)]
    db = [b // p ** i % p for i in range(k)]
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i] % p
        for j, m in enumerate(modulus):
            prod[i - k + j] -= c * m
    return sum(prod[i] % p * p ** i for i in range(k))


def oracle_add(a, b, p, k):
    """a + b on element codes of GF(p^k): digit-wise sum mod p."""
    return sum((a // p ** i + b // p ** i) % p * p ** i for i in range(k))


def oracle_min_distance(code):
    """Least sum-rank weight over the nonzero words of `codewords`, each
    block ranked by `oracle_rank` (q in {2, 3, 4, 8, 9})."""
    from srkit.code import codewords
    q = code.field.q
    return min(sum(oracle_rank(b.rows, q) for b in w.blocks)
               for w in codewords(code) if not w.is_zero())


def oracle_derived(code, block, row=None, col=None, order=None):
    """Brute shortening on `row` or `col` of 0-based `block`, or puncturing
    on its last row when neither is given, after the blocks are put in
    `order`: the words of `codewords(code)` that vanish there, with that row
    or column deleted and empty blocks dropped.

    Returns (block shapes, set of words), each word a tuple of block row
    tuples, both in the derived code's user block order.
    """
    from srkit.code import codewords
    order = range(code.profile.t) if order is None else order

    def cut(rows):
        if col is not None:
            return tuple(r[:col] + r[col + 1:] for r in rows)
        drop = len(rows) - 1 if row is None else row
        return rows[:drop] + rows[drop + 1:]

    words = set()
    for w in codewords(code):
        blocks = [w.blocks[i].rows for i in order]
        if row is not None and any(blocks[block][row]):
            continue
        if col is not None and any(r[col] for r in blocks[block]):
            continue
        blocks[block] = cut(blocks[block])
        words.add(tuple(b for b in blocks if b and b[0]))
    shapes = [code.profile.blocks[i] for i in order]
    n, m = shapes[block]
    shapes[block] = (n, m - 1) if col is not None else (n - 1, m)
    return tuple(s for s in shapes if min(s) >= 1), words
