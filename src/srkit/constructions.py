"""Constructions of optimal sum-rank metric codes.

Everything returns a LinearCode in a normalized profile.  Small outputs are
meant to be certified by msrd_check / minimum_distance; the simplex lift is
too large to enumerate and instead carries a structural certificate.

Every construction builds its generators as flat rows and reduces them once,
through `code._from_rows`.  `_expand` writes a vector over GF(q^m) as the m
rows of its multiples beta_l * vec in tower coordinates (the Gabidulin
codes, the MDS lift and the expanded MDS part of `construct_combine`), and
`ambient._join` places one part per block, row-major, into a flat row.
The mixed-m distance-2 code is one derived code of the widened equal-m
code, `code._cut`: the words whose extra columns vanish, read at the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .ambient import Profile, _cells, _join, profile_create
from .bounds import induced_bounds
from .code import (
    LinearCode,
    _cut,
    _from_rows,
    dual,
    minimum_distance,
    zero_code,
)
from .errors import BadParameters, HypothesisFailed, LengthTooLong, SrkitError
from .field import Field, Tower, _digits, tower_create
from .guard import check_enum
from .matq import Mat, linear_combination


def gabidulin_mrd(field: Field, n: int, m: int, d: int) -> LinearCode:
    """Rank-metric code of dimension m(n-d+1) and rank distance d (t = 1).

    Evaluation of q-power-linearized polynomials of q-degree < n-d+1 at the
    fixed tower basis points beta^0..beta^(n-1), expanded over the base
    field row by row.
    """
    if not (1 <= n <= m and 1 <= d <= n):
        raise BadParameters(f"need 1 <= d <= n <= m, got n={n}, m={m}, d={d}")
    tower = tower_create(field, m)
    top = tower.top
    points = tower.basis()[:n]
    gens = []
    for rexp in range(n - d + 1):
        gens += _expand(tower, [top.pow(g, field.q ** rexp) for g in points])
    code = _from_rows(profile_create(field, [(n, m)]), gens)
    if code.k != m * (n - d + 1):
        raise BadParameters("evaluation points were dependent (internal error)")
    return code


def _expand(tower: Tower, vec):
    """The m rows of beta_l * vec, l < m, for vec over the top field of
    `tower`, each entry written as its m coordinates over the base: row-major
    n x m blocks for an n-vector, or n blocks of one row each."""
    top = tower.top
    return [[c for a in vec for c in tower.coords(top.mul(beta_l, a))]
            for beta_l in tower.basis()]


def rs_mds(field: Field, length: int, distance: int) -> Mat:
    """Generator of an MDS code over the given field: [length, length-d+1, d].

    Vandermonde on the nonzero field elements (code order), extended by the
    zero point and the point at infinity at the boundary lengths.  The
    field-independent cases d = 1, d = 2 and k = 1 are built directly, so
    trivial MDS codes exist at every length.
    """
    k = length - distance + 1
    if k < 1 or distance < 1:
        raise BadParameters(f"no [{length}, {k}] code of distance {distance}")
    if distance == 1:
        return Mat.identity(field, length)
    if distance == 2:
        rows = [[1 if i == j else 0 for j in range(k)] + [1] for i in range(k)]
        return Mat(field, rows)
    if k == 1:
        return Mat(field, [[1] * length])
    if length > field.q + 1:
        raise LengthTooLong(
            f"length {length} exceeds q+1 = {field.q + 1} for distance {distance}")
    points = list(range(1, field.q)) + [0]
    rows = []
    for i in range(k):
        row = [field.pow(a, i) for a in points[:min(length, field.q)]]
        if length == field.q + 1:
            row.append(1 if i == k - 1 else 0)
        rows.append(row)
    return Mat(field, rows)


def construct_mds_lift(field: Field, m: int, t: int, d: int) -> LinearCode:
    """MSRD code in (1 x m)^t of distance d: an MDS code over GF(q^m),
    expanded through the tower coordinates."""
    if not (1 <= d <= t):
        raise BadParameters(f"need 1 <= d <= t, got d={d}, t={t}")
    tower = tower_create(field, m)
    G = rs_mds(tower.top, t, d)
    code = _from_rows(profile_create(field, [(1, m)] * t),
                      [e for row in G.rows for e in _expand(tower, row)])
    if code.k != m * (t - d + 1):
        raise BadParameters("MDS expansion lost rank (internal error)")
    return code


@dataclass(frozen=True)
class D2Result:
    code: LinearCode
    stated_dual: LinearCode | None  # the displayed dual form (equal-m case)


def construct_d2(field: Field, blocks) -> D2Result:
    """MSRD code of distance 2, any profile.

    Equal column counts: the kernel-sum construction around a rank-2 MRD
    code in the widest block, together with its displayed dual (the
    repetition code when all row counts agree).  Mixed column counts:
    intersect the equal-m code with the subspace of tuples whose trailing
    columns vanish.
    """
    blocks = [(int(n), int(m)) for n, m in blocks]
    profile = profile_create(field, blocks)
    ms = profile.ms
    if len(set(ms)) == 1:
        return _construct_d2_equal_m(field, profile)
    # mixed m: build in the widened space, keep the words whose extra
    # columns vanish and read them at the other columns; `_cut` checks the
    # dimension, k - |cut| = sum n_i m_i - m_1
    m1 = ms[0]
    wide = _construct_d2_equal_m(
        field, profile_create(field, [(n, m1) for n, _ in profile.blocks])).code
    cells = _cells(wide.profile)
    cut = [c for cell, m in zip(cells, ms) for row in cell for c in row[m:]]
    kept = [[row[:m] for row in cell] for cell, m in zip(cells, ms)]
    return D2Result(_cut(wide, cut, profile.to_user_order(kept)), None)


def _construct_d2_equal_m(field: Field, profile: Profile) -> D2Result:
    """The span of a rank-2 MRD code in the first block with the most rows,
    `top`, and of each other cell (i, r, c) minus the same cell of `top`:
    the tuples whose blocks, padded with zero rows and summed, lie in the
    MRD code.  Its stated dual cuts the dual MRD code's words to each
    block's rows."""
    m, ns = profile.ms[0], profile.ns
    top = ns.index(max(ns))
    # no rank-2 code fits one row: the zero code, whose dual is everything
    mrd = (gabidulin_mrd(field, ns[top], m, 2) if ns[top] >= 2
           else zero_code(profile_create(field, [(1, m)])))
    cells = _cells(profile)
    gens = _join(profile, [[g if i == top else () for i in range(profile.t)]
                           for g in mrd._flat])
    minus_one = field.neg(1)
    for i, cell in enumerate(cells):
        if i != top:
            for r, row in enumerate(cell):
                for c, pos in enumerate(row):
                    gen = [0] * profile.dim
                    gen[pos], gen[cells[top][r][c]] = 1, minus_one
                    gens.append(gen)
    code = _from_rows(profile, gens)
    stated = _from_rows(profile, _join(profile, [[g[:n * m] for n in ns]
                                                 for g in dual(mrd)._flat]))
    if code.k != m * (profile.N - 1) or stated.k != m:
        raise BadParameters("distance-2 construction lost rank (internal error)")
    return D2Result(code, stated)


def construct_dN(field: Field, blocks) -> LinearCode:
    """MSRD code of distance N: diagonal join of full-rank MRD bases."""
    profile = profile_create(field, blocks)
    bases = [gabidulin_mrd(field, n, m, n)._flat for n, m in profile.blocks]
    # zip stops at the shortest basis, the last block's m_t rows
    return _from_rows(profile, _join(profile, zip(*bases)))


def construct_dN_minus(field: Field, blocks, alpha: int = 1) -> LinearCode:
    """MSRD code of distance N - alpha under the stated shape hypotheses.

    alpha = 1 is the worked case; larger alpha follows the same recipe and
    needs n_t >= alpha+1 and (alpha+1) m_t <= m_{t-1}.
    """
    if alpha < 1:
        raise BadParameters("alpha must be >= 1 (use construct_dN for alpha=0)")
    profile = profile_create(field, blocks)
    if profile.t < 2:
        raise HypothesisFailed("needs at least two blocks")
    ns, ms = profile.ns, profile.ms
    n_t, m_t = ns[-1], ms[-1]
    if n_t < alpha + 1 or (alpha + 1) * m_t > ms[-2]:
        raise HypothesisFailed(
            f"needs n_t >= {alpha + 1} and {(alpha + 1)}*m_t <= m_(t-1)")
    bases = [gabidulin_mrd(field, n, m, n)._flat for n, m in profile.blocks[:-1]]
    bases.append(gabidulin_mrd(field, n_t, m_t, n_t - alpha)._flat)
    # zip stops at the shortest basis, the last block's (alpha + 1) m_t rows
    return _from_rows(profile, _join(profile, zip(*bases)))


def construct_msrd111(field: Field, inner_blocks, t2: int) -> LinearCode:
    """Full-rank MRD blocks glued to an MDS code on t2 single-entry blocks:
    `construct_combine` with m_hat = 1.

    Distance sum(n_j) + t2 - m_last + 1 where m_last is the smallest inner
    column count; requires t2 >= m_last.
    """
    return construct_combine(field, inner_blocks, t2, 1)


def construct_combine(field: Field, inner_blocks, t2: int, m_hat: int) -> LinearCode:
    """Inner MRD blocks glued to an expanded MDS code over GF(q^m_hat).

    Needs m_last = m_hat * a with a <= t2; distance sum(n_j) + t2 - a + 1.
    """
    if m_hat < 1:
        raise BadParameters(f"m_hat must be at least 1, got {m_hat}")
    inner = [(int(n), int(m)) for n, m in inner_blocks]
    inner_profile = profile_create(field, inner)
    m_last = inner_profile.ms[-1]
    if m_last % m_hat != 0:
        raise HypothesisFailed(f"m_hat = {m_hat} must divide m_last = {m_last}")
    a = m_last // m_hat
    if a > t2:
        raise HypothesisFailed(f"needs a = {a} <= t2 = {t2}")
    tower = tower_create(field, m_hat)
    G = rs_mds(tower.top, t2, t2 - a + 1)
    # m_hat <= m_last, so the single-entry blocks stay last
    profile = profile_create(field,
                             list(inner_profile.blocks) + [(1, m_hat)] * t2)
    bases = [gabidulin_mrd(field, n, m, n)._flat
             for n, m in inner_profile.blocks]
    expanded = [e for row in G.rows for e in _expand(tower, row)]
    return _from_rows(profile, _join(profile, [
        [b[i] for b in bases]
        + [expanded[i][c:c + m_hat] for c in range(0, t2 * m_hat, m_hat)]
        for i in range(m_last)]))


def construct_msrd111_ext(field: Field, m: int, s: int) -> LinearCode:
    """MSRD code of distance s+2 in (1 x m)^(s+1) + (1 x 1)^(m+1).

    Needs m >= 2 and s <= m + C(m,2) + 1; the distinct index pairs feeding
    the repeated-sum rows are chosen in lexicographic order.
    """
    if m < 2:
        raise HypothesisFailed("needs m >= 2")
    if s < 1 or s > m + m * (m - 1) // 2 + 1:
        raise HypothesisFailed(f"needs 1 <= s <= m + C(m,2) + 1 = "
                               f"{m + m * (m - 1) // 2 + 1}")
    profile = profile_create(field, [(1, m)] * (s + 1) + [(1, 1)] * (m + 1))
    A = [[1 if c == j else 0 for c in range(m)] for j in range(m)]

    def glue(j):
        # the single-entry blocks: e_j of F^(m+1), one entry per block
        return [(1 if pos == j else 0,) for pos in range(m + 1)]

    gens = [[A[0]] + [A[j]] * s + glue(j) for j in range(m)]
    # the extra generator: leading row e_2, then all of A, then the pair sums
    if s <= m:
        middle = A[:s]
    else:
        n_pairs = max(s - m - 1, 1)
        pairs = list(combinations(range(m), 2))[:n_pairs]
        B = [[field.add(x, y) for x, y in zip(A[a0], A[b0])]
             for a0, b0 in pairs]
        slots = [B[0]] * (2 if s - m >= 2 else 1) + B[1:]
        middle = A + slots
    gens.append([A[1]] + middle + glue(m))
    return _from_rows(profile, _join(profile, gens))


# ---------------------------------------------------------------------------
# lifting construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftResult:
    code: LinearCode
    distance_lower_bound: int


def construct_lifting(field: Field, blocks, deltas, h: int,
                      outer_generators, outer_distance: int) -> LiftResult:
    """Lift an F_q-linear Hamming-metric code over GF(q^h) blockwise through
    rank-distance-delta_i MRD codes.

    outer_generators: an F_q-basis of the outer code, each row a length-t
    tuple of GF(q^h) codes.  The lifted code has the same F_q-dimension and
    sum-rank distance at least the sum of the outer_distance smallest deltas.
    """
    blocks = [(int(n), int(m)) for n, m in blocks]
    profile = profile_create(field, blocks)
    deltas = [int(x) for x in deltas]
    if len(deltas) != profile.t:
        raise BadParameters("one delta per block required")
    deltas = profile.from_user_order(deltas)
    for (n, m), delta in zip(profile.blocks, deltas):
        if not 1 <= delta <= n:
            raise HypothesisFailed(f"delta = {delta} outside [1, {n}]")
        if h > m * (n - delta + 1):
            raise HypothesisFailed(
                f"h = {h} exceeds the inner code dimension {m * (n - delta + 1)}")
    tower = tower_create(field, h)
    # inner[i]: flat rows of the first h basis elements of block i's MRD code
    mrd = {}
    inner = []
    for (n, m), delta in zip(profile.blocks, deltas):
        if (n, m, delta) not in mrd:
            mrd[(n, m, delta)] = gabidulin_mrd(field, n, m, delta)._flat[:h]
        inner.append(mrd[(n, m, delta)])

    gens = []
    for word in outer_generators:
        if len(word) != profile.t:
            raise BadParameters("outer words must have one symbol per block")
        word = profile.from_user_order(list(word))
        gens.append([linear_combination(tower.coords(a), rows, n * m, field)
                     for (n, m), rows, a in zip(profile.blocks, inner, word)])
    code = _from_rows(profile, _join(profile, gens))
    if code.k != len(gens):
        raise BadParameters("outer generators were dependent over F_q")
    bound = sum(sorted(deltas)[:outer_distance])
    return LiftResult(code, bound)


@dataclass(frozen=True)
class SimplexLiftCertificate:
    """Structural certificate for a simplex lift: the outer simplex code has
    constant weight, the inner images have constant rank, so the sum-rank
    weight of every nonzero word is known without enumeration."""
    t: int
    dim: int
    size: int
    sumrank: int
    induced_plotkin: int
    meets_plotkin: bool
    inner_rank_checked: bool
    columns_distinct: bool


def simplex_lift(field: Field, m: int, n: int, r: int, override=False):
    """Lift the dimension-r simplex code over GF(q^m) through [n x m; n] MRD
    blocks; meets the induced Plotkin bound with equality."""
    if not 1 <= n <= m:
        raise BadParameters("needs 1 <= n <= m")
    tower = tower_create(field, m)
    top = tower.top
    Q = top.q
    check_enum((Q ** r - 1) // (Q - 1), override, what="simplex lift columns")
    # columns: all projective points of PG(r-1, q^m), leading-one normalized
    cols = []
    for lead in range(r):
        tail = r - lead - 1
        for idx in range(Q ** tail):
            cols.append((0,) * lead + (1,) + _digits(idx, Q, tail))
    t = len(cols)
    if t != (Q ** r - 1) // (Q - 1):
        raise SrkitError(f"{t} columns, not the points of PG({r - 1}, {Q})")
    outer = []
    for i in range(r):
        for beta_l in tower.basis():
            outer.append(tuple(top.mul(beta_l, c[i]) for c in cols))
    delta = Q ** (r - 1)  # every nonzero simplex word has this weight
    result = construct_lifting(field, [(n, m)] * t, [n] * t, m,
                               outer, delta)
    code = result.code
    # structural checks replacing enumeration
    columns_distinct = len(set(cols)) == t
    inner = gabidulin_mrd(field, n, m, n)
    # every word of the n-row inner code has rank <= n, so distance n
    # means every nonzero word has rank exactly n
    inner_rank_checked = minimum_distance(inner, override) == n
    weight = n * delta
    ip = induced_bounds(code.profile, weight)["plotkin"]
    cert = SimplexLiftCertificate(
        t=t, dim=code.k, size=code.size(), sumrank=weight,
        induced_plotkin=ip, meets_plotkin=(ip == code.size()),
        inner_rank_checked=inner_rank_checked,
        columns_distinct=columns_distinct)
    return code, cert
