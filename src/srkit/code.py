"""F_q-linear sum-rank metric codes.

A code is stored by the canonical RREF basis of its flattened generator
matrix (the flat layout of `ambient._cells`: block-major, row-major within
each block), so two equal codes have equal bases.

One walk, `_words`, lists the codewords of every field, lexicographic over
coefficient vectors: a base-p counter over the code's k*e generators over
GF(p) (q = p^e) that adds one precomputed word per step.  A word is cut into
its N block rows (`codewords`, the distance walk `_walk_distance`) or its
block columns (the support walk of `distributions`).

The minimum distance has two exact routes, picked per call by a cost known
before either starts (see `minimum_distance`):

- the lattice route ranks shortenings: a nonzero word of sum-rank weight
  <= w exists exactly when some subspace tuple U of total rank w has
  C(U) != 0, that is k - rank(constraints(U)) > 0.  It searches layers
  w = 1..d*-1 only, where d* is the largest d whose Singleton exponent is
  still >= k: the bound gives d <= d* for every code, so d = d* when those
  layers hold nothing.  Cost: sum over w < d* of prod_i [n_i, w_i]_q tuples.
  Per dim vector it is one depth-first search on one echelon over the
  RREF bases of the U_i^perp, block by block and row by row, each row
  adding its constraint rows: a prefix of rank k is pruned, since every
  completion keeps that rank, and the first tuple of rank < k ends it.
- the walk ranks every block of all q^k codewords: a single-row block by
  whether its row is zero, any other by one semi-echelon insert.

The walk is preferred when q^k is below `_WORDS_PER_UNIT` times the lattice
cost; the other route runs when only it fits the enumeration guard
(`guard.walk_runs`).
The walk and the search list their rows with one base-p counter (`_count`)
whose steps are running sums of row lists (`_running`).  `shorten` and
`distributions.brute_distributions`, which ranks every subspace tuple,
build their constraints with the search's helper (`_constraints`).

Every kernel here holds rows in the representation `matq._row_ops` picks:
over GF(2) a row is one int, ranked by the packed insert
`matq._extend_bits`, and each constraint row is an XOR of per-entry
bitmasks over the basis.  `codewords` reads its rows back as codes with the
representation's `unpack`.

Every derived code comes from one primitive, `_subcode`, one RREF: keep the
words whose coefficient vectors meet some constraint rows over F^k, read at
chosen positions as words of a new profile.  `shorten`, the MSRD row and
column shortenings, row puncturing, block reordering (`order=`) and the
mixed-m distance-2 intersection of `constructions.construct_d2` all use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations

from .ambient import (
    MatrixTuple,
    Profile,
    SubspaceTuple,
    _cells,
    _dim_vectors,
    flatten,
    poly_product,
    profile_create,
    unflatten,
)
from .errors import (
    IndexOutOfTheoremRange,
    NotMsrd,
    ProfileMismatch,
    TrivialCode,
)
from .guard import check_enum, check_subspaces, walk_runs
from .matq import (
    Mat,
    _perp_rows,
    _row_ops,
    _rref_rows,
    gaussian_binomial,
    in_rref_span,
    orthogonal_complement,
)


class LinearCode:
    """An F_q-linear subspace of the ambient space, canonical basis.

    `flat_rows` must already be the canonical RREF rows of the code.
    """

    __slots__ = ("profile", "k", "_flat")

    def __init__(self, profile: Profile, flat_rows):
        self.profile = profile
        self._flat = tuple(tuple(r) for r in flat_rows)
        self.k = len(self._flat)

    @property
    def field(self):
        return self.profile.field

    @property
    def basis(self):
        """The canonical basis as matrix tuples."""
        return tuple(unflatten(self.profile, r) for r in self._flat)

    def size(self) -> int:
        return self.field.q ** self.k

    def __eq__(self, other):
        return (isinstance(other, LinearCode) and self.profile == other.profile
                and self._flat == other._flat)

    def __hash__(self):
        return hash((self.profile, self._flat))

    def __repr__(self):
        return f"[{self.profile!r}; k={self.k}]"

    def contains(self, x: MatrixTuple) -> bool:
        if x.profile != self.profile:
            raise ProfileMismatch("tuple lives in a different ambient space")
        return in_rref_span(self._flat, flatten(x), self.field)


def code_create(profile: Profile, generators) -> LinearCode:
    """Span of the given matrix tuples, reduced to a canonical basis."""
    gens = list(generators)
    for g in gens:
        if not isinstance(g, MatrixTuple) or g.profile != profile:
            raise ProfileMismatch("generator does not live in the given profile")
    return _from_rows(profile, [flatten(g) for g in gens])


def _from_rows(profile: Profile, rows) -> LinearCode:
    """The code spanned by flat rows of `profile`, reduced once to its
    canonical basis: the one door from generator rows to a code."""
    return LinearCode(profile, _rref_rows(rows, profile.field)[0])


def full_code(profile: Profile) -> LinearCode:
    return LinearCode(profile, Mat.identity(profile.field, profile.dim).rows)


def zero_code(profile: Profile) -> LinearCode:
    return LinearCode(profile, [])


# ---------------------------------------------------------------------------
# codeword enumeration
# ---------------------------------------------------------------------------

def _words(code: LinearCode, ops, columns=False, override=False):
    """Every codeword as a new list of cuts in the `ops` representation
    (`matq._row_ops`), in lexicographic coefficient order.  The cuts are
    the flat positions of each block's rows, or with `columns` its columns.

    GF(q) = GF(p)^e, so the code is spanned over GF(p) by the k*e words
    b_P = x^(P mod e) g_(k-1-P//e), and that order is a base-p counter over
    them, place P worth p^P (x^t has code p^t).  The step to a count whose
    lowest nonzero digit is at place P raises that digit by one and turns
    every lower digit from p-1 to 0, adding -(p-1) = 1 times each lower
    b, so the word gains S_P = b_0 + ... + b_P: one precomputed word per
    step, a running sum of the b_P's cuts.  Over GF(2) that is an XOR of a
    suffix sum of the basis rows.
    """
    check_enum(code.size(), override, what="codeword enumeration")
    F = code.field
    cuts = [cut for cell in _cells(code.profile)
            for cut in (zip(*cell) if columns else cell)]
    word = [ops.pack([0] * len(cut)) for cut in cuts]
    units = [[ops.pack([F.mul(x, g[j]) for j in cut]) for cut in cuts]
             for g in reversed(code._flat)
             for x in (F.p ** t for t in range(F.k))]
    yield from _count(word, _running(units, ops.add), code.size(), F.p,
                      ops.add)


def _count(start, steps, size, p, add):
    """`start` and then, for c = 1..size-1, the last row list plus
    steps[P], P the place of c's lowest nonzero base-p digit: a base-p
    counter whose place P adds steps[P] = b_0 + ... + b_P (see `_words`)."""
    yield start
    for c in range(1, size):
        place = 0
        while not c % p:
            c //= p
            place += 1
        start = list(map(add, start, steps[place]))
        yield start


def _running(units, add):
    """The running sums units[0], units[0] + units[1], ... of row lists,
    entry by entry: the steps of a base-p counter (`_count`)."""
    return list(accumulate(units, lambda s, u: list(map(add, s, u))))


def _spans(sizes):
    """(first cut, end cut) of each block in a word of `_words`, from the
    blocks' cut counts: `profile.ns` for rows, `profile.ms` for columns."""
    ends = list(accumulate(sizes))
    return list(zip([0] + ends, ends))


def codewords(code: LinearCode, override=False):
    """All q^k codewords as MatrixTuples, deterministic order."""
    profile, F = code.profile, code.field
    ops = _row_ops(F)
    blocks = list(zip(_spans(profile.ns), profile.ms))
    for word in _words(code, ops, override=override):
        yield MatrixTuple(profile, [
            Mat(F, [ops.unpack(row, m) for row in word[a:b]])
            for (a, b), m in blocks], check=False)


def minimum_distance(code: LinearCode, override=False) -> int:
    """Exact minimum sum-rank weight over nonzero codewords.

    Two exact routes; the one with the lower cost, known before starting,
    runs:

    - lattice: a nonzero word of weight <= w exists exactly when some
      subspace tuple U of total rank w has a nontrivial shortening C(U), so
      the distance is the first layer w = 1, 2, ... holding one.  The
      Singleton bound (blocks in non-increasing m, as profiles are kept)
      caps it at d* (`_singleton_cap`): every code has k <= the exponent at
      its own distance, and the exponent falls as d grows, so the distance
      is d* when layers 1..d*-1 hold no such U.  Cost: the number of tuples
      in those layers, sum prod [n_i, w_i]_q.
    - walk: rank every block of all q^k codewords.

    The walk is preferred when q^k < _WORDS_PER_UNIT times the lattice
    cost.  The other route runs when only it fits the guard, and the
    preferred route's TooLarge is raised when neither does.
    """
    if code.k == 0:
        raise TrivialCode("the zero code has no minimum distance")
    cap = _singleton_cap(code.profile, code.k)
    units = _lattice_units(code.profile, cap)
    words = code.size()
    if walk_runs(words, units, words < _WORDS_PER_UNIT * units, override):
        return _walk_distance(code, override)
    return _lattice_distance(code, cap, units, override)


def _walk_distance(code: LinearCode, override=False) -> int:
    """Least sum-rank weight over the nonzero words of `_words`; weight 1
    ends the walk.  A single-row block (n_i = 1) has rank 1 exactly when
    its row is not the zero row, so it costs one comparison; every other
    block is ranked by one semi-echelon insert."""
    ops = _row_ops(code.field)
    extend, spans = ops.extend, _spans(code.profile.ns)
    rows = [(a, ops.pack([0] * m))
            for (a, b), m in zip(spans, code.profile.ms) if b - a == 1]
    spans = [(a, b) for a, b in spans if b - a > 1]
    words = _words(code, ops, override=override)
    next(words)  # the zero word
    best = None
    for word in words:
        w = 0
        for a, zero in rows:
            w += word[a] != zero
        for a, b in spans:
            w += len(extend([], word[a:b], b - a))
        if best is None or w < best:
            best = w
            if best == 1:
                break
    return best


# One lattice unit (a subspace tuple whose shortening is ranked) costs about
# as much as walking this many codewords.  Measured with CPython 3.11 on a
# 2-vCPU x86-64 machine, on the one walk `_words` and the depth-first
# lattice search, GF(2) rows packed: both routes called directly (median of
# up to 41 calls within 1.5 s of CPU per route) on each of the 28 distinct
# codes that perfbench's certify workload certifies with seed 1 (GF(2),
# GF(3), GF(4), GF(256); 2^5 to 2^16 words) and on two Gabidulin MRD
# codes, where the lattice wins (GF(2) 6x6 d = 4 and GF(4) 4x4 d = 3).
# 4 picks the faster route on all 30, as would any ratio in (0.35, 6.75]:
# above 32/92 (a code of 32 words against 92 units walks faster) and at
# most 27/4 (27 words against 4 units over GF(3), the lattice faster).
_WORDS_PER_UNIT = 4


def _singleton_cap(profile: Profile, k: int) -> int:
    """d*: the largest d <= N whose Singleton exponent is still >= k."""
    d = 1
    while d < profile.N and singleton_exponent(profile, d + 1)[0] >= k:
        d += 1
    return d


def _lattice_units(profile: Profile, cap: int) -> int:
    """Subspace tuples of total rank 1..cap-1: the coefficients of
    prod_i sum_s [n_i, s]_q y^s."""
    q = profile.field.q
    layers = poly_product([gaussian_binomial(n, s, q) for s in range(n + 1)]
                          for n in profile.ns)
    return sum(layers[1:cap])


def _constraints(code: LinearCode, block: int, ops):
    """The map from `prows`, rows of F^n_block, to the coefficient rows (as
    `ops` rows) of the conditions p . X[:, b] = 0 on block `block` of
    X = sum_g c_g G_g, one per p in `prows` and column b, lazily.

    The words that meet them are those whose column space in the block lies
    in the orthogonal complement of span(prows).  The block's entries are
    read across the basis once, for every `prows` asked of the map.
    """
    k, pack, combine = code.k, ops.pack, ops.combine
    # cols[b][i]: entry (i, b) of the block, read across the basis
    cols = [[pack([vec[c] for vec in code._flat]) for c in col]
            for col in zip(*_cells(code.profile)[block])]

    def rows(prows):
        return (combine(prow, col, k) for prow in prows for col in cols)

    return rows


def _lattice_distance(code: LinearCode, cap: int, units: int,
                      override=False) -> int:
    """First layer w < cap holding a U with k - rank(constraints(U)) > 0,
    else cap.

    Per dim vector, one depth-first search over P_i = U_i^perp, of
    dimension e_i = n_i - w_i, on one echelon: the blocks with e_i > 0,
    smallest [n_i, e_i]_q first, then each block's RREF pivot patterns,
    then P_i's basis rows, last pivot first.  A row adds its m_i
    constraint rows; a prefix of rank k is not descended, since every
    completion keeps that rank, and the first complete tuple of rank < k
    ends the search.
    """
    check_enum(units, override, what="lattice search")
    F = code.field
    q, k = F.q, code.k
    ns = code.profile.ns
    ops = _row_ops(F)
    add, extend = ops.add, ops.extend

    @lru_cache(maxsize=None)
    def block(i, e):
        # ([n_i, e]_q, i, the RREF pivot patterns of the e-dimensional P in
        # F^n_i), each pattern as its rows' levels, last pivot first
        n = ns[i]
        size = gaussian_binomial(n, e, q)
        check_subspaces(size, override)
        rows = _constraints(code, i, ops)
        # unit[c][t]: the constraint rows of x^t e_c
        unit = [[list(rows([[F.p ** t if j == c else 0 for j in range(n)]]))
                 for t in range(F.k)] for c in range(n)]
        return size, i, [
            [_level(unit, pivots[r],
                    [c for c in range(pivots[r] + 1, n) if c not in pivots],
                    q, add)
             for r in reversed(range(e))]
            for pivots in combinations(range(n), e)]

    def short(walk, b, level, r, echelon):
        # whether rows r.. of the pattern `level` of block b, then the
        # blocks after b, complete `echelon` to a tuple of rank < k
        if r == len(level):
            return b + 1 == len(walk) or any(
                short(walk, b + 1, after, 0, echelon) for after in walk[b + 1])
        start, steps, size = level[r]
        mark = len(echelon)
        for cons in _count(start, steps, size, F.p, add):
            extend(echelon, cons, k)
            if len(echelon) < k and short(walk, b, level, r + 1, echelon):
                return True
            del echelon[mark:]
        return False

    for w in range(1, cap):
        for dv in _dim_vectors(ns, w):
            walk = [pats for _, _, pats in sorted(
                [block(i, n - s) for i, (n, s) in enumerate(zip(ns, dv))
                 if s < n])]
            if not walk or any(short(walk, 0, level, 0, [])
                               for level in walk[0]):
                return w
    return cap


def _level(unit, pivot, free, q, add):
    """One basis row's level: the rows e_pivot + sum_c v_c e_c in
    itertools.product order over the free entries, as the `_count` that
    lists their constraint rows from `unit`; `_words`' base-p counter, one
    place per power x^t of each free entry, the last entry lowest."""
    steps = _running([rows for c in reversed(free) for rows in unit[c]], add)
    return unit[pivot][0], steps, q ** len(free)


# ---------------------------------------------------------------------------
# duality and shortening
# ---------------------------------------------------------------------------

def dual(code: LinearCode) -> LinearCode:
    """Dual with respect to the trace product (= flattened dot product)."""
    profile = code.profile
    if code.k == 0:
        return full_code(profile)
    return LinearCode(profile, _perp_rows(code._flat, profile.dim, code.field))


def shorten(code: LinearCode, u: SubspaceTuple) -> LinearCode:
    """Subcode of words whose support lies in u, via linear constraints."""
    if u.profile != code.profile:
        raise ProfileMismatch("subspace tuple lives in a different profile")
    ops = _row_ops(code.field)
    cons = [ops.unpack(row, code.k) for i, part in enumerate(u.parts)
            for row in _constraints(code, i, ops)(
                orthogonal_complement(part).basis)]
    return _subcode(code, cons, code.profile, range(code.profile.dim))


def duality_shorten_check(code: LinearCode, u: SubspaceTuple) -> bool:
    """|C(U)| * |Pi(U)^perp| == |C| * |C^perp(U^perp)|, checked exactly."""
    prof = code.profile
    du = dual(code)
    lhs = shorten(code, u).k
    rhs = shorten(du, u.dual()).k
    exponent = sum(m * (n - s.dim)
                   for (n, m), s in zip(prof.blocks, u.parts))
    return lhs + exponent == code.k + rhs


# ---------------------------------------------------------------------------
# MSRD machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MsrdWitness:
    is_msrd: bool
    d: int | None
    singleton_value: int | None
    j: int | None
    delta: int | None


def singleton_decomposition(ns, d):
    """The unique (j, delta) with d-1 = n_1+...+n_{j-1} + delta, 0<=delta<n_j.

    Indices are 1-based to match the usual statement of the bound.
    """
    r = d - 1
    acc = 0
    for j, n in enumerate(ns, start=1):
        if r < acc + n:
            return j, r - acc
        acc += n
    raise ValueError(f"distance {d} too large for row sum {sum(ns)}")


def singleton_exponent(profile: Profile, d: int) -> tuple[int, int, int]:
    """(exponent, j, delta) of the Singleton bound q^exponent."""
    ns, ms = profile.ns, profile.ms
    j, delta = singleton_decomposition(ns, d)
    expo = sum(ms[i] * ns[i] for i in range(j - 1, profile.t)) - ms[j - 1] * delta
    return expo, j, delta


def msrd_check(code: LinearCode, override=False) -> MsrdWitness:
    """Compare q^k with the Singleton bound at the code's exact distance."""
    if code.k == 0:
        return MsrdWitness(True, None, None, None, None)
    d = minimum_distance(code, override)
    expo, j, delta = singleton_exponent(code.profile, d)
    value = code.field.q ** expo
    return MsrdWitness(code.size() == value, d, value, j, delta)


@dataclass(frozen=True)
class SystematicForm:
    """Tail-systematic basis of an MSRD code.

    Positions are (block, row, col), 0-based, in the normalized block order.
    The basis rows are identity on the tail positions (in tail order) and
    arbitrary on the head.
    """
    basis: tuple
    tail: tuple
    head: tuple
    j: int
    delta: int


def _tail_head_positions(profile: Profile, j: int, delta: int):
    """Row a of block i is a tail row when i > j-1, or i = j-1 and a < n_j -
    delta; every other row is a head row."""
    tail, head = [], []
    for i, (n, m) in enumerate(profile.blocks):
        for a in range(n):
            is_tail = i > j - 1 or (i == j - 1 and a < n - delta)
            (tail if is_tail else head).extend((i, a, b) for b in range(m))
    return tuple(tail), tuple(head)


def systematic_form(code: LinearCode, witness: MsrdWitness | None = None,
                    override=False) -> SystematicForm:
    """Row-reduce with tail columns first; MSRD guarantees a full tail pivot set."""
    if witness is None:
        witness = msrd_check(code, override)
    if not witness.is_msrd:
        raise NotMsrd("systematic tail form requires an MSRD code")
    if code.k == 0:
        return SystematicForm((), (), (), 0, 0)
    profile = code.profile
    F = code.field
    j, delta = witness.j, witness.delta
    tail, head = _tail_head_positions(profile, j, delta)
    cells = _cells(profile)
    order = [cells[i][a][b] for i, a, b in tail + head]
    inv = [0] * profile.dim
    for new, old in enumerate(order):
        inv[old] = new
    rows = [[vec[order[c]] for c in range(profile.dim)] for vec in code._flat]
    rows, pivots = _rref_rows(rows, F)
    if pivots != list(range(code.k)):
        raise NotMsrd("tail positions do not form an information set")
    basis = []
    for r in rows:
        vec = [r[inv[pos]] for pos in range(profile.dim)]
        basis.append(unflatten(profile, vec))
    return SystematicForm(tuple(basis), tail, head, j, delta)


def _subcode(code: LinearCode, constraints, profile: Profile,
             positions) -> LinearCode:
    """The words of `code` whose coefficient vectors meet `constraints`
    (rows over F^k, each asking c . row = 0), read at the flat `positions`
    as words of `profile`.

    Every derived code is one: shortening, the MSRD shortenings and
    puncturing, block reordering and the mixed-m distance-2 intersection.
    One RREF of [constraint values | entries at `positions`] per generator:
    the rows pivoted past the constraint columns are the canonical basis.
    """
    r = len(constraints)
    rows = [[c[g] for c in constraints] + [vec[p] for p in positions]
            for g, vec in enumerate(code._flat)]
    rows, pivots = _rref_rows(rows, code.field)
    return LinearCode(profile, [row[r:] for row, p in zip(rows, pivots)
                                if p >= r])


def _cut(code: LinearCode, vanish, cells) -> LinearCode:
    """The words vanishing at the flat positions `vanish`, read at `cells`:
    one grid of the code's flat positions per block of the new profile, in
    its user order.  A block left with no row or no column is dropped.

    On an MSRD code every vanishing position is an identity coordinate of
    the tail-systematic basis, so each one costs exactly one dimension.
    """
    cells = [g for g in cells if g and g[0]]
    profile = profile_create(code.field, [(len(g), len(g[0])) for g in cells])
    positions = [c for g in profile.from_user_order(cells) for r in g for c in r]
    out = _subcode(code, [[vec[c] for vec in code._flat] for c in vanish],
                   profile, positions)
    expect = max(code.k - len(vanish), 0)  # the zero code stays zero
    if out.k != expect:
        raise NotMsrd(f"the derived code has dimension {out.k}, not {expect}")
    return out


def _apply_order(code: LinearCode, order):
    if order is None:
        return code
    prof = code.profile
    order = tuple(order)
    if sorted(order) != list(range(prof.t)):
        raise IndexOutOfTheoremRange(f"{order} is not a block permutation")
    ms = prof.ms
    perm_ms = [ms[i] for i in order]
    if any(perm_ms[i] < perm_ms[i + 1] for i in range(len(perm_ms) - 1)):
        raise IndexOutOfTheoremRange(
            "re-ordering must keep column counts non-increasing")
    cells = _cells(prof)
    return _cut(code, [], [cells[i] for i in order])


def _tail_split(code: LinearCode, what: str, override):
    """(j, delta, d) of an MSRD code; the zero code has every block in its
    tail and distance 0."""
    w = msrd_check(code, override)
    if not w.is_msrd:
        raise NotMsrd(f"{what} requires an MSRD code")
    return (w.j, w.delta, w.d) if code.k else (1, 0, 0)


def msrd_shorten_row(code: LinearCode, s: int, row: int = 0, order=None,
                     override=False) -> LinearCode:
    """Shorten an MSRD code on row `row` of block `s` (1-based, s in {j..t}).

    Returns an MSRD code with the same distance and dimension k - m_s in
    the profile with n_s reduced by one (the block is dropped when it
    empties).
    """
    code = _apply_order(code, order)
    j, delta, _ = _tail_split(code, "row shortening", override)
    ns, t = code.profile.ns, code.profile.t
    if not j <= s <= t:
        raise IndexOutOfTheoremRange(f"s must lie in [{j}, {t}]")
    n_prime = ns[s - 1] - delta if s == j else ns[s - 1]
    if not 0 <= row < n_prime:
        raise IndexOutOfTheoremRange(f"row must be a tail row of block {s}")
    cells = list(_cells(code.profile))
    block = cells[s - 1]
    cells[s - 1] = block[:row] + block[row + 1:]
    return _cut(code, block[row], cells)


def msrd_shorten_col(code: LinearCode, s: int, col: int = 0, order=None,
                     override=False) -> LinearCode:
    """Shorten an MSRD code on column `col` of block `s` (1-based).

    Admissible blocks are s in {j+1..t}; when delta = 0 every row of block j
    is a tail row, so s = j is admitted as well.  The result keeps the
    distance and has dimension k - n_s.
    """
    code = _apply_order(code, order)
    j, delta, _ = _tail_split(code, "column shortening", override)
    ns, ms, t = code.profile.ns, code.profile.ms, code.profile.t
    lo = j if delta == 0 else j + 1
    if not lo <= s <= t:
        raise IndexOutOfTheoremRange(f"s must lie in [{lo}, {t}]")
    if not 0 <= col < ms[s - 1]:
        raise IndexOutOfTheoremRange(f"column out of range for block {s}")
    if ms[s - 1] - 1 > 0 and ns[s - 1] > ms[s - 1] - 1:
        raise IndexOutOfTheoremRange(
            f"removing a column from block {s} would leave more rows than columns")
    cells = list(_cells(code.profile))
    block = cells[s - 1]
    cells[s - 1] = [r[:col] + r[col + 1:] for r in block]
    return _cut(code, [r[col] for r in block], cells)


def msrd_puncture_row(code: LinearCode, s: int, order=None,
                      override=False) -> LinearCode:
    """Puncture an MSRD code of distance >= 2 on the last row of a head block.

    Admissible s: 1..j when delta > 0, 1..j-1 when delta = 0 (1-based).
    The result is MSRD with distance d-1 and the same dimension.
    """
    code = _apply_order(code, order)
    j, delta, d = _tail_split(code, "puncturing", override)
    if d < 2:
        raise IndexOutOfTheoremRange("puncturing needs distance at least 2")
    hi = j if delta > 0 else j - 1
    if not 1 <= s <= hi:
        raise IndexOutOfTheoremRange(f"s must lie in [1, {hi}]")
    cells = list(_cells(code.profile))
    cells[s - 1] = cells[s - 1][:-1]
    return _cut(code, [], cells)
