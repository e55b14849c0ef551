"""F_q-linear sum-rank metric codes.

A code is stored by the canonical RREF basis of its flattened generator
matrix (block-major, row-major within each block), so two equal codes have
equal bases.  Codeword enumeration is lexicographic over coefficient
vectors and incremental, touching one basis row per step on average.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ambient import (
    MatrixTuple,
    Profile,
    SubspaceTuple,
    flatten,
    profile_create,
    unflatten,
)
from .errors import (
    IndexOutOfTheoremRange,
    NotMsrd,
    ProfileMismatch,
    TrivialCode,
)
from .guard import check_enum
from .matq import (
    Mat,
    _rref_rows,
    in_rref_span,
    linear_combination,
    nullspace,
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
    rows = [flatten(g) for g in gens]
    rows, rk, _ = _rref_rows(rows, profile.dim, profile.field)
    return LinearCode(profile, rows[:rk])


def full_code(profile: Profile) -> LinearCode:
    return LinearCode(profile, Mat.identity(profile.field, profile.dim).rows)


def zero_code(profile: Profile) -> LinearCode:
    return LinearCode(profile, [])


# ---------------------------------------------------------------------------
# codeword enumeration
# ---------------------------------------------------------------------------

def _iter_flat_words(code: LinearCode, override=False):
    """Yield flattened codewords in lexicographic coefficient order.

    The working vector is updated in place: incrementing the base-q counter
    changes a suffix of digits, and each digit change adds (new-old) times
    one basis row.  Callers must not mutate the yielded list.
    """
    check_enum(code.size(), override, what="codeword enumeration")
    F = code.field
    q = F.q
    k = code.k
    D = code.profile.dim
    cur = [0] * D
    yield (0,) * k, cur
    if k == 0:
        return
    digits = [0] * k
    rows = code._flat
    add, sub, mul = F.add, F.sub, F.mul
    while True:
        i = k - 1
        while i >= 0 and digits[i] == q - 1:
            i -= 1
        if i < 0:
            return
        changed = []
        changed.append((i, digits[i], digits[i] + 1))
        digits[i] += 1
        for j in range(i + 1, k):
            changed.append((j, q - 1, 0))
            digits[j] = 0
        for j, old, new in changed:
            delta = sub(new, old)
            if delta:
                row = rows[j]
                for pos in range(D):
                    rv = row[pos]
                    if rv:
                        cur[pos] = add(cur[pos], mul(delta, rv))
        yield tuple(digits), cur


def codewords(code: LinearCode, override=False):
    """All q^k codewords as MatrixTuples, deterministic order."""
    for _, vec in _iter_flat_words(code, override):
        yield unflatten(code.profile, vec)


def _srk_of_flat(vec, slices, F):
    total = 0
    for pos, n, m in slices:
        rows = [list(vec[pos + i * m: pos + (i + 1) * m]) for i in range(n)]
        total += _rref_rows(rows, m, F)[1]
    return total


def minimum_distance(code: LinearCode, override=False) -> int:
    """Exact minimum sum-rank weight over nonzero codewords."""
    if code.k == 0:
        raise TrivialCode("the zero code has no minimum distance")
    F = code.field
    slices = code.profile.slices
    best = None
    for digits, vec in _iter_flat_words(code, override):
        if not any(digits):
            continue
        w = _srk_of_flat(vec, slices, F)
        if best is None or w < best:
            best = w
            if best == 1:
                break
    return best


# ---------------------------------------------------------------------------
# duality and shortening
# ---------------------------------------------------------------------------

def dual(code: LinearCode) -> LinearCode:
    """Dual with respect to the trace product (= flattened dot product)."""
    profile = code.profile
    if code.k == 0:
        return full_code(profile)
    return LinearCode(profile, nullspace(Mat(code.field, code._flat)).basis)


def shorten(code: LinearCode, u: SubspaceTuple) -> LinearCode:
    """Subcode of words whose support lies in u, via linear constraints."""
    if u.profile != code.profile:
        raise ProfileMismatch("subspace tuple lives in a different profile")
    profile = code.profile
    F = code.field
    if code.k == 0:
        return code
    # constraint rows: for each block i, each row p of a basis of U_i^perp,
    # each column b: sum_g c_g * (p . G_g[i][:, b]) = 0
    cons = []
    for (pos, n, m), part in zip(profile.slices, u.parts):
        comp = orthogonal_complement(part)
        for prow in comp.basis:
            for b in range(m):
                row = []
                for g in range(code.k):
                    vec = code._flat[g]
                    acc = 0
                    for i in range(n):
                        x = vec[pos + i * m + b]
                        if x and prow[i]:
                            acc = F.add(acc, F.mul(prow[i], x))
                    row.append(acc)
                cons.append(row)
    if not cons:
        return code
    sol = nullspace(Mat(F, cons))
    return code_create(profile, [
        unflatten(profile, linear_combination(coeffs, code._flat, profile.dim, F))
        for coeffs in sol.basis])


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
    ns, ms = profile.ns, profile.ms
    tail, head = [], []
    for i in range(profile.t):
        ni_prime = ns[i] - delta if i == j - 1 else ns[i]
        if i >= j - 1:
            for a in range(ni_prime):
                for b in range(ms[i]):
                    tail.append((i, a, b))
            for a in range(ni_prime, ns[i]):
                for b in range(ms[i]):
                    head.append((i, a, b))
        else:
            for a in range(ns[i]):
                for b in range(ms[i]):
                    head.append((i, a, b))
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
    slices = profile.slices
    order = [slices[i][0] + a * slices[i][2] + b for i, a, b in tail + head]
    inv = [0] * profile.dim
    for new, old in enumerate(order):
        inv[old] = new
    rows = [[vec[order[c]] for c in range(profile.dim)] for vec in code._flat]
    rows, rk, pivots = _rref_rows(rows, profile.dim, F)
    if rk != code.k or pivots != list(range(code.k)):
        raise NotMsrd("tail positions do not form an information set")
    basis = []
    for r in rows[:rk]:
        vec = [r[inv[pos]] for pos in range(profile.dim)]
        basis.append(unflatten(profile, vec))
    return SystematicForm(tuple(basis), tail, head, j, delta)


def _rebuild(field, blocks, gens_blocks):
    """Create a code from raw blocks in arbitrary order, renormalizing."""
    keep = [i for i, (n, m) in enumerate(blocks) if n >= 1 and m >= 1]
    blocks = [blocks[i] for i in keep]
    gens_blocks = [[g[i] for i in keep] for g in gens_blocks]
    profile = profile_create(field, blocks)
    gens = [MatrixTuple(profile, profile.from_user_order(g)) for g in gens_blocks]
    return code_create(profile, gens)


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
    blocks = [prof.blocks[i] for i in order]
    gens_blocks = [[g.blocks[i] for i in order] for g in code.basis]
    return _rebuild(prof.field, blocks, gens_blocks)


def msrd_shorten_row(code: LinearCode, s: int, row: int = 0, order=None,
                     override=False) -> LinearCode:
    """Shorten an MSRD code on row `row` of block `s` (1-based, s in {j..t}).

    Returns an MSRD code with the same distance in the profile with n_s
    reduced by one (the block is dropped when it empties).
    """
    code = _apply_order(code, order)
    sf = systematic_form(code, override=override)
    profile = code.profile
    j = sf.j
    ns = profile.ns
    if not j <= s <= profile.t:
        raise IndexOutOfTheoremRange(f"s must lie in [{j}, {profile.t}]")
    n_prime = ns[s - 1] - sf.delta if s == j else ns[s - 1]
    if not 0 <= row < n_prime:
        raise IndexOutOfTheoremRange(f"row must be a tail row of block {s}")
    keep = [g for g, (i, a, _) in enumerate(sf.tail)
            if not (i == s - 1 and a == row)]
    new_blocks = list(profile.blocks)
    n, m = new_blocks[s - 1]
    new_blocks[s - 1] = (n - 1, m)
    gens_blocks = []
    for g in keep:
        tup = sf.basis[g]
        blocks = list(tup.blocks)
        b = blocks[s - 1]
        blocks[s - 1] = Mat(code.field,
                            [r for a, r in enumerate(b.rows) if a != row])
        gens_blocks.append(blocks)
    return _rebuild(code.field, new_blocks, gens_blocks)


def msrd_shorten_col(code: LinearCode, s: int, col: int = 0, order=None,
                     override=False) -> LinearCode:
    """Shorten an MSRD code on column `col` of block `s` (1-based).

    Admissible blocks are s in {j+1..t}; when delta = 0 every row of block j
    is a tail row, so s = j is admitted as well.
    """
    code = _apply_order(code, order)
    sf = systematic_form(code, override=override)
    profile = code.profile
    j = sf.j
    ns, ms = profile.ns, profile.ms
    lo = j if sf.delta == 0 else j + 1
    if not lo <= s <= profile.t:
        raise IndexOutOfTheoremRange(f"s must lie in [{lo}, {profile.t}]")
    if not 0 <= col < ms[s - 1]:
        raise IndexOutOfTheoremRange(f"column out of range for block {s}")
    if ms[s - 1] - 1 > 0 and ns[s - 1] > ms[s - 1] - 1:
        raise IndexOutOfTheoremRange(
            f"removing a column from block {s} would leave more rows than columns")
    keep = [g for g, (i, _, b) in enumerate(sf.tail)
            if not (i == s - 1 and b == col)]
    new_blocks = list(profile.blocks)
    n, m = new_blocks[s - 1]
    new_blocks[s - 1] = (n, m - 1)
    gens_blocks = []
    for g in keep:
        tup = sf.basis[g]
        blocks = list(tup.blocks)
        b = blocks[s - 1]
        blocks[s - 1] = Mat(code.field,
                            [[x for bb, x in enumerate(r) if bb != col]
                             for r in b.rows])
        gens_blocks.append(blocks)
    return _rebuild(code.field, new_blocks, gens_blocks)


def msrd_puncture_row(code: LinearCode, s: int, order=None,
                      override=False) -> LinearCode:
    """Puncture an MSRD code of distance >= 2 on the last row of a head block.

    Admissible s: 1..j when delta > 0, 1..j-1 when delta = 0 (1-based).
    The result is MSRD with distance d-1.
    """
    code = _apply_order(code, order)
    witness = msrd_check(code, override)
    if not witness.is_msrd:
        raise NotMsrd("puncturing theorem requires an MSRD code")
    if witness.d is None or witness.d < 2:
        raise IndexOutOfTheoremRange("puncturing needs distance at least 2")
    j, delta = witness.j, witness.delta
    hi = j if delta > 0 else j - 1
    if not 1 <= s <= hi:
        raise IndexOutOfTheoremRange(f"s must lie in [1, {hi}]")
    profile = code.profile
    new_blocks = list(profile.blocks)
    n, m = new_blocks[s - 1]
    new_blocks[s - 1] = (n - 1, m)
    gens_blocks = []
    for tup in code.basis:
        blocks = list(tup.blocks)
        b = blocks[s - 1]
        blocks[s - 1] = Mat(code.field, b.rows[:-1])
        gens_blocks.append(blocks)
    out = _rebuild(code.field, new_blocks, gens_blocks)
    assert out.k == code.k, "puncturing an MSRD code must preserve dimension"
    return out
