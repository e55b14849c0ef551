"""Weight distributions, their MacWilliams transforms, and the MSRD
support-distribution criteria.

The transforms read the profile from the distribution they are given.  Their
kernels factor across blocks, K(u, h) = prod_i K_i(u_i, h_i), so one kernel
contracts the counts block by block: |L| * sum |L_i| big-integer multiplies,
where L_i is block i's lattice (its subspaces, or its ranks 0..n_i) and L
is their product.

The distributions of a code have two exact routes, picked per call by a
cost known before either starts (see `brute_distributions`):

- the lattice route ranks shortenings: |C(V)| = q^(k - rank(constraints(V)))
  for every V in L, and the support distribution is its Moebius inversion
  W_U = sum_{V<=U} mu(V, U) |C(V)|, run through the same product kernel
  with mu_i(v, u) = (-1)^d q^C(d,2), d = dim u - dim v.  Cost: |L| ranks
  and |L| * sum |L_i| contractions.
- the walk ranks every block of all q^k codewords.

The walk is preferred when q^k is below the lattice route's cost in words:
one per `_TUPLES_PER_WORD` tuples of L plus one per `_CONTRACTIONS_PER_WORD`
contractions of the inversion, |L| * sum |L_i| of them.  The enumeration
guard counts q^k words for the walk and those contractions for the lattice
route, and the other route runs when only it fits (`guard.walk_runs`).

Both routes rank in the representation `matq._row_ops` picks: over GF(2),
packed ints reduced by the XOR insert `matq._extend_bits`.  The lattice
route ranks its constraint rows (`code._constraints`): each block's rows
are picked per subspace, reduced once, and `_shortening_sizes` ranks every
tuple of them depth-first over the blocks on one echelon, appending each
size straight to the list the inversion reads.  It does not share the
distance search's row-by-row tree (`code._lattice_distance`): here every
leaf is reached, and a prototype of that tree for the supports made a
spectrum round 17.5% slower.  The walk ranks each block's columns from
`code._words`, as the distance walk ranks its rows, and counts words by
the tuple of the column spaces' canonical forms.

Every lattice kernel reads one subspace table per distinct n, built once
per profile and kept on it (`_lattice_tables`, `_subspace_table`): the
subspaces of GF(q)^n in `all_subspaces` order, their dimensions and
positions, the position of each one's orthogonal complement, each one's
points (1-dimensional subspaces) as a bit mask, and the kernels built on
the table so far (the Moebius kernel and each m's support kernel).  v <= u
is one AND of masks, and dim(h^perp meet u) comes from a popcount, since a
w-dimensional space has (q^w - 1)/(q - 1) points.  The lattice route takes
its constraint rows from the perps.  A code's route, its dual's (`dual`
keeps the profile) and `macwilliams_support` thus read one table and the
same `Subspace` objects; there is no cache across profiles, so each newly
read code builds its own.  The lattice transform guard runs on every call,
before a held table is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, product
from math import prod
from typing import NamedTuple

from .ambient import (
    Profile,
    SubspaceTuple,
    _dim_vectors,
    _signed_power,
    poly_product,
)
from .code import (
    LinearCode,
    _constraints,
    _spans,
    _words,
)
from .errors import (
    BadBlock,
    BadDistance,
    IncompleteDistribution,
    SrkitError,
    UnequalColumnSizes,
)
from .guard import check_enum, check_keys, walk_runs
from .matq import (
    Subspace,
    _normal,
    _points,
    _row_ops,
    all_subspaces,
    gaussian_binomial,
)


@dataclass(frozen=True)
class SumRankDistribution:
    counts: tuple  # counts[r] = number of words of sum-rank weight r

    def total(self):
        return sum(self.counts)


@dataclass(frozen=True)
class RankListDistribution:
    profile: Profile
    counts: dict  # rank vector -> count (zero entries omitted)

    def total(self):
        return sum(self.counts.values())

    def sumrank(self, N=None) -> SumRankDistribution:
        N = self.profile.N if N is None else N
        out = [0] * (N + 1)
        for r, c in self.counts.items():
            out[sum(r)] += c
        return SumRankDistribution(tuple(out))


@dataclass(frozen=True)
class SupportDistribution:
    profile: Profile
    counts: dict  # SubspaceTuple -> count (zero entries omitted)

    def total(self):
        return sum(self.counts.values())

    def ranklist(self) -> RankListDistribution:
        out = {}
        for u, c in self.counts.items():
            dv = u.dim_vector
            out[dv] = out.get(dv, 0) + c
        return RankListDistribution(self.profile, out)


def brute_distributions(code: LinearCode, override=False):
    """All three distributions of the code, exact, by one of two routes
    picked by a cost known before either starts:

    - lattice: |C(V)| = q^(k - rank(constraints(V))) for every subspace
      tuple V of L = L_1 x ... x L_t, then W_U = sum_{V<=U} mu(V, U) |C(V)|
      by Moebius inversion through the product kernel.  Cost: |L| ranks
      and |L| * sum |L_i| contractions, from q-binomials before anything
      is listed.
    - walk: the column spaces of every block of all q^k codewords.

    The walk is preferred when q^k < |L| // _TUPLES_PER_WORD +
    |L| * sum |L_i| // _CONTRACTIONS_PER_WORD.  The guard counts q^k words
    for the walk and the contractions for the lattice; the other route runs
    when only it fits, and the preferred route's TooLarge is raised when
    neither does.  The rank-list and sum-rank distributions follow from the
    support one.
    """
    words, sizes = code.size(), _lattice_sizes(code.profile)
    units = _transform_units(sizes)
    walk_first = words < (prod(sizes) // _TUPLES_PER_WORD
                          + units // _CONTRACTIONS_PER_WORD)
    if walk_runs(words, units, walk_first, override):
        counts = _walk_supports(code, override)
    else:
        counts = _lattice_supports(code, override)
    supd = SupportDistribution(code.profile, counts)
    rld = supd.ranklist()
    return rld.sumrank(), rld, supd


# The lattice route costs about as much as walking one word per
# _TUPLES_PER_WORD subspace tuples (their shortenings ranked) plus one per
# _CONTRACTIONS_PER_WORD contractions of the inversion; integers, so a huge
# lattice needs no float.  Measured with CPython 3.11 on a 2-vCPU x86-64
# machine, both routes called directly, the walk on packed GF(2) columns
# and the lattice route on a newly read copy of each code (so it builds its
# tables as a first call does), on the 20 codes of perfbench's seed-1
# spectrum workload (10 codes and their duals over GF(2), GF(3), GF(4); 4
# to 6561 words, 8 to 125 tuples; median of up to 41 calls) and on 43
# seeded codes with one 5x5 or 4x4 block or two 3x3 blocks over GF(2) to
# GF(4), every k with q^k from |L|/10 to 12|L| (median of 7 calls; not
# GF(4) 5x5, whose 12,278^2 kernel entries need GBs).  (2, 64) picks the
# faster route on all 20 seed-1 codes (so would 1 or 2 tuples per word with
# any contraction term, 3 or 4 with 1/32 or 1/64 words per contraction)
# and, among 1 to 4 tuples and 0 or 1/32 to 1/1024 words per contraction,
# ties for the least worst slowdown on the 43: 3.1x (GF(2) 4x4, k = 7,
# lattice 3.2 against 1.1 ms; 7 codes miss).
_TUPLES_PER_WORD = 2
_CONTRACTIONS_PER_WORD = 64


def _lattice_sizes(profile: Profile):
    """|L_i| = sum_s [n_i, s]_q for every block."""
    q = profile.field.q
    return [sum(gaussian_binomial(n, s, q) for s in range(n + 1))
            for n in profile.ns]


def _walk_supports(code: LinearCode, override=False):
    """Support counts by ranking every block of every codeword.

    Words come from `code._words` as block columns in the `matq._row_ops`
    representation, the distance walk's, and are counted by the tuple of
    their blocks' column spaces, each one the canonical form of the span of
    its m columns; each distinct support becomes a `SubspaceTuple` once, at
    the end.
    """
    profile = code.profile
    F = code.field
    ops = _row_ops(F)
    extend, reduced = ops.extend, ops.reduced
    blocks = list(zip(_spans(profile.ms), profile.ns))
    counts = {}
    for word in _words(code, ops, columns=True, override=override):
        key = tuple(reduced(extend([], word[a:b], n)) for (a, b), n in blocks)
        c = counts[key] = counts.get(key, 0) + 1
        if c == 1:
            check_keys(len(counts))
    return {SubspaceTuple(profile, [
        Subspace(F, n, [ops.unpack(row, n) for row in basis], canonical=True)
        for n, basis in zip(profile.ns, key)], check=False): c
        for key, c in counts.items()}


def _lattice_supports(code: LinearCode, override=False):
    """Support counts by Moebius inversion of the shortening sizes.

    Block i of a word has its column space inside V_i exactly when the
    word meets the constraints of V_i^perp, so |C(V)| = q^(k - r) with r
    the rank of all blocks' constraints together.
    """
    profile = code.profile
    tables = _lattice_tables(profile, override)
    k = code.k
    ops = _row_ops(code.field)
    picks = []
    for i, n in enumerate(profile.ns):
        table = tables[n]
        rows = _constraints(code, i, ops)
        picks.append([[row for _, row in ops.extend(
            [], rows(table.subspaces[p].basis), k)] for p in table.perps])
    g = _shortening_sizes(picks, k, code.field.q, ops.extend)
    values = _product_transform(
        g, [tables[n].subspaces for n in profile.ns],
        [_kernel(tables[n], None, _mobius_kernel) for n in profile.ns])
    return {SubspaceTuple(profile, u, check=False): c for u, c in values if c}


def _shortening_sizes(picks, k, q, extend):
    """q^(k - r) for every choice of one row list per block, in
    itertools.product order, r the rank of the chosen rows together.

    Depth-first over the blocks with incremental elimination on one
    echelon, so each choice costs one `extend` (the semi-echelon insert of
    the rows' representation, see `matq._row_ops`) and `del echelon[mark:]`
    undoes it; a branch whose rank reaches k is not descended, and its
    choices below all read q^0.
    """
    powers = [q ** (k - r) for r in range(k + 1)]
    sizes, echelon, last = [], [], len(picks) - 1

    def fill(depth):
        mark = len(echelon)
        below = prod(map(len, picks[depth + 1:]))
        for rows in picks[depth]:
            extend(echelon, rows, k)
            if len(echelon) == k:
                sizes.extend([1] * below)
            elif depth == last:
                sizes.append(powers[len(echelon)])
            else:
                fill(depth + 1)
            del echelon[mark:]

    fill(0)
    return sizes


class _SubspaceTable(NamedTuple):
    """What every lattice kernel reads about GF(q)^n, position by position
    in `all_subspaces` order (see the module docstring), and the kernels
    built on it so far (`_kernel`)."""
    subspaces: list
    dims: list
    perps: list
    masks: list
    positions: dict
    kernels: dict


def _subspace_table(n, F, override=False):
    """The table of GF(q)^n.

    The points are the 1-dimensional subspaces, right after the zero one
    in `all_subspaces` order; u's mask marks each of u's points
    (`matq._points`, each as its row with a leading 1).  u^perp is the
    meet of the hyperplanes x^perp over u's basis rows x (the whole space
    when u = 0), and each hyperplane is keyed by the point its normal
    spans, read off its RREF basis (`matq._normal`).
    """
    subspaces = list(all_subspaces(n, F, override))
    dims = [u.dim for u in subspaces]
    bits = {u.basis[0]: 1 << j
            for j, u in enumerate(subspaces[1:dims.count(1) + 1])}
    masks = [sum(map(bits.__getitem__, _points(u))) for u in subspaces]
    hyperplanes = {bits[_normal(u)]: mask
                   for u, mask in zip(subspaces, masks) if u.dim == n - 1}
    index = {mask: h for h, mask in enumerate(masks)}
    perps = []
    for u in subspaces:
        meet = masks[-1]
        for row in u.basis:
            meet &= hyperplanes[bits[row]]
        perps.append(index[meet])
    return _SubspaceTable(subspaces, dims, perps, masks,
                          {u: h for h, u in enumerate(subspaces)}, {})


def _lattice_tables(profile: Profile, override=False):
    """The subspace table of every distinct n of the profile, after the
    lattice transform guard: |L| * sum |L_i| units, from q-binomials, so an
    oversized lattice is refused before it is listed.  The guard runs on
    every call; each table is built once per profile and kept on it (slot
    `_lattice`), so the code's route, its dual's (`dual` keeps the profile)
    and `macwilliams_support` read the same table and `Subspace`s."""
    check_enum(_transform_units(_lattice_sizes(profile)), override,
               what="lattice transform")
    tables = profile._lattice
    for n in profile.ns:
        if n not in tables:
            tables[n] = _subspace_table(n, profile.field, override)
    return tables


def _kernel(table, key, build):
    """The kernel the table keeps under key: the Moebius kernel under None,
    the support kernel of m under m; build(table) on first use."""
    kernel = table.kernels.get(key)
    if kernel is None:
        kernel = table.kernels[key] = build(table)
    return kernel


def _transform_units(sizes):
    """|L| * sum |L_i|: the contractions of a lattice transform, from the
    block lattices' sizes."""
    return prod(sizes) * sum(sizes)


def _mobius_kernel(table):
    """Columns of mu(v, u) = (-1)^d q^C(d,2), d = dim u - dim v, for v <= u
    and 0 otherwise, over the subspaces of the table."""
    q = table.subspaces[0].field.q
    signs = [_signed_power(q, d) for d in range(table.dims[-1] + 1)]
    return [[signs[du - dv] if own & span == own else 0
             for du, span in zip(table.dims, table.masks)]
            for dv, own in zip(table.dims, table.masks)]


# ---------------------------------------------------------------------------
# MacWilliams transforms
# ---------------------------------------------------------------------------

def _exact_quotient(acc, cardinality):
    """acc / |C|; exact whenever the input is the distribution of a code."""
    quot, rem = divmod(acc, cardinality)
    if rem:
        raise IncompleteDistribution(
            f"transform value {acc} is not a multiple of |C| = {cardinality}")
    return quot


def _dense(pairs, positions):
    """(key, count) pairs laid out densely over the product of the axes,
    last block fastest: positions[i] maps key[i] to its position on block
    i's axis (a table's `positions`, or range(n + 1), whose ranks are their
    own positions)."""
    sizes = [len(index) for index in positions]
    dense = [0] * prod(sizes)
    for key, c in pairs:
        pos = 0
        for index, size, a in zip(positions, sizes, key):
            pos = pos * size + index[a]
        dense[pos] += c
    return dense


def _product_transform(dense, axes, kernels):
    """Yield (u, sum_h dense[h] * prod_i K_i(u_i, h_i)) for every u.

    dense holds the counts over the product of the axes in
    itertools.product order (see `_dense`); kernels[i][h] is the column
    (K_i(u, h) for u in axes[i]) at position h of axes[i], and is only
    read for the h with a nonzero count.  Each step contracts the leading
    block and rotates it to the back; a u's first term is taken as it is,
    not added to zeros, which keeps small lattices' transforms fast.
    Values come in itertools.product(*axes) order.
    """
    for axis, kernel in zip(axes, kernels):
        width = len(dense) // len(axis)
        out = [None] * len(axis)
        for h in range(len(axis)):
            row = dense[h * width:(h + 1) * width]
            if any(row):
                for u, c in enumerate(kernel[h]):
                    if c:
                        acc = out[u]
                        if acc is None:
                            out[u] = row if c == 1 else [c * x for x in row]
                        else:
                            out[u] = [a + c * x for a, x in zip(acc, row)]
        zero = [0] * width
        dense = list(chain.from_iterable(
            zip(*[zero if acc is None else acc for acc in out])))
    return zip(product(*axes), dense)


class _Columns(dict):
    """Kernel columns by position h, each computed on first use."""

    def __init__(self, column):
        super().__init__()
        self.column = column

    def __missing__(self, h):
        self[h] = col = self.column(h)
        return col


def _support_kernel(m, table):
    """Columns of K(u, h) = sum_{v<=u} q^{m v} (-1)^{u-v} q^{C(u-v,2)} [w v]_q
    over the subspaces of the table, with u, v dimensions and
    w = dim(h^perp meet u), read off the point count of the meet."""
    q, n = table.subspaces[0].field.q, table.dims[-1]
    g = [[sum(q ** (m * v) * _signed_power(q, u - v) * gaussian_binomial(w, v, q)
              for v in range(u + 1))
          for w in range(n + 1)]
         for u in range(n + 1)]
    meet_dim = {(q ** w - 1) // (q - 1): w for w in range(n + 1)}

    def column(h):
        perp = table.masks[table.perps[h]]
        return [g[du][meet_dim[(perp & mask).bit_count()]]
                for du, mask in zip(table.dims, table.masks)]

    return _Columns(column)


def _counted_profile(dist, cardinality):
    """dist.profile, once dist is checked to count `cardinality` words."""
    if dist.total() != cardinality:
        raise IncompleteDistribution(
            f"distribution sums to {dist.total()}, expected {cardinality}")
    return dist.profile


def macwilliams_support(dist: SupportDistribution, cardinality: int,
                        override=False) -> SupportDistribution:
    """Support distribution of the dual code, from the one of the code."""
    profile = _counted_profile(dist, cardinality)
    tables = _lattice_tables(profile, override)
    axes = [tables[n].subspaces for n in profile.ns]
    values = _product_transform(
        _dense([(h.parts, c) for h, c in dist.counts.items()],
               [tables[n].positions for n in profile.ns]), axes,
        [_kernel(tables[n], m, partial(_support_kernel, m))
         for n, m in profile.blocks])
    return SupportDistribution(profile, {
        SubspaceTuple(profile, u, check=False): _exact_quotient(acc, cardinality)
        for u, acc in values if acc})


def _ranklist_kernel(n, m, q):
    """Columns of the rank-list kernel, with [n-h v]_q [n-v u-v]_q."""
    return [[sum(q ** (m * v) * _signed_power(q, u - v)
                 * gaussian_binomial(n - h, v, q)
                 * gaussian_binomial(n - v, u - v, q)
                 for v in range(u + 1))
             for u in range(n + 1)]
            for h in range(n + 1)]


def macwilliams_ranklist(dist: RankListDistribution,
                         cardinality: int) -> RankListDistribution:
    """Rank-list distribution of the dual code."""
    profile = _counted_profile(dist, cardinality)
    q = profile.field.q
    axes = [range(n + 1) for n in profile.ns]
    kernels = {block: _ranklist_kernel(*block, q)
               for block in set(profile.blocks)}
    values = _product_transform(
        _dense(dist.counts.items(), axes), axes,
        [kernels[block] for block in profile.blocks])
    return RankListDistribution(profile, {
        u: _exact_quotient(acc, cardinality) for u, acc in values if acc})


def binomial_moment_check(code: LinearCode, override=False) -> bool:
    """The binomial-moment identity, verified for every u <= (n_1..n_t)."""
    from .code import dual
    profile = code.profile
    q = profile.field.q
    ns, ms = profile.ns, profile.ms
    _, rld, _ = brute_distributions(code, override)
    _, rld_dual, _ = brute_distributions(dual(code), override)
    axes = [range(n + 1) for n in ns]
    lhs = _product_transform(_dense(rld.counts.items(), axes), axes, [
        [[gaussian_binomial(n - h, u - h, q) for u in range(n + 1)]
         for h in range(n + 1)] for n in ns])
    rhs = _product_transform(_dense(rld_dual.counts.items(), axes), axes, [
        [[gaussian_binomial(n - h, u, q) for u in range(n + 1)]
         for h in range(n + 1)] for n in ns])
    for (u, left), (_, right) in zip(lhs, rhs):
        expo = sum(m * (n - ui) for n, m, ui in zip(ns, ms, u))
        # |C| rhs = lhs q^expo, cross-multiplied to stay in integers
        if left * q ** expo != code.size() * right:
            return False
    return True


# ---------------------------------------------------------------------------
# closed-form MSRD support distribution and the omega criteria
# ---------------------------------------------------------------------------

def f_ell(u, ell: int, q: int) -> int:
    """Alternating lattice sum over v <= u with |v| = ell (exact integer)."""
    acc = _alternating(u, q)
    return acc[ell] if 0 <= ell < len(acc) else 0


def _alternating(u, q):
    """[f_0(u), f_1(u), ...], the product that `f_ell` and `omega` read."""
    return poly_product([_signed_power(q, ui - v) * gaussian_binomial(ui, v, q)
                         for v in range(ui + 1)] for ui in u)


def msrd_support_distribution(profile: Profile, d: int, u) -> int:
    """W_U of an MSRD code with equal column counts, depending only on dim(U)."""
    ms = profile.ms
    if len(set(ms)) != 1:
        raise UnequalColumnSizes(f"column counts {ms} are not all equal")
    return omega(profile.ns, ms[0], profile.field.q, d, u)


def omega(shape, m: int, q: int, d: int, u) -> int:
    """sum_{l=d}^{|u|} (q^{m(l-d+1)} - 1) f_l(u); negative values rule out MSRD."""
    u = tuple(u)
    if len(u) != len(tuple(shape)) or any(ui > n or ui < 0
                                          for ui, n in zip(u, shape)):
        raise ValueError(f"dim vector {u} does not fit shape {tuple(shape)}")
    acc = _alternating(u, q)
    return sum((q ** (m * (ell - d + 1)) - 1) * acc[ell]
               for ell in range(max(d, 0), len(acc)))


def omega_hat(shape, m: int, q: int, d: int, u) -> int:
    """The dual criterion: omega at the dual distance N - d + 2."""
    N = sum(shape)
    return omega(shape, m, q, N - d + 2, u)


def fast_witness(shape, d):
    """Front-filled dim vector of weight d+1 (the graded-revlex minimum).

    Requires the shape sorted non-increasingly; returns None when d + 1
    exceeds the total weight.
    """
    shape = tuple(shape)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise ValueError("shape must be sorted non-increasingly")
    target = d + 1
    if target > sum(shape):
        return None
    u = []
    left = target
    for n in shape:
        take = min(n, left)
        u.append(take)
        left -= take
    return tuple(u)


def omega_fast_closed_form(shape, m: int, q: int, d: int):
    """q^{2m} - 1 - (q^m-1)/(q-1) (sum q^{u_i} - t) at the fast witness."""
    u = fast_witness(shape, d)
    if u is None:
        return None, None
    s = sum(q ** ui for ui in u) - len(u)
    if s % (q - 1):
        raise SrkitError(f"sum of q^u_i - 1 = {s} is not a multiple of q - 1")
    return u, q ** (2 * m) - 1 - (q ** m - 1) // (q - 1) * s


@dataclass(frozen=True)
class ScanResult:
    excluded: bool
    witness: tuple | None
    value: int | None
    mode: str
    checked: int


def omega_exclusion_scan(shape, m: int, q: int, d: int, fast=False) -> ScanResult:
    """Scan omega over all nonzero dim vectors; Excluded on the first negative.

    The scan runs grades d+1..N ascending with front-loaded vectors first
    (|u| <= d gives omega >= 0 always), so the reported witness is the
    graded-revlex smallest.  fast=True checks only the conjectured single
    witness of weight d+1.  Every shape entry is a row count in 1..m, and
    d lies in 1..N.
    """
    return _omega_scan(_scan_shape(shape, m, d), m, q, d, fast)


def omega_hat_exclusion_scan(shape, m: int, q: int, d: int, fast=False) -> ScanResult:
    """The scan for the dual distance N - d + 2 of a distance-d code."""
    shape = _scan_shape(shape, m, d)
    res = _omega_scan(shape, m, q, sum(shape) - d + 2, fast)
    return ScanResult(res.excluded, res.witness, res.value,
                      res.mode + "-dual", res.checked)


def _scan_shape(shape, m: int, d: int):
    """The shape sorted non-increasingly, after checking it and d."""
    shape = tuple(sorted(shape, reverse=True))
    if not shape or shape[-1] < 1 or shape[0] > m:
        raise BadBlock(f"shape {shape} needs row counts in 1..{m}")
    if not 1 <= d <= sum(shape):
        raise BadDistance(f"distance must lie in [1, {sum(shape)}], got {d}")
    return shape


def _omega_scan(shape, m: int, q: int, d: int, fast) -> ScanResult:
    if fast:
        u, value = omega_fast_closed_form(shape, m, q, d)
        if u is None:
            return ScanResult(False, None, None, "fast", 0)
        return ScanResult(value < 0, u if value < 0 else None,
                          value if value < 0 else None, "fast", 1)
    checked = 0
    N = sum(shape)
    for grade in range(d + 1, N + 1):
        # front-loaded first: sorted by the reversed tuple
        for u in sorted(_dim_vectors(shape, grade), key=lambda v: v[::-1]):
            checked += 1
            value = omega(shape, m, q, d, u)
            if value < 0:
                return ScanResult(True, u, value, "full", checked)
    return ScanResult(False, None, None, "full", checked)


@dataclass(frozen=True)
class ConjectureReport:
    cases: int
    counterexamples: tuple  # (shape, m, q, d) where fast says keep but full excludes
    closed_form_mismatches: tuple


def conjecture_scan(shapes, qs, ms, d_range=None) -> ConjectureReport:
    """Compare the fast single-witness test against the full omega scan.

    A counterexample would be a parameter set where the fast test is
    non-negative but the full scan finds a negative value; none are
    expected, and the result is empirical only.
    """
    counterexamples = []
    mismatches = []
    cases = 0
    for shape in shapes:
        shape = tuple(sorted(shape, reverse=True))
        N = sum(shape)
        for q in qs:
            for m in ms:
                if m < max(shape):
                    continue
                ds = d_range if d_range is not None else range(1, N)
                for d in ds:
                    if not 1 <= d < N:
                        continue
                    cases += 1
                    u, closed = omega_fast_closed_form(shape, m, q, d)
                    if u is not None and omega(shape, m, q, d, u) != closed:
                        mismatches.append((shape, m, q, d))
                    fast = omega_exclusion_scan(shape, m, q, d, fast=True)
                    full = omega_exclusion_scan(shape, m, q, d, fast=False)
                    if not fast.excluded and full.excluded:
                        counterexamples.append((shape, m, q, d))
    return ConjectureReport(cases, tuple(counterexamples), tuple(mismatches))
