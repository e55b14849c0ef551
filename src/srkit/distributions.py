"""Weight distributions, their MacWilliams transforms, and the MSRD
support-distribution criteria.

The transforms' kernels factor across blocks, K(u, h) = prod_i K_i(u_i, h_i),
so one kernel contracts the counts block by block: |L| * sum |L_i|
big-integer multiplies, where L_i is block i's lattice (its subspaces, or
its ranks 0..n_i) and L is their product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import prod

from .ambient import Profile, SubspaceTuple, _dim_vectors, poly_product
from .code import LinearCode, _iter_flat_words
from .errors import IncompleteDistribution, SrkitError, UnequalColumnSizes
from .guard import check_enum, check_keys
from .matq import (
    Subspace,
    _rref_rows,
    all_subspaces,
    gaussian_binomial,
    orthogonal_complement,
    subspace_intersect,
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
    """One sweep over the codewords: all three distributions, exact."""
    profile = code.profile
    F = code.field
    slices = profile.slices
    srk_counts = [0] * (profile.N + 1)
    supp_counts = {}
    for _, vec in _iter_flat_words(code, override):
        parts = []
        for pos, n, m in slices:
            cols = [[vec[pos + i * m + b] for i in range(n)] for b in range(m)]
            rows, rk, _ = _rref_rows(cols, n, F)
            parts.append(Subspace(F, n, rows[:rk], canonical=True))
        u = SubspaceTuple(profile, parts, check=False)
        srk_counts[u.rank_L] += 1
        supp_counts[u] = supp_counts.get(u, 0) + 1
        check_keys(len(supp_counts))
    supd = SupportDistribution(profile, supp_counts)
    return SumRankDistribution(tuple(srk_counts)), supd.ranklist(), supd


# ---------------------------------------------------------------------------
# MacWilliams transforms
# ---------------------------------------------------------------------------

def _signed_power(q, d):
    return (-1) ** d * q ** (d * (d - 1) // 2)


def _exact_quotient(acc, cardinality):
    """acc / |C|; exact whenever the input is the distribution of a code."""
    quot, rem = divmod(acc, cardinality)
    if rem:
        raise IncompleteDistribution(
            f"transform value {acc} is not a multiple of |C| = {cardinality}")
    return quot


def _product_transform(counts, axes, kernels):
    """Yield (u, sum_h counts[h] * prod_i K_i(u_i, h_i)) for every u.

    counts maps key tuples (one element of axes[i] per block) to counts;
    kernels[i][h] is the column (K_i(u, h) for u in axes[i]) at position h
    of axes[i], and is only read for the h that some key reaches.  The
    counts are laid out densely over the product of the axes, last block
    fastest; each step contracts the leading block and rotates it to the
    back.  Values come in itertools.product(*axes) order.
    """
    index = [{a: j for j, a in enumerate(axis)} for axis in axes]
    dense = [0] * prod(len(axis) for axis in axes)
    for key, c in counts.items():
        pos = 0
        for idx, a in zip(index, key):
            pos = pos * len(idx) + idx[a]
        dense[pos] += c
    for axis, kernel in zip(axes, kernels):
        width = len(dense) // len(axis)
        out = [[0] * width for _ in axis]
        for h in range(len(axis)):
            row = dense[h * width:(h + 1) * width]
            if any(row):
                for u, c in enumerate(kernel[h]):
                    if c:
                        out[u] = [a + c * x for a, x in zip(out[u], row)]
        dense = list(chain.from_iterable(zip(*out)))
    return zip(product(*axes), dense)


class _Columns(dict):
    """Kernel columns by position h, each computed on first use."""

    def __init__(self, column):
        super().__init__()
        self.column = column

    def __missing__(self, h):
        self[h] = col = self.column(h)
        return col


def _support_kernel(n, m, q, subspaces):
    """Columns of K(u, h) = sum_{v<=u} q^{m v} (-1)^{u-v} q^{C(u-v,2)} [w v]_q
    over the subspaces of GF(q)^n, with u, v dimensions and
    w = dim(h^perp meet u)."""
    g = [[sum(q ** (m * v) * _signed_power(q, u - v) * gaussian_binomial(w, v, q)
              for v in range(u + 1))
          for w in range(n + 1)]
         for u in range(n + 1)]

    def column(h):
        perp = orthogonal_complement(subspaces[h])
        return [g[u.dim][subspace_intersect(perp, u).dim] for u in subspaces]

    return _Columns(column)


def macwilliams_support(dist: SupportDistribution, cardinality: int,
                        profile: Profile | None = None,
                        override=False) -> SupportDistribution:
    """Support distribution of the dual code, from the one of the code."""
    profile = dist.profile if profile is None else profile
    if dist.total() != cardinality:
        raise IncompleteDistribution(
            f"distribution sums to {dist.total()}, expected {cardinality}")
    F = profile.field
    q = F.q
    # |L_i| from q-binomials: an oversized block is refused before it is listed
    sizes = [sum(gaussian_binomial(n, k, q) for k in range(n + 1))
             for n in profile.ns]
    check_enum(prod(sizes) * sum(sizes), override, what="lattice transform")
    subspaces = {n: list(all_subspaces(n, F, override)) for n in set(profile.ns)}
    by_shape = {(n, m): _support_kernel(n, m, q, subspaces[n])
                for n, m in set(profile.blocks)}
    values = _product_transform({h.parts: c for h, c in dist.counts.items()},
                                [subspaces[n] for n in profile.ns],
                                [by_shape[block] for block in profile.blocks])
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


def macwilliams_ranklist(dist: RankListDistribution, cardinality: int,
                         profile: Profile | None = None) -> RankListDistribution:
    """Rank-list distribution of the dual code."""
    profile = dist.profile if profile is None else profile
    if dist.total() != cardinality:
        raise IncompleteDistribution(
            f"distribution sums to {dist.total()}, expected {cardinality}")
    q = profile.field.q
    values = _product_transform(
        dist.counts, [range(n + 1) for n in profile.ns],
        [_ranklist_kernel(n, m, q) for n, m in profile.blocks])
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
    lhs = _product_transform(rld.counts, axes, [
        [[gaussian_binomial(n - h, u - h, q) for u in range(n + 1)]
         for h in range(n + 1)] for n in ns])
    rhs = _product_transform(rld_dual.counts, axes, [
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
    acc = poly_product([_signed_power(q, ui - v) * gaussian_binomial(ui, v, q)
                        for v in range(ui + 1)] for ui in u)
    return acc[ell] if 0 <= ell < len(acc) else 0


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
    weight = sum(u)
    return sum((q ** (m * (ell - d + 1)) - 1) * f_ell(u, ell, q)
               for ell in range(d, weight + 1))


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
    witness of weight d+1.
    """
    shape = tuple(sorted(shape, reverse=True))
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


def omega_hat_exclusion_scan(shape, m: int, q: int, d: int, fast=False) -> ScanResult:
    N = sum(shape)
    res = omega_exclusion_scan(shape, m, q, N - d + 2, fast=fast)
    return ScanResult(res.excluded, res.witness, res.value,
                      ("fast" if fast else "full") + "-dual", res.checked)


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
