"""Weight distributions, their MacWilliams transforms, and the MSRD
support-distribution criteria.

The two transforms factor across blocks: the inner alternating sum over
v <= u is a product of per-block sums, so each is precomputed as a small
table and the transform costs |L|^2 * t big-integer multiplies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .ambient import (
    Profile,
    SubspaceTuple,
    enumerate_lattice,
    lattice_size,
)
from .code import LinearCode, _iter_flat_words
from .errors import IncompleteDistribution, SrkitError, UnequalColumnSizes
from .guard import check_enum, check_keys
from .matq import (
    Subspace,
    _rref_rows,
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


def _support_factor_table(n, m, q):
    """g[(u, w)] = sum_{v<=u} q^{m v} (-1)^{u-v} q^{C(u-v,2)} [w v]_q."""
    table = {}
    for u in range(n + 1):
        for w in range(n + 1):
            acc = 0
            for v in range(u + 1):
                acc += (q ** (m * v) * _signed_power(q, u - v)
                        * gaussian_binomial(w, v, q))
            table[(u, w)] = acc
    return table


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
    check_enum(lattice_size(profile) ** 2, override, what="lattice transform")
    factors = [_support_factor_table(n, m, q) for n, m in profile.blocks]
    # per-block intersection-dimension tables keyed by canonical bases
    inter = [dict() for _ in range(profile.t)]

    def wdim(i, h_part, u_part):
        key = (h_part.basis, u_part.basis)
        tab = inter[i]
        if key not in tab:
            tab[key] = subspace_intersect(
                orthogonal_complement(h_part), u_part).dim
        return tab[key]

    items = list(dist.counts.items())
    out = {}
    for u in enumerate_lattice(profile, override=override):
        udims = u.dim_vector
        acc = 0
        for h, wh in items:
            term = wh
            for i in range(profile.t):
                term *= factors[i][(udims[i], wdim(i, h.parts[i], u.parts[i]))]
                if term == 0:
                    break
            acc += term
        if acc:
            out[u] = _exact_quotient(acc, cardinality)
    return SupportDistribution(profile, out)


def _ranklist_factor_table(n, m, q):
    """g[(u, h)] with the [n-h v]_q [n-v u-v]_q kernel."""
    table = {}
    for u in range(n + 1):
        for h in range(n + 1):
            acc = 0
            for v in range(u + 1):
                acc += (q ** (m * v) * _signed_power(q, u - v)
                        * gaussian_binomial(n - h, v, q)
                        * gaussian_binomial(n - v, u - v, q))
            table[(u, h)] = acc
    return table


def macwilliams_ranklist(dist: RankListDistribution, cardinality: int,
                         profile: Profile | None = None) -> RankListDistribution:
    """Rank-list distribution of the dual code."""
    profile = dist.profile if profile is None else profile
    if dist.total() != cardinality:
        raise IncompleteDistribution(
            f"distribution sums to {dist.total()}, expected {cardinality}")
    q = profile.field.q
    ns = profile.ns
    factors = [_ranklist_factor_table(n, m, q) for n, m in profile.blocks]
    items = list(dist.counts.items())
    out = {}
    for u in product(*[range(n + 1) for n in ns]):
        acc = 0
        for h, wh in items:
            term = wh
            for i in range(profile.t):
                term *= factors[i][(u[i], h[i])]
                if term == 0:
                    break
            acc += term
        if acc:
            out[u] = _exact_quotient(acc, cardinality)
    return RankListDistribution(profile, out)


def binomial_moment_check(code: LinearCode, override=False) -> bool:
    """The binomial-moment identity, verified for every u <= (n_1..n_t)."""
    from .code import dual
    profile = code.profile
    q = profile.field.q
    ns, ms = profile.ns, profile.ms
    _, rld, _ = brute_distributions(code, override)
    _, rld_dual, _ = brute_distributions(dual(code), override)
    for u in product(*[range(n + 1) for n in ns]):
        lhs = 0
        for h, wh in rld.counts.items():
            term = wh
            for i in range(profile.t):
                term *= gaussian_binomial(ns[i] - h[i], u[i] - h[i], q)
                if term == 0:
                    break
            lhs += term
        rhs = 0
        for h, wh in rld_dual.counts.items():
            term = wh
            for i in range(profile.t):
                term *= gaussian_binomial(ns[i] - h[i], u[i], q)
                if term == 0:
                    break
            rhs += term
        expo = sum(ms[i] * (ns[i] - u[i]) for i in range(profile.t))
        # |C| rhs = lhs q^expo, cross-multiplied to stay in integers
        if lhs * q ** expo != code.size() * rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# closed-form MSRD support distribution and the omega criteria
# ---------------------------------------------------------------------------

def f_ell(u, ell: int, q: int) -> int:
    """Alternating lattice sum over v <= u with |v| = ell (exact integer)."""
    acc = [1]
    for ui in u:
        block = [_signed_power(q, ui - v) * gaussian_binomial(ui, v, q)
                 for v in range(ui + 1)]
        out = [0] * (len(acc) + ui)
        for i, a in enumerate(acc):
            if a:
                for v, c in enumerate(block):
                    out[i + v] += a * c
        acc = out
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


def iter_dim_vectors_graded(shape, grade):
    """Dim vectors of the given total weight, front-loaded first.

    Within a grade, vectors are sorted by their reversed tuple, so the
    graded-revlex-minimal (front-filled) vector comes first.
    """
    shape = tuple(shape)
    out = []

    def rec(i, left, prefix):
        if i == len(shape):
            if left == 0:
                out.append(tuple(prefix))
            return
        room = sum(shape[i + 1:])
        for v in range(min(shape[i], left), -1, -1):
            if left - v <= room:
                rec(i + 1, left - v, prefix + [v])

    rec(0, grade, [])
    out.sort(key=lambda u: tuple(reversed(u)))
    return out


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
        for u in iter_dim_vectors_graded(shape, grade):
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
