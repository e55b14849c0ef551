"""The ambient space of matrix tuples with the sum-rank weight.

A profile lists the block shapes (n_i x m_i) with n_i <= m_i.  Profiles are
normalized at construction to non-increasing column counts, which every
bound formula assumes; the applied permutation is recorded so user-facing
I/O can restore the original block order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product

from .errors import (
    AmbientMismatch,
    BadBlock,
    BadDistance,
    NotComparable,
    ProfileMismatch,
)
from .field import Field
from .guard import check_enum
from .matq import (
    Mat,
    Subspace,
    all_subspaces,
    colspace,
    count_matrices_of_rank,
    enumerate_subspaces,
    gaussian_binomial,
    rank,
)


class Profile:
    """Ordered block shapes over a fixed field, sorted by descending m_i."""

    __slots__ = ("field", "blocks", "original_blocks", "permutation",
                 "slices", "t", "N", "M", "dim", "Q")

    def __init__(self, field: Field, raw_blocks):
        raw = [(int(n), int(m)) for n, m in raw_blocks]
        if not raw:
            raise BadBlock("a profile needs at least one block")
        for n, m in raw:
            if n < 1 or m < 1:
                raise BadBlock(f"zero-dimensional block {n}x{m}")
            if n > m:
                raise BadBlock(f"block {n}x{m} has more rows than columns")
        order = sorted(range(len(raw)), key=lambda i: -raw[i][1])
        self.field = field
        self.original_blocks = tuple(raw)
        self.permutation = tuple(order)       # blocks[i] == original[permutation[i]]
        self.blocks = tuple(raw[i] for i in order)
        # flat layout: block-major, row-major within a block
        slices = []
        pos = 0
        for n, m in self.blocks:
            slices.append((pos, n, m))
            pos += n * m
        self.slices = tuple(slices)            # (offset, n, m) per block
        self.t = len(raw)
        self.N = sum(n for n, _ in raw)
        self.M = sum(m for _, m in raw)
        self.dim = pos
        self.Q = sum(Fraction(1, field.q ** m) for _, m in raw)

    @property
    def ns(self):
        return tuple(n for n, _ in self.blocks)

    @property
    def ms(self):
        return tuple(m for _, m in self.blocks)

    def size(self) -> int:
        return self.field.q ** self.dim

    def to_user_order(self, items):
        """Reorder a per-block sequence back to the original block order."""
        out = [None] * self.t
        for i, j in enumerate(self.permutation):
            out[j] = items[i]
        return tuple(out)

    def from_user_order(self, items):
        return tuple(items[j] for j in self.permutation)

    def __eq__(self, other):
        return (isinstance(other, Profile) and self.field == other.field
                and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.field.q, self.blocks))

    def __repr__(self):
        return f"Pi_{self.field.q}({format_profile(self.blocks)})"


def profile_create(field: Field, raw_blocks) -> Profile:
    return Profile(field, raw_blocks)


def format_profile(blocks) -> str:
    """Run-length compressed text form, e.g. ``2x2,1x2x7,1x1x5``."""
    parts = []
    i = 0
    blocks = list(blocks)
    while i < len(blocks):
        j = i
        while j < len(blocks) and blocks[j] == blocks[i]:
            j += 1
        n, m = blocks[i]
        parts.append(f"{n}x{m}" + (f"x{j - i}" if j - i > 1 else ""))
        i = j
    return ",".join(parts)


def parse_profile(text: str):
    """Inverse of format_profile; returns a list of (n, m) pairs."""
    blocks = []
    for token in text.strip().split(","):
        parts = token.lower().split("x")
        try:
            if len(parts) == 2:
                n, m, r = int(parts[0]), int(parts[1]), 1
            elif len(parts) == 3:
                n, m, r = int(parts[0]), int(parts[1]), int(parts[2])
            else:
                raise ValueError
        except ValueError:
            raise BadBlock(f"cannot parse block {token!r}") from None
        blocks.extend([(n, m)] * r)
    return blocks


class MatrixTuple:
    """An element of the ambient space: one matrix per block."""

    __slots__ = ("profile", "blocks")

    def __init__(self, profile: Profile, blocks, *, check=True):
        self.profile = profile
        self.blocks = tuple(blocks)
        if check:
            if len(self.blocks) != profile.t:
                raise ProfileMismatch("wrong number of blocks")
            for (n, m), b in zip(profile.blocks, self.blocks):
                if (b.nrows, b.ncols) != (n, m) or b.field != profile.field:
                    raise ProfileMismatch(
                        f"block of shape {b.nrows}x{b.ncols} does not fit {n}x{m}")

    @classmethod
    def zero(cls, profile):
        F = profile.field
        return cls(profile, [Mat.zero(F, n, m) for n, m in profile.blocks],
                   check=False)

    def is_zero(self):
        return all(b.is_zero() for b in self.blocks)

    def __eq__(self, other):
        return (isinstance(other, MatrixTuple) and self.profile == other.profile
                and self.blocks == other.blocks)

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return "(" + " | ".join(repr(b) for b in self.blocks) + ")"

    def __add__(self, other):
        self._check(other)
        F = self.profile.field
        return MatrixTuple(self.profile,
                           [Mat(F, [[F.add(x, y) for x, y in zip(r1, r2)]
                                    for r1, r2 in zip(a.rows, b.rows)])
                            for a, b in zip(self.blocks, other.blocks)],
                           check=False)

    def __sub__(self, other):
        self._check(other)
        F = self.profile.field
        return MatrixTuple(self.profile,
                           [Mat(F, [[F.sub(x, y) for x, y in zip(r1, r2)]
                                    for r1, r2 in zip(a.rows, b.rows)])
                            for a, b in zip(self.blocks, other.blocks)],
                           check=False)

    def _check(self, other):
        if not isinstance(other, MatrixTuple) or other.profile != self.profile:
            raise ProfileMismatch("tuples live in different ambient spaces")


def flatten(x: MatrixTuple) -> list[int]:
    out = []
    for b in x.blocks:
        for r in b.rows:
            out.extend(r)
    return out


def unflatten(profile: Profile, vec) -> MatrixTuple:
    F = profile.field
    blocks = [Mat(F, [vec[pos + i * m: pos + (i + 1) * m] for i in range(n)])
              for pos, n, m in profile.slices]
    return MatrixTuple(profile, blocks, check=False)


class SubspaceTuple:
    """An element of the product lattice: one subspace of F^{n_i} per block."""

    __slots__ = ("profile", "parts")

    def __init__(self, profile: Profile, parts, *, check=True):
        self.profile = profile
        self.parts = tuple(parts)
        if check:
            if len(self.parts) != profile.t:
                raise ProfileMismatch("wrong number of parts")
            for (n, _), s in zip(profile.blocks, self.parts):
                if s.ambient_dim != n or s.field != profile.field:
                    raise ProfileMismatch("subspace ambient does not match block")

    @classmethod
    def zero(cls, profile):
        F = profile.field
        return cls(profile, [Subspace.zero(F, n) for n, _ in profile.blocks],
                   check=False)

    @classmethod
    def full(cls, profile):
        F = profile.field
        return cls(profile, [Subspace.full(F, n) for n, _ in profile.blocks],
                   check=False)

    @property
    def rank_L(self):
        return sum(s.dim for s in self.parts)

    @property
    def dim_vector(self):
        return tuple(s.dim for s in self.parts)

    def contains(self, other: "SubspaceTuple") -> bool:
        return all(a.contains(b) for a, b in zip(self.parts, other.parts))

    def dual(self):
        from .matq import orthogonal_complement
        return SubspaceTuple(self.profile,
                             [orthogonal_complement(s) for s in self.parts],
                             check=False)

    def __eq__(self, other):
        return (isinstance(other, SubspaceTuple) and self.profile == other.profile
                and self.parts == other.parts)

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "(" + " | ".join(repr(s) for s in self.parts) + ")"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def sumrank_weight(x: MatrixTuple) -> int:
    return sum(rank(b) for b in x.blocks)


def support(x: MatrixTuple) -> SubspaceTuple:
    return SubspaceTuple(x.profile, [colspace(b) for b in x.blocks], check=False)


def trace_product(x: MatrixTuple, y: MatrixTuple) -> int:
    """<x, y> = sum_i Tr(X_i Y_i^T): the entrywise dot product, as a code."""
    if x.profile != y.profile:
        raise ProfileMismatch("tuples live in different ambient spaces")
    F = x.profile.field
    acc = 0
    for a, b in zip(x.blocks, y.blocks):
        for r1, r2 in zip(a.rows, b.rows):
            for u, v in zip(r1, r2):
                if u and v:
                    acc = F.add(acc, F.mul(u, v))
    return acc


def mobius(u: SubspaceTuple, v: SubspaceTuple) -> int:
    """Moebius function of the product lattice, for u <= v."""
    if u.profile != v.profile:
        raise ProfileMismatch("tuples live in different ambient spaces")
    if not v.contains(u):
        raise NotComparable("first argument is not contained in the second")
    q = u.profile.field.q
    out = 1
    for a, b in zip(u.parts, v.parts):
        d = b.dim - a.dim
        out *= (-1) ** d * q ** (d * (d - 1) // 2)
    return out


def blockdiag_embed(x: MatrixTuple) -> Mat:
    """The isometric block-diagonal N x M picture of a matrix tuple."""
    p = x.profile
    F = p.field
    rows = [[0] * p.M for _ in range(p.N)]
    r0 = c0 = 0
    for (n, m), b in zip(p.blocks, x.blocks):
        for i in range(n):
            rows[r0 + i][c0:c0 + m] = b.rows[i]
        r0 += n
        c0 += m
    return Mat(F, rows)


def weight_spectrum(profile: Profile) -> list[int]:
    """Count of ambient tuples at each sum-rank weight 0..N: the coefficients
    of prod_i (sum_s #{rank-s matrices} y^s)."""
    q = profile.field.q
    acc = [1]
    for n, m in profile.blocks:
        block = [count_matrices_of_rank(n, m, s, q) for s in range(n + 1)]
        out = [0] * (len(acc) + n)
        for i, a in enumerate(acc):
            if a:
                for s, c in enumerate(block):
                    out[i + s] += a * c
        acc = out
    return acc


def sphere_volume(profile: Profile, r: int) -> int:
    """Number of tuples of sum-rank weight at most r (exact)."""
    if r < 0:
        raise BadDistance("radius must be non-negative")
    return sum(weight_spectrum(profile)[:min(r, profile.N) + 1])


def enumerate_tuples(profile: Profile, override=False):
    """Every element of the ambient space, deterministic order."""
    check_enum(profile.size(), override, what="ambient enumeration")
    for codes in product(range(profile.field.q), repeat=profile.dim):
        yield unflatten(profile, codes)


def enumerate_lattice(profile: Profile, dim_vector=None, total_rank=None,
                      override=False):
    """Stream of SubspaceTuples: all of L, one dim-vector, or one total rank."""
    F = profile.field
    ns = profile.ns

    def tuples_for(dv):
        per_block = [enumerate_subspaces(n, k, F, override)
                     for n, k in zip(ns, dv)]
        for parts in product(*[list(g) for g in per_block]):
            yield SubspaceTuple(profile, parts, check=False)

    if dim_vector is not None:
        dv = tuple(dim_vector)
        if len(dv) != profile.t or any(k < 0 or k > n for k, n in zip(dv, ns)):
            raise AmbientMismatch(f"bad dim vector {dv} for profile {profile}")
        yield from tuples_for(dv)
        return
    if total_rank is not None:
        for dv in _dim_vectors(ns, total_rank):
            yield from tuples_for(dv)
        return
    per_block = [list(all_subspaces(n, F, override)) for n in ns]
    count = reduce(lambda a, b: a * len(b), per_block, 1)
    check_enum(count, override, what="lattice enumeration")
    for parts in product(*per_block):
        yield SubspaceTuple(profile, parts, check=False)


def _dim_vectors(ns, total):
    """All vectors 0 <= k_i <= n_i with sum k_i = total, lexicographic."""
    if total < 0 or total > sum(ns):
        return
    if not ns:
        if total == 0:
            yield ()
        return
    n0, rest = ns[0], ns[1:]
    for k in range(min(n0, total) + 1):
        for tail in _dim_vectors(rest, total - k):
            yield (k,) + tail


def lattice_size(profile: Profile) -> int:
    out = 1
    for n in profile.ns:
        out *= sum(gaussian_binomial(n, k, profile.field.q) for k in range(n + 1))
    return out
