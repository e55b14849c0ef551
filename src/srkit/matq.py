"""Dense matrices and canonical subspaces over GF(q), plus q-analog counts.

Subspaces are always stored by their reduced row-echelon basis, which is the
unique canonical representative; that makes them usable as dictionary keys
for support distributions.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .errors import AmbientMismatch
from .field import Field
from .guard import check_subspaces


class Mat:
    """An immutable rows x cols matrix of field codes."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")
            for x in r:
                if not 0 <= x < field.q:
                    raise ValueError(f"entry {x} outside GF({field.q})")

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls(field, [[0] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def transpose(self):
        return Mat(self.field, list(zip(*self.rows)) if self.rows else [])

    def is_zero(self):
        return all(all(x == 0 for x in r) for r in self.rows)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field.q, self.rows))

    def __repr__(self):
        return format_mat(self)


def format_mat(m: Mat) -> str:
    return ";".join(" ".join(str(x) for x in r) for r in m.rows)


def parse_mat(field: Field, text: str) -> Mat:
    rows = [[int(x) for x in part.split()] for part in text.strip().split(";")]
    return Mat(field, rows)


def _rref_rows(rows, ncols, F):
    """In-place RREF; returns (rows, rank, pivots)."""
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        if lead != 1:
            inv = F.inv(lead)
            rows[r] = [F.mul(inv, x) for x in rows[r]]
        pr = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], pr)]
        pivots.append(c)
        r += 1
    return rows, r, pivots


def linear_combination(coeffs, rows, width, F):
    """sum_g coeffs[g] * rows[g] as a list of `width` field codes."""
    out = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            for pos, x in enumerate(row):
                if x:
                    out[pos] = F.add(out[pos], F.mul(c, x))
    return out


def in_rref_span(rows, vec, F) -> bool:
    """Whether vec lies in the span of RREF rows: clear each pivot, test zero."""
    v = list(vec)
    for row in rows:
        p = next(i for i, x in enumerate(row) if x)
        if v[p]:
            f = v[p]
            v = [F.sub(x, F.mul(f, y)) for x, y in zip(v, row)]
    return not any(v)


def rref(m: Mat):
    """Reduced row-echelon form: (Mat, rank, pivot columns)."""
    rows, rank, pivots = _rref_rows([list(r) for r in m.rows], m.ncols, m.field)
    return Mat(m.field, rows), rank, pivots


def rank(m: Mat) -> int:
    return _rref_rows([list(r) for r in m.rows], m.ncols, m.field)[1]


class Subspace:
    """A subspace of GF(q)^n, stored by its canonical RREF basis."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field, ambient_dim, basis_rows, *, canonical=False):
        self.field = field
        self.ambient_dim = ambient_dim
        if canonical:
            self.basis = tuple(tuple(r) for r in basis_rows)
        else:
            rows, rk, _ = _rref_rows([list(r) for r in basis_rows], ambient_dim, field)
            self.basis = tuple(tuple(r) for r in rows[:rk])

    @property
    def dim(self):
        return len(self.basis)

    @classmethod
    def zero(cls, field, n):
        return cls(field, n, (), canonical=True)

    @classmethod
    def full(cls, field, n):
        return cls(field, n, Mat.identity(field, n).rows, canonical=True)

    def contains_vector(self, vec):
        return in_rref_span(self.basis, vec, self.field)

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field.q, self.ambient_dim, self.basis))

    def __repr__(self):
        if not self.basis:
            return f"<0 in F^{self.ambient_dim}>"
        return "<" + format_mat(Mat(self.field, self.basis)) + ">"


def colspace(m: Mat) -> Subspace:
    return Subspace(m.field, m.nrows, list(zip(*m.rows)) if m.rows else ())


def nullspace(m: Mat) -> Subspace:
    """Right kernel {v : m v = 0} as a canonical subspace of F^ncols."""
    F = m.field
    rows, rk, pivots = _rref_rows([list(r) for r in m.rows], m.ncols, F)
    pivset = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [0] * m.ncols
        v[f] = 1
        for r, p in enumerate(pivots):
            v[p] = F.neg(rows[r][f])
        basis.append(v)
    return Subspace(F, m.ncols, basis)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if (u.field, u.ambient_dim) != (v.field, v.ambient_dim):
        raise AmbientMismatch("subspaces of different ambient spaces")
    return Subspace(u.field, u.ambient_dim, u.basis + v.basis)


def orthogonal_complement(u: Subspace) -> Subspace:
    if u.dim == 0:
        return Subspace.full(u.field, u.ambient_dim)
    return nullspace(Mat(u.field, u.basis))


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    if (u.field, u.ambient_dim) != (v.field, v.ambient_dim):
        raise AmbientMismatch("subspaces of different ambient spaces")
    return orthogonal_complement(
        subspace_sum(orthogonal_complement(u), orthogonal_complement(v)))


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


@lru_cache(maxsize=None)
def count_matrices_of_rank(n: int, m: int, s: int, q: int) -> int:
    """Number of n x m matrices over GF(q) of rank exactly s."""
    if s < 0 or s > min(n, m):
        return 0
    out = gaussian_binomial(n, s, q)
    for j in range(s):
        out *= q ** m - q ** j
    return out


def enumerate_subspaces(n: int, k: int, field: Field, override=False):
    """All k-dimensional subspaces of GF(q)^n, canonical and deterministic.

    Generation is by RREF pivot pattern: pivot columns run over k-subsets in
    lexicographic order and the free entries over GF(q) as a row-major
    counter, so the stream is restartable and needs no storage.
    """
    check_subspaces(gaussian_binomial(n, k, field.q), override)
    if k == 0:
        yield Subspace.zero(field, n)
        return
    if k > n:
        return
    q = field.q
    for pivots in combinations(range(n), k):
        pivset = set(pivots)
        free_pos = [(r, c) for r in range(k) for c in range(pivots[r] + 1, n)
                    if c not in pivset]
        base = [[0] * n for _ in range(k)]
        for r, p in enumerate(pivots):
            base[r][p] = 1
        for values in product(range(q), repeat=len(free_pos)):
            rows = [row[:] for row in base]
            for (r, c), v in zip(free_pos, values):
                rows[r][c] = v
            yield Subspace(field, n, rows, canonical=True)


def all_subspaces(n: int, field: Field, override=False):
    """Every subspace of GF(q)^n, by ascending dimension."""
    for k in range(n + 1):
        yield from enumerate_subspaces(n, k, field, override)
