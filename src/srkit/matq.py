"""Dense matrices and canonical subspaces over GF(q), plus q-analog counts.

Subspaces are always stored by their reduced row-echelon basis, which is the
unique canonical representative; that makes them usable as dictionary keys
for support distributions.

Every elimination takes its rows from `_row_ops`, the one place a row
representation is chosen, and reduces them with that representation's
semi-echelon insert and canonical form; `_rref_rows` is the two in turn,
read back as codes.  Over GF(2) a row is one int, entry j at bit j, rows
add by XOR, and `_extend_bits` is the packed semi-echelon insert of
M4RI-style elimination, keyed by each row's lowest set bit.  Every other
field keeps rows as lists of codes (`_field_rows`, reduced by `_extend`),
on a row arithmetic picked once per field (`_code_arith`): up to
`field._FULL_TABLE_Q` an entry of v + c * row is one XOR with a row of
the field's product table when p = 2, one product- and one sum-table
lookup for odd p; above it, `Field` method calls.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from operator import xor
from typing import Callable, NamedTuple

from .errors import AmbientMismatch, SrkitError
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


def _extend(echelon, rows, k, F):
    """Insert rows into the semi-echelon basis `echelon`, (pivot, row) pairs
    with each row 1 at its pivot and 0 at the pivots before it, until its
    rank reaches k, and return it: each row is cleared at every pivot in
    order, then kept scaled to a leading 1 unless it is zero."""
    _, addmul, scale = _code_arith(F)
    neg = F.neg
    for v in rows:
        if len(echelon) == k:
            break
        for c, row in echelon:
            f = v[c]
            if f:
                v = addmul(v, neg(f), row)
        for lead, x in enumerate(v):
            if x:
                if x != 1:
                    v = scale(v, F.inv(x))
                echelon.append((lead, v))
                break
    return echelon


def _reduced(echelon, F):
    """`_reduced_bits` on rows of field codes: the RREF as a tuple of rows
    by ascending pivot, each cleared at the later rows' pivots, from the
    last pivot down."""
    _, addmul, _ = _code_arith(F)
    neg = F.neg
    out = []
    for lead, v in sorted(echelon, reverse=True):
        for c, row in out:
            f = v[c]
            if f:
                v = addmul(v, neg(f), row)
        out.append((lead, v))
    return tuple([tuple(v) for _, v in reversed(out)])


def _rref_rows(rows, F):
    """RREF of `rows` as (nonzero rows, pivots), reduced on `_row_ops` rows;
    each pivot is its row's leading 1."""
    width = len(rows[0]) if rows else 0
    ops = _row_ops(F)
    echelon = ops.extend([], map(ops.pack, rows), min(len(rows), width))
    out = [ops.unpack(v, width) for v in ops.reduced(echelon)]
    return out, [r.index(1) for r in out]


def _pack_bits(row):
    """A row of GF(2) codes as one int, entry j at bit j."""
    out = 0
    for j, x in enumerate(row):
        if x:
            out |= 1 << j
    return out


def _extend_bits(echelon, rows, k):
    """`_extend` over GF(2) on packed rows: each row is cleared by XOR at the
    earlier pivots and kept, keyed by its lowest set bit, unless it is zero;
    insertion stops at rank k."""
    for v in rows:
        if len(echelon) == k:
            break
        for lead, row in echelon:
            if v & lead:
                v ^= row
        if v:
            echelon.append((v & -v, v))
    return echelon


def _reduced_bits(echelon):
    """RREF of a packed semi-echelon basis, rows by ascending pivot: from
    the last pivot down, each row is cleared at the later rows' pivots."""
    out = []
    for lead, v in sorted(echelon, reverse=True):
        for later, row in out:
            if v & later:
                v ^= row
        out.append((lead, v))
    return tuple([v for _, v in reversed(out)])


def _combine_bits(coeffs, rows, width):
    """sum_g coeffs[g] * rows[g] over GF(2) on packed rows: one XOR each."""
    out = 0
    for c, row in zip(coeffs, rows):
        if c:
            out ^= row
    return out


class _RowOps(NamedTuple):
    """Rows of F^width as every elimination and rank kernel holds them.

    pack(codes) is a row and unpack(row, width) its tuple of codes again;
    add(u, v) is u + v; combine(coeffs, rows, width) is
    sum_g coeffs[g] * rows[g]; extend(echelon, rows, k) is the semi-echelon
    insert, (pivot, row) pairs that `del echelon[mark:]` rolls back;
    reduced(echelon) is the RREF as a hashable tuple of rows, the canonical
    form of the span.
    """
    pack: Callable
    unpack: Callable
    add: Callable
    combine: Callable
    extend: Callable
    reduced: Callable


_BITS = _RowOps(_pack_bits,
                lambda row, width: tuple([row >> j & 1 for j in range(width)]),
                xor, _combine_bits, _extend_bits, _reduced_bits)


class _CodeArith(NamedTuple):
    """Row arithmetic on lists of codes over one field: add(u, v) is u + v,
    addmul(v, c, row) is v + c * row, and scale(v, c) is c * v."""
    add: Callable
    addmul: Callable
    scale: Callable


@lru_cache(maxsize=None)
def _code_arith(F):
    """The row arithmetic of F's code rows, picked once per field: with
    F's tables (q <= `field._FULL_TABLE_Q`), an entry is one lookup in a
    row of the product table, and a sum an XOR of codes when p = 2 or one
    lookup in the sum table otherwise; without them, `Field` method calls."""
    mul_tab, add_tab = F._mul_tab, F._add_tab
    if mul_tab is None:
        add, mul = F.add, F.mul
        return _CodeArith(
            lambda u, v: list(map(add, u, v)),
            lambda v, c, row: [add(x, mul(c, y)) if y else x
                               for x, y in zip(v, row)],
            lambda v, c: [mul(c, y) for y in v])

    def scale(v, c):
        return list(map(mul_tab[c].__getitem__, v))

    if F.p == 2:
        def addmul(v, c, row):
            times = mul_tab[c]
            return [x ^ times[y] for x, y in zip(v, row)]
        return _CodeArith(lambda u, v: list(map(xor, u, v)), addmul, scale)

    def addmul(v, c, row):
        times = mul_tab[c]
        return [add_tab[x][times[y]] for x, y in zip(v, row)]
    return _CodeArith(lambda u, v: [add_tab[x][y] for x, y in zip(u, v)],
                      addmul, scale)


@lru_cache(maxsize=None)
def _field_rows(F):
    """Rows as lists of field codes, for any F; built once per field, on
    the row arithmetic `_code_arith` picks for it."""
    return _RowOps(
        list,
        lambda row, width: tuple(row),
        _code_arith(F).add,
        lambda coeffs, rows, width: linear_combination(coeffs, rows, width, F),
        lambda echelon, rows, k: _extend(echelon, rows, k, F),
        lambda echelon: _reduced(echelon, F))


def _row_ops(F):
    """The row representation of every elimination over F, chosen here and
    nowhere else: packed ints over GF(2), code lists otherwise."""
    return _BITS if F.q == 2 else _field_rows(F)


def linear_combination(coeffs, rows, width, F):
    """sum_g coeffs[g] * rows[g] as a list of `width` field codes."""
    addmul = _code_arith(F).addmul
    out = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            out = addmul(out, c, row)
    return out


def in_rref_span(rows, vec, F) -> bool:
    """Whether vec lies in the span of independent rows: adding it keeps
    the rank."""
    return len(_rref_rows([*rows, vec], F)[0]) == len(rows)


def rref(m: Mat):
    """Reduced row-echelon form: (Mat, rank, pivot columns)."""
    rows, pivots = _rref_rows(m.rows, m.field)
    pad = [[0] * m.ncols] * (m.nrows - len(rows))
    return Mat(m.field, rows + pad), len(rows), pivots


def rank(m: Mat) -> int:
    return len(_rref_rows(m.rows, m.field)[0])


class Subspace:
    """A subspace of GF(q)^n, stored by its canonical RREF basis."""

    __slots__ = ("field", "ambient_dim", "basis", "dim", "_hash")

    def __init__(self, field, ambient_dim, basis_rows, *, canonical=False):
        self.field = field
        self.ambient_dim = ambient_dim
        if not canonical:
            rows = [tuple(r) for r in basis_rows]
            if any(len(r) != ambient_dim for r in rows):
                raise AmbientMismatch(f"a basis row outside F^{ambient_dim}")
            # Mat raises ValueError for an entry outside GF(q)
            basis_rows = _rref_rows(Mat(field, rows).rows, field)[0]
        self.basis = tuple(tuple(r) for r in basis_rows)
        self.dim = len(self.basis)
        # set once: a Subspace is never mutated, and the lattice transforms
        # hash the same ones over and over
        self._hash = hash((field.q, ambient_dim, self.basis))

    @classmethod
    def zero(cls, field, n):
        return cls(field, n, (), canonical=True)

    @classmethod
    def full(cls, field, n):
        return cls(field, n, Mat.identity(field, n).rows, canonical=True)

    def contains_vector(self, vec):
        if len(vec) != self.ambient_dim:
            raise AmbientMismatch("vector of a different ambient space")
        # Mat raises ValueError for an entry outside GF(q)
        return in_rref_span(self.basis, Mat(self.field, [vec]).rows[0],
                            self.field)

    def contains(self, other: "Subspace") -> bool:
        if (other.field, other.ambient_dim) != (self.field, self.ambient_dim):
            raise AmbientMismatch("subspaces of different ambient spaces")
        return all(self.contains_vector(r) for r in other.basis)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Subspace) and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.basis:
            return f"<0 in F^{self.ambient_dim}>"
        return "<" + format_mat(Mat(self.field, self.basis)) + ">"


def _span(field, n, rows) -> Subspace:
    """The span of rows of F^n whose entries are already checked codes."""
    return Subspace(field, n, _rref_rows(rows, field)[0], canonical=True)


def colspace(m: Mat) -> Subspace:
    return _span(m.field, m.nrows, list(zip(*m.rows)))


def _kernel_rows(rows, pivots, width, F):
    """A basis of {v : rows v = 0} for RREF rows with these pivots, read
    off them: per free column f, 1 at f and -row[f] at each row's pivot."""
    taken = set(pivots)
    basis = []
    for f in range(width):
        if f not in taken:
            v = [0] * width
            v[f] = 1
            for row, p in zip(rows, pivots):
                v[p] = F.neg(row[f])
            basis.append(v)
    return basis


def _normal(u: Subspace):
    """The row with a leading 1 spanning u^perp, for a hyperplane u of
    F^n: its kernel row read off the RREF basis, scaled."""
    F = u.field
    (v,) = _kernel_rows(u.basis, [row.index(1) for row in u.basis],
                        u.ambient_dim, F)
    lead = next(filter(None, v))
    return tuple(v if lead == 1 else _code_arith(F).scale(v, F.inv(lead)))


def _points(u: Subspace):
    """Every point (1-dimensional subspace) of u once, as its row with a
    leading 1: each RREF basis row plus every vector of the span of the
    rows below it."""
    addmul = _code_arith(u.field).addmul
    scalars = range(u.field.q)
    points, below = [], [[0] * u.ambient_dim]
    for i in range(u.dim - 1, -1, -1):
        row = u.basis[i]
        points += [tuple(addmul(v, 1, row)) for v in below]
        if i:
            below = [addmul(v, c, row) for c in scalars for v in below]
    return points


def nullspace(m: Mat) -> Subspace:
    """Right kernel {v : m v = 0} as a canonical subspace of F^ncols."""
    rows, pivots = _rref_rows(m.rows, m.field)
    return _span(m.field, m.ncols, _kernel_rows(rows, pivots, m.ncols, m.field))


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if (u.field, u.ambient_dim) != (v.field, v.ambient_dim):
        raise AmbientMismatch("subspaces of different ambient spaces")
    return _span(u.field, u.ambient_dim, list(u.basis + v.basis))


def _perp_rows(rows, width, F):
    """The RREF rows of {v : rows v = 0} for RREF rows of F^width: the
    kernel read off them (each row's pivot is its leading 1), reduced."""
    return _rref_rows(_kernel_rows(rows, [row.index(1) for row in rows],
                                   width, F), F)[0]


def orthogonal_complement(u: Subspace) -> Subspace:
    if u.dim == 0:
        return Subspace.full(u.field, u.ambient_dim)
    return Subspace(u.field, u.ambient_dim,
                    _perp_rows(u.basis, u.ambient_dim, u.field),
                    canonical=True)


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
    quot, rem = divmod(num, den)
    if rem:
        raise SrkitError(f"Gaussian binomial [{n} {k}]_{q} is not an integer")
    return quot


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
