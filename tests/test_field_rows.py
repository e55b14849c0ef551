"""Rows of field codes against a slow elimination written here, on each row
operation `matq._code_arith` picks: the XOR of a product-table row
(p = 2, q <= 256), sum- and product-table lookups (odd p, q <= 256) and
`Field` method calls (q > 256)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_add, oracle_mul
from srkit.field import _FULL_TABLE_Q, field_from_order
from srkit.matq import (
    Mat,
    _extend,
    _field_rows,
    _rref_rows,
    linear_combination,
    rank,
    rref,
)

# (order, the path its rows take)
FIELDS = [(4, "xor"), (8, "xor"), (256, "xor"),
          (3, "add-table"), (5, "add-table"), (9, "add-table"),
          (257, "methods"), (512, "methods")]


class Slow:
    """GF(p^k) on element codes by digit sums and schoolbook products
    modulo the field's own modulus; no table of the library's."""

    def __init__(self, F):
        self.p, self.k, self.q, self.modulus = F.p, F.k, F.q, F.modulus

    def add(self, a, b):
        return oracle_add(a, b, self.p, self.k)

    def mul(self, a, b):
        return oracle_mul(a, b, self.p, self.modulus)

    def neg(self, a):
        p = self.p
        return sum((-(a // p ** i % p)) % p * p ** i for i in range(self.k))

    def inv(self, a):
        out, base, e = 1, a, self.q - 2
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def combination(self, coeffs, rows, width):
        out = [0] * width
        for c, row in zip(coeffs, rows):
            out = [self.add(x, self.mul(c, y)) for x, y in zip(out, row)]
        return out

    def rref(self, rows, width):
        """(nonzero RREF rows, pivots) by Gauss-Jordan, column by column."""
        rows = [list(r) for r in rows]
        pivots = []
        for col in range(width):
            r = len(pivots)
            piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            lead = self.inv(rows[r][col])
            rows[r] = [self.mul(lead, x) for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][col]:
                    f = self.neg(rows[i][col])
                    rows[i] = [self.add(x, self.mul(f, y))
                               for x, y in zip(rows[i], rows[r])]
            pivots.append(col)
        return [tuple(r) for r in rows[:len(pivots)]], pivots


@pytest.mark.parametrize("q,path", FIELDS)
def test_each_order_takes_its_path(q, path):
    F = field_from_order(q)
    assert (F.q <= _FULL_TABLE_Q) == (path != "methods")
    if path != "methods":
        assert (F.p == 2) == (path == "xor")


@st.composite
def cases(draw, q):
    """(width, rows, coefficients, cut, k): up to 6 rows of width up to 6,
    with zero and repeated rows."""
    width = draw(st.integers(1, 6))
    entry = st.integers(0, q - 1)
    row = st.lists(entry, min_size=width, max_size=width)
    rows = draw(st.lists(st.one_of(row, st.just([0] * width)), max_size=6))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=6 - len(rows)))
    coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    return (width, rows, coeffs, draw(st.integers(0, len(rows))),
            draw(st.integers(0, width)))


@pytest.mark.parametrize("q,path", FIELDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_field_rows_match_the_slow_elimination(q, path, data):
    F = field_from_order(q)
    slow = Slow(F)
    width, rows, coeffs, cut, k = data.draw(cases(q))
    ops = _field_rows(F)
    want, pivots = slow.rref(rows, width)

    # rank and pivots of the semi-echelon insert, and its RREF
    packed = [ops.pack(r) for r in rows]
    echelon = ops.extend([], packed, width)
    assert sorted(lead for lead, _ in echelon) == pivots
    assert [ops.unpack(v, width) for v in ops.reduced(echelon)] == want
    assert len(ops.extend([], packed, k)) == min(k, len(pivots))
    assert len(_extend([], rows, k, F)) == min(k, len(pivots))
    if rows:
        assert _rref_rows(rows, F) == (want, pivots)
        m = Mat(F, rows)
        assert rank(m) == len(pivots)
        assert rref(m)[0].rows[:len(want)] == tuple(want)

    # combine, add and linear_combination against the slow sums
    if rows:
        expect = slow.combination(coeffs, rows, width)
        assert list(ops.combine(coeffs, packed, width)) == expect
        assert linear_combination(coeffs, rows, width, F) == expect
        assert list(ops.add(packed[0], packed[-1])) == \
            slow.combination([1, 1], [rows[0], rows[-1]], width)

    # rows inserted past a mark are rolled back by truncation
    echelon = ops.extend([], packed[:cut], width)
    before = [(lead, list(v)) for lead, v in echelon]
    mark = len(echelon)
    ops.extend(echelon, packed[cut:], width)
    del echelon[mark:]
    assert [(lead, list(v)) for lead, v in echelon] == before
