import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_combination,
    oracle_ops,
    oracle_rank,
    oracle_rank_gf2,
    oracle_rref,
)
from srkit.ambient import profile_create, unflatten
from srkit.code import _walk_distance, code_create
from srkit.errors import AmbientMismatch
from srkit.field import field_create
from srkit.guard import _decimal
from srkit.matq import (
    Mat,
    Subspace,
    _combine_bits,
    _extend,
    _extend_bits,
    _field_rows,
    _pack_bits,
    _reduced_bits,
    _row_ops,
    colspace,
    enumerate_subspaces,
    gaussian_binomial,
    in_rref_span,
    linear_combination,
    nullspace,
    orthogonal_complement,
    format_mat,
    rank,
    rref,
    subspace_intersect,
    subspace_sum,
)

F2 = field_create(2)
F3 = field_create(3)
F4 = field_create(2, 2)


class TestRref:
    def test_identity(self):
        m = Mat.identity(F2, 2)
        r, rk, piv = rref(m)
        assert r == m and rk == 2 and piv == [0, 1]

    def test_zero(self):
        m = Mat.zero(F3, 2, 2)
        r, rk, piv = rref(m)
        assert r == m and rk == 0 and piv == []

    def test_hand_reduced(self):
        r, rk, _ = rref(Mat(F2, [[1, 1], [1, 1]]))
        assert r.rows == ((1, 1), (0, 0)) and rk == 1

    def test_rank_transpose_invariant(self):
        rng = random.Random(0)
        for _ in range(100):
            F = rng.choice([F2, F3, F4])
            n, m = rng.randrange(1, 5), rng.randrange(1, 5)
            M = Mat(F, [[rng.randrange(F.q) for _ in range(m)]
                        for _ in range(n)])
            assert rank(M) == rank(M.transpose())


@st.composite
def matrices(draw):
    """(field, width, rows): up to 6x6 over GF(2), GF(3) or GF(4), wide or
    tall, with zero rows, repeated rows or no rows at all."""
    F = draw(st.sampled_from([F2, F3, F4]))
    width = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, F.q - 1), min_size=width, max_size=width)
    rows = draw(st.lists(st.one_of(row, st.just([0] * width)), max_size=6))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=6 - len(rows)))
    return F, width, rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices(), st.data())
def test_row_reduction_matches_oracles(case, data):
    F, width, rows = case
    q = F.q
    expect = oracle_rref(rows, q)
    reduced, rk, pivots = rref(Mat(F, rows))
    assert reduced.rows[:rk] == expect
    assert all(not any(r) for r in reduced.rows[rk:])
    assert pivots == [r.index(1) for r in expect]
    assert rank(Mat(F, rows)) == oracle_rank(rows, q) == rk

    if rows:
        # the right kernel: every basis vector is annihilated by every row,
        # and there are width - rank of them
        add, mul = oracle_ops(q)
        kernel = nullspace(Mat(F, rows)).basis
        assert len(kernel) == width - oracle_rank(rows, q)
        for v in kernel:
            for r in rows:
                dot = 0
                for x, y in zip(r, v):
                    dot = add(dot, mul(x, y))
                assert dot == 0

    vec = data.draw(st.lists(st.integers(0, q - 1), min_size=width,
                             max_size=width))
    assert in_rref_span(reduced.rows[:rk], vec, F) == (
        oracle_rank(rows + [vec], q) == rk)

    # consecutive row groups as the blocks of one flat word
    cuts = sorted(set(data.draw(st.lists(st.integers(1, len(rows)),
                                         max_size=3)) if rows else []))
    bounds = list(zip([0] + cuts, cuts + [len(rows)]))
    blocks = [(a, b) for a, b in bounds if b > a]
    weight = sum(oracle_rank(rows[a:b], q) for a, b in blocks)
    ops = _row_ops(F)
    assert sum(len(ops.extend([], [ops.pack(r) for r in rows[a:b]], b - a))
               for a, b in blocks) == weight
    if (blocks and all(b - a <= width for a, b in blocks)
            and any(map(any, rows))):
        # the walk route on the one-dimensional code the word spans
        profile = profile_create(F, [(b - a, width) for a, b in blocks])
        C = code_create(profile, [unflatten(profile, sum(rows, []))])
        assert _walk_distance(C) == weight

    k = data.draw(st.integers(0, len(rows)))
    assert len(_extend([], rows, k, F)) == min(k, rk)


def _unpack(row, width):
    return tuple(row >> j & 1 for j in range(width))


@st.composite
def gf2_rows(draw):
    """(width, rows): up to 10 rows over GF(2) of width up to 25, the
    entries of a 5x5 block, with zero and repeated rows."""
    width = draw(st.integers(1, 25))
    row = st.lists(st.integers(0, 1), min_size=width, max_size=width)
    rows = draw(st.lists(st.one_of(row, st.just([0] * width)), max_size=10))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=10 - len(rows)))
    return width, rows


class TestPackedRows:
    """The GF(2) packed insert against the bitmask and RREF oracles."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(gf2_rows(), st.data())
    def test_insert_matches_oracles(self, case, data):
        width, rows = case
        packed = [_pack_bits(r) for r in rows]
        assert [_unpack(v, width) for v in packed] == [tuple(r) for r in rows]
        ops = _row_ops(F2)
        assert [ops.unpack(ops.pack(r), width) for r in rows] == \
            [_unpack(v, width) for v in packed]
        rk = oracle_rank_gf2(rows)
        k = data.draw(st.integers(0, 10))
        assert len(_extend_bits([], packed, k)) == min(k, rk)

        # the contract of `_extend`: each row holds its pivot, its lowest
        # set bit, and is clear at every earlier pivot
        echelon = _extend_bits([], packed, width)
        for i, (lead, row) in enumerate(echelon):
            assert lead == row & -row
            assert not any(row & earlier for earlier, _ in echelon[:i])
        assert tuple(_unpack(v, width) for v in _reduced_bits(echelon)) == \
            oracle_rref(rows, 2)

        # rows inserted past a mark are rolled back by truncation
        cut = data.draw(st.integers(0, len(rows)))
        echelon = _extend_bits([], packed[:cut], width)
        before = list(echelon)
        _extend_bits(echelon, packed[cut:], width)
        del echelon[len(before):]
        assert echelon == before

        coeffs = data.draw(st.lists(st.integers(0, 1), min_size=len(rows),
                                    max_size=len(rows)))
        if rows:
            assert _unpack(_combine_bits(coeffs, packed, width), width) == \
                tuple(oracle_combination(coeffs, rows, 2))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(matrices())
    def test_field_rows_reduce_to_the_rref(self, case):
        F, width, rows = case
        for ops in (_row_ops(F), _field_rows(F)):
            # unpack reads a row back as codes, and the RREF of either
            # representation is the oracle's
            packed = [ops.pack(r) for r in rows]
            assert [ops.unpack(v, width) for v in packed] == \
                [tuple(r) for r in rows]
            assert tuple(ops.unpack(v, width) for v in ops.reduced(
                ops.extend([], packed, width))) == oracle_rref(rows, F.q)

    def test_only_gf2_is_packed(self):
        assert _row_ops(F2).pack([1, 0, 1, 1]) == 0b1101
        assert _row_ops(F2).add(0b1101, 0b0110) == 0b1011
        for F in (F2, F3, F4):
            ops = _field_rows(F)
            assert ops.pack((1, 0, 1)) == [1, 0, 1]
            assert ops.add([1, 0, 1], [1, 1, 0]) == oracle_combination(
                [1, 1], [[1, 0, 1], [1, 1, 0]], F.q)
        assert _row_ops(F3).pack((2, 0, 1)) == [2, 0, 1]
        assert _row_ops(F4).pack((3, 0, 1)) == [3, 0, 1]


S2 = Subspace(F2, 2, [(1, 0)])


@pytest.mark.parametrize("call", [
    lambda: S2.contains_vector((1, 0, 1)),
    lambda: S2.contains_vector((0,)),
    lambda: S2.contains(Subspace(F2, 3, [(1, 0, 0)])),
], ids=["longer-vector", "shorter-vector", "subspace-of-F3"])
def test_containment_checks_the_ambient_space(call):
    with pytest.raises(AmbientMismatch):
        call()


@pytest.mark.parametrize("rows", [[(1, 0)], [(1, 0, 0), (0, 1)]],
                         ids=["short-row", "ragged-rows"])
def test_subspace_rows_must_fit_the_ambient_space(rows):
    with pytest.raises(AmbientMismatch, match="basis row outside F\\^3"):
        Subspace(F2, 3, rows)


@pytest.mark.parametrize("F,entry", [(F2, 5), (F2, 2), (F3, -1), (F4, 4),
                                     (F3, 7)])
def test_subspace_entries_must_lie_in_the_field(F, entry):
    with pytest.raises(ValueError, match=f"entry {entry} outside GF"):
        Subspace(F, 2, [(entry, 0)])
    # a vector tested for membership is checked too: packed GF(2) rows
    # would read any nonzero entry as 1
    line = Subspace(F, 2, [(1, 0)])
    for vec in ((entry, 0), (0, entry), (1, entry)):
        with pytest.raises(ValueError, match=f"entry {entry} outside GF"):
            line.contains_vector(vec)


class TestColspace:
    def test_identity_full(self):
        assert colspace(Mat.identity(F2, 2)) == Subspace.full(F2, 2)

    def test_zero(self):
        assert colspace(Mat.zero(F2, 2, 2)) == Subspace.zero(F2, 2)

    def test_repeated_column(self):
        assert colspace(Mat(F2, [[1, 0], [1, 0]])).basis == ((1, 1),)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([F2, F3, F4]), st.data())
def test_linear_combination_matches_oracle(F, data):
    width = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, 4))
    elem = st.integers(0, F.q - 1)
    rows = data.draw(st.lists(st.lists(elem, min_size=width, max_size=width),
                              min_size=k, max_size=k))
    coeffs = data.draw(st.lists(elem, min_size=k, max_size=k))
    assert linear_combination(coeffs, rows, width, F) == \
        oracle_combination(coeffs, rows, F.q)


class TestSubspaceOps:
    def test_self_dual_line(self):
        u = Subspace(F2, 2, [[1, 1]])
        assert orthogonal_complement(u) == u

    def test_nullspace_example(self):
        assert nullspace(Mat(F2, [[1, 1]])).basis == ((1, 1),)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([F2, F3]), st.data())
    def test_complement_involution_and_dims(self, F, data):
        n = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(0, n))
        rows = data.draw(st.lists(
            st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n),
            min_size=k, max_size=k))
        u = Subspace(F, n, rows)
        w = orthogonal_complement(u)
        assert u.dim + w.dim == n
        assert orthogonal_complement(w) == u

    def test_modular_dimension_law(self):
        rng = random.Random(1)
        for _ in range(100):
            F = rng.choice([F2, F3])
            n = rng.randrange(1, 5)
            mk = lambda: Subspace(F, n, [
                [rng.randrange(F.q) for _ in range(n)]
                for _ in range(rng.randrange(n + 1))])
            u, v = mk(), mk()
            assert (subspace_intersect(u, v).dim + subspace_sum(u, v).dim
                    == u.dim + v.dim)


class TestGaussianBinomial:
    def test_brute_force_lines(self):
        # oracle: distinct spans of nonzero vectors in F_2^2
        spans = {Subspace(F2, 2, [v]) for v in [(0, 1), (1, 0), (1, 1)]}
        assert gaussian_binomial(2, 1, 2) == len(spans) == 3

    def test_column_of_ones(self):
        assert gaussian_binomial(5, 0, 3) == 1
        assert gaussian_binomial(3, 1, 3) == 13

    def test_out_of_range(self):
        assert gaussian_binomial(2, 3, 2) == 0
        assert gaussian_binomial(2, -1, 2) == 0


class TestEnumeration:
    @pytest.mark.parametrize("q,F", [(2, F2), (3, F3), (4, F4)])
    def test_counts_match(self, q, F):
        for n in range(5):
            for k in range(n + 1):
                subs = list(enumerate_subspaces(n, k, F))
                assert len(subs) == gaussian_binomial(n, k, q)
                assert len(set(subs)) == len(subs)

    def test_zero_dim_single(self):
        assert list(enumerate_subspaces(3, 0, F2)) == [Subspace.zero(F2, 3)]

    def test_deterministic(self):
        a = [s.basis for s in enumerate_subspaces(3, 2, F3)]
        b = [s.basis for s in enumerate_subspaces(3, 2, F3)]
        assert a == b

    def test_complement_is_a_bijection(self):
        for n, k in [(3, 1), (4, 2)]:
            ks = list(enumerate_subspaces(n, k, F2))
            comp = {orthogonal_complement(s) for s in ks}
            assert comp == set(enumerate_subspaces(n, n - k, F2))


def test_mat_text_form():
    m = Mat(F2, [[1, 0], [0, 1]])
    text = format_mat(m)
    assert text == "1 0;0 1"
    assert Mat(F2, [[_decimal(x) for x in part.split()]
                    for part in text.split(";")]) == m
