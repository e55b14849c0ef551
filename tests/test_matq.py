import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_combination
from srkit.field import field_create
from srkit.matq import (
    Mat,
    Subspace,
    colspace,
    enumerate_subspaces,
    gaussian_binomial,
    linear_combination,
    nullspace,
    orthogonal_complement,
    parse_mat,
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
    assert format_mat(m) == "1 0;0 1"
    assert parse_mat(F2, "1 0;0 1") == m
