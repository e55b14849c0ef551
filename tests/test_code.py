import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    msrd_d4_gf3_code,
    msrd_d6_code,
    oracle_combination,
    oracle_rank,
    random_code,
    random_subspace_tuple,
    rank2_plus_pivot_code,
    spherepack_d3_code,
    tup,
)
from srkit.ambient import (
    MatrixTuple,
    SubspaceTuple,
    enumerate_lattice,
    profile_create,
    support,
    sumrank_weight,
    unflatten,
)
from srkit.code import (
    code_create,
    codewords,
    dual,
    duality_shorten_check,
    full_code,
    minimum_distance,
    msrd_check,
    msrd_puncture_row,
    msrd_shorten_col,
    msrd_shorten_row,
    shorten,
    singleton_decomposition,
    systematic_form,
    zero_code,
)
from srkit.errors import (
    IndexOutOfTheoremRange,
    NotMsrd,
    ProfileMismatch,
    TooLarge,
    TrivialCode,
)
from srkit.field import field_create
from srkit.matq import Mat, Subspace

F2 = field_create(2)
F3 = field_create(3)
F4 = field_create(2, 2)


class TestCreate:
    def test_duplicates_collapse(self):
        p = profile_create(F2, [(2, 2)])
        g = tup(p, [[1, 0], [0, 1]])
        assert code_create(p, [g, g, g]).k == 1

    def test_example_dimensions(self):
        assert msrd_d6_code(F2).k == 3
        assert spherepack_d3_code().k == 7
        assert msrd_d4_gf3_code().k == 4

    def test_profile_mismatch(self):
        p1 = profile_create(F2, [(2, 2)])
        p2 = profile_create(F2, [(1, 2)])
        with pytest.raises(ProfileMismatch):
            code_create(p1, [MatrixTuple.zero(p2)])


class TestMembership:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from([F2, F3, F4]), st.data())
    def test_agrees_with_rank_oracle(self, F, data):
        blocks = data.draw(st.sampled_from(
            [[(2, 2)], [(1, 2), (1, 1)], [(2, 3), (1, 2)]]))
        p = profile_create(F, blocks)
        q, dim = F.q, p.dim
        elem = st.integers(0, q - 1)
        vec = st.lists(elem, min_size=dim, max_size=dim)
        gens = data.draw(st.lists(vec, max_size=dim - 1))
        C = code_create(p, [unflatten(p, g) for g in gens])
        rows = [list(r) for r in C._flat]
        assert C.k == oracle_rank(gens, q) == oracle_rank(rows, q)
        S = Subspace(F, dim, rows, canonical=True)

        def agrees(v, expect):
            return C.contains(unflatten(p, v)) == S.contains_vector(v) == expect

        assert all(agrees(r, True) for r in rows)
        word = [0] * dim
        if rows:
            coeffs = data.draw(st.lists(elem, min_size=C.k, max_size=C.k))
            word = oracle_combination(coeffs, rows, q)
            assert agrees(word, True)
        # k < dim, so some unit vector lies outside the code, and so does
        # its sum with any codeword
        unit = next(e for e in ([int(i == j) for i in range(dim)]
                                for j in range(dim))
                    if oracle_rank(rows + [e], q) > C.k)
        assert agrees(unit, False)
        assert agrees(oracle_combination([1, 1], [word, unit], q), False)
        v = data.draw(vec)
        assert agrees(v, oracle_rank(rows + [v], q) == C.k)


class TestCodewords:
    def test_zero_code(self):
        p = profile_create(F2, [(1, 2)])
        words = list(codewords(zero_code(p)))
        assert words == [MatrixTuple.zero(p)]

    def test_count_is_q_to_k(self):
        C = msrd_d4_gf3_code()
        words = list(codewords(C))
        assert len(words) == 81 and len(set(words)) == 81

    def test_random_counts(self):
        rng = random.Random(0)
        for _ in range(10):
            F = rng.choice([F2, F3])
            C = random_code(rng, F, [(2, 2), (1, 2)], rng.randrange(0, 4))
            words = set(codewords(C))
            assert len(words) == F.q ** C.k
            assert all(C.contains(w) for w in words)

    def test_guard(self):
        p = profile_create(F2, [(2, 13), (2, 13)])
        with pytest.raises(TooLarge):
            next(codewords(full_code(p)))


class TestMinimumDistance:
    def test_worked_examples(self):
        assert minimum_distance(msrd_d6_code(F2)) == 6
        assert minimum_distance(msrd_d6_code(F3)) == 6
        assert minimum_distance(msrd_d4_gf3_code()) == 4
        assert minimum_distance(spherepack_d3_code()) == 3

    def test_zero_code_raises(self):
        with pytest.raises(TrivialCode):
            minimum_distance(zero_code(profile_create(F2, [(1, 1)])))

    def test_matches_brute_force(self):
        rng = random.Random(1)
        for _ in range(30):
            F = rng.choice([F2, F3])
            C = random_code(rng, F, [(2, 2), (1, 2)], rng.randrange(1, 4))
            brute = min(sumrank_weight(w) for w in codewords(C)
                        if not w.is_zero())
            assert minimum_distance(C) == brute


class TestDual:
    def test_involution(self):
        rng = random.Random(2)
        for _ in range(50):
            F = rng.choice([F2, F3])
            C = random_code(rng, F, [(2, 2), (1, 2)], rng.randrange(0, 5))
            assert dual(dual(C)) == C
            assert C.k + dual(C).k == C.profile.dim

    def test_single_generator(self):
        p = profile_create(F2, [(2, 2), (2, 2)])
        C = code_create(p, [tup(p, [[1, 0], [0, 1]], [[0, 0], [0, 0]])])
        assert dual(C).k == 7

    def test_rank2_plus_pivot_dual_form(self):
        # dual = {(B, -<B,Z>) : B in inner^perp} where Z is the rank-1 pivot
        from srkit.constructions import gabidulin_mrd
        C = rank2_plus_pivot_code(2)
        D = dual(C)
        inner_dual = dual(gabidulin_mrd(F2, 2, 2, 2))
        p = C.profile
        z_rows = [[1, 0], [0, 0]]
        gens = []
        for b in inner_dual.basis:
            B = b.blocks[0]
            dot = 0
            for r1, r2 in zip(B.rows, z_rows):
                for x, y in zip(r1, r2):
                    dot = F2.add(dot, F2.mul(x, y))
            gens.append(MatrixTuple(p, [B, Mat(F2, [[F2.neg(dot)]])]))
        assert D == code_create(p, gens)
        assert D.k == 2


class TestShorten:
    def test_full_and_zero(self):
        C = msrd_d6_code(F2)
        assert shorten(C, SubspaceTuple.full(C.profile)) == C
        assert shorten(C, SubspaceTuple.zero(C.profile)).k == 0

    def test_brute_filter_oracle(self):
        rng = random.Random(3)
        for _ in range(100):
            F = rng.choice([F2, F3])
            C = random_code(rng, F, [(2, 2), (1, 2)], rng.randrange(0, 4))
            u = random_subspace_tuple(rng, C.profile)
            S = shorten(C, u)
            brute = [w for w in codewords(C) if u.contains(support(w))]
            assert len(brute) == F.q ** S.k
            assert all(S.contains(w) for w in brute)

    def test_duality_identity_random(self):
        rng = random.Random(4)
        for _ in range(200):
            F = rng.choice([F2, F3])
            C = random_code(rng, F, [(2, 2), (1, 2)], rng.randrange(0, 5))
            u = random_subspace_tuple(rng, C.profile)
            assert duality_shorten_check(C, u)

    def test_duality_identity_edges(self):
        p = profile_create(F2, [(2, 2), (1, 1)])
        C = full_code(p)
        u = SubspaceTuple(p, [Subspace(F2, 2, [[1, 0]]), Subspace.zero(F2, 1)])
        # |Pi(U)| = q^(sum m_i u_i)
        assert shorten(C, u).k == 2
        assert duality_shorten_check(C, SubspaceTuple.full(p))

    def test_ambient_shorten_dual_compat(self):
        # Pi(U^perp) = Pi(U)^perp
        rng = random.Random(5)
        p = profile_create(F2, [(2, 2), (1, 2)])
        Pi = full_code(p)
        for _ in range(20):
            u = random_subspace_tuple(rng, p)
            lhs = shorten(Pi, u.dual())
            rhs = dual(shorten(Pi, u))
            assert lhs == rhs


class TestEquivalentDistanceCriterion:
    def test_distance_iff_trivial_shortenings(self):
        rng = random.Random(6)
        for _ in range(20):
            F = rng.choice([F2, F3])
            C = random_code(rng, F, [(2, 2), (1, 1)], rng.randrange(1, 4))
            d = minimum_distance(C)
            for dd in range(1, C.profile.N + 1):
                all_trivial = all(
                    shorten(C, u).k == 0
                    for u in enumerate_lattice(C.profile, total_rank=dd - 1))
                assert all_trivial == (d >= dd)


class TestMsrdCheck:
    def test_examples(self):
        for C in (msrd_d6_code(F2), msrd_d6_code(F3), msrd_d4_gf3_code()):
            assert msrd_check(C).is_msrd

    def test_zero_code_is_msrd(self):
        w = msrd_check(zero_code(profile_create(F2, [(1, 1)])))
        assert w.is_msrd and w.d is None

    def test_full_code_is_msrd(self):
        assert msrd_check(full_code(profile_create(F2, [(2, 2), (1, 2)]))).is_msrd

    def test_rank2_plus_pivot_and_its_dual(self):
        C = rank2_plus_pivot_code(2)
        assert msrd_check(C).is_msrd
        w = msrd_check(dual(C))
        assert not w.is_msrd and w.d == 2

    def test_decomposition(self):
        assert singleton_decomposition((2, 1, 1, 1), 4) == (3, 0)
        assert singleton_decomposition((2, 2), 4) == (2, 1)
        assert singleton_decomposition((1, 1), 1) == (1, 0)


class TestEqualMDuality:
    def test_dual_of_equal_m_msrd_is_msrd(self):
        # equal column count: dual distance N - d + 2
        from srkit.constructions import construct_d2, construct_dN, construct_mds_lift
        cases = [
            construct_d2(F2, [(2, 2), (2, 2)]).code,
            construct_d2(F2, [(2, 2), (1, 2)]).code,
            construct_mds_lift(F2, 2, 4, 2),
            construct_dN(F2, [(2, 2), (2, 2)]),
            msrd_d4_gf3_code(),
        ]
        for C in cases:
            w = msrd_check(C)
            assert w.is_msrd
            wd = msrd_check(dual(C))
            assert wd.is_msrd
            assert wd.d == C.profile.N - w.d + 2


class TestSystematicForm:
    def test_reference_basis_is_tail_systematic(self):
        C = msrd_d6_code(F2)
        sf = systematic_form(C)
        assert sf.j == 6 and sf.delta == 0
        assert [t[0] for t in sf.tail] == [5, 6, 7]
        p = C.profile
        reference = [
            tup(p, [[1, 0]], [[1, 0]], [[1, 0]], [[1, 0]], [[1, 0]],
                [[1]], [[0]], [[0]]),
            tup(p, [[1, 0]], [[0, 1]], [[0, 1]], [[0, 1]], [[0, 1]],
                [[0]], [[1]], [[0]]),
            tup(p, [[0, 1]], [[1, 0]], [[0, 1]], [[1, 1]], [[1, 1]],
                [[0]], [[0]], [[1]]),
        ]
        assert list(sf.basis) == reference

    def test_gf3_code_tail_is_identity(self):
        C = msrd_d4_gf3_code()
        sf = systematic_form(C)
        assert sf.j == 3 and sf.delta == 0
        assert len(sf.tail) == C.k
        for row, pos in zip(sf.basis, sf.tail):
            for other in sf.tail:
                i, a, b = other
                expect = 1 if other == pos else 0
                assert row.blocks[i].rows[a][b] == expect

    def test_repetition_code_tail_is_last_block(self):
        from srkit.constructions import construct_d2
        rep = construct_d2(F2, [(2, 2), (2, 2)]).stated_dual
        sf = systematic_form(rep)
        assert {t[0] for t in sf.tail} == {1}

    def test_requires_msrd(self):
        C = dual(rank2_plus_pivot_code(2))
        with pytest.raises(NotMsrd):
            systematic_form(C)


class TestShortenPunctureTheorems:
    def test_shorten_row_drops_empty_block(self):
        C = msrd_d6_code(F2)
        S = msrd_shorten_row(C, 8)
        assert S.profile.blocks == ((1, 2),) * 5 + ((1, 1),) * 2
        w = msrd_check(S)
        assert w.is_msrd and w.d == 6 and S.k == 2

    def test_shorten_col(self):
        S = msrd_shorten_col(msrd_d4_gf3_code(), 3)
        w = msrd_check(S)
        assert w.is_msrd and w.d == 4
        assert sorted(S.profile.blocks) == [(1, 1), (1, 2), (1, 2), (2, 2)]

    def test_puncture_row(self):
        P = msrd_puncture_row(msrd_d4_gf3_code(), 1)
        w = msrd_check(P)
        assert w.is_msrd and w.d == 3

    def test_exhaustive_admissible_indices(self):
        for C in (msrd_d6_code(F2), msrd_d4_gf3_code()):
            w = msrd_check(C)
            j, t = w.j, C.profile.t
            for s in range(j, t + 1):
                ws = msrd_check(msrd_shorten_row(C, s))
                assert ws.is_msrd and ws.d == w.d, (s, ws)
            lo = j if w.delta == 0 else j + 1
            for s in range(lo, t + 1):
                ns, ms = C.profile.ns, C.profile.ms
                if ms[s - 1] - 1 > 0 and ns[s - 1] > ms[s - 1] - 1:
                    continue
                ws = msrd_check(msrd_shorten_col(C, s))
                assert ws.is_msrd and ws.d == w.d, (s, ws)
            hi = j if w.delta > 0 else j - 1
            for s in range(1, hi + 1):
                ws = msrd_check(msrd_puncture_row(C, s))
                assert ws.is_msrd and ws.d == w.d - 1, (s, ws)

    def test_out_of_range_indices(self):
        C = msrd_d6_code(F2)
        with pytest.raises(IndexOutOfTheoremRange):
            msrd_shorten_row(C, 1)  # head block
        with pytest.raises(IndexOutOfTheoremRange):
            msrd_puncture_row(C, 6)  # tail block

    def test_single_block_with_nonzero_delta(self):
        # t = 1 rank-metric case; d - 1 falls strictly inside the block
        from srkit.constructions import gabidulin_mrd
        C = gabidulin_mrd(F2, 3, 3, 2)
        w = msrd_check(C)
        assert w.is_msrd and (w.j, w.delta) == (1, 1)
        sf = systematic_form(C)
        assert len(sf.tail) == C.k == 6 and len(sf.head) == 3
        S = msrd_shorten_row(C, 1, row=1)
        ws = msrd_check(S)
        assert ws.is_msrd and ws.d == 2 and S.profile.blocks == ((2, 3),)
        P = msrd_puncture_row(C, 1)
        wp = msrd_check(P)
        assert wp.is_msrd and wp.d == 1 and P.profile.blocks == ((2, 3),)

    def test_equal_m_reordering(self):
        # with equal column counts, any block may play the tail role
        from srkit.constructions import construct_mds_lift
        C = construct_mds_lift(F2, 2, 4, 2)
        w = msrd_check(C)
        order = (3, 0, 1, 2)
        S = msrd_shorten_row(C, C.profile.t, order=order)
        ws = msrd_check(S)
        assert ws.is_msrd and ws.d == w.d

    def test_reordering_must_keep_m_sorted(self):
        C = msrd_d6_code(F2)  # mixed column counts
        bad = (5, 0, 1, 2, 3, 4, 6, 7)  # puts a 1-column block first
        with pytest.raises(IndexOutOfTheoremRange):
            msrd_shorten_row(C, 8, order=bad)
