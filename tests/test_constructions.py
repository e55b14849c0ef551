import random
from itertools import product

import pytest

from conftest import msrd_d6_code, oracle_rank_gf2
from srkit.ambient import sumrank_weight
from srkit.code import (
    _words,
    codewords,
    dual,
    minimum_distance,
    msrd_check,
)
from srkit.constructions import (
    construct_combine,
    construct_d2,
    construct_dN,
    construct_dN_minus,
    construct_lifting,
    construct_mds_lift,
    construct_msrd111,
    construct_msrd111_ext,
    gabidulin_mrd,
    rs_mds,
    simplex_lift,
)
from srkit.errors import (
    BadParameters,
    HypothesisFailed,
    LengthTooLong,
    TooLarge,
)
from srkit.field import field_create, tower_create
from srkit.matq import Mat, _field_rows

F2 = field_create(2)
F3 = field_create(3)
F4 = field_create(2, 2)


class TestGabidulin:
    @pytest.mark.parametrize("F,n,m,d", [
        (F2, 2, 2, 2), (F2, 2, 3, 2), (F2, 3, 3, 2), (F2, 3, 4, 3),
        (F3, 2, 2, 2), (F2, 2, 2, 1),
    ])
    def test_dimension_and_distance(self, F, n, m, d):
        C = gabidulin_mrd(F, n, m, d)
        assert C.k == m * (n - d + 1)
        assert minimum_distance(C) == d

    def test_distance_one_is_full_space(self):
        C = gabidulin_mrd(F2, 2, 2, 1)
        assert C.k == 4

    def test_duals_are_mrd(self):
        for (n, m, d) in [(2, 2, 2), (2, 3, 2), (3, 3, 2)]:
            D = dual(gabidulin_mrd(F2, n, m, d))
            w = msrd_check(D)
            assert w.is_msrd and w.d == n - d + 2

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            gabidulin_mrd(F2, 3, 2, 2)  # n > m
        with pytest.raises(BadParameters):
            gabidulin_mrd(F2, 2, 2, 3)  # d > n


class TestRsMds:
    def test_distance_one_square(self):
        G = rs_mds(F4, 3, 1)
        assert G == Mat.identity(F4, 3)

    def test_small_exhaustive(self):
        G = rs_mds(F4, 5, 3)
        assert (G.nrows, G.ncols) == (3, 5)
        minw = min(sum(1 for x in w if x) for w in _span_words(F4, G) if any(w))
        assert minw == 3

    def test_parity_case_any_field(self):
        G = rs_mds(F2, 4, 2)  # longer than q+1, still fine for d = 2
        minw = min(sum(1 for x in w if x) for w in _span_words(F2, G) if any(w))
        assert minw == 2

    def test_repetition_case(self):
        G = rs_mds(F2, 5, 5)
        assert G.rows == ((1, 1, 1, 1, 1),)

    def test_length_beyond_boundary(self):
        with pytest.raises(LengthTooLong):
            rs_mds(F4, 6, 3)

    def test_full_boundary_length(self):
        G = rs_mds(F4, 5, 2)  # q + 1 with the infinity column
        minw = min(sum(1 for x in w if x) for w in _span_words(F4, G) if any(w))
        assert minw == 2


def _span_words(F, G):
    for coeffs in product(range(F.q), repeat=G.nrows):
        w = [0] * G.ncols
        for c, row in zip(coeffs, G.rows):
            if c:
                w = [F.add(x, F.mul(c, y)) for x, y in zip(w, row)]
        yield w


class TestMdsLift:
    @pytest.mark.parametrize("F,m,t,d,k", [
        (F2, 2, 5, 3, 6), (F2, 1, 3, 2, 2), (F2, 2, 4, 2, 6), (F3, 2, 4, 3, 4),
    ])
    def test_msrd(self, F, m, t, d, k):
        C = construct_mds_lift(F, m, t, d)
        assert C.k == k
        w = msrd_check(C)
        assert w.is_msrd and w.d == d

    def test_distance_one_full_space(self):
        C = construct_mds_lift(F2, 2, 3, 1)
        assert C.k == C.profile.dim


class TestD2:
    def test_equal_m_mixed_rows(self):
        res = construct_d2(F2, [(2, 2), (1, 2)])
        w = msrd_check(res.code)
        assert w.is_msrd and w.d == 2 and res.code.k == 4
        wd = msrd_check(res.stated_dual)
        assert wd.is_msrd and wd.d == res.code.profile.N
        assert dual(res.code) == res.stated_dual

    def test_equal_rows_dual_is_repetition(self):
        res = construct_d2(F2, [(2, 2), (2, 2)])
        assert dual(res.code) == res.stated_dual
        for x in codewords(res.stated_dual):
            assert x.blocks[0] == x.blocks[1]

    def test_all_single_rows(self):
        res = construct_d2(F3, [(1, 2), (1, 2), (1, 2)])
        w = msrd_check(res.code)
        assert w.is_msrd and w.d == 2

    def test_mixed_columns(self):
        res = construct_d2(F2, [(2, 2), (1, 1)])
        assert res.code.k == 3
        w = msrd_check(res.code)
        assert w.is_msrd and w.d == 2
        assert res.stated_dual is None

    def test_mixed_columns_wider(self):
        res = construct_d2(F2, [(2, 3), (2, 2), (1, 1)])
        w = msrd_check(res.code)
        assert w.is_msrd and w.d == 2


class TestDN:
    @pytest.mark.parametrize("F,blocks", [
        (F2, [(2, 2), (1, 1)]), (F2, [(2, 3), (2, 2)]), (F3, [(1, 2), (1, 1)]),
        (F2, [(2, 2), (2, 2)]),
    ])
    def test_full_distance(self, F, blocks):
        C = construct_dN(F, blocks)
        p = C.profile
        w = msrd_check(C)
        assert w.is_msrd and w.d == p.N and C.k == p.ms[-1]

    def test_next_distance(self):
        C = construct_dN_minus(F2, [(2, 4), (2, 2)], alpha=1)
        w = msrd_check(C)
        assert w.is_msrd and w.d == C.profile.N - 1 and C.k == 4

    def test_sketched_alpha_two(self):
        C = construct_dN_minus(F2, [(3, 9), (3, 3)], alpha=2)
        w = msrd_check(C)
        assert w.is_msrd and w.d == C.profile.N - 2 and C.k == 9

    def test_hypotheses_enforced(self):
        with pytest.raises(HypothesisFailed):
            construct_dN_minus(F2, [(2, 2), (2, 2)], alpha=1)  # 2 m_t > m_1
        with pytest.raises(HypothesisFailed):
            construct_dN_minus(F2, [(2, 4), (1, 2)], alpha=1)  # n_t < 2

    def test_next_distance_not_universal(self):
        # equal columns, wide leading block: the sign test at the full dim
        # vector rules the parameters out (exact evaluation; the witness
        # needs the second-widest block to contribute as well)
        from srkit.distributions import omega, omega_exclusion_scan
        for shape in [(3, 2), (3, 3), (4, 2), (3, 2, 1)]:
            m = max(shape)
            d = sum(shape) - 1
            assert omega(shape, m, 2, d, shape) < 0
            assert omega_exclusion_scan(shape, m, 2, d).excluded


class TestMsrd111:
    def test_identity_glue(self):
        # the default MDS code at t2 = m_last = 2 is the identity glue
        assert rs_mds(F2, 2, 1) == Mat.identity(F2, 2)
        C = construct_msrd111(F2, [(1, 2), (1, 2)], 2)
        w = msrd_check(C)
        assert w.is_msrd and w.d == 3  # 2 + 2 - 2 + 1

    def test_default_mds(self):
        C = construct_msrd111(F3, [(2, 2)], 3)
        w = msrd_check(C)
        assert w.is_msrd and w.d == 2 + 3 - 2 + 1

    def test_hypothesis(self):
        with pytest.raises(HypothesisFailed):
            construct_msrd111(F2, [(2, 2)], 1)


class TestCombine:
    def test_factored_columns(self):
        C = construct_combine(F2, [(1, 4)], 3, 2)  # a = 2, m_hat = 2
        w = msrd_check(C)
        assert w.is_msrd and w.d == 1 + 3 - 2 + 1

    def test_divisibility_enforced(self):
        with pytest.raises(HypothesisFailed):
            construct_combine(F2, [(1, 4)], 3, 3)

    def test_m_hat_must_be_positive(self):
        for m_hat in (0, -2):
            with pytest.raises(BadParameters):
                construct_combine(F2, [(1, 4)], 3, m_hat)

    def test_msrd111_is_combine_with_m_hat_one(self):
        for F, inner, t2 in [(F2, [(1, 2), (1, 2)], 2), (F2, [(2, 2)], 3),
                             (F3, [(2, 2)], 3), (F3, [(2, 3), (1, 2)], 3)]:
            C = construct_msrd111(F, inner, t2)
            assert C == construct_combine(F, inner, t2, 1)
            assert C.profile.original_blocks == tuple(
                sorted(inner, key=lambda b: -b[1])) + ((1, 1),) * t2


class TestMsrd111Ext:
    def test_reproduces_the_reference_d6_code(self):
        C = construct_msrd111_ext(F2, 2, 4)
        assert C == msrd_d6_code(F2)

    @pytest.mark.parametrize("F,m,s", [
        (F2, 2, 2), (F2, 2, 3), (F2, 2, 4), (F2, 3, 2), (F2, 3, 5),
        (F3, 2, 2), (F3, 2, 4), (F2, 3, 7),
    ])
    def test_distance(self, F, m, s):
        C = construct_msrd111_ext(F, m, s)
        w = msrd_check(C)
        assert w.is_msrd and w.d == s + 2 and C.k == m + 1

    def test_hypothesis_cap(self):
        with pytest.raises(HypothesisFailed):
            construct_msrd111_ext(F2, 2, 5)  # s > m + C(m,2) + 1 = 4


class TestLifting:
    def test_single_word_outer_code(self):
        # outer span of one full-weight word: distance = sum of deltas
        tower = tower_create(F2, 2)
        outer = [tuple([b] * 3) for b in tower.basis()]
        result = construct_lifting(F2, [(2, 2)] * 3, [1, 1, 1], 2,
                                   outer, 3)
        assert result.distance_lower_bound == 3
        assert minimum_distance(result.code) >= 3

    def test_dimension_matches_outer(self):
        tower = tower_create(F2, 2)
        outer = [tuple([b] * 4) for b in tower.basis()]
        result = construct_lifting(F2, [(2, 3)] * 4, [2] * 4, 2, outer, 4)
        assert result.code.k == 2
        assert result.distance_lower_bound == 8
        assert minimum_distance(result.code) >= 8

    def test_hypotheses(self):
        tower = tower_create(F2, 3)
        outer = [tuple([b] * 2) for b in tower.basis()]
        with pytest.raises(HypothesisFailed):
            construct_lifting(F2, [(1, 2)] * 2, [1, 1], 3, outer, 2)


class TestSimplexLift:
    def test_small_meets_induced_plotkin(self):
        code, cert = simplex_lift(F2, 2, 1, 2)
        assert (cert.t, cert.size, cert.sumrank) == (5, 16, 4)
        assert cert.meets_plotkin
        weights = [sumrank_weight(x) for x in codewords(code)
                   if not x.is_zero()]
        assert all(w == 4 for w in weights)

    def test_columns_are_guarded(self):
        # (64^6 - 1)/63 projective points: refused before they are listed
        with pytest.raises(TooLarge):
            simplex_lift(F2, 6, 1, 6)

    def test_small_square_blocks(self):
        code, cert = simplex_lift(F2, 2, 2, 2)
        assert cert.sumrank == 2 * 4 and cert.meets_plotkin
        weights = {sumrank_weight(x) for x in codewords(code)
                   if not x.is_zero()}
        assert weights == {8}

    def test_production_parameters(self):
        code, cert = simplex_lift(F2, 4, 3, 3)
        assert cert.t == 273 and cert.dim == 12
        assert cert.size == 4096 and cert.sumrank == 768
        assert cert.induced_plotkin == 4096 and cert.meets_plotkin
        assert cert.columns_distinct and cert.inner_rank_checked
        # sampled codewords of the walk really have the certified weight
        rng = random.Random(11)
        starts = [sum(code.profile.ns[:i]) for i in range(code.profile.t)]
        picks = {rng.randrange(1, 4096) for _ in range(12)}
        for i, word in enumerate(_words(code, _field_rows(F2))):
            if i in picks:
                assert sum(oracle_rank_gf2(word[a:a + n]) for a, n in
                           zip(starts, code.profile.ns)) == 768
