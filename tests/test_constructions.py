import hashlib
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
from srkit.srcfile import write_src_text

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
        # the count is checked before the deltas are put in block order:
        # an extra delta is not dropped, a missing one is not an IndexError
        for deltas in ([1, 1, 1], [1]):
            with pytest.raises(BadParameters, match="one delta per block"):
                construct_lifting(F2, [(1, 3)] * 2, deltas, 3, outer, 2)


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


def _lift(F, blocks, deltas, h):
    # an outer code whose symbols differ per block, so a user order that
    # the profile reorders shows in the lifted words
    tower = tower_create(F, h)
    top = tower.top
    outer = [tuple(top.pow(b, j + 1) for j in range(len(blocks)))
             for b in tower.basis()]
    return construct_lifting(F, blocks, deltas, h, outer, 1).code


# every family over GF(2), GF(3) and GF(4), the stated duals of construct_d2,
# a widest d2 block that is not first, and user profiles that normalizing
# reorders: each output's .src text, pinned by its SHA-256
PINNED = {
    "gab-q2-3x3-d2": lambda: gabidulin_mrd(F2, 3, 3, 2),
    "gab-q2-2x3-d1": lambda: gabidulin_mrd(F2, 2, 3, 1),
    "gab-q3-2x2-d2": lambda: gabidulin_mrd(F3, 2, 2, 2),
    "gab-q4-2x3-d2": lambda: gabidulin_mrd(F4, 2, 3, 2),
    "mds-q2-m2-t5-d3": lambda: construct_mds_lift(F2, 2, 5, 3),
    "mds-q3-m2-t4-d3": lambda: construct_mds_lift(F3, 2, 4, 3),
    "mds-q4-m2-t3-d2": lambda: construct_mds_lift(F4, 2, 3, 2),
    "d2-q2-2x2,1x2": lambda: construct_d2(F2, [(2, 2), (1, 2)]).code,
    "d2-q2-2x2,1x2-dual":
        lambda: construct_d2(F2, [(2, 2), (1, 2)]).stated_dual,
    "d2-q2-2x2x3": lambda: construct_d2(F2, [(2, 2)] * 3).code,
    "d2-q2-2x2x3-dual": lambda: construct_d2(F2, [(2, 2)] * 3).stated_dual,
    "d2-q2-1x2,2x2,1x2": lambda: construct_d2(F2, [(1, 2), (2, 2), (1, 2)]).code,
    "d2-q2-1x2,2x2,1x2-dual":
        lambda: construct_d2(F2, [(1, 2), (2, 2), (1, 2)]).stated_dual,
    "d2-q2-1x3,2x3,1x2": lambda: construct_d2(F2, [(1, 3), (2, 3), (1, 2)]).code,
    "d2-q2-1x1,2x2": lambda: construct_d2(F2, [(1, 1), (2, 2)]).code,
    "d2-q3-1x2x3": lambda: construct_d2(F3, [(1, 2)] * 3).code,
    "d2-q3-1x2x3-dual": lambda: construct_d2(F3, [(1, 2)] * 3).stated_dual,
    "d2-q3-2x3,1x2": lambda: construct_d2(F3, [(2, 3), (1, 2)]).code,
    "d2-q4-1x2,2x2": lambda: construct_d2(F4, [(1, 2), (2, 2)]).code,
    "d2-q4-1x2,2x2-dual": lambda: construct_d2(F4, [(1, 2), (2, 2)]).stated_dual,
    "dN-q2-2x2,1x1": lambda: construct_dN(F2, [(2, 2), (1, 1)]),
    "dN-q2-1x1,2x3,2x2": lambda: construct_dN(F2, [(1, 1), (2, 3), (2, 2)]),
    "dN-q3-1x2,1x1": lambda: construct_dN(F3, [(1, 2), (1, 1)]),
    "dN-q4-2x2x2": lambda: construct_dN(F4, [(2, 2), (2, 2)]),
    "dN1-q2-2x4,2x2": lambda: construct_dN_minus(F2, [(2, 4), (2, 2)]),
    "dN1-q3-1x4,2x2": lambda: construct_dN_minus(F3, [(1, 4), (2, 2)]),
    "dN1-q4-2x2,1x4": lambda: construct_dN_minus(F4, [(2, 2), (1, 4)]),
    "dN2-q2-1x9,3x3": lambda: construct_dN_minus(F2, [(1, 9), (3, 3)], 2),
    "111-q2-1x2x2-t2": lambda: construct_msrd111(F2, [(1, 2), (1, 2)], 2),
    "111-q3-2x2-t3": lambda: construct_msrd111(F3, [(2, 2)], 3),
    "111-q4-2x2-t3": lambda: construct_msrd111(F4, [(2, 2)], 3),
    "comb-q2-1x4-t3-h2": lambda: construct_combine(F2, [(1, 4)], 3, 2),
    "comb-q2-2x2,1x4-t2-h1": lambda: construct_combine(F2, [(2, 2), (1, 4)], 2, 1),
    "comb-q3-1x4,2x4-t3-h2": lambda: construct_combine(F3, [(1, 4), (2, 4)], 3, 2),
    "comb-q4-1x4-t3-h2": lambda: construct_combine(F4, [(1, 4)], 3, 2),
    "ext-q2-m2-s4": lambda: construct_msrd111_ext(F2, 2, 4),
    "ext-q2-m3-s2": lambda: construct_msrd111_ext(F2, 3, 2),
    "ext-q2-m3-s7": lambda: construct_msrd111_ext(F2, 3, 7),
    "ext-q3-m2-s2": lambda: construct_msrd111_ext(F3, 2, 2),
    "ext-q4-m2-s3": lambda: construct_msrd111_ext(F4, 2, 3),
    "lift-q2-1x2,2x3": lambda: _lift(F2, [(1, 2), (2, 3)], [1, 2], 2),
    "lift-q3-1x2,2x3": lambda: _lift(F3, [(1, 2), (2, 3)], [1, 2], 2),
    "lift-q4-1x1,2x2,1x2": lambda: _lift(F4, [(1, 1), (2, 2), (1, 2)], [1, 1, 1], 1),
    "simplex-q2-m2-n1-r2": lambda: simplex_lift(F2, 2, 1, 2)[0],
    "simplex-q2-m2-n2-r2": lambda: simplex_lift(F2, 2, 2, 2)[0],
    "simplex-q3-m1-n1-r2": lambda: simplex_lift(F3, 1, 1, 2)[0],
    "simplex-q4-m1-n1-r3": lambda: simplex_lift(F4, 1, 1, 3)[0],
}

PINNED_SHA256 = {
    "gab-q2-3x3-d2":
        "22285727390e7474f76e527aeff43e8c5625ddc28f65a921f1691b3ee2feb0cf",
    "gab-q2-2x3-d1":
        "24ea491c7e22161744ac196b9382e058aa2f81b98ddec2c9cc56492f7c3ca5dc",
    "gab-q3-2x2-d2":
        "65073e834e5fe4cd469c3030e570788068664f6c60d459b4e317ddc821b2b5f2",
    "gab-q4-2x3-d2":
        "7489c97ed0504d21395a13d81324d604ebbf4896a8fba6cad7e8291a8d420b3e",
    "mds-q2-m2-t5-d3":
        "dea50e8ffa3895c050859e287005b2237e73ddc06f4942087754bc63abec2b65",
    "mds-q3-m2-t4-d3":
        "63d43a6249b997b6a9d84bccfec0658a26b447d8b7f2391a8e61b7a922e612b9",
    "mds-q4-m2-t3-d2":
        "33a0dcfd27ed7f7197fb90a3ce6fbb0060844f6874a5f443cf5e6119751c7839",
    "d2-q2-2x2,1x2":
        "de4f20c65e4e4073cf30953e8fcf313460431ef91bf34d6a51263330ed72fd05",
    "d2-q2-2x2,1x2-dual":
        "db3afcb4fbd37b2d261347ad5775c236f14e74c36465847ca843784ea67720a1",
    "d2-q2-2x2x3":
        "38abba994df13d75fc247eb9fb076cac9ba9e4681a95a38887a0dbfcba6a98b2",
    "d2-q2-2x2x3-dual":
        "1a58d6c08a5295abdd262a8fb10d775a9f0c37ab69c8d4c6145eb710f55bc038",
    "d2-q2-1x2,2x2,1x2":
        "a00fb1b1ec81517b08c4b699211528f18f86683ca11c68cbd865cf8e565b4bdc",
    "d2-q2-1x2,2x2,1x2-dual":
        "65a3799bfc7d8034067a0d231114320e24fbeaf2f7af13916d2ade9bfa7a5e95",
    "d2-q2-1x3,2x3,1x2":
        "1db7136856eb16267ba631197a8eb03462db35b760debb9ff70ab0399d136da3",
    "d2-q2-1x1,2x2":
        "46cb7d22029f665ccfa7c2998628ea9c69043c1a4c57acb01047efc13728668e",
    "d2-q3-1x2x3":
        "c24628394279d40178288b8167d17e8fafcd626e400431752a47c54e05daa278",
    "d2-q3-1x2x3-dual":
        "d39471bda80655b03e06db3b5aed0a5f061feb7388c7293627e78cff118afaed",
    "d2-q3-2x3,1x2":
        "da9a120f18c61ef43c41effd4092170b661727c0266795556d46fdd1fb8c01ac",
    "d2-q4-1x2,2x2":
        "8a4c3085b1833baa595e02e663d8c266c9747940908a228919d16ea456eb1b00",
    "d2-q4-1x2,2x2-dual":
        "1eb3f4aecf19f26c5e3cbabc37bab883b220f34bfd7904ac52a53a1790b67234",
    "dN-q2-2x2,1x1":
        "d460cf888f42b7d1b68a708d8857edf134933918859b4667d28a4d6d9827c676",
    "dN-q2-1x1,2x3,2x2":
        "53492d5a44deabb6ea847851bc4309c829da191652d34205ae564f9a17663de9",
    "dN-q3-1x2,1x1":
        "c96e8e55ca069e1ba14b8daa4eac304df9b43200aed4dca235e762f9310e0dc9",
    "dN-q4-2x2x2":
        "5a33470d62fdf98c3e97fbc26229ddfa9eeb37c351e7c062d1010c11c7e1fd9f",
    "dN1-q2-2x4,2x2":
        "5d2b8e9db74faffbbf8870f68af91e5b16f4a2518ea08df229b9cec9a42a0dcb",
    "dN1-q3-1x4,2x2":
        "11d678506334aa2e7cd54e26ca37be73dbf50e3336ea03c7ec0a7278d4b4226f",
    "dN1-q4-2x2,1x4":
        "2b0b3eb28094c37ff629aad9eec4852fbb7f1b0b64d405daff23f908c6c74934",
    "dN2-q2-1x9,3x3":
        "81b6e242d7c80dfc320b0d95d304c84b191af3268106bfa391b6be4822c57dd9",
    "111-q2-1x2x2-t2":
        "1c00bf9110df4f153853067160f3bcc78326fe8ad888fd5c41d1f2057f07791d",
    "111-q3-2x2-t3":
        "e16d6dc448883e64cf74dd252a565c7c54351dac9bd032c367b560f8caf04431",
    "111-q4-2x2-t3":
        "67cd623d1b4547baee64dc56dfb58c6d6a165ccdd36aabc355387689674292a5",
    "comb-q2-1x4-t3-h2":
        "89ada8d34c22336fcdaa3fefdc59c65fa2a297478692aff89a4232766654da3e",
    "comb-q2-2x2,1x4-t2-h1":
        "04e18a841e67c80cf4e2f38c3ae91d2ccbc7dd0bb4868a749cd267dae6f4e46b",
    "comb-q3-1x4,2x4-t3-h2":
        "ece9a5d95506f9092febe6b9bb5960156bbc60b77a0fb47ce6f0966782eb504c",
    "comb-q4-1x4-t3-h2":
        "2390c576cab3819c83648da4f9182492fbce4350b19f5e3645bbb5ebecd1857a",
    "ext-q2-m2-s4":
        "0a37b0454044ee2cb18e7852f1e0600efa0b461cf4db82f6a878e26c2ca6ad6c",
    "ext-q2-m3-s2":
        "5bb55704dd2840ce38d059f56b0555189c4c94f124cb5031ba7a239e265f0223",
    "ext-q2-m3-s7":
        "666b1f5bcc7550fd09240e6a3576937ef9d4625cf646b10e3d6adbef25a91d98",
    "ext-q3-m2-s2":
        "3a6b5e9658cd48ce4c437a019040fc6119cdf2d041fd1556a773c1f669a60a10",
    "ext-q4-m2-s3":
        "cab20e1f4edf08d21dcd13fe4b754f3c373fc4cec4aa149945f2b33c9460a354",
    "lift-q2-1x2,2x3":
        "de03f103dbed32facd432574a57256c46926ddc41671c18bfb45b90ea97475d3",
    "lift-q3-1x2,2x3":
        "1581b09f53fa6b5009c12d005b6a3e6b85580115d2ca184a82b3c6a542c35b95",
    "lift-q4-1x1,2x2,1x2":
        "1cc0eca8f5255692624522f5b7dfe81643e4323826e053e70c22352137ca6be2",
    "simplex-q2-m2-n1-r2":
        "e7a1b92d71bc4cc87db7854dae93e1bacb29cf8daa860f4efcf7cc6b8ef707b7",
    "simplex-q2-m2-n2-r2":
        "40ae7e9292d45ffeea6c1542218c70f2d3246f3f71806dc37f81d6b9f50abb3d",
    "simplex-q3-m1-n1-r2":
        "8e91fd4fe640fafadb1a0953a18f8dee166c23e3c787062cd76a932116feec7d",
    "simplex-q4-m1-n1-r3":
        "e22cbb61835dabf0c899c18a136b6a35b19182be868330fa2eda4202aa7b8d49",
}


@pytest.mark.parametrize("name", PINNED)
def test_construction_output_is_pinned(name):
    text = write_src_text(PINNED[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256[name]
