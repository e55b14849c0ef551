from fractions import Fraction
from math import comb

import pytest

from conftest import msrd_d6_code
from srkit.ambient import profile_create, sphere_volume
from srkit.code import singleton_decomposition
from srkit.bounds import (
    TABLE_BOUNDS,
    block_count_bound,
    bound_report,
    induced_bounds,
    linear_version,
    msrd_block_count_bound,
    projective_sphere_packing_bound,
    singleton_bound,
    sphere_covering_dimension,
    sphere_packing_bound,
    total_distance_bound,
)
from srkit.errors import BadDistance, HypothesisFailed
from srkit.field import field_create

F2 = field_create(2)
F3 = field_create(3)

MIXED13 = profile_create(F2, [(2, 2)] + [(1, 2)] * 7 + [(1, 1)] * 5)


def square_profile(t):
    return profile_create(F2, [(2, 2)] * t)


class TestSingleton:
    def test_distance_one_is_whole_space(self):
        p = profile_create(F3, [(2, 2), (1, 2)])
        value, j, delta = singleton_bound(p, 1)
        assert value == p.size() and (j, delta) == (1, 0)

    @pytest.mark.parametrize("d,expect,jd", [(8, 512, (7, 0)),
                                             (9, 128, (8, 0)),
                                             (11, 16, (10, 0))])
    def test_mixed_profile(self, d, expect, jd):
        value, j, delta = singleton_bound(MIXED13, d)
        assert value == expect and (j, delta) == jd

    def test_equal_m_agrees_with_induced(self):
        for t in (3, 5):
            p = square_profile(t)
            for d in range(1, p.N + 1):
                assert singleton_bound(p, d)[0] == \
                    induced_bounds(p, d)["singleton"]

    def test_bad_distance(self):
        with pytest.raises(BadDistance):
            singleton_bound(MIXED13, 0)
        with pytest.raises(BadDistance):
            singleton_bound(MIXED13, 15)


class TestInduced:
    def test_distance_one(self):
        p = profile_create(F2, [(2, 2), (1, 2)])
        m = max(p.ms)
        assert induced_bounds(p, 1)["singleton"] == (2 ** m) ** p.N

    def test_plotkin_condition(self):
        assert induced_bounds(MIXED13, 8)["plotkin"] is None
        assert induced_bounds(MIXED13, 11)["plotkin"] == 22

    def test_elias_minimizes_over_radii(self):
        # independent oracle: recompute via the direct formula at each w
        p = MIXED13
        d = 11
        Q = 2 ** 2
        N = p.N
        values = []
        for w in range(N * (Q - 1) // Q + 1):
            den = Q * w * w - 2 * N * w * (Q - 1) + (Q - 1) * N * d
            if den <= 0:
                continue
            vol = sum(comb(N, i) * (Q - 1) ** i for i in range(w + 1))
            values.append((N * d * (Q - 1) * Q ** N) // (den * vol))
        assert induced_bounds(p, d)["elias"] == min(values) == 43

    def test_hamming_dominates_sphere_packing(self):
        # proven containment for equal column counts; observed generally
        for p in (MIXED13, square_profile(4), square_profile(6)):
            for d in range(1, p.N + 1):
                assert induced_bounds(p, d)["hamming"] >= \
                    sphere_packing_bound(p, d)


class TestSpherePacking:
    @pytest.mark.parametrize("d,expect", [(8, 1502), (9, 232), (11, 50)])
    def test_mixed_profile(self, d, expect):
        assert sphere_packing_bound(MIXED13, d) == expect

    def test_distance_one(self):
        p = profile_create(F2, [(2, 2)])
        assert sphere_packing_bound(p, 1) == p.size()

    def test_square_profile(self):
        assert sphere_packing_bound(square_profile(4), 5) == 119


class TestProjectiveSpherePacking:
    @pytest.mark.parametrize("d,expect", [(8, 455), (9, 136), (11, 14)])
    def test_mixed_profile(self, d, expect):
        assert projective_sphere_packing_bound(MIXED13, d) == expect

    def test_square_profiles(self):
        assert projective_sphere_packing_bound(square_profile(6), 8) == 528
        assert projective_sphere_packing_bound(square_profile(4), 5) == 146

    def test_needs_d_at_least_three(self):
        with pytest.raises(BadDistance):
            projective_sphere_packing_bound(MIXED13, 2)

    def test_d_three_reduces_to_radius_one_packing(self):
        p = square_profile(3)
        from srkit.ambient import sphere_volume
        assert projective_sphere_packing_bound(p, 3) == \
            p.size() // sphere_volume(p, 1)

    @pytest.mark.parametrize("field,blocks", [
        (F2, [(3, 3), (2, 3), (1, 2)]),
        (F2, [(2, 4), (2, 2), (1, 1), (1, 1)]),
        (F3, [(1, 3), (2, 2), (1, 2)]),
        (F3, [(3, 3), (1, 1)]),
    ])
    def test_defined_for_every_distance_from_three(self, field, blocks):
        # d <= N always leaves a head split of d - 3 with a row in every block
        p = profile_create(field, blocks)
        for d in range(3, p.N + 1):
            value = bound_report(p, d).entries["projective-sphere-packing"]
            assert value is not None and value >= 1
            assert value == projective_sphere_packing_bound(p, d)


# mixed column counts over several fields, for the oracle tests
ORACLE_PROFILES = [
    (F2, [(2, 2)] + [(1, 2)] * 7 + [(1, 1)] * 5),
    (F2, [(3, 3), (2, 3), (1, 2)]),
    (F2, [(2, 4), (2, 2), (1, 1), (1, 1)]),
    (F3, [(1, 3), (2, 2), (1, 2)]),
    (F3, [(3, 3), (1, 1)]),
    (field_create(2, 2), [(2, 3), (1, 3), (1, 3)]),
    (field_create(5), [(1, 4), (3, 3), (2, 2), (1, 1), (1, 1)]),
    (field_create(2, 16), [(2, 2)] * 4),
]


@pytest.mark.parametrize("field,blocks", ORACLE_PROFILES)
def test_projective_bound_is_packing_on_the_reduced_profile(field, blocks):
    # the bound as stated: build the profile left after projecting d - 3
    # rows away and pack radius-1 balls into it
    p = profile_create(field, blocks)
    ns = p.ns
    for d in range(3, p.N + 1):
        j, delta = singleton_decomposition(ns, d - 2)
        reduced = profile_create(
            field, [(ns[j - 1] - delta, p.ms[j - 1])] + list(p.blocks[j:]))
        want = reduced.size() // sphere_volume(reduced, 1)
        assert projective_sphere_packing_bound(p, d) == want, d


@pytest.mark.parametrize("field,blocks", ORACLE_PROFILES)
def test_total_distance_is_the_fraction_formula(field, blocks):
    p = profile_create(field, blocks)
    N, t = p.N, p.t
    Q = sum(Fraction(1, field.q ** m) for _, m in blocks)
    assert p.Q == Q
    for d in range(1, N + 1):
        want = None if d <= N - Q else int(
            (Fraction(d - N + t) / (d - N + Q)) // 1)
        assert total_distance_bound(p, d) == want, d


@pytest.mark.parametrize("field,blocks", ORACLE_PROFILES)
def test_all_d_tables_do_not_depend_on_the_cache(field, blocks):
    # each order on a fresh profile: one grows its volumes, one reads them
    p, fresh = profile_create(field, blocks), profile_create(field, blocks)
    down = [bound_report(p, d).entries for d in range(p.N, 0, -1)]
    up = [bound_report(fresh, d).entries for d in range(1, fresh.N + 1)]
    assert down[::-1] == up


class TestTotalDistance:
    def test_mixed_profile(self):
        assert total_distance_bound(MIXED13, 11) == 6  # exact: 10 / (3/2)
        assert total_distance_bound(MIXED13, 8) is None  # 8 <= 14 - 9/2
        assert total_distance_bound(square_profile(17), 32) == 6

    def test_applicability_boundary(self):
        p = square_profile(17)  # N = 34, Q = 17/4, cutoff 29.75
        assert total_distance_bound(p, 29) is None
        assert total_distance_bound(p, 30) is not None


class TestBlockCount:
    def test_arithmetic(self):
        assert block_count_bound(4, 2, 2, 2, 16) == 10  # floor(2*4*15/12)

    def test_n_equals_d(self):
        assert block_count_bound(4, 4, 2, 2, 16) == 0

    def test_monotone_decreasing_in_cardinality(self):
        vals = [block_count_bound(6, 2, 2, 2, c) for c in (5, 8, 16, 64, 1024)]
        assert vals == sorted(vals, reverse=True)

    def test_hypothesis(self):
        with pytest.raises(HypothesisFailed):
            block_count_bound(4, 2, 2, 2, 4)


class TestSphereCovering:
    def test_distance_one(self):
        p = profile_create(F2, [(2, 2), (1, 2)])
        assert sphere_covering_dimension(p, 1) == p.dim

    def test_single_block(self):
        assert sphere_covering_dimension(profile_create(F2, [(2, 2)]), 2) == 1

    def test_out_of_range(self):
        with pytest.raises(BadDistance):
            sphere_covering_dimension(profile_create(F2, [(2, 2)]), 3)

    def test_guarantee_on_small_spaces(self):
        # a code of that dimension and distance actually exists: take any
        # maximal one greedily and compare
        from srkit.code import minimum_distance
        from srkit.constructions import construct_mds_lift
        p = profile_create(F2, [(1, 2)] * 3)
        k = sphere_covering_dimension(p, 2)
        C = construct_mds_lift(F2, 2, 3, 2)
        assert C.k >= k and minimum_distance(C) >= 2


class TestMsrdBlockCount:
    def test_small_square(self):
        b = msrd_block_count_bound(2, 2, 2, 4)
        assert b.tight == 2 and b.q_cap == 2

    @pytest.mark.parametrize("q,d", [(2, 3), (2, 5), (3, 4), (5, 6)])
    def test_hamming_case_reduces(self, q, d):
        assert msrd_block_count_bound(1, 1, q, d).tight == q + d - 2

    def test_exact_first_formula(self):
        # direct evaluation: ell = 0, exponent n - d + 3 = 2, so the whole
        # first summand vanishes and only (q-1)(q^m+1)/(q^n-1) survives
        b = msrd_block_count_bound(2, 2, 3, 3)
        assert b.tight == (3 ** 2 - 3 ** 2 + 2 * 10) // 8 == 2
        assert b.relaxed == 3
        assert b.tight <= b.relaxed


class TestBoundReport:
    def test_mixed_profile_best(self):
        assert bound_report(MIXED13, 9).best == {"singleton"}
        assert bound_report(MIXED13, 8).best == {"projective-sphere-packing"}
        assert bound_report(MIXED13, 11).best == {"total-distance"}

    def test_square_profile_best(self):
        assert bound_report(square_profile(7), 10).best == {"induced-elias"}
        assert bound_report(square_profile(9), 14).best == {"induced-plotkin"}

    def test_linear_versions(self):
        rep = bound_report(MIXED13, 9)
        assert rep.linear["singleton"] == 7
        for name in TABLE_BOUNDS:
            v = rep.entries[name]
            if v is not None:
                q = 2
                lv = rep.linear[name]
                assert q ** lv <= v < q ** (lv + 1)

    def test_every_bound_admits_known_codes(self):
        # a known 3-dimensional distance-6 code: every applicable bound >= 8
        C = msrd_d6_code(F2)
        rep = bound_report(C.profile, 6)
        for name, v in rep.entries.items():
            if v is not None:
                assert v >= C.size(), name


def test_linear_version_edges():
    assert linear_version(None, 2) is None
    assert linear_version(1, 2) == 0
    assert linear_version(1023, 2) == 9
    assert linear_version(1024, 2) == 10
