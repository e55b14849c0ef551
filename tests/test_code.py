import math
import random
from unittest import mock
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ORDERS,
    gf2_codes,
    msrd_d4_gf3_code,
    msrd_d6_code,
    oracle_combination,
    oracle_derived,
    oracle_min_distance,
    oracle_ops,
    oracle_rank,
    random_code,
    random_subspace_tuple,
    rank2_plus_pivot_code,
    small_codes,
    spherepack_d3_code,
    tup,
)
from srkit.ambient import (
    MatrixTuple,
    SubspaceTuple,
    enumerate_lattice,
    flatten,
    profile_create,
    support,
    sumrank_weight,
    unflatten,
)
import srkit.code as code_mod
from srkit.code import (
    MsrdWitness,
    _lattice_distance,
    _lattice_units,
    _singleton_cap,
    _walk_distance,
    _words,
    _WORDS_PER_UNIT,
    _constraints,
    _count,
    _level,
    _subcode,
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
from srkit.constructions import (
    construct_mds_lift,
    construct_msrd111,
    construct_msrd111_ext,
    gabidulin_mrd,
)
from srkit.errors import (
    IndexOutOfTheoremRange,
    NotMsrd,
    ProfileMismatch,
    TooLarge,
    TrivialCode,
)
from srkit.field import field_create, field_from_order
from srkit.matq import Mat, Subspace, _field_rows, _row_ops

F2 = field_create(2)
F3 = field_create(3)
F4 = field_create(2, 2)


@st.composite
def single_row_codes(draw):
    """A random code over GF(q), q in ORDERS, on 4 to 8 blocks of 1 x m
    (m <= 4) and at most one block of 2 or 3 rows, with at most 2^9 words.
    `small_codes` draws at most 3 blocks.  k runs from 1 up, and a k = 1
    code whose generator has full rank in every block has distance d*."""
    q = draw(st.sampled_from(ORDERS))
    blocks = [(1, draw(st.integers(1, 4)))
              for _ in range(draw(st.integers(4, 8)))]
    if draw(st.booleans()):
        n = draw(st.integers(2, 3))
        blocks.insert(draw(st.integers(0, len(blocks))),
                      (n, draw(st.integers(n, 4))))
    top = min(int(math.log(1 << 9, q) + 1e-9),
              sum(n * m for n, m in blocks))
    k = draw(st.integers(1, top))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    F = field_from_order(q)
    while True:
        C = random_code(rng, F, blocks, k)
        if C.k == k:
            return C


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


def _planted(profile, w):
    """A tuple of sum-rank weight exactly w: w unit entries on block
    diagonals, spread over distinct blocks where possible."""
    used = [0] * profile.t
    vec = [0] * profile.dim
    for piece in range(w):
        i = piece % profile.t
        while used[i] >= profile.blocks[i][0]:
            i = (i + 1) % profile.t
        pos, _, m = profile.slices[i]
        vec[pos + used[i] * m + used[i]] = 1
        used[i] += 1
    return unflatten(profile, vec)


def _routes_agree(C):
    """Both routes, the dispatcher and the brute oracle give one distance,
    at most the Singleton cap."""
    cap = _singleton_cap(C.profile, C.k)
    brute = oracle_min_distance(C)
    assert brute <= cap
    lattice = _lattice_distance(C, cap, _lattice_units(C.profile, cap))
    assert lattice == _walk_distance(C) == minimum_distance(C) == brute


def _oracle_words(C):
    """Every word of C as its block rows, in lexicographic coefficient
    order: `oracle_combination` over `itertools.product`."""
    q = C.field.q
    return [[vec[pos + a * m:pos + (a + 1) * m]
             for pos, n, m in C.profile.slices for a in range(n)]
            for vec in (oracle_combination(c, C._flat, q)
                        for c in product(range(q), repeat=C.k))]


class TestWalk:
    """The one codeword walk, `_words`, and the walk route on top of it,
    against the oracles in tests/."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(gf2_codes())
    def test_both_routes_match_the_oracle(self, C):
        cap = _singleton_cap(C.profile, C.k)
        brute = oracle_min_distance(C)
        assert _walk_distance(C) == brute
        assert _lattice_distance(C, cap, _lattice_units(C.profile, cap),
                                 override=True) == brute

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_codes(ORDERS))
    def test_walk_weights_follow_the_word_order(self, C):
        # the walk's words, in both row representations and cut by rows or
        # by columns, are the oracle's in its order; each one's block ranks
        # are the oracle's ranks, and the walk route returns their least
        # nonzero sum
        q = C.field.q
        expect = _oracle_words(C)
        weights = [sum(oracle_rank(rows[a:a + n], q)
                       for a, n in zip(_starts(C), C.profile.ns))
                   for rows in expect]
        columns = [[col for a, n in zip(_starts(C), C.profile.ns)
                    for col in zip(*rows[a:a + n])] for rows in expect]
        for ops in (_row_ops(C.field), _field_rows(C.field)):
            words = list(_words(C, ops))
            assert words == [[ops.pack(r) for r in rows] for rows in expect]
            assert list(_words(C, ops, columns=True)) == \
                [[ops.pack(c) for c in cols] for cols in columns]
            assert [sum(len(ops.extend([], word[a:a + n], n))
                        for a, n in zip(_starts(C), C.profile.ns))
                     for word in words] == weights
        assert _walk_distance(C) == min(weights[1:])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_codes(ORDERS))
    def test_codewords_keep_the_lexicographic_order(self, C):
        expect = [oracle_combination(c, C._flat, C.field.q)
                  for c in product(range(C.field.q), repeat=C.k)]
        assert [flatten(w) for w in codewords(C)] == expect

    def test_walk_is_guarded(self, monkeypatch):
        for F, k in ((F2, 4), (F3, 2)):
            C = random_code(random.Random(3), F, [(2, 2), (1, 2)], k)
            expect = oracle_min_distance(C)
            size = F.q ** k
            assert C.size() == size
            monkeypatch.setenv("SRKIT_MAX_ENUM", str(size - 1))
            with pytest.raises(TooLarge,
                               match=f"codeword enumeration of size {size}"):
                _walk_distance(C)
            with pytest.raises(TooLarge):
                next(codewords(C))
            assert _walk_distance(C, override=True) == expect
            monkeypatch.setenv("SRKIT_MAX_ENUM", str(size))
            assert _walk_distance(C) == expect


    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(single_row_codes())
    def test_single_row_blocks_match_the_oracle(self, C):
        # each 1 x m block is ranked by a zero test, the rest by the insert
        expect = oracle_min_distance(C)
        assert expect <= _singleton_cap(C.profile, C.k)
        assert _walk_distance(C) == expect

    @pytest.mark.parametrize("q, make, args", [
        (2, construct_msrd111_ext, (2, 3)),   # (1x2)^4 (1x1)^3
        (2, construct_msrd111_ext, (3, 2)),   # (1x3)^3 (1x1)^4
        (3, construct_msrd111_ext, (2, 2)),   # (1x2)^3 (1x1)^3
        (3, construct_msrd111_ext, (3, 1)),   # (1x3)^2 (1x1)^4
        (4, construct_msrd111_ext, (2, 1)),   # (1x2)^2 (1x1)^3
        (9, construct_msrd111_ext, (2, 2)),
        (3, construct_msrd111, ([(2, 2)], 3)),   # 2x2 (1x1)^3
        (4, construct_msrd111, ([(2, 2)], 3)),
        (8, construct_msrd111, ([(2, 2)], 4)),   # 2x2 (1x1)^4
        (8, construct_msrd111, ([(3, 3)], 3)),   # 3x3 (1x1)^3
        (9, construct_msrd111, ([(2, 3)], 5)),   # 2x3 (1x1)^5
    ])
    def test_single_row_walk_reaches_d_star(self, q, make, args):
        # MSRD codes on single-row blocks: the walk ends at d* itself
        C = make(field_from_order(q), *args)
        cap = _singleton_cap(C.profile, C.k)
        assert _walk_distance(C) == oracle_min_distance(C) == cap


def _starts(C):
    """The first row of each block in a word of `_words`."""
    return [sum(C.profile.ns[:i]) for i in range(C.profile.t)]


class TestDistanceRoutes:
    PROFILES = [[(2, 3), (1, 2)], [(2, 2), (1, 3), (1, 1)], [(3, 3), (1, 2)],
                [(1, 2), (1, 2), (2, 2)], [(2, 4), (1, 1), (1, 1)],
                [(1, 3), (1, 2), (1, 1)]]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_codes(ORDERS))
    def test_lattice_search_matches_the_oracle(self, C):
        # GF(8) and GF(9) give the search's row counter x^t places
        cap = _singleton_cap(C.profile, C.k)
        assert _lattice_distance(C, cap, _lattice_units(C.profile, cap),
                                 override=True) == oracle_min_distance(C)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_codes(ORDERS))
    def test_search_prunes_no_short_tuple(self, C):
        # searched alone, a dim vector dv holds a tuple of rank < k exactly
        # when some nonzero word has every block rank at most dv's, so the
        # pruned subtrees held no such tuple
        q, ns = C.field.q, C.profile.ns
        ranks = {tuple(oracle_rank(b.rows, q) for b in w.blocks)
                 for w in codewords(C) if not w.is_zero()}
        N = sum(ns)
        for w in range(1, N):
            for dv in list(code_mod._dim_vectors(ns, w)):
                short = any(all(r <= s for r, s in zip(rv, dv))
                            for rv in ranks)
                with mock.patch.object(code_mod, "_dim_vectors",
                                       lambda ns, total, w=w, dv=dv:
                                       iter([dv] if total == w else [])):
                    assert _lattice_distance(C, N, 0, override=True) == \
                        (w if short else N)

    @pytest.mark.parametrize("q", ORDERS)
    def test_level_rows_follow_the_product_order(self, q):
        # a level of the search lists the constraint rows of e_pivot +
        # sum_c v_c e_c, v over itertools.product of the free entries; the
        # unit rows are those of x^t e_c, x^t having the code p^t
        F = field_from_order(q)
        C = random_code(random.Random(q), F, [(4, 4)], 3)
        reps = (_row_ops(F), _field_rows(F)) if q == 2 else (_row_ops(F),)
        for ops in reps:
            rows = _constraints(C, 0, ops)
            unit = [[list(rows([[F.p ** t if j == c else 0
                                 for j in range(4)]]))
                     for t in range(F.k)] for c in range(4)]
            for pivot, free in ((0, [1, 3]), (1, [2]), (3, [])):
                level = _level(unit, pivot, free, q, ops.add)
                expect = []
                for v in product(range(q), repeat=len(free)):
                    prow = [0] * 4
                    prow[pivot] = 1
                    for c, x in zip(free, v):
                        prow[c] = x
                    expect.append(list(rows([prow])))
                assert list(_count(*level, F.p, ops.add)) == expect

    @pytest.mark.parametrize("F,kmax", [(F2, 8), (F3, 5), (F4, 4)],
                             ids=["GF2", "GF3", "GF4"])
    def test_routes_match_brute_minimum(self, F, kmax):
        rng = random.Random(F.q)
        for blocks in self.PROFILES:
            for plant in (0, 1, 2):
                k = rng.randrange(1, kmax + 1)
                C = random_code(rng, F, blocks, k)
                if plant:
                    C = code_create(C.profile, C.basis[:k - 1]
                                    + (_planted(C.profile, plant),))
                    assert oracle_min_distance(C) <= plant
                _routes_agree(C)

    @pytest.mark.parametrize("F,blocks,ks", [
        (F2, [(2, 3), (1, 2), (1, 1)], range(1, 9)),
        (F3, [(2, 2), (1, 2)], range(1, 5)),
        (F4, [(1, 2), (1, 2), (1, 1)], range(1, 4)),
    ], ids=["GF2", "GF3", "GF4"])
    def test_route_flips_at_the_cost_boundary(self, F, blocks, ks,
                                              monkeypatch):
        taken = []
        for name in ("_walk_distance", "_lattice_distance"):
            real = getattr(code_mod, name)
            monkeypatch.setattr(code_mod, name, lambda *a, real=real,
                                name=name: taken.append(name) or real(*a))
        rng = random.Random(len(blocks))
        routes = set()
        for k in ks:
            for _ in range(2):
                C = random_code(rng, F, blocks, k)
                cap = _singleton_cap(C.profile, C.k)
                walk = C.size() < _WORDS_PER_UNIT * _lattice_units(C.profile,
                                                                   cap)
                taken.clear()
                assert minimum_distance(C) == oracle_min_distance(C)
                assert taken == ["_walk_distance" if walk
                                 else "_lattice_distance"]
                routes.add(walk)
        assert routes == {True, False}

    @pytest.mark.parametrize("make,d", [
        (lambda: msrd_d6_code(F2), 6), (msrd_d4_gf3_code, 4),
        (lambda: gabidulin_mrd(F2, 4, 4, 3), 3),
        (lambda: gabidulin_mrd(F4, 3, 3, 2), 2)])
    def test_msrd_search_visits_no_tuple_of_rank_d_star(self, make, d,
                                                        monkeypatch):
        C = make()
        visited = []
        real = code_mod._dim_vectors

        def recording(ns, total):
            for dv in real(ns, total):
                visited.append(dv)
                yield dv

        monkeypatch.setattr(code_mod, "_dim_vectors", recording)
        cap = _singleton_cap(C.profile, C.k)
        assert cap == d
        assert _lattice_distance(C, cap, _lattice_units(C.profile, cap)) == d
        # every layer below d* is searched in full, and nothing at d*
        assert visited == [dv for w in range(1, d)
                           for dv in real(C.profile.ns, w)]

    def test_walk_guard_lifted_by_the_lattice_route(self, monkeypatch):
        monkeypatch.delenv("SRKIT_MAX_ENUM", raising=False)
        C = gabidulin_mrd(F2, 5, 7, 2)
        assert C.size() == 2 ** 28
        w = msrd_check(C)
        assert w.is_msrd and w.d == 2

    def test_guard_runs_the_lattice_when_only_it_fits(self, monkeypatch):
        # 2^4 words against 7 lattice units: the walk is preferred
        # (16 < 4 * 7), but a guard of 10 only lets the lattice route run
        C = random_code(random.Random(4), F2, [(3, 3)], 4)
        cap = _singleton_cap(C.profile, C.k)
        assert C.size() == 16 and _lattice_units(C.profile, cap) == 7
        expect = oracle_min_distance(C)
        taken = []
        for name in ("_walk_distance", "_lattice_distance"):
            real = getattr(code_mod, name)
            monkeypatch.setattr(code_mod, name, lambda *a, real=real,
                                name=name: taken.append(name) or real(*a))
        monkeypatch.setenv("SRKIT_MAX_ENUM", "10")
        assert minimum_distance(C) == expect
        assert taken == ["_lattice_distance"]
        # override lifts the guard, so the cost rule alone picks the route
        assert minimum_distance(C, override=True) == expect
        assert taken == ["_lattice_distance", "_walk_distance"]
        # neither route fits: the preferred one's guard is named
        monkeypatch.setenv("SRKIT_MAX_ENUM", "6")
        with pytest.raises(TooLarge, match="codeword enumeration of size 16"):
            minimum_distance(C)

    def test_lattice_guard_counts_units(self, monkeypatch):
        C = gabidulin_mrd(F2, 4, 4, 2)
        assert _lattice_units(C.profile, _singleton_cap(C.profile, C.k)) == 15
        monkeypatch.setenv("SRKIT_MAX_ENUM", "14")
        with pytest.raises(TooLarge, match="lattice search of size 15"):
            minimum_distance(C)
        assert minimum_distance(C, override=True) == 2
        monkeypatch.setenv("SRKIT_MAX_ENUM", "15")
        assert minimum_distance(C) == 2


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


def _random_blocks(rng, most_rows):
    """1 to 3 random blocks of at most `most_rows` rows and 3 columns."""
    blocks = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, most_rows)
        blocks.append((n, rng.randint(n, 3)))
    return blocks


class TestSubcode:
    """`_subcode` against a brute filter of `codewords`: the words whose
    coefficient vectors (read at the canonical basis' pivots) meet every
    constraint row, read at the positions."""

    @pytest.mark.parametrize("q", ORDERS)
    @pytest.mark.parametrize("case", ["none", "random", "dependent", "k=0"])
    def test_brute_filter_oracle(self, q, case):
        rng = random.Random(f"subcode-{q}-{case}")
        F = field_from_order(q)
        add, mul = oracle_ops(q)
        for _ in range(8):
            blocks = _random_blocks(rng, 3)
            dim = sum(n * m for n, m in blocks)
            most = max(k for k in range(dim + 1) if q ** k <= 729)
            C = random_code(rng, F, blocks, 0 if case == "k=0" else
                            rng.randint(1, most))
            k = C.k
            rows = [[rng.randrange(q) for _ in range(k)]
                    for _ in range(rng.randint(1, 3))]
            if case == "none":
                rows = []
            elif case == "dependent":
                # a repeated row and a combination of two others
                r, s = rows[0], [rng.randrange(q) for _ in range(k)]
                rows = [r, s, r, oracle_combination(
                    (rng.randrange(q), rng.randrange(q)), (r, s), q)]
                rng.shuffle(rows)
            target = _random_blocks(rng, 2)
            while sum(n * m for n, m in target) > dim:
                target.pop()
            if not target:
                target = [(1, 1)]
            profile = profile_create(F, target)
            positions = rng.sample(range(dim), profile.dim)
            pivots = [vec.index(1) for vec in C._flat]

            def meets(word):
                coeffs = [word[p] for p in pivots]
                return all(_dot(coeffs, row, add, mul) == 0 for row in rows)

            kept = {tuple(word[p] for p in positions)
                    for word in map(flatten, codewords(C)) if meets(word)}
            out = _subcode(C, rows, profile, positions)
            assert out.profile == profile
            assert {tuple(flatten(w)) for w in codewords(out)} == kept
            assert out == code_create(
                profile, [unflatten(profile, list(w)) for w in kept])


def _dot(u, v, add, mul):
    out = 0
    for x, y in zip(u, v):
        out = add(out, mul(x, y))
    return out


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
        for s in (0, C.profile.t + 1):  # no such block
            for op in (msrd_shorten_row, msrd_shorten_col, msrd_puncture_row):
                with pytest.raises(IndexOutOfTheoremRange):
                    op(C, s)

    def test_requires_msrd(self):
        C = dual(rank2_plus_pivot_code(2))
        for op in (msrd_shorten_row, msrd_shorten_col, msrd_puncture_row):
            with pytest.raises(NotMsrd):
                op(C, 1)

    def test_dimension_is_checked(self, monkeypatch):
        # a code passed off as MSRD whose second block is always zero: a row
        # or column there costs no dimension, so the result is refused
        p = profile_create(F2, [(1, 2), (1, 2)])
        C = code_create(p, [tup(p, [[1, 0]], [[0, 0]]),
                            tup(p, [[0, 1]], [[0, 0]])])
        monkeypatch.setattr(code_mod, "msrd_check",
                            lambda code, override=False: MsrdWitness(
                                True, 1, 4, 1, 0))
        for op in (msrd_shorten_row, msrd_shorten_col):
            with pytest.raises(NotMsrd):
                op(C, 2)

    def test_zero_code_shortens_to_zero(self):
        Z = zero_code(profile_create(F2, [(2, 2), (1, 1)]))
        S = msrd_shorten_row(Z, 2)
        assert S.k == 0 and S.profile.blocks == ((2, 2),)
        assert msrd_shorten_row(Z, 1, row=1).profile.blocks == ((1, 2), (1, 1))
        for op in (msrd_shorten_row, msrd_shorten_col):
            with pytest.raises(IndexOutOfTheoremRange):
                op(Z, 0)
        with pytest.raises(IndexOutOfTheoremRange):
            msrd_puncture_row(Z, 1)  # no distance to lower

    @pytest.mark.parametrize("make,order", [
        (lambda: msrd_d6_code(F2), None),
        (msrd_d4_gf3_code, None),
        (lambda: gabidulin_mrd(F2, 3, 3, 2), None),
        (lambda: construct_mds_lift(F2, 2, 4, 2), (3, 0, 1, 2)),
        (msrd_d4_gf3_code, (1, 2, 3, 0)),  # the 2x2 block last: j = 4
    ], ids=["d6-gf2", "d4-gf3", "gabidulin-3x3-d2", "mds-lift-reordered",
            "d4-gf3-reordered"])
    def test_against_brute_oracle(self, make, order):
        C = make()
        ns, ms = C.profile.ns, C.profile.ms
        if order is not None:
            ns, ms = [ns[i] for i in order], [ms[i] for i in order]
        t = C.profile.t
        d = msrd_check(C).d
        j, delta = singleton_decomposition(ns, d)

        def same(out, block, **cut):
            shapes, words = oracle_derived(C, block, order=order, **cut)
            got = {tuple(b.rows for b in out.profile.to_user_order(x.blocks))
                   for x in codewords(out)}
            assert (out.profile.original_blocks, got) == (shapes, words), cut

        checked = 0
        for s in range(j, t + 1):
            n_tail = ns[s - 1] - delta if s == j else ns[s - 1]
            for row in range(n_tail):
                same(msrd_shorten_row(C, s, row=row, order=order), s - 1, row=row)
                checked += 1
        for s in range(j if delta == 0 else j + 1, t + 1):
            if ms[s - 1] - 1 > 0 and ns[s - 1] > ms[s - 1] - 1:
                continue
            for col in range(ms[s - 1]):
                same(msrd_shorten_col(C, s, col=col, order=order), s - 1, col=col)
                checked += 1
        for s in range(1, (j if delta > 0 else j - 1) + 1):
            same(msrd_puncture_row(C, s, order=order), s - 1)
            checked += 1
        assert checked >= 2

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
