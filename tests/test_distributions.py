import random
from itertools import product
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srkit.guard as guard_mod
from conftest import (
    dual_distribution_pair,
    gf2_codes,
    msrd_d6_code,
    oracle_supports,
    random_code,
    tup,
)
from srkit.ambient import enumerate_lattice, mobius, profile_create
from srkit.cli import main
from srkit.code import code_create, dual, full_code, zero_code
from srkit.distributions import (
    ConjectureReport,
    RankListDistribution,
    ScanResult,
    SupportDistribution,
    _lattice_sizes,
    _lattice_supports,
    _mobius_kernel,
    _product_transform,
    _subspace_table,
    _support_kernel,
    _transform_units,
    _walk_supports,
    _CONTRACTIONS_PER_WORD,
    _TUPLES_PER_WORD,
    brute_distributions,
    binomial_moment_check,
    conjecture_scan,
    f_ell,
    fast_witness,
    macwilliams_ranklist,
    macwilliams_support,
    msrd_support_distribution,
    omega,
    omega_exclusion_scan,
    omega_fast_closed_form,
    omega_hat,
    omega_hat_exclusion_scan,
)
from srkit.errors import (
    BadBlock,
    BadDistance,
    IncompleteDistribution,
    TooLarge,
    UnequalColumnSizes,
)
from srkit.field import field_create
from srkit.matq import (
    all_subspaces,
    count_matrices_of_rank,
    gaussian_binomial,
    orthogonal_complement,
    subspace_intersect,
)
from srkit.srcfile import write_src_text

F2 = field_create(2)
F3 = field_create(3)
F4 = field_create(2, 2)
F8 = field_create(2, 3)
F9 = field_create(3, 2)


class TestBrute:
    def test_zero_code(self):
        p = profile_create(F2, [(2, 2), (1, 2)])
        srd, rld, supd = brute_distributions(zero_code(p))
        assert srd.counts[0] == 1 and sum(srd.counts) == 1
        assert rld.counts == {(0, 0): 1}
        assert len(supd.counts) == 1

    def test_single_word(self):
        p = profile_create(F2, [(2, 2), (2, 2)])
        C = code_create(p, [tup(p, [[1, 0], [0, 1]], [[0, 0], [0, 0]])])
        srd, _, _ = brute_distributions(C)
        assert srd.counts[0] == 1 and srd.counts[2] == 1 and sum(srd.counts) == 2

    def test_example_code_sweep(self):
        srd, rld, supd = brute_distributions(msrd_d6_code(F2))
        assert sum(srd.counts) == 8 and srd.counts[0] == 1
        assert srd.counts[6] > 0
        assert supd.ranklist().counts == rld.counts
        assert rld.sumrank(8).counts == srd.counts


def _by_bases(counts):
    """Support counts keyed by each block's canonical basis, as
    `oracle_supports` keys them."""
    return {tuple(p.basis for p in u.parts): c for u, c in counts.items()}


def _code_of_dim(rng, F, blocks, k):
    while True:
        C = random_code(rng, F, blocks, k)
        if C.k == k:
            return C


class TestRoutes:
    """The walk and the lattice route against a walk written in tests/."""

    # mixed n and unequal m; q^dim <= 6561 keeps the oracle walk quick
    PROFILES = [
        (F2, [(2, 3), (1, 2), (1, 1)]),
        (F2, [(3, 3)]),
        (F2, [(1, 4), (2, 2)]),
        (F3, [(2, 2), (1, 2)]),
        (F3, [(1, 3), (1, 2), (1, 1)]),
        (F4, [(2, 2), (1, 1)]),
        (F4, [(1, 2), (1, 2), (1, 1)]),
        # the walk's GF(p) generators x^t g matter here
        (F8, [(2, 2)]),
        (F8, [(1, 2), (1, 1)]),
        (F9, [(2, 2)]),
        (F9, [(1, 2), (1, 1)]),
    ]

    @pytest.mark.parametrize("F,blocks", PROFILES)
    def test_both_routes_match_the_oracle(self, F, blocks):
        rng = random.Random(F.q * 100 + len(blocks))
        p = profile_create(F, blocks)
        codes = [zero_code(p), full_code(p)]
        codes += [random_code(rng, F, blocks, rng.randrange(1, p.dim))
                  for _ in range(3)]
        for C in codes:
            expect = oracle_supports(C)
            assert _by_bases(_walk_supports(C)) == expect
            assert _by_bases(_lattice_supports(C)) == expect
            srd, rld, supd = brute_distributions(C)
            assert _by_bases(supd.counts) == expect
            assert rld.counts == supd.ranklist().counts
            assert srd == rld.sumrank()
            assert sum(srd.counts) == C.size()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(gf2_codes())
    def test_packed_lattice_route_matches_the_walk(self, C):
        # GF(2) shortenings are ranked on packed rows; a lattice of at most
        # 2,000 tuples keeps the inversion quick
        if prod(_lattice_sizes(C.profile)) > 2000:
            return
        expect = oracle_supports(C)
        lattice = _lattice_supports(C)
        assert lattice == _walk_supports(C)
        assert _by_bases(lattice) == expect

    def test_walk_key_guard_counts_distinct_supports(self, monkeypatch):
        C = random_code(random.Random(5), F2, [(2, 3), (1, 2)], 5)
        keys = len(oracle_supports(C))
        monkeypatch.setattr(guard_mod, "MAX_DISTRIBUTION_KEYS", keys - 1)
        with pytest.raises(TooLarge, match=f"would hold {keys} keys"):
            _walk_supports(C)
        monkeypatch.setattr(guard_mod, "MAX_DISTRIBUTION_KEYS", keys)
        assert _by_bases(_walk_supports(C)) == oracle_supports(C)

    @pytest.mark.parametrize("F,blocks,k", [
        (F2, [(2, 3), (1, 2), (1, 1)], 3),  # 20 tuples, 180 units: 8 < 12
        (F3, [(2, 2), (1, 2)], 1),          # 12 tuples, 96 units: 3 < 7
        (F4, [(2, 2), (1, 1)], 1),          # 14 tuples, 126 units: 4 < 8
        (F2, [(3, 3)], 3),                  # 16 tuples, 256 units: 8 < 12,
    ])                                      # by the contraction term alone
    def test_route_flips_at_the_cost_boundary(self, F, blocks, k,
                                              monkeypatch):
        import srkit.distributions as dist
        sizes = _lattice_sizes(profile_create(F, blocks))
        cost = (prod(sizes) // _TUPLES_PER_WORD
                + _transform_units(sizes) // _CONTRACTIONS_PER_WORD)
        assert F.q ** k < cost <= F.q ** (k + 1)
        ran = []
        for name in ("_walk_supports", "_lattice_supports"):
            def spy(code, override=False, name=name, route=getattr(dist, name)):
                ran.append(name)
                return route(code, override)
            monkeypatch.setattr(dist, name, spy)
        rng = random.Random(k)
        for dim, expect in ((k, "_walk_supports"), (k + 1, "_lattice_supports")):
            C = _code_of_dim(rng, F, blocks, dim)
            _, _, supd = brute_distributions(C)
            assert ran.pop() == expect
            assert _by_bases(supd.counts) == oracle_supports(C)

    def test_one_large_block_walks(self, monkeypatch):
        # 3^8 words against 2,664 tuples of one 5x5 block, whose inversion
        # contracts 2,664^2 times: the walk takes about a seventh of the
        # lattice route's time, so the rule must not pick the lattice
        import srkit.distributions as dist
        C = _code_of_dim(random.Random(8), F3, [(5, 5)], 8)
        assert prod(_lattice_sizes(C.profile)) == 2664
        ran = []
        for name in ("_walk_supports", "_lattice_supports"):
            monkeypatch.setattr(dist, name, lambda code, override=False,
                                name=name: ran.append(name) or {})
        brute_distributions(C)
        assert ran == ["_walk_supports"]

    def test_guard_gates_the_lattice_units(self, monkeypatch):
        # 2^8 words, but |L| * sum |L_i| = 25 * 10 = 250 transform units
        C = full_code(profile_create(F2, [(2, 2), (2, 2)]))
        expect = oracle_supports(C)
        monkeypatch.setenv("SRKIT_MAX_ENUM", "250")
        with pytest.raises(TooLarge):
            _walk_supports(C)
        _, _, supd = brute_distributions(C)
        assert _by_bases(supd.counts) == expect
        monkeypatch.setenv("SRKIT_MAX_ENUM", "249")
        with pytest.raises(TooLarge, match="lattice transform of size 250"):
            brute_distributions(C)

    def test_cli_lattice_guard_exits_3(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "full_2x2_2x2.src"
        path.write_text(write_src_text(
            full_code(profile_create(F2, [(2, 2), (2, 2)]))))
        monkeypatch.setenv("SRKIT_MAX_ENUM", "249")
        assert main(["distributions", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("guard exceeded: lattice transform of size 250")
        assert "Traceback" not in err

    def test_guard_runs_the_walk_when_only_it_fits(self, monkeypatch,
                                                   tmp_path, capsys):
        # 2^7 words against |L| * sum |L_i| = 250 transform units: the
        # lattice route is preferred (128 >= 25 // 2 + 250 // 64), but a
        # guard of 200 only lets the walk run
        C = _code_of_dim(random.Random(7), F2, [(2, 2), (2, 2)], 7)
        expect = oracle_supports(C)
        path = tmp_path / "k7_2x2_2x2.src"
        path.write_text(write_src_text(C))
        assert main(["distributions", str(path)]) == 0
        unguarded = capsys.readouterr().out
        monkeypatch.setenv("SRKIT_MAX_ENUM", "200")
        with pytest.raises(TooLarge, match="lattice transform of size 250"):
            _lattice_supports(C)
        _, _, supd = brute_distributions(C)
        assert _by_bases(supd.counts) == expect
        assert main(["distributions", str(path)]) == 0
        assert capsys.readouterr().out == unguarded
        # neither route fits: the preferred one's guard is named
        monkeypatch.setenv("SRKIT_MAX_ENUM", "127")
        with pytest.raises(TooLarge, match="lattice transform of size 250"):
            brute_distributions(C)

    @pytest.mark.parametrize("F,blocks", [(F2, [(3, 3), (2, 2)]),
                                          (F3, [(2, 2), (1, 1)]),
                                          (F4, [(3, 3)])])
    def test_mobius_kernel_factors_the_tuple_mobius(self, F, blocks):
        p = profile_create(F, blocks)
        tables = [_subspace_table(n, F) for n in p.ns]
        axes = [table.subspaces for table in tables]
        kernels = [_mobius_kernel(table) for table in tables]
        for v in enumerate_lattice(p):
            for u in enumerate_lattice(p):
                entry = prod(kernel[axis.index(a)][axis.index(b)]
                             for kernel, axis, a, b
                             in zip(kernels, axes, v.parts, u.parts))
                assert entry == (mobius(v, u) if u.contains(v) else 0)


class TestSubspaceTable:
    """The one subspace table of GF(q)^n against the slow subspace
    operations of `matq`."""

    @pytest.mark.parametrize("F,n", [
        pytest.param(F, n, id=f"GF{F.q}-n{n}")
        for F, top in ((F2, 4), (F3, 3), (F4, 3)) for n in range(1, top + 1)])
    def test_every_pair_against_the_slow_path(self, F, n):
        q = F.q
        table = _subspace_table(n, F)
        subs = table.subspaces
        assert subs == list(all_subspaces(n, F))
        assert table.dims == [u.dim for u in subs]
        for h, perp in zip(subs, table.perps):
            slow = orthogonal_complement(h)
            assert subs[perp] == slow
            for u, mask in zip(subs, table.masks):
                w = subspace_intersect(slow, u).dim
                points = (table.masks[perp] & mask).bit_count()
                assert points == (q ** w - 1) // (q - 1)
        for v, own in zip(subs, table.masks):
            for u, mask in zip(subs, table.masks):
                assert (own & mask == own) == u.contains(v)

    def test_support_kernel_matches_the_intersection_formula(self):
        q, n, m = 2, 5, 5
        table = _subspace_table(n, F2)
        subs = table.subspaces
        kernel = _support_kernel(m, table)

        def entry(u, w):
            return sum(q ** (m * v) * (-1) ** (u - v) * q ** comb(u - v, 2)
                       * gaussian_binomial(w, v, q) for v in range(u + 1))

        picks = [0, len(subs) - 1] + random.Random(5).sample(
            range(1, len(subs) - 1), 10)
        for h in picks:
            perp = orthogonal_complement(subs[h])
            assert kernel[h] == [entry(u.dim, subspace_intersect(perp, u).dim)
                                 for u in subs]


class TestSumRankNoMacWilliams:
    def test_equal_distributions_different_duals(self):
        Ca, Cb = dual_distribution_pair()
        sa, _, _ = brute_distributions(Ca)
        sb, _, _ = brute_distributions(Cb)
        assert sa == sb
        da, _, _ = brute_distributions(dual(Ca))
        db, _, _ = brute_distributions(dual(Cb))
        assert da.counts[1] == 12
        assert db.counts[1] == 10


class TestProductTransform:
    @pytest.mark.parametrize("seed", range(24))
    def test_against_the_term_by_term_sum(self, seed):
        # sum_h dense[h] * prod_i K_i[h_i][u_i] over every h, on 1-3 axes
        # with kernels holding 0, 1 and negative entries and sparse counts
        # with whole leading rows of zeros
        rng = random.Random(seed)
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        axes = [range(size) for size in sizes]
        kernels = [[[rng.choice((0, 0, 1, 1, -1, 2, -3, 5)) for _ in axis]
                    for _ in axis] for axis in axes]
        dense = [rng.choice((0, 0, 0, 1, 2, 7)) for _ in range(prod(sizes))]
        width = len(dense) // sizes[0]
        for h in rng.sample(range(sizes[0]), rng.randint(0, sizes[0])):
            dense[h * width:(h + 1) * width] = [0] * width
        expect = [(u, sum(c * prod(K[h_i][u_i]
                                   for K, h_i, u_i in zip(kernels, h, u))
                          for h, c in zip(product(*axes), dense)))
                  for u in product(*axes)]
        assert list(_product_transform(dense, axes, kernels)) == expect


class TestTransforms:
    def test_whole_space_dualizes_to_zero(self):
        from srkit.code import full_code
        p = profile_create(F2, [(2, 2), (1, 1)])
        C = full_code(p)
        _, _, supd = brute_distributions(C)
        t = macwilliams_support(supd, C.size())
        assert list(t.counts) == [list(t.counts)[0]]
        (only,) = t.counts
        assert only.rank_L == 0 and t.counts[only] == 1

    def test_oracle_equality_random(self):
        rng = random.Random(7)
        pools = [[(2, 2), (1, 2)], [(1, 2), (1, 1), (1, 1)], [(2, 2), (2, 2)],
                 [(1, 3), (1, 2)], [(2, 3)], [(1, 1)] * 4, [(2, 2), (1, 1)],
                 [(1, 3), (1, 2), (1, 1)]]
        done = 0
        while done < 40:
            F = rng.choice([F2, F3, F4])
            blocks = rng.choice(pools)
            p = profile_create(F, blocks)
            if F.q ** p.dim > 3 ** 8:
                continue
            C = random_code(rng, F, blocks, rng.randrange(0, p.dim + 1))
            D = dual(C)
            _, rl, sup = brute_distributions(C)
            _, rl_d, sup_d = brute_distributions(D)
            ts = macwilliams_support(sup, C.size())
            assert ts.counts == sup_d.counts
            assert list(ts.counts) == [u for u in enumerate_lattice(p)
                                       if u in ts.counts]
            tr = macwilliams_ranklist(rl, C.size())
            assert tr.counts == rl_d.counts
            assert ts.ranklist().counts == tr.counts
            # invertibility: applying the transform twice returns the input
            assert macwilliams_support(ts, D.size()).counts == sup.counts
            done += 1

    def test_zero_code_transforms_to_ambient_counts(self):
        p = profile_create(F2, [(2, 2), (1, 2)])
        Z = zero_code(p)
        _, rlz, _ = brute_distributions(Z)
        t = macwilliams_ranklist(rlz, 1)
        for u0 in range(3):
            for u1 in range(2):
                expect = (count_matrices_of_rank(2, 2, u0, 2)
                          * count_matrices_of_rank(1, 2, u1, 2))
                assert t.counts.get((u0, u1), 0) == expect

    def test_incomplete_distribution_rejected(self):
        p = profile_create(F2, [(1, 1)])
        _, _, supd = brute_distributions(zero_code(p))
        with pytest.raises(IncompleteDistribution):
            macwilliams_support(supd, 7)

    def test_non_code_distribution_rejected(self):
        # the counts sum to 3, but no linear code has 3 words
        p = profile_create(F2, [(1, 2)])
        _, rl, sup = brute_distributions(code_create(p, [tup(p, [[1, 0]])]))
        rl3 = RankListDistribution(
            p, {r: c * (1 + sum(r)) for r, c in rl.counts.items()})
        sup3 = SupportDistribution(
            p, {u: c * (1 + u.rank_L) for u, c in sup.counts.items()})
        assert rl3.counts == {(0,): 1, (1,): 2} and sup3.total() == 3
        with pytest.raises(IncompleteDistribution, match="not a multiple"):
            macwilliams_ranklist(rl3, 3)
        with pytest.raises(IncompleteDistribution, match="not a multiple"):
            macwilliams_support(sup3, 3)

    def test_six_square_blocks_involution(self):
        # |L| = 5^6 = 15,625: the transform costs |L| * 30 terms, not |L|^2
        C = random_code(random.Random(11), F2, [(2, 2)] * 6, 2)
        _, rl, sup = brute_distributions(C)
        ts = macwilliams_support(sup, C.size())
        assert ts.total() == 2 ** 22
        assert ts.ranklist().counts == macwilliams_ranklist(rl, C.size()).counts
        assert macwilliams_support(ts, 2 ** 22).counts == sup.counts

    def test_partition_identity(self):
        # sum over V <= U of W_V equals the shortened-code size
        from srkit.code import shorten
        rng = random.Random(8)
        C = random_code(rng, F2, [(2, 2), (1, 2)], 3)
        _, _, supd = brute_distributions(C)
        for u in enumerate_lattice(C.profile):
            total = sum(w for v, w in supd.counts.items() if u.contains(v))
            assert total == 2 ** shorten(C, u).k


class TestBinomialMoments:
    def test_random_codes(self):
        rng = random.Random(9)
        for _ in range(25):
            F = rng.choice([F2, F3])
            C = random_code(rng, F, [(2, 2), (1, 2)], rng.randrange(0, 5))
            assert binomial_moment_check(C)

    def test_corrupted_rank_list_fails(self, monkeypatch):
        import srkit.distributions as dist
        C = random_code(random.Random(12), F2, [(2, 2), (1, 2)], 2)
        assert binomial_moment_check(C)
        walk = dist.brute_distributions
        calls = []

        def corrupted(code, override=False):
            # one extra zero word in the code's rank list, not the dual's
            srd, rl, sup = walk(code, override)
            calls.append(code)
            if len(calls) == 1:
                zero = (0,) * code.profile.t
                rl = RankListDistribution(
                    rl.profile, {**rl.counts, zero: rl.counts[zero] + 1})
            return srd, rl, sup

        monkeypatch.setattr(dist, "brute_distributions", corrupted)
        assert binomial_moment_check(C) is False
        assert len(calls) == 2

    def test_hamming_specialization(self):
        # all blocks 1x1: summing the identity over |u| = t - nu recovers the
        # classical binomial moments, checked directly on brute counts
        rng = random.Random(10)
        t = 4
        C = random_code(rng, F3, [(1, 1)] * t, 2)
        D = dual(C)
        srd, _, _ = brute_distributions(C)
        srd_d, _, _ = brute_distributions(D)
        W = srd.counts
        Wd = srd_d.counts
        for nu in range(t + 1):
            lhs = sum(W[i] * comb(t - i, nu) for i in range(t - nu + 1))
            rhs = sum(Wd[i] * comb(t - i, t - nu) for i in range(nu + 1))
            assert lhs * 3 ** nu == C.size() * rhs


class TestFEll:
    @pytest.mark.parametrize("u", [(2,), (3, 1), (2, 2, 1), (1, 1, 1, 1)])
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_edge_identities(self, u, q):
        w = sum(u)
        assert f_ell(u, w, q) == 1
        assert f_ell(u, w + 1, q) == 0
        assert f_ell(u, w + 5, q) == 0
        assert f_ell(u, w - 1, q) == \
            -sum(gaussian_binomial(ui, 1, q) for ui in u)

    def test_direct_sum_oracle(self):
        # brute: iterate all v <= u explicitly
        from itertools import product
        q = 3
        u = (2, 1, 2)
        for ell in range(sum(u) + 2):
            acc = 0
            for v in product(*[range(ui + 1) for ui in u]):
                if sum(v) != ell:
                    continue
                term = 1
                for ui, vi in zip(u, v):
                    d = ui - vi
                    term *= (-1) ** d * q ** (d * (d - 1) // 2) \
                        * gaussian_binomial(ui, vi, q)
                acc += term
            assert f_ell(u, ell, q) == acc


class TestMsrdSupportFormula:
    def test_below_distance_vanishes(self):
        assert omega((3, 3), 3, 2, 5, (2, 2)) == 0

    def test_at_distance_single_term(self):
        assert omega((3, 3), 3, 2, 4, (2, 2)) == 2 ** 3 - 1
        assert omega((2, 2, 2), 2, 3, 3, (1, 1, 1)) == 3 ** 2 - 1

    def test_matches_brute_on_constructed_codes(self):
        from srkit.code import msrd_check
        from srkit.constructions import construct_d2, construct_mds_lift
        cases = [construct_d2(F2, [(2, 2), (1, 2)]).code,
                 construct_mds_lift(F2, 2, 4, 2),
                 construct_d2(F2, [(2, 2), (2, 2)]).stated_dual]
        for C in cases:
            w = msrd_check(C)
            assert w.is_msrd
            _, _, supd = brute_distributions(C)
            for u in enumerate_lattice(C.profile):
                if u.rank_L == 0:
                    continue
                expect = msrd_support_distribution(C.profile, w.d,
                                                   u.dim_vector)
                assert supd.counts.get(u, 0) == expect

    def test_requires_equal_column_counts(self):
        p = profile_create(F2, [(2, 2), (1, 1)])
        with pytest.raises(UnequalColumnSizes):
            msrd_support_distribution(p, 2, (1, 0))

    def test_shortened_cardinalities(self):
        # equal column count m: |C(U)| is 1 below the distance and
        # q^(m(u-d+1)) from the distance on
        from srkit.code import msrd_check, shorten
        from srkit.constructions import construct_d2, construct_mds_lift
        for C in (construct_d2(F2, [(2, 2), (1, 2)]).code,
                  construct_mds_lift(F3, 2, 3, 2)):
            w = msrd_check(C)
            assert w.is_msrd
            m = C.profile.ms[0]
            for u in enumerate_lattice(C.profile):
                k = shorten(C, u).k
                if u.rank_L < w.d:
                    assert k == 0
                else:
                    assert k == m * (u.rank_L - w.d + 1)


class TestOmega:
    def test_known_negative(self):
        assert omega((3, 3, 2), 3, 3, 7, (3, 3, 2)) == -52

    @pytest.mark.parametrize("n", range(2, 7))
    def test_square_family(self, n):
        assert omega((n, n), n, 2, n + 1, (n, 2)) == 1 - 2 ** n

    def test_closed_form_matches(self):
        for shape, m, q, d in [((3, 3, 2), 3, 3, 7), ((3, 3), 3, 2, 4),
                               ((2, 2, 2), 4, 2, 3)]:
            u, closed = omega_fast_closed_form(shape, m, q, d)
            assert omega(shape, m, q, d, u) == closed

    def test_scan_finds_smallest_witness(self):
        res = omega_exclusion_scan((3, 3, 2), 3, 3, 7)
        assert res.excluded and res.witness == (3, 3, 2) and res.value == -52
        fast = omega_exclusion_scan((3, 3, 2), 3, 3, 7, fast=True)
        assert fast.excluded and fast.value == -52

    def test_fast_witness_shape(self):
        assert fast_witness((3, 3, 2), 6) == (3, 3, 1)
        assert fast_witness((2, 2), 3) == (2, 2)
        assert fast_witness((2, 2), 4) is None


class TestOmegaHat:
    def test_below_dual_distance_vanishes(self):
        # |u| < N - d + 2 gives an empty sum
        assert omega_hat((2, 2), 2, 2, 3, (1, 0)) == 0

    def test_substitution_identity(self):
        shape, m, q = (3, 2, 1), 3, 2
        N = sum(shape)
        for d in range(2, N + 1):
            for u in [(1, 1, 0), (3, 2, 1), (2, 2, 1)]:
                assert omega_hat(shape, m, q, d, u) == \
                    omega(shape, m, q, N - d + 2, u)

    def test_asymmetric_exclusion_exists(self):
        # some parameters are ruled out by the primal criterion but not the
        # dual one (and the sweep finds at least one such case)
        found = []
        for shape in [(2, 2), (3, 3), (3, 3, 2), (2, 2, 2), (3, 2)]:
            N = sum(shape)
            for q in (2, 3):
                for m in (max(shape), max(shape) + 1):
                    for d in range(3, N + 1):
                        primal = omega_exclusion_scan(shape, m, q, d)
                        dual_scan = omega_hat_exclusion_scan(shape, m, q, d)
                        if primal.excluded and not dual_scan.excluded:
                            found.append((shape, m, q, d))
        assert found


class TestShapeValidation:
    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("scan", [omega_exclusion_scan,
                                      omega_hat_exclusion_scan])
    @pytest.mark.parametrize("shape", [(3, 0), (0,), (4, 2), (2, 5, 1), ()])
    def test_rows_outside_one_to_m_are_rejected(self, shape, scan, fast):
        with pytest.raises(BadBlock):
            scan(shape, 3, 2, 2, fast=fast)

    def test_rows_up_to_m_are_scanned(self):
        assert omega_exclusion_scan((3, 1), 3, 2, 2).checked > 0

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("scan", [omega_exclusion_scan,
                                      omega_hat_exclusion_scan])
    @pytest.mark.parametrize("d", [-1, 0, 5, 99])
    def test_distance_outside_one_to_n_is_rejected(self, d, scan, fast):
        with pytest.raises(BadDistance):
            scan((3, 1), 3, 2, d, fast=fast)

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("scan", [omega_exclusion_scan,
                                      omega_hat_exclusion_scan])
    def test_distance_one_to_n_is_scanned(self, scan, fast):
        for d in range(1, 5):
            res = scan((3, 1), 3, 2, d, fast=fast)
            assert res.mode.startswith("fast" if fast else "full")
        # d = N leaves no grade above d: nothing to check, no verdict
        assert omega_exclusion_scan((3, 1), 3, 2, 4) == \
            ScanResult(False, None, None, "full", 0)


class TestConjectureScan:
    def test_small_grid_has_no_counterexample(self):
        shapes = []
        for t in (1, 2, 3):
            def rec(prefix, lo):
                if len(prefix) == t:
                    shapes.append(tuple(prefix))
                    return
                for n in range(1, lo + 1):
                    rec(prefix + [n], n)
            rec([], 3)
        report = conjecture_scan(shapes, qs=(2, 3), ms=(2, 3, 4))
        assert isinstance(report, ConjectureReport)
        assert report.cases > 100
        assert report.counterexamples == ()
        assert report.closed_form_mismatches == ()
