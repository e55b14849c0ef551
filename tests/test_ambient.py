import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srkit.ambient as ambient
from conftest import oracle_sphere_counts, tup
from srkit.ambient import (
    MatrixTuple,
    SubspaceTuple,
    _cells,
    blockdiag_embed,
    enumerate_lattice,
    enumerate_tuples,
    format_profile,
    mobius,
    parse_profile,
    profile_create,
    sphere_volume,
    support,
    sumrank_weight,
    trace_product,
    weight_spectrum,
)
from srkit.errors import BadBlock, NotComparable, ProfileMismatch
from srkit.field import field_create, prime_power
from srkit.matq import Mat, all_subspaces, gaussian_binomial, rank

F2 = field_create(2)
F3 = field_create(3)


class TestProfile:
    def test_normalization_records_permutation(self):
        p = profile_create(F2, [(1, 1), (2, 2)])
        assert p.blocks == ((2, 2), (1, 1))
        assert p.permutation == (1, 0)
        assert p.to_user_order(("wide", "narrow")) == ("narrow", "wide")

    def test_derived_quantities(self):
        p = profile_create(F2, [(2, 2)] + [(1, 2)] * 7 + [(1, 1)] * 5)
        assert (p.t, p.N, p.M, p.dim) == (13, 14, 21, 23)
        assert p.Q == Fraction(9, 2)

    def test_bad_blocks(self):
        with pytest.raises(BadBlock):
            profile_create(F2, [(1, 0)])
        with pytest.raises(BadBlock):
            profile_create(F2, [(3, 2)])
        with pytest.raises(BadBlock):
            profile_create(F2, [])

    def test_text_form(self):
        blocks = [(2, 2)] + [(1, 2)] * 7 + [(1, 1)] * 5
        assert format_profile(blocks) == "2x2,1x2x7,1x1x5"
        assert parse_profile("2x2,1x2x7,1x1x5") == blocks
        # a repeat count below 1 is refused, not read as no block
        for text, token in (("3x3,2x2x0", "2x2x0"), ("2x2x-1", "2x2x-1")):
            with pytest.raises(BadBlock, match=f"block '{token}' repeats"):
                parse_profile(text)


class TestWeightAndSupport:
    def test_zero_tuple(self):
        p = profile_create(F2, [(2, 2), (1, 2)])
        z = MatrixTuple.zero(p)
        assert sumrank_weight(z) == 0
        assert support(z) == SubspaceTuple.zero(p)

    def test_full_rank_blocks(self):
        p = profile_create(F2, [(2, 2), (2, 2)])
        x = tup(p, [[1, 0], [0, 1]], [[1, 0], [0, 1]])
        assert sumrank_weight(x) == 4
        assert support(x) == SubspaceTuple.full(p)

    def test_mixed_weight(self):
        p = profile_create(F2, [(1, 2)] * 5 + [(1, 1)] * 3)
        x = tup(p, [[1, 0]], [[1, 0]], [[1, 0]], [[1, 0]], [[1, 0]],
                [[1]], [[0]], [[0]])
        assert sumrank_weight(x) == 6

    def test_support_rank_identity_random(self):
        rng = random.Random(2)
        p = profile_create(F3, [(2, 2), (1, 2)])
        for _ in range(500):
            x = tup(p, [[rng.randrange(3) for _ in range(2)] for _ in range(2)],
                    [[rng.randrange(3) for _ in range(2)]])
            assert support(x).rank_L == sumrank_weight(x)
            assert rank(blockdiag_embed(x)) == sumrank_weight(x)

    def test_metric_axioms_sampled(self):
        rng = random.Random(3)
        p = profile_create(F2, [(2, 2), (1, 2)])
        pool = list(enumerate_tuples(p, override=True))
        for _ in range(500):
            x, y, z = (rng.choice(pool) for _ in range(3))
            assert sumrank_weight(x - y) >= 0
            assert (sumrank_weight(x - y) == 0) == (x == y)
            assert (sumrank_weight(x - z)
                    <= sumrank_weight(x - y) + sumrank_weight(y - z))


class TestTraceProduct:
    def test_zero(self):
        p = profile_create(F2, [(2, 2)])
        x = tup(p, [[1, 0], [0, 1]])
        assert trace_product(x, MatrixTuple.zero(p)) == 0

    def test_characteristic_two_identity(self):
        p = profile_create(F2, [(2, 2)])
        x = tup(p, [[1, 0], [0, 1]])
        assert trace_product(x, x) == 0  # 1 + 1

    def test_symmetry_and_embed_compatibility(self):
        rng = random.Random(4)
        p = profile_create(F3, [(2, 2), (1, 2)])
        def rnd():
            return tup(p, [[rng.randrange(3) for _ in range(2)] for _ in range(2)],
                       [[rng.randrange(3) for _ in range(2)]])
        for _ in range(500):
            x, y = rnd(), rnd()
            assert trace_product(x, y) == trace_product(y, x)
            ex, ey = blockdiag_embed(x), blockdiag_embed(y)
            acc = 0
            for r1, r2 in zip(ex.rows, ey.rows):
                for a, b in zip(r1, r2):
                    acc = F3.add(acc, F3.mul(a, b))
            assert acc == trace_product(x, y)

    def test_profile_mismatch(self):
        p1 = profile_create(F2, [(2, 2)])
        p2 = profile_create(F2, [(1, 2)])
        with pytest.raises(ProfileMismatch):
            trace_product(MatrixTuple.zero(p1), MatrixTuple.zero(p2))


class TestMobius:
    def test_equal_arguments(self):
        p = profile_create(F2, [(2, 2), (1, 1)])
        u = SubspaceTuple.full(p)
        assert mobius(u, u) == 1

    def test_single_gap(self):
        p = profile_create(F2, [(2, 2)])
        z = SubspaceTuple.zero(p)
        from srkit.matq import Subspace
        line = SubspaceTuple(p, [Subspace(F2, 2, [[1, 0]])])
        assert mobius(z, line) == -1

    def test_defining_property_over_a_block(self):
        # sum over U <= V of mu(U, V) vanishes for V != 0
        p = profile_create(F2, [(2, 2)])
        subs = list(all_subspaces(2, F2))
        for V in subs:
            VT = SubspaceTuple(p, [V])
            total = sum(mobius(SubspaceTuple(p, [U]), VT)
                        for U in subs if V.contains(U))
            assert total == (1 if V.dim == 0 else 0)

    def test_not_comparable(self):
        p = profile_create(F2, [(2, 2)])
        from srkit.matq import Subspace
        a = SubspaceTuple(p, [Subspace(F2, 2, [[1, 0]])])
        b = SubspaceTuple(p, [Subspace(F2, 2, [[0, 1]])])
        with pytest.raises(NotComparable):
            mobius(a, b)


class TestBlockdiagEmbed:
    def test_zero(self):
        p = profile_create(F2, [(2, 3), (1, 2)])
        e = blockdiag_embed(MatrixTuple.zero(p))
        assert e.is_zero() and (e.nrows, e.ncols) == (3, 5)

    def test_two_singletons(self):
        p = profile_create(F2, [(1, 1), (1, 1)])
        assert blockdiag_embed(tup(p, [[1]], [[1]])) == Mat.identity(F2, 2)


class TestSphereVolume:
    def test_radius_zero(self):
        p = profile_create(F3, [(2, 2), (1, 2)])
        assert sphere_volume(p, 0) == 1

    def test_single_2x2_block(self):
        p = profile_create(F2, [(2, 2)])
        brute = sum(1 for x in enumerate_tuples(p) if sumrank_weight(x) <= 1)
        assert brute == 10
        assert sphere_volume(p, 1) == 10

    def test_mixed_profile_radius_one(self):
        p = profile_create(F2, [(2, 2), (2, 2), (1, 2), (1, 2)])
        assert sphere_volume(p, 1) == 25
        brute = sum(1 for x in enumerate_tuples(p) if sumrank_weight(x) <= 1)
        assert brute == 25

    @pytest.mark.parametrize("q,blocks", [
        (2, [(1, 1)]),
        (2, [(2, 2)]),
        (2, [(2, 3), (1, 2)]),
        (2, [(1, 2), (1, 2), (1, 1)]),
        (3, [(2, 2)]),
        (3, [(1, 2), (1, 1)]),
    ])
    def test_against_enumeration_oracle(self, q, blocks):
        F = field_create(q)
        p = profile_create(F, blocks)
        counts = oracle_sphere_counts(list(p.blocks), q)
        assert weight_spectrum(p) == counts
        for r in range(p.N + 1):
            assert sphere_volume(p, r) == sum(counts[:r + 1])


@st.composite
def spectrum_profiles(draw):
    """A profile over GF(2)..GF(5) with up to six blocks of up to 3 x 4."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    shapes = st.integers(1, 4).flatmap(
        lambda m: st.tuples(st.integers(1, min(m, 3)), st.just(m)))
    return profile_create(field_create(*prime_power(q)),
                          draw(st.lists(shapes, min_size=1, max_size=6)))


class TestSphereVolumeCache:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(p=spectrum_profiles(), seed=st.integers(0, 2 ** 16))
    def test_volumes_are_sums_of_the_full_spectrum(self, p, seed):
        # radii 0..N+2 in a shuffled order, so the cached spectrum is read,
        # grown past its degree and read beyond N; then again, warm
        want = list(accumulate(weight_spectrum(p)))
        radii = list(range(p.N + 3))
        random.Random(seed).shuffle(radii)
        for rounds in ("cold", "warm"):
            for r in radii:
                assert sphere_volume(p, r) == want[min(r, p.N)], (rounds, r)

    def test_a_larger_radius_at_least_doubles_the_degree(self, monkeypatch):
        degrees = []
        product = ambient.poly_product
        monkeypatch.setattr(ambient, "poly_product", lambda polys, degree:
                            degrees.append(degree) or product(polys, degree))
        p = profile_create(F2, [(2, 2)] * 40)
        for r in range(p.N + 2):
            sphere_volume(p, r)
        # radius 0 is one term; then 1, 2, 4, ..., 64 and the full 80
        assert degrees == [0, 1, 2, 4, 8, 16, 32, 64, 80]

    def test_each_profile_keeps_its_own_spectrum(self):
        a = profile_create(F3, [(1, 2), (2, 2)])
        b = profile_create(field_create(3), [(1, 2), (2, 2)])
        assert sphere_volume(a, 3) == 3 ** 6
        assert b._volumes == []
        assert sphere_volume(b, 1) == 1 + 8 + 32
        assert len(a._volumes) == 4 and len(b._volumes) == 2


class TestCells:
    def test_built_once_as_tuples(self):
        p = profile_create(F2, [(1, 2), (2, 3)])
        cells = _cells(p)
        assert cells is _cells(p)
        assert cells == (((0, 1, 2), (3, 4, 5)), ((6, 7),))


class TestLatticeEnumeration:
    def test_zero_vector_single(self):
        p = profile_create(F2, [(2, 2), (1, 1)])
        assert len(list(enumerate_lattice(p, dim_vector=(0, 0)))) == 1

    def test_total_rank_count(self):
        p = profile_create(F2, [(2, 2), (1, 1)])
        assert len(list(enumerate_lattice(p, total_rank=1))) == 4  # 3 + 1

    def test_dim_vector_counts_are_products(self):
        rng = random.Random(5)
        p = profile_create(F3, [(2, 2), (2, 2)])
        for _ in range(5):
            dv = (rng.randrange(3), rng.randrange(3))
            count = len(list(enumerate_lattice(p, dim_vector=dv)))
            assert count == (gaussian_binomial(2, dv[0], 3)
                             * gaussian_binomial(2, dv[1], 3))
