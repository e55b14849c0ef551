"""One lattice per profile: each distinct n's subspace table is built once
per profile and shared by the code's lattice route, its dual's and
`macwilliams_support`, while the lattice transform guard runs on every
call; and the lattice route's shortening sizes against a brute rank."""

import random
from itertools import chain, product
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import srkit.distributions as dist_mod
from conftest import msrd_d4_gf3_code, random_code
from srkit.code import dual
from srkit.distributions import (
    _lattice_sizes,
    _lattice_supports,
    _shortening_sizes,
    _transform_units,
    _walk_supports,
    brute_distributions,
    macwilliams_support,
)
from srkit.errors import TooLarge
from srkit.field import field_from_order
from srkit.matq import _row_ops
from srkit.srcfile import parse_src_text, write_src_text


def _twin(code):
    """An equal code on its own, equal profile."""
    return parse_src_text(write_src_text(code))


def test_one_table_per_distinct_n(monkeypatch):
    # GF(3), blocks 2x2 and 1x2 three times: n in {1, 2}; the code (81
    # words) and its dual (729) both take the lattice route
    C = msrd_d4_gf3_code()
    built, routes = [], []
    table, route = dist_mod._subspace_table, dist_mod._lattice_supports

    def counted_table(n, F, override=False):
        built.append(n)
        return table(n, F, override)

    def counted_route(code, override=False):
        routes.append(code)
        return route(code, override)

    monkeypatch.setattr(dist_mod, "_subspace_table", counted_table)
    monkeypatch.setattr(dist_mod, "_lattice_supports", counted_route)
    _, _, supd = brute_distributions(C)
    D = dual(C)
    _, _, dsupd = brute_distributions(D)
    assert macwilliams_support(supd, C.size()).counts == dsupd.counts
    assert D.profile is C.profile
    assert routes == [C, D]
    assert sorted(built) == sorted(set(C.profile.ns))


def test_transforms_share_the_table_subspaces():
    C = msrd_d4_gf3_code()
    _, _, supd = brute_distributions(C)
    tables = C.profile._lattice
    for u in chain(supd.counts, macwilliams_support(supd, C.size()).counts):
        for n, part in zip(C.profile.ns, u.parts):
            assert part is tables[n].subspaces[tables[n].positions[part]]


def test_equal_profiles_keep_their_own_tables():
    C = msrd_d4_gf3_code()
    twin = _twin(C)
    assert twin.profile == C.profile and twin.profile is not C.profile
    assert _lattice_supports(C) == _lattice_supports(twin)
    held = dict(C.profile._lattice)
    assert held.keys() == twin.profile._lattice.keys() == set(C.profile.ns)
    for n, table in held.items():
        assert table is not twin.profile._lattice[n]
        assert table.subspaces == twin.profile._lattice[n].subspaces
    # a second call reads the tables the profile holds
    _lattice_supports(C)
    assert all(C.profile._lattice[n] is table for n, table in held.items())


def test_guard_fires_with_a_table_held(monkeypatch):
    C = msrd_d4_gf3_code()
    _, _, supd = brute_distributions(C)
    assert C.profile._lattice
    units = _transform_units(_lattice_sizes(C.profile))
    monkeypatch.setenv("SRKIT_MAX_ENUM", str(units - 1))
    with pytest.raises(TooLarge) as fresh:
        _lattice_supports(_twin(C))
    assert f"lattice transform of size {units}" in str(fresh.value)
    for call in (lambda: _lattice_supports(C),
                 lambda: macwilliams_support(supd, C.size())):
        with pytest.raises(TooLarge) as held:
            call()
        assert str(held.value) == str(fresh.value)


@st.composite
def lattice_codes(draw):
    """A random code over GF(2)..GF(9): up to three blocks, n <= 3 below
    q = 4 and n <= 2 above, and at most 2^10 words."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    top = 3 if q < 4 else 2
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, top))
        blocks.append((n, draw(st.integers(n, 3))))
    F = field_from_order(q)
    dim = sum(n * m for n, m in blocks)
    k = draw(st.integers(1, min(dim, 3 if q > 4 else 5)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return random_code(rng, F, blocks, k)


F3, F9 = field_from_order(3), field_from_order(9)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(lattice_codes())
# k = 1 with block 0 nonzero: rank k at the first block for V_0 = 0
@example(random_code(random.Random(3), F3, [(2, 2), (1, 2), (1, 1)], 1))
@example(random_code(random.Random(4), F9, [(2, 2), (1, 1)], 1))
def test_lattice_route_matches_the_walk(C):
    if prod(_lattice_sizes(C.profile)) > 600:
        return
    assert _lattice_supports(C) == _walk_supports(C)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_shortening_sizes_against_a_brute_rank(q):
    # picks of up to 3 reduced row lists per block over F^k, some of full
    # rank k, so branches stop early at every depth
    F = field_from_order(q)
    ops = _row_ops(F)
    rng = random.Random(q)
    for _ in range(40):
        k = rng.randrange(1, 5)
        picks = []
        for _ in range(rng.randrange(1, 4)):
            block = []
            for _ in range(rng.randrange(1, 5)):
                rows = [ops.pack([rng.randrange(q) for _ in range(k)])
                        for _ in range(rng.randrange(0, k + 2))]
                block.append([row for _, row in ops.extend([], rows, k)])
            picks.append(block)
        want = [q ** (k - len(ops.extend([], chain(*choice), k)))
                for choice in product(*picks)]
        assert _shortening_sizes(picks, k, q, ops.extend) == want
