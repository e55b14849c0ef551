import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itertools import product

from conftest import (
    oracle_add,
    oracle_is_irreducible,
    oracle_is_prime,
    oracle_mul,
)
from srkit.errors import (
    BadParameters,
    DegreeMismatch,
    DivisionByZero,
    MixedFields,
    NotPrime,
    ReducibleModulus,
    TooLarge,
)
from srkit.field import (
    conway_polynomial,
    field_create,
    is_irreducible,
    is_prime,
    prime_power,
    tower_create,
)


def test_prime_field_defaults():
    F = field_create(2, 1, None)
    assert F.q == 2 and F.modulus == (0, 1)
    assert F.add(1, 1) == 0


def test_gf16_default_modulus_is_x4_x_1():
    F = field_create(2, 4)
    assert F.modulus == (1, 1, 0, 0, 1)
    # oracle: trial division over GF(2) finds no factor of degree 1 or 2
    def poly_mul(a, b):
        out = 0
        while b:
            if b & 1:
                out ^= a
            a <<= 1
            b >>= 1
        return out
    target = 0b10011
    for f in range(2, 8):  # all polynomials of degree 1 or 2
        for g in range(2, 1 << 4):
            if poly_mul(f, g) == target:
                pytest.fail(f"{f:b} divides the modulus")


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        field_create(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2


def test_bad_modulus_raises_on_every_call():
    # the checks are cached per modulus, the verdict is not forgotten
    for p, modulus, err, message in [
            (2, [1, 0, 1], ReducibleModulus,
             "[1, 0, 1] is reducible over GF(2)"),
            (3, (1, 1, 2), DegreeMismatch,
             "modulus must be monic of degree 2, got (1, 1, 2)")]:
        for _ in range(2):
            with pytest.raises(err) as caught:
                field_create(p, 2, modulus)
            assert str(caught.value) == message
    assert field_create(2, 2, [1, 1, 1]) is field_create(2, 2, (3, 1, 1))


def test_constructor_validation():
    with pytest.raises(NotPrime):
        field_create(4, 1)
    with pytest.raises(DegreeMismatch):
        field_create(2, 0)
    with pytest.raises(DegreeMismatch):
        field_create(2, 3, [1, 1, 1])  # degree 2 modulus for k=3
    with pytest.raises(TooLarge):
        field_create(2, 10 ** 15)  # refused before 2^k is computed


def test_known_conway_polynomials():
    assert conway_polynomial(2, 2) == (1, 1, 1)
    assert conway_polynomial(2, 3) == (1, 1, 0, 1)
    assert conway_polynomial(2, 8) == (1, 0, 1, 1, 1, 0, 0, 0, 1)
    assert conway_polynomial(3, 2) == (2, 2, 1)
    assert conway_polynomial(5, 2) == (2, 4, 1)


def test_basic_arith():
    F3 = field_create(3)
    assert F3.inv(2) == 2
    F4 = field_create(2, 2)
    assert F4.mul(2, 2) == 3  # x * x = x + 1
    with pytest.raises(DivisionByZero):
        F4.inv(0)


@pytest.mark.parametrize("q,expect", [
    (2, (2, 1)), ("2^4", (2, 4)), ("9", (3, 2)), (65536, (2, 16)), (" 7 ", (7, 1)),
    ((2 ** 31 - 1) ** 2, (2 ** 31 - 1, 2)), (3 ** 40, (3, 40)),
    (2 ** 61 - 1, (2 ** 61 - 1, 1)),
])
def test_prime_power(q, expect):
    assert prime_power(q) == expect


@pytest.mark.parametrize("q,err", [
    ("6", NotPrime), (1, NotPrime), ("4^2", NotPrime), ("2^a", NotPrime),
    ("x", NotPrime), ("2^0", DegreeMismatch), (36, NotPrime),
    (3825123056546413051, NotPrime),
    (3317044064679887385961981, BadParameters), (10 ** 30, BadParameters),
    ("3317044064679887385961981^1", BadParameters),
    # text is ASCII decimal digits only
    ("1_6", NotPrime), ("\u0664", NotPrime), ("+4", NotPrime),
    ("2^0_2", NotPrime), ("\uff12^2", NotPrime), ("2 ^2", NotPrime),
])
def test_prime_power_rejects(q, err):
    with pytest.raises(err):
        prime_power(q)


def test_is_prime_matches_trial_division():
    assert ([n for n in range(20000) if is_prime(n)]
            == [n for n in range(20000) if oracle_is_prime(n)])


@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # each has a factor below 150,000, so trial division ends quickly
    assert not oracle_is_prime(n)
    assert not is_prime(n)


def test_is_prime_mersenne_primes():
    assert oracle_is_prime(2 ** 31 - 1) and is_prime(2 ** 31 - 1)
    # Lucas-Lehmer: 2^61 - 1 is prime iff s_59 == 0, s_0 = 4, s -> s^2 - 2
    m, s = 2 ** 61 - 1, 4
    for _ in range(59):
        s = (s * s - 2) % m
    assert s == 0 and is_prime(m)


def test_element_wrappers_and_dispatch():
    F4 = field_create(2, 2)
    x = F4.element(2)
    assert (x * x).code == 3
    assert (F4.element(1) / x).code == F4.inv(2)
    assert (x ** 3).code == F4.pow(2, 3)
    F2 = field_create(2)
    with pytest.raises(MixedFields):
        x + F2.element(1)


def test_frobenius_values():
    F4 = field_create(2, 2)
    assert F4.frobenius(2, 1) == 3
    assert F4.frobenius(0, 5) == 0
    assert F4.frobenius(2, 2) == 2  # q-th power fixes the field
    assert (F4.element(2) ** 2).code == F4.frobenius(2, 1) == 3


FIELDS = [field_create(2), field_create(3), field_create(2, 2),
          field_create(2, 3), field_create(3, 2), field_create(5)]


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_field_axioms(F, data):
    a = data.draw(st.integers(0, F.q - 1))
    b = data.draw(st.integers(0, F.q - 1))
    c = data.draw(st.integers(0, F.q - 1))
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if a:
        assert F.mul(a, F.inv(a)) == 1
    assert F.add(a, F.neg(a)) == 0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_frobenius_is_a_field_morphism(F, data):
    a = data.draw(st.integers(0, F.q - 1))
    b = data.draw(st.integers(0, F.q - 1))
    assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
    assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))


def _order(F, c):
    """Multiplicative order of c, by repeated oracle multiplication."""
    v, n = c, 1
    while v != 1:
        v, n = oracle_mul(v, c, F.p, F.modulus), n + 1
    return n


def _check_steps(F, indices):
    exp, log, g = F._exp, F._log, F._exp[1]
    for i in indices:
        assert exp[i + 1] == oracle_mul(exp[i], g, F.p, F.modulus), i
        assert log[exp[i]] == i


@pytest.mark.parametrize("p,k,modulus", (
    [(2, k, None) for k in range(2, 13)] + [(3, k, None) for k in range(2, 6)]
    + [(5, 2, None), (7, 2, None), (13, 2, None), (65521, 1, None),
       (2, 4, (1, 1, 1, 1, 1)), (3, 2, (1, 0, 1))]))
def test_log_tables_follow_the_generator(p, k, modulus):
    F = field_create(p, k, modulus)
    q = F.q
    _check_steps(F, range(q - 1))
    assert F._exp[q - 1:] == F._exp[:q - 1]
    assert sorted(F._exp[:q - 1]) == list(range(1, q))
    # x when it is primitive (every Conway modulus), else the smallest
    # primitive code: x has order 5 and 4 under the two user moduli
    x_primitive = k >= 2 and _order(F, p) == q - 1
    assert x_primitive == (modulus is None and k >= 2)
    expected = p if x_primitive else next(
        c for c in range(2, q) if _order(F, c) == q - 1)
    assert F._exp[1] == expected


def test_log_tables_gf65536():
    F = field_create(2, 16)
    assert F._exp[1] == 2
    _check_steps(F, random.Random(16).sample(range(F.q - 1), 2000))
    assert sorted(F._exp[:F.q - 1]) == list(range(1, F.q))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (251, 1), (2, 8)])
def test_inverse_table_matches_oracle(p, k):
    F = field_create(p, k)
    brute = [0] + [next(b for b in range(1, F.q)
                        if oracle_mul(a, b, p, F.modulus) == 1)
                   for a in range(1, F.q)]
    assert F._inv_tab == brute


@pytest.mark.parametrize("p,k,modulus", [
    (2, 1, None), (3, 1, None), (2, 2, None), (251, 1, None), (2, 8, None),
    (3, 5, None), (2, 4, (1, 1, 1, 1, 1)), (3, 2, (1, 0, 1))])
def test_full_tables_match_oracles(p, k, modulus):
    # built from the log tables and digit-wise sums, not per-pair arithmetic
    F = field_create(p, k, modulus)
    q = F.q
    assert F._mul_tab == [[oracle_mul(a, b, p, F.modulus) for b in range(q)]
                          for a in range(q)]
    assert F._add_tab == [[oracle_add(a, b, p, k) for b in range(q)]
                          for a in range(q)]


class TestTower:
    def test_roundtrip(self):
        t = tower_create(field_create(2, 2), 2)
        for code in range(16):
            assert t.uncoords(t.coords(code)) == code

    def test_roundtrip_gf256_squared(self):
        base = field_create(2, 8)
        t = tower_create(base, 2)
        assert t.top.q == 65536
        rng = random.Random(256)
        for code in [0, 1, 2, 65535] + rng.sample(range(65536), 300):
            assert t.uncoords(t.coords(code)) == code
        for _ in range(300):
            vec = (rng.randrange(256), rng.randrange(256))
            assert t.coords(t.uncoords(vec)) == vec

    def test_basis_images(self):
        t = tower_create(field_create(2), 4)
        assert t.coords(0) == (0, 0, 0, 0)
        assert t.coords(t.basis()[0]) == (1, 0, 0, 0)
        assert t.coords(t.basis()[2]) == (0, 0, 1, 0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_coords_are_base_linear(self, data):
        base = field_create(2, 2)
        t = tower_create(base, 2)
        lam = data.draw(st.integers(0, base.q - 1))
        a = data.draw(st.integers(0, t.top.q - 1))
        b = data.draw(st.integers(0, t.top.q - 1))
        lhs = t.coords(t.top.add(t.top.mul(t.embed(lam), a), b))
        ca, cb = t.coords(a), t.coords(b)
        rhs = tuple(base.add(base.mul(lam, x), y) for x, y in zip(ca, cb))
        assert lhs == rhs


def test_is_irreducible_oracle_agreement():
    # brute factor search over GF(2) up to degree 6
    def divides(f, g):  # polynomial division over GF(2), bitmask form
        df = f.bit_length() - 1
        while g.bit_length() - 1 >= df and g:
            g ^= f << (g.bit_length() - 1 - df)
        return g == 0
    for value in range(4, 1 << 6):
        coeffs = tuple((value >> i) & 1 for i in range(value.bit_length()))
        k = len(coeffs) - 1
        has_factor = any(divides(f, value)
                         for f in range(2, 1 << (k // 2 + 1))
                         if f.bit_length() >= 2)
        assert is_irreducible(coeffs, 2) == (not has_factor), bin(value)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_irreducible_matches_trial_division(p):
    # every monic polynomial of degree 1..4; those of degree 2..3 with no
    # root are the irreducible ones, so the root filter decides them alone
    for k in range(1, 5):
        for low in product(range(p), repeat=k):
            f = low + (1,)
            assert is_irreducible(f, p) == oracle_is_irreducible(f, p), f


def test_odd_conway_polynomials_unchanged():
    # the root filter is exact: the search finds the polynomials that
    # Rabin's test alone finds
    assert conway_polynomial(3, 10) == (2, 1, 0, 0, 2, 2, 2, 0, 0, 0, 1)
    assert conway_polynomial(3, 8) == (2, 2, 2, 0, 1, 2, 0, 0, 1)
    assert conway_polynomial(5, 6) == (2, 0, 1, 4, 1, 0, 1)
    assert conway_polynomial(7, 4) == (3, 4, 5, 0, 1)


def test_text_form():
    assert repr(field_create(2, 4)) == "q=2^4;mod=1,0,0,1,1"
    assert repr(field_create(7)) == "q=7^1;mod=1,0"
