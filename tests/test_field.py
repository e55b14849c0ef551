import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srkit.errors import (
    DegreeMismatch,
    DivisionByZero,
    MixedFields,
    NotPrime,
    ReducibleModulus,
)
from srkit.field import (
    conway_polynomial,
    field_create,
    is_irreducible,
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


def test_constructor_validation():
    with pytest.raises(NotPrime):
        field_create(4, 1)
    with pytest.raises(DegreeMismatch):
        field_create(2, 0)
    with pytest.raises(DegreeMismatch):
        field_create(2, 3, [1, 1, 1])  # degree 2 modulus for k=3


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
])
def test_prime_power(q, expect):
    assert prime_power(q) == expect


@pytest.mark.parametrize("q,err", [
    ("6", NotPrime), (1, NotPrime), ("4^2", NotPrime), ("2^a", NotPrime),
    ("x", NotPrime), ("2^0", DegreeMismatch),
])
def test_prime_power_rejects(q, err):
    with pytest.raises(err):
        prime_power(q)


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


class TestTower:
    def test_roundtrip(self):
        t = tower_create(field_create(2, 2), 2)
        for code in range(16):
            assert t.uncoords(t.coords(code)) == code

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


def test_text_form():
    assert repr(field_create(2, 4)) == "q=2^4;mod=1,0,0,1,1"
    assert repr(field_create(7)) == "q=7^1;mod=1,0"
