"""Exact arithmetic in GF(p^k).

Elements are integer codes: the element with polynomial coordinates
(c_0, ..., c_{k-1}) over GF(p) is encoded as sum(c_i * p**i).  The encoding
is file-stable, so codes can be written to disk and compared across runs.

Default moduli: ``x`` for prime fields, the Conway polynomial for k >= 2
and p^k <= 2^16 (computed once and cached), and the lexicographically
smallest monic irreducible beyond that.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    IncompatibleTower,
    MixedFields,
    NotPrime,
    ReducibleModulus,
    TooLarge,
)

MAX_Q = 1 << 20   # larger fields are refused: enumeration is hopeless anyway
_FULL_TABLE_Q = 256
_LOG_TABLE_Q = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(p); coefficient tuples, lowest degree first
# ---------------------------------------------------------------------------

def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def _psub(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pmod(a, mod, p):
    """Remainder of a modulo a monic polynomial."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return _trim(a)


def _pmulmod(a, b, mod, p):
    return _pmod(_pmul(a, b, p), mod, p)


def _ppowmod(a, e, mod, p):
    result = (1,)
    base = _pmod(a, mod, p)
    while e > 0:
        if e & 1:
            result = _pmulmod(result, base, mod, p)
        base = _pmulmod(base, base, mod, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        # make b monic before reducing
        lead_inv = pow(b[-1], p - 2, p)
        bm = tuple((c * lead_inv) % p for c in b)
        a, b = b, _pmod(a, bm, p)
    if a:
        lead_inv = pow(a[-1], p - 2, p)
        a = tuple((c * lead_inv) % p for c in a)
    return a


def is_irreducible(coeffs, p) -> bool:
    """Rabin's test for a monic polynomial over GF(p)."""
    f = _trim(coeffs)
    k = len(f) - 1
    if k < 1 or f[-1] != 1:
        return False
    if k == 1:
        return True
    x = (0, 1)
    if _ppowmod(x, p ** k, f, p) != _pmod(x, f, p):
        return False
    for r in prime_factors(k):
        g = _psub(_ppowmod(x, p ** (k // r), f, p), _pmod(x, f, p), p)
        if _pgcd(g, f, p) != (1,):
            return False
    return True


def _is_primitive_root_poly(f, p):
    """The class of x generates GF(p^k)* for monic irreducible f."""
    k = len(f) - 1
    order = p ** k - 1
    x = (0, 1)
    if _pmod(x, f, p) == ():
        return False
    for r in prime_factors(order):
        if _ppowmod(x, order // r, f, p) == (1,):
            return False
    return True


@lru_cache(maxsize=None)
def conway_polynomial(p: int, k: int) -> tuple[int, ...]:
    """Conway polynomial C_{p,k}, coefficients lowest degree first.

    Smallest (in the standard Conway ordering) monic primitive polynomial of
    degree k whose root's norms down to every proper subfield are roots of
    the subfield's Conway polynomial.
    """
    order = p ** k - 1
    subs = [d for d in range(1, k) if k % d == 0]
    sub_polys = [(d, conway_polynomial(p, d)) for d in subs]
    x = (0, 1)
    for word in range(p ** k):
        # word digits w_{k-1} .. w_0, most significant first
        digits = []
        w = word
        for _ in range(k):
            digits.append(w % p)
            w //= p
        digits.reverse()
        coeffs = [0] * (k + 1)
        coeffs[k] = 1
        for i in range(k):
            # w_i compares (-1)^(k-i) a_i, so a_i = (-1)^(k-i) w_i
            sign = -1 if (k - i) % 2 else 1
            coeffs[i] = (sign * digits[k - 1 - i]) % p
        f = tuple(coeffs)
        if not is_irreducible(f, p):
            continue
        if not _is_primitive_root_poly(f, p):
            continue
        ok = True
        for d, cd in sub_polys:
            g = _ppowmod(x, order // (p ** d - 1), f, p)
            # evaluate cd at g modulo f (Horner)
            acc = ()
            for c in reversed(cd):
                acc = _pmulmod(acc, g, f, p)
                if c:
                    acc = _padd(acc, (c,), p)
            if acc != ():
                ok = False
                break
        if ok:
            return f
    raise RuntimeError(f"no Conway polynomial found for p={p}, k={k}")


def _smallest_irreducible(p, k):
    for value in range(p ** k):
        digits = []
        w = value
        for _ in range(k):
            digits.append(w % p)
            w //= p
        digits.reverse()  # a_{k-1} .. a_0
        f = tuple(reversed(digits)) + (1,)
        if is_irreducible(f, p):
            return f
    raise RuntimeError("unreachable: irreducible polynomials exist in every degree")


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

class Field:
    """GF(p^k) with integer-coded elements; immutable and thread-safe."""

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = tuple(modulus)  # ascending, length k+1, monic
        self._init_tables()

    # -- representation -----------------------------------------------------

    def __repr__(self):
        mod = ",".join(str(c) for c in reversed(self.modulus))
        return f"q={self.p}^{self.k};mod={mod}"

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    # -- raw polynomial view ------------------------------------------------

    def _digits(self, code):
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def _code(self, digits):
        c = 0
        for d in reversed(digits):
            c = c * self.p + d
        return c

    def _raw_mul(self, a, b):
        prod = _pmulmod(_trim(self._digits(a)), _trim(self._digits(b)),
                        self.modulus, self.p)
        return self._code(prod + (0,) * (self.k - len(prod)))

    # -- table setup ----------------------------------------------------------

    def _init_tables(self):
        q, p, k = self.q, self.p, self.k
        self._exp = self._log = None
        self._mul_tab = self._add_tab = self._inv_tab = self._neg_tab = None
        if q <= _LOG_TABLE_Q and q > 2:
            g = self._find_generator()
            exp = [0] * (2 * (q - 1))
            log = [0] * q
            v = 1
            for i in range(q - 1):
                exp[i] = v
                exp[i + q - 1] = v
                log[v] = i
                v = self._raw_mul(v, g)
            self._exp, self._log = exp, log
        if q <= _FULL_TABLE_Q:
            add = [[self._slow_add(a, b) for b in range(q)] for a in range(q)]
            mul = [[self._slow_mul(a, b) for b in range(q)] for a in range(q)]
            self._add_tab, self._mul_tab = add, mul
            self._neg_tab = [self._slow_neg(a) for a in range(q)]
            inv = [0] * q
            for a in range(1, q):
                inv[a] = next(b for b in range(1, q) if mul[a][b] == 1)
            self._inv_tab = inv

    def _find_generator(self):
        # Conway moduli make the class of x primitive; otherwise search.
        order = self.q - 1
        facs = prime_factors(order)

        def primitive(c):
            digits = _trim(self._digits(c))
            if not digits:
                return False
            return all(_ppowmod(digits, order // r, self.modulus, self.p) != (1,)
                       for r in facs)

        if self.k >= 2 and primitive(self.p):
            return self.p
        return next(c for c in range(2, self.q) if primitive(c))

    # -- arithmetic on codes --------------------------------------------------

    def _slow_add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % self.p
        da, db = self._digits(a), self._digits(b)
        return self._code([(x + y) % self.p for x, y in zip(da, db)])

    def _slow_neg(self, a):
        if self.p == 2:
            return a
        if self.k == 1:
            return (-a) % self.p
        return self._code([(-x) % self.p for x in self._digits(a)])

    def _slow_mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        if self.q == 2:
            return a & b
        return self._raw_mul(a, b)

    def add(self, a, b):
        if self._add_tab is not None:
            return self._add_tab[a][b]
        return self._slow_add(a, b)

    def neg(self, a):
        if self._neg_tab is not None:
            return self._neg_tab[a]
        return self._slow_neg(a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self._mul_tab is not None:
            return self._mul_tab[a][b]
        return self._slow_mul(a, b)

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("0 has no inverse")
        if self._inv_tab is not None:
            return self._inv_tab[a]
        if self._exp is not None:
            return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]
        return self.pow(a, self.q - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if a == 0:
            if e < 0:
                raise DivisionByZero("0 has no inverse")
            return 0 if e else 1
        e %= self.q - 1
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.q - 1)]
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a, i=1):
        """a^(p^i); i is taken modulo k, so negative iterates work too."""
        return self.pow(a, self.p ** (i % self.k))

    # -- element wrappers -----------------------------------------------------

    def element(self, code):
        if not 0 <= code < self.q:
            raise ValueError(f"code {code} outside [0, {self.q})")
        return FieldElement(self, code)


class FieldElement:
    """A single element of a Field; thin wrapper around an integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field != self.field:
            raise MixedFields(f"{self.field} vs {other.field}")
        return other

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.code, self._check(other).code))

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.code, self._check(other).code))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.code, self._check(other).code))

    def __truediv__(self, other):
        return FieldElement(self.field, self.field.div(self.code, self._check(other).code))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.code))

    def __pow__(self, e):
        return FieldElement(self.field, self.field.pow(self.code, e))

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.field == other.field and self.code == other.code)

    def __hash__(self):
        return hash((self.field.q, self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return str(self.code)


@lru_cache(maxsize=None)
def _field_cached(p, k, modulus):
    return Field(p, k, modulus)


def field_create(p: int, k: int = 1, modulus=None) -> Field:
    """Construct (and cache) GF(p^k).

    With no modulus: prime fields use x, extensions with p^k <= 2^16 use the
    Conway polynomial, larger ones the lexicographically smallest monic
    irreducible.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise DegreeMismatch(f"extension degree must be >= 1, got {k}")
    if p ** k > MAX_Q:
        raise TooLarge(f"q = {p}^{k} exceeds the supported maximum 2^20")
    if modulus is None:
        if k == 1:
            mod = (0, 1)
        elif p ** k <= _LOG_TABLE_Q:
            mod = conway_polynomial(p, k)
        else:
            mod = _smallest_irreducible(p, k)
    else:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1:
            raise DegreeMismatch(
                f"modulus must be monic of degree {k}, got {modulus}")
        if not is_irreducible(mod, p):
            raise ReducibleModulus(f"{modulus} is reducible over GF({p})")
    return _field_cached(p, k, mod)


def prime_power(q) -> tuple[int, int]:
    """(p, k) with q = p^k, for q an int or text such as '2', '2^4' or '9'.

    Builds no field, so it also serves to check a size that is never built.
    """
    text = str(q)
    try:
        if "^" in text:
            p, k = (int(x) for x in text.split("^", 1))
            if not is_prime(p):
                raise NotPrime(f"{p} is not prime")
            if k < 1:
                raise DegreeMismatch(f"extension degree must be >= 1, got {k}")
            return p, k
        q = int(text)
    except ValueError:
        raise NotPrime(f"{text!r} is not a field size") from None
    factors = prime_factors(q)
    if len(factors) != 1:
        raise NotPrime(f"{q} is not a prime power")
    p, k = factors[0], 0
    while q > 1:
        q //= p
        k += 1
    return p, k


def field_from_order(q) -> Field:
    """GF(q) with the default modulus; q as accepted by prime_power."""
    return field_create(*prime_power(q))


# ---------------------------------------------------------------------------
# towers GF(q) <= GF(q^m)
# ---------------------------------------------------------------------------

class Tower:
    """A declared extension GF(q) <= GF(q^m) with a fixed ordered basis.

    The top field is GF(p^(k*m)); the base embeds through the smallest root
    of its modulus in the top field, and the ordered basis of top over base
    is {beta^0, ..., beta^(m-1)} with beta the class of x in the top field.
    Everything is deterministic, so coordinate vectors are file-stable.
    """

    def __init__(self, base: Field, m: int):
        if m < 1:
            raise IncompatibleTower("extension degree must be >= 1")
        self.base = base
        self.m = m
        self.top = field_create(base.p, base.k * m)
        self._root = self._find_root()
        self._beta = self.top.p if self.top.k > 1 else 1
        self._setup_coords()

    def _find_root(self):
        top, base = self.top, self.base
        for c in range(top.q):
            acc = 0
            for coeff in reversed(base.modulus):
                acc = top.add(top.mul(acc, c), coeff % top.p)
            if acc == 0:
                return c
        raise IncompatibleTower("no root of the base modulus in the top field")

    def embed(self, a_code: int) -> int:
        """Embed a base-field code into the top field."""
        top = self.top
        acc = 0
        for d in reversed(self.base._digits(a_code)):
            acc = top.add(top.mul(acc, self._root), d)
        return acc

    def _setup_coords(self):
        from .matq import _rref_rows
        k, m = self.base.k, self.m
        km = k * m
        top = self.top
        # columns: p-digit expansion of beta^j * root^i, j-major
        cols = []
        for j in range(m):
            bj = top.pow(self._beta, j)
            for i in range(k):
                cols.append(top._digits(top.mul(bj, top.pow(self._root, i))))
        # invert the km x km matrix over GF(p): RREF of [A | I] is [I | A^-1]
        aug = [[cols[c][r] for c in range(km)]
               + [1 if c2 == r else 0 for c2 in range(km)]
               for r in range(km)]
        aug, rk, _ = _rref_rows(aug, km, field_create(self.base.p))
        if rk != km:
            raise IncompatibleTower("basis powers are dependent")
        self._inv_matrix = [r[km:] for r in aug]

    def coords(self, a) -> tuple:
        """Coordinates of a top-field element over the base, length m."""
        code = a.code if isinstance(a, FieldElement) else a
        if isinstance(a, FieldElement) and a.field != self.top:
            raise IncompatibleTower("element does not live in the top field")
        p = self.base.p
        digits = self.top._digits(code)
        km = self.base.k * self.m
        sol = [sum(self._inv_matrix[r][c] * digits[c] for c in range(km)) % p
               for r in range(km)]
        k = self.base.k
        return tuple(self.base._code(sol[j * k:(j + 1) * k]) for j in range(self.m))

    def uncoords(self, vec) -> int:
        if len(vec) != self.m:
            raise IncompatibleTower(f"expected {self.m} coordinates")
        top = self.top
        acc = 0
        for j, c in enumerate(vec):
            code = c.code if isinstance(c, FieldElement) else c
            acc = top.add(acc, top.mul(self.embed(code), top.pow(self._beta, j)))
        return acc

    def basis(self):
        """Top-field codes of the ordered basis elements."""
        return tuple(self.top.pow(self._beta, j) for j in range(self.m))


@lru_cache(maxsize=None)
def tower_create(base: Field, m: int) -> Tower:
    return Tower(base, m)
