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
    BadParameters,
    DegreeMismatch,
    DivisionByZero,
    IncompatibleTower,
    MixedFields,
    NotPrime,
    ReducibleModulus,
    TooLarge,
)
from .guard import _decimal

MAX_Q = 1 << 20   # larger fields are refused: enumeration is hopeless anyway
_FULL_TABLE_Q = 256
_LOG_TABLE_Q = 1 << 16
# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson and Webster); the bound itself is a strong pseudoprime to them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _check_testable(n):
    if n >= _MR_LIMIT:
        raise BadParameters(f"{n} is too large: primality is decided exactly "
                            f"only below {_MR_LIMIT}")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; BadParameters for n >= 3.317e24."""
    if n < 2:
        return False
    _check_testable(n)
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    m = n - 1
    s = (m & -m).bit_length() - 1   # n - 1 = d * 2^s with d odd
    d = m >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n, k):
    """floor(n ** (1/k)) for n >= 1, by integer Newton steps from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


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
    return _padd(a, [-x for x in b], p)


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


def _has_root(f, p):
    """Whether f vanishes at some element of GF(p), by Horner at each."""
    for a in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * a + c) % p
        if not acc:
            return True
    return False


def is_irreducible(coeffs, p) -> bool:
    """Rabin's test for a monic polynomial over GF(p).

    A polynomial of degree >= 2 with a root in GF(p) has a linear factor,
    so it is rejected before the test: an exact filter that spares the
    Conway searches most of their candidates.
    """
    f = _trim(coeffs)
    k = len(f) - 1
    if k < 1 or f[-1] != 1:
        return False
    if k == 1:
        return True
    if _has_root(f, p):
        return False
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
        digits = _digits(word, p, k)  # w_0 .. w_{k-1}
        coeffs = [0] * (k + 1)
        coeffs[k] = 1
        for i in range(k):
            # w_i compares (-1)^(k-i) a_i, so a_i = (-1)^(k-i) w_i
            sign = -1 if (k - i) % 2 else 1
            coeffs[i] = (sign * digits[i]) % p
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
        f = _digits(value, p, k) + (1,)  # a_0 .. a_{k-1}, 1
        if is_irreducible(f, p):
            return f
    raise RuntimeError("unreachable: irreducible polynomials exist in every degree")


def _digits(code, p, k):
    """The k base-p digits of `code`, lowest first: the coefficients of an
    element of GF(p^k), or the places of a base-p counter."""
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return tuple(out)


def _digit_sums(p, k):
    """table[a][b]: the code of the digit-wise sum mod p of codes a and b.

    With p^j the place of the leading digit of a, adding a is adding
    a - p^j and then p^j, which raises digit j by one (p - 1 wraps to 0);
    so each row is an earlier row looked up in one of k step rows.
    """
    q = p ** k
    table = [list(range(q))]
    for j in range(k):
        pj = p ** j
        step = [b + pj if b // pj % p < p - 1 else b - (p - 1) * pj
                for b in range(q)]
        for a in range(pj, p * pj):
            table.append(list(map(step.__getitem__, table[a - pj])))
    return table


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
        self._hash = hash((p, k, self.modulus))
        self._init_tables()

    # -- representation -----------------------------------------------------

    def __repr__(self):
        mod = ",".join(str(c) for c in reversed(self.modulus))
        return f"q={self.p}^{self.k};mod={mod}"

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Field)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return self._hash

    # -- raw polynomial view ------------------------------------------------

    def _digits(self, code):
        return _digits(code, self.p, self.k)

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
        if q <= _LOG_TABLE_Q:
            step = self._mul_by(self._find_generator())
            # both tables refer to one int object per value, not one per
            # entry: about 1.8 MB less for GF(2^16)
            ints = list(range(q))
            exp = [0] * (q - 1)
            log = [0] * q
            v = 1
            for i in range(q - 1):
                v = exp[i] = ints[v]
                log[v] = ints[i]
                v = step(v)
            exp *= 2  # in place: exp[i + q - 1] = exp[i]
            self._exp, self._log = exp, log
        if q <= _FULL_TABLE_Q:
            self._add_tab = _digit_sums(p, k)
            # row a, column b: exp[log a + log b], read off the exp slice
            # that starts at log a
            logs = self._log[1:]
            self._mul_tab = [[0] * q] + [
                [0, *map(self._exp[la:la + q - 1].__getitem__, logs)]
                for la in logs]
            # _neg_tab is still None here, so neg computes each entry
            self._neg_tab = [self.neg(a) for a in range(q)]
            # a^-1 = g^(q-1-log a)
            self._inv_tab = [0] + [
                self._exp[q - 1 - self._log[a]] for a in range(1, q)]

    def _find_generator(self):
        # Conway moduli make the class of x primitive; otherwise search,
        # from 1: GF(2)'s generator
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
        return next(c for c in range(1, self.q) if primitive(c))

    def _mul_by(self, g):
        """The map v -> g*v on codes, from the k images g*x^i.

        Multiplying by g is F_p-linear, so a step only combines images. For
        p = 2 that is one XOR per byte of v, of the precomputed XOR of the
        images its set bits select; otherwise the digits of v weight sparse
        digit rows, reduced mod p.
        """
        p, k = self.p, self.k
        images = [self._raw_mul(p ** i, g) for i in range(k)]
        if p == 2:
            # table[b] = XOR of the images selected by the bits of byte b
            tables = []
            for lo in range(0, k, 8):
                table = [0]
                for img in images[lo:lo + 8]:
                    table += [w ^ img for w in table]
                tables.append(table)

            def step(v):
                w = 0
                for table in tables:
                    w ^= table[v & 255]
                    v >>= 8
                return w
            return step
        rows = [[(j, c) for j, c in enumerate(self._digits(img)) if c]
                for img in images]
        places = range(k - 1, -1, -1)

        def step(v):
            acc = [0] * k
            for row in rows:
                v, d = divmod(v, p)
                if d:
                    for j, c in row:
                        acc[j] += d * c
            w = 0
            for j in places:
                w = w * p + acc[j] % p
            return w
        return step

    # -- arithmetic on codes --------------------------------------------------

    def add(self, a, b):
        if self._add_tab is not None:
            return self._add_tab[a][b]
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % self.p
        da, db = self._digits(a), self._digits(b)
        return self._code([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a):
        if self._neg_tab is not None:
            return self._neg_tab[a]
        if self.p == 2:
            return a
        if self.k == 1:
            return (-a) % self.p
        return self._code([(-x) % self.p for x in self._digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self._mul_tab is not None:
            return self._mul_tab[a][b]
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._raw_mul(a, b)

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


@lru_cache(maxsize=None)
def _modulus_fault(p, k, mod):
    """The error an explicit modulus (normalized mod p) raises, or None:
    Rabin's test runs once per (p, k, mod), not once per `.src` parse."""
    if len(mod) != k + 1 or mod[-1] != 1:
        return DegreeMismatch
    if not is_irreducible(mod, p):
        return ReducibleModulus
    return None


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
    if k >= MAX_Q.bit_length() or p ** k > MAX_Q:
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
        fault = _modulus_fault(p, k, mod)
        if fault is DegreeMismatch:
            raise DegreeMismatch(
                f"modulus must be monic of degree {k}, got {modulus}")
        if fault is ReducibleModulus:
            raise ReducibleModulus(f"{modulus} is reducible over GF({p})")
    return _field_cached(p, k, mod)


def prime_power(q) -> tuple[int, int]:
    """(p, k) with q = p^k, for q an int or text such as '2', '2^4' or '9'.

    Text is ASCII decimal digits (`guard._decimal`), with spaces allowed
    only around the whole of it.  Builds no field, so it also serves to
    check a size that is never built.  Exact for q (or p) below 3.317e24;
    BadParameters at or above.
    """
    text = str(q).strip()
    try:
        if "^" in text:
            p, k = (_decimal(x) for x in text.split("^", 1))
            if not is_prime(p):
                raise NotPrime(f"{p} is not prime")
            if k < 1:
                raise DegreeMismatch(f"extension degree must be >= 1, got {k}")
            return p, k
        q = q if isinstance(q, int) else _decimal(text)
    except ValueError:
        raise NotPrime(f"{text!r} is not a field size") from None
    if q > 1:
        _check_testable(q)
        # at the largest k with an exact k-th root, the root is no perfect
        # power, so q is a prime power exactly when that root is prime
        for k in range(q.bit_length(), 0, -1):
            p = _iroot(q, k)
            if p ** k == q:
                if is_prime(p):
                    return p, k
                break
    raise NotPrime(f"{q} is not a prime power")


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
        # the RREF of [A | I] over GF(p) is [I | A^-1] iff A is invertible
        aug = [[cols[c][r] for c in range(km)]
               + [1 if c2 == r else 0 for c2 in range(km)]
               for r in range(km)]
        aug, pivots = _rref_rows(aug, field_create(self.base.p))
        if pivots != list(range(km)):
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
