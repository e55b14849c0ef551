"""Closed forms the benchmark checks srkit against.

Everything here is written from the formulas, without calling srkit, so a
wrong answer in the library cannot hide behind the same wrong answer in the
expected value.  Exact results use Python integers and Fraction; only the
asymptotic curves use floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product


def normalize(blocks):
    """Block shapes in srkit's normalized order: stable sort by descending m."""
    return sorted(((int(n), int(m)) for n, m in blocks), key=lambda b: -b[1])


def singleton_exponent(blocks, d):
    """Exponent e of the Singleton bound q^e at distance d (1 <= d <= N)."""
    blocks = normalize(blocks)
    rest = d - 1
    for j, (n, m) in enumerate(blocks):
        if rest < n:
            return sum(nn * mm for nn, mm in blocks[j:]) - m * rest
        rest -= n
    raise ValueError(f"distance {d} exceeds the row count of {blocks}")


@lru_cache(maxsize=None)
def qbinom(n, k, q):
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def rank_count(n, m, s, q):
    """Number of n x m matrices over GF(q) of rank s."""
    if s < 0 or s > min(n, m):
        return 0
    out = 1
    for i in range(s):
        out *= (q ** n - q ** i) * (q ** m - q ** i)
    for i in range(s):
        out //= q ** s - q ** i
    return out


def sphere_volume(blocks, q, r):
    poly = [1]
    for n, m in blocks:
        block = [rank_count(n, m, s, q) for s in range(n + 1)]
        out = [0] * (len(poly) + n)
        for i, a in enumerate(poly):
            for s, c in enumerate(block):
                out[i + s] += a * c
        poly = out
    return sum(poly[:r + 1])


# ---------------------------------------------------------------------------
# MSRD support counts and the omega criterion
# ---------------------------------------------------------------------------

def _f_ell(u, ell, q):
    """Alternating sum over v <= u with |v| = ell, by direct enumeration."""
    total = 0
    for v in product(*[range(ui + 1) for ui in u]):
        if sum(v) != ell:
            continue
        term = 1
        for ui, vi in zip(u, v):
            e = ui - vi
            term *= (-1) ** e * q ** (e * (e - 1) // 2) * qbinom(ui, vi, q)
        total += term
    return total


def omega(m, q, d, u):
    return sum((q ** (m * (ell - d + 1)) - 1) * _f_ell(u, ell, q)
               for ell in range(d, sum(u) + 1))


def omega_fast(shape, m, q, d):
    """(witness, value) of the single-witness test, or (None, None)."""
    shape = sorted(shape, reverse=True)
    left = d + 1
    if left > sum(shape):
        return None, None
    u = []
    for n in shape:
        u.append(min(n, left))
        left -= u[-1]
    s = sum(q ** ui for ui in u) - len(u)
    return tuple(u), q ** (2 * m) - 1 - (q ** m - 1) // (q - 1) * s


def omega_scan(shape, m, q, d):
    """Full scan: grades d+1..N, front-loaded vectors first in each grade.

    Returns (excluded, witness, value, checked).
    """
    shape = tuple(sorted(shape, reverse=True))
    checked = 0
    for grade in range(d + 1, sum(shape) + 1):
        vecs = [v for v in product(*[range(n + 1) for n in shape])
                if sum(v) == grade]
        vecs.sort(key=lambda v: tuple(reversed(v)))
        for v in vecs:
            checked += 1
            value = omega(m, q, d, v)
            if value < 0:
                return True, v, value, checked
    return False, None, None, checked


def msrd_ranklist(blocks, m, q, d):
    """Rank-list distribution of an MSRD code with all column counts m.

    Keys are dim vectors in normalized block order; zero counts omitted.
    """
    ns = [n for n, _ in normalize(blocks)]
    out = {}
    for u in product(*[range(n + 1) for n in ns]):
        if not any(u):
            count = 1
        else:
            count = omega(m, q, d, u)
            for n, k in zip(ns, u):
                count *= qbinom(n, k, q)
        if count:
            out[u] = count
    return out


def sumrank_of(ranklist, N):
    out = [0] * (N + 1)
    for u, c in ranklist.items():
        out[sum(u)] += c
    return out


def lattice_size(blocks, q):
    out = 1
    for n, _ in blocks:
        out *= sum(qbinom(n, k, q) for k in range(n + 1))
    return out


# ---------------------------------------------------------------------------
# asymptotic rate curves (floats)
# ---------------------------------------------------------------------------

def _entropy_q(x, Q):
    if x == 0:
        return 0.0
    out = x * math.log(Q - 1, Q) - x * math.log(x, Q)
    if x < 1:
        out -= (1 - x) * math.log(1 - x, Q)
    return out


def _mean_rank(n, m, q):
    counts = [rank_count(n, m, s, q) for s in range(n + 1)]
    return Fraction(sum(s * c for s, c in enumerate(counts)), q ** (n * m))


def _sumrank_entropy(rho, n, m, q):
    """min over w <= 0 of log f(e^w) - rho w, solved on the derivative.

    The derivative is the mean rank under weights c_s e^{s w} minus rho; it
    increases with w, so bisection on [-40, 0] finds the minimizer.
    """
    logc = [math.log(rank_count(n, m, s, q)) for s in range(n + 1)]

    def tilted(w):
        terms = [lc + s * w for s, lc in enumerate(logc)]
        mx = max(terms)
        weights = [math.exp(t - mx) for t in terms]
        total = sum(weights)
        mean = sum(s * x for s, x in enumerate(weights)) / total
        return mean, mx + math.log(total)

    lo, hi = -40.0, 0.0
    if tilted(hi)[0] <= rho:
        w = hi
    elif tilted(lo)[0] >= rho:
        w = lo
    else:
        for _ in range(64):
            mid = (lo + hi) / 2
            if tilted(mid)[0] < rho:
                lo = mid
            else:
                hi = mid
        w = (lo + hi) / 2
    return (tilted(w)[1] - rho * w) / (n * m * math.log(q))


def asymptotic_value(name, eta, q, m, n):
    """Rate bound for equal shapes n x m over GF(q), or None off its domain."""
    if name in ("singleton", "projective-sphere-packing", "induced-singleton"):
        return 1.0 - eta
    if name == "total-distance":
        cutoff = 1.0 - 1.0 / (n * q ** m)
        return 0.0 if eta > cutoff else 1.0 - eta / cutoff
    Q = q ** m
    r = 1.0 - 1.0 / Q
    if name == "induced-hamming":
        if eta == 0:
            return 1.0
        return None if eta >= 2 * r else 1.0 - _entropy_q(eta / 2, Q)
    if name == "induced-plotkin":
        return 0.0 if eta > r else 1.0 - eta / r
    if name == "induced-elias":
        if eta == 0:
            return 1.0
        if eta >= r:
            return None
        return 1.0 - _entropy_q(r - math.sqrt(r * (r - eta)), Q)
    if name in ("sphere-packing-upper", "sphere-covering-lower"):
        eps = float(_mean_rank(n, m, q))
        if eta <= 0 or eta > eps / n + 1e-12:
            return None
        if name == "sphere-packing-upper":
            return 1.0 - _sumrank_entropy(eta * n / 2, n, m, q)
        return 1.0 - _sumrank_entropy(min(eta * n, eps), n, m, q)
    raise ValueError(f"unknown bound {name!r}")
