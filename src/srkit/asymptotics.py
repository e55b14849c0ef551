"""Asymptotic rate bounds as the number of blocks grows.

The only floating-point module in the package.  Entropy minimization is a
ternary search on log z (the objective is convex there), with the
generating function evaluated in log-sum-exp form so huge integer
coefficients never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .matq import count_matrices_of_rank

_LOG_Z_LO = -40.0
_TERNARY_TOL = 1e-12
_TERNARY_CAP = 200


def hilbert_entropy(x: float, Q: int) -> float:
    """Entropy function h_Q on [0, 1 - 1/Q]; h_Q(0) = 0.

    The right endpoint is included (the formula extends continuously and
    h_2(1/2) = 1), although some statements quote the open interval.
    """
    if Q < 2:
        raise DomainError("alphabet size must be at least 2")
    hi = 1.0 - 1.0 / Q
    if x < 0 or x > hi + 1e-15:
        raise DomainError(f"argument {x} outside [0, {hi}]")
    if x == 0:
        return 0.0
    x = min(x, hi)
    out = x * math.log(Q - 1, Q) - x * math.log(x, Q)
    if x < 1:
        out -= (1 - x) * math.log(1 - x, Q)
    return out


def asymptotic_induced(eta: float, q: int, m: int, which: str):
    """Asymptotic induced bounds on the rate; alphabet size Q = q^m."""
    if not 0 <= eta <= 1:
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    Q = q ** m
    r = 1.0 - 1.0 / Q
    if which == "singleton":
        return 1.0 - eta
    if which == "hamming":
        if eta == 0:
            return 1.0
        if eta >= 2 * r:
            raise DomainError("hamming bound needs eta/2 < 1 - Q^-1")
        return 1.0 - hilbert_entropy(eta / 2, Q)
    if which == "plotkin":
        if eta > r:
            return 0.0
        return 1.0 - eta / r
    if which == "elias":
        if eta == 0:
            return 1.0
        if eta >= r:
            raise DomainError("elias bound needs eta < 1 - Q^-1")
        return 1.0 - hilbert_entropy(r - math.sqrt(r * (r - eta)), Q)
    raise ValueError(f"unknown induced bound {which!r}")


@dataclass(frozen=True)
class AsymptoticScenario:
    """Shape sequences: finite heads followed by stabilized tails.

    m_head lists the column counts before they stabilize at m_hat; n_head
    gives the row counts at the same leading positions (padded with n_hat).
    Derived: n_star is the max row count occurring after the column counts
    have stabilized.
    """
    q: int
    m_hat: int
    n_hat: int
    m_head: tuple = ()
    n_head: tuple = ()

    def __post_init__(self):
        ms = list(self.m_head) + [self.m_hat]
        if any(ms[i] < ms[i + 1] for i in range(len(ms) - 1)):
            raise DomainError("column counts must be non-increasing")
        ns = list(self.n_head) + [self.n_hat]
        ms_full = list(self.m_head) + [self.m_hat] * max(
            1, len(self.n_head) - len(self.m_head) + 1)
        for n, m in zip(ns, ms_full):
            if n < 1 or n > m:
                raise DomainError(f"row count {n} exceeds column count {m}")

    @property
    def s(self):
        return len(self.m_head)

    @property
    def n_star(self):
        tail_heads = self.n_head[self.s:]
        return max((self.n_hat, *tail_heads), default=self.n_hat)

    @property
    def constant_tail(self):
        return all(n == self.n_hat for n in self.n_head[self.s:])


def asymptotic_singleton(eta: float) -> float:
    if not 0 <= eta <= 1:
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    return 1.0 - eta


def asymptotic_total_distance(eta: float, scenario: AsymptoticScenario) -> float:
    """1 - eta (1 - 1/(n q^m))^{-1} with n the (max) stabilized row count;
    zero beyond the cutoff."""
    if not 0 <= eta <= 1:
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    n = scenario.n_hat if scenario.constant_tail else scenario.n_star
    cutoff = 1.0 - 1.0 / (n * scenario.q ** scenario.m_hat)
    if eta > cutoff:
        return 0.0
    return 1.0 - eta / cutoff


def _rank_weights(n: int, m: int, q: int):
    return [count_matrices_of_rank(n, m, s, q) for s in range(n + 1)]


def average_rank_weight(n: int, m: int, q: int) -> Fraction:
    """Mean rank of a uniformly random n x m matrix, exact."""
    counts = _rank_weights(n, m, q)
    return Fraction(sum(s * c for s, c in enumerate(counts)), q ** (n * m))


def sumrank_entropy(rho: float, n: int, m: int, q: int) -> float:
    """H(rho) = min over z in (0,1] of log_{q^{nm}} (f(z) / z^rho).

    f is the rank generating function of a single block; the minimization
    runs over log z in [-40, 0] and the objective is evaluated in
    log-sum-exp form.
    """
    eps = average_rank_weight(n, m, q)
    if rho < 0 or rho > float(eps) + 1e-12:
        raise DomainError(f"rho must lie in [0, {float(eps)}], got {rho}")
    counts = _rank_weights(n, m, q)
    log_counts = [math.log(c) for c in counts]

    def objective(w):
        # log f(e^w) - rho * w, via log-sum-exp over the terms log c_s + s w
        terms = [lc + s * w for s, lc in enumerate(log_counts)]
        mx = max(terms)
        return mx + math.log(sum(math.exp(t - mx) for t in terms)) - rho * w

    lo, hi = _LOG_Z_LO, 0.0
    for _ in range(_TERNARY_CAP):
        if hi - lo < _TERNARY_TOL:
            break
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if objective(m1) <= objective(m2):
            hi = m2
        else:
            lo = m1
    w = (lo + hi) / 2
    return objective(w) / (n * m * math.log(q))


def asymptotic_sphere_pack_cover(eta: float, n: int, m: int, q: int):
    """(upper, lower) rate bounds from packing and covering spheres."""
    eps = average_rank_weight(n, m, q)
    if eta <= 0 or eta > float(eps) / n + 1e-12:
        raise DomainError(f"eta must lie in (0, {float(eps) / n}]")
    upper = 1.0 - sumrank_entropy(eta * n / 2, n, m, q)
    lower = 1.0 - sumrank_entropy(min(eta * n, float(eps)), n, m, q)
    return upper, lower


# ---------------------------------------------------------------------------
# series emission
# ---------------------------------------------------------------------------

BOUND_KEYS = (
    "singleton",
    "projective-sphere-packing",
    "total-distance",
    "sphere-packing-upper",
    "sphere-covering-lower",
    "induced-singleton",
    "induced-hamming",
    "induced-plotkin",
    "induced-elias",
)


def evaluate_bound(name: str, eta: float, scenario: AsymptoticScenario):
    """Value of one asymptotic bound at eta, or None outside its domain.

    The entropy-based pair requires equal block shapes (no heads); there is
    no mixed-shape sphere bound.
    """
    q, m = scenario.q, scenario.m_hat
    m_top = scenario.m_head[0] if scenario.m_head else scenario.m_hat
    try:
        # asymptotically the projection argument gives nothing beyond Singleton
        if name in ("singleton", "projective-sphere-packing"):
            return asymptotic_singleton(eta)
        if name == "total-distance":
            return asymptotic_total_distance(eta, scenario)
        if name in ("sphere-packing-upper", "sphere-covering-lower"):
            if scenario.m_head or not scenario.constant_tail:
                raise DomainError("entropy bounds need equal block shapes")
            up, low = asymptotic_sphere_pack_cover(eta, scenario.n_hat, m, q)
            return up if name == "sphere-packing-upper" else low
        if name.startswith("induced-"):
            return asymptotic_induced(eta, q, m_top, name.removeprefix("induced-"))
    except DomainError:
        return None
    raise ValueError(f"unknown bound {name!r}")


def emit_series(scenario: AsymptoticScenario, bounds, grid) -> str:
    """CSV text with columns eta,bound,value; bound-major, eta ascending."""
    lines = ["eta,bound,value"]
    for name in bounds:
        for eta in grid:
            value = evaluate_bound(name, eta, scenario)
            if value is None:
                continue
            lines.append(f"{eta:.10f},{name},{value:.10f}")
    return "\n".join(lines) + "\n"


def parse_grid(text: str):
    """a:b:step inclusive of both ends (up to rounding)."""
    try:
        a, b, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise DomainError(f"grid must be a:b:step, got {text!r}") from None
    if not all(map(math.isfinite, (a, b, step))):
        raise DomainError(f"grid ends and step must be finite, got {text!r}")
    if step <= 0:
        raise DomainError("grid step must be positive")
    out = []
    v = a
    while v <= b + 1e-12:
        out.append(round(v, 12))
        v += step
    return out


def crossover(f, g, lo: float, hi: float, tol=1e-9) -> float:
    """Abscissa where f - g changes sign on [lo, hi] (bisection)."""
    flo = f(lo) - g(lo)
    fhi = f(hi) - g(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if flo * fhi > 0:
        raise DomainError("no sign change on the interval")
    for _ in range(200):
        mid = (lo + hi) / 2
        fm = f(mid) - g(mid)
        if abs(hi - lo) < tol:
            return mid
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
