"""Asymptotic rate bounds as the number of blocks grows.

The only floating-point module in the package.  The entropy H(rho) behind
the sphere curves is a convex minimum over w = log z in [-40, 0], solved by
safeguarded Newton (bisection backs up any step that leaves the bracket) on
log-sum-exp sums, so huge integer coefficients never overflow; H = 1
exactly at the w = 0 end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .matq import count_matrices_of_rank

_LOG_Z_LO = -40.0
# stop once the quadratic model puts H within this of its minimum
_H_TOL = 1e-16
_NEWTON_CAP = 100


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
    if which == "singleton":
        return asymptotic_singleton(eta)
    if not 0 <= eta <= 1:
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    Q = q ** m
    r = 1.0 - 1.0 / Q
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


@lru_cache(maxsize=None)
def average_rank_weight(n: int, m: int, q: int) -> Fraction:
    """Mean rank of a uniformly random n x m matrix, exact."""
    total = sum(s * count_matrices_of_rank(n, m, s, q) for s in range(n + 1))
    return Fraction(total, q ** (n * m))


def _tilt(log_counts, w):
    """(log f(e^w), E[s], n - E[s], Var[s]) for s ~ c_s e^{sw}, in one
    log-sum-exp pass."""
    n = len(log_counts) - 1
    terms = [lc + s * w for s, lc in enumerate(log_counts)]
    mx = max(terms)
    weights = [math.exp(t - mx) for t in terms]
    total = sum(weights)
    mean = sum(s * x for s, x in enumerate(weights)) / total
    rest = sum((n - s) * x for s, x in enumerate(weights)) / total
    var = sum((s - mean) ** 2 * x for s, x in enumerate(weights)) / total
    return mx + math.log(total), mean, rest, var


def sumrank_entropy(rho: float, n: int, m: int, q: int) -> float:
    """H(rho) = min over z in (0,1] of log_{q^{nm}} (f(z) / z^rho).

    f is the rank generating function of a single block.  In w = log z the
    objective g(w) = log f(e^w) - rho w has g'(w) = E_w[s] - rho and
    g''(w) = Var_w[s] >= 0 for s ~ c_s e^{sw}, and w is clamped to
    [-40, 0].  If g'(0) = eps - rho <= 0 (eps the average rank), w = 0
    and H = log_{q^{nm}} f(1) = 1 exactly.  Otherwise Newton runs from w = -40
    on the logit log(E_w[s] / (n - E_w[s])) = log(rho / (n - rho)), which
    is close to linear in w at both ends; a step that leaves the current
    bracket is replaced by the plain Newton step on g', and by bisection if
    that leaves too.  It stops at the clamp or once g'^2 / (2 g'') is below
    _H_TOL in units of H.  H is capped at 1.
    """
    eps = float(average_rank_weight(n, m, q))
    if rho < 0 or rho > eps + 1e-12:
        raise DomainError(f"rho must lie in [0, {eps}], got {rho}")
    if rho >= eps:
        return 1.0
    log_counts = [math.log(count_matrices_of_rank(n, m, s, q))
                  for s in range(n + 1)]
    scale = n * m * math.log(q)
    lo, hi, w = _LOG_Z_LO, 0.0, _LOG_Z_LO
    for _ in range(_NEWTON_CAP):
        log_f, mean, rest, var = _tilt(log_counts, w)
        g = log_f - rho * w
        if mean >= rho:
            hi = w
        else:
            lo = w
        if hi == _LOG_Z_LO or (mean - rho) ** 2 <= 2 * var * _H_TOL * scale:
            break
        steps = ()
        if var > 0:  # mass on two ranks at least, so mean > 0 and rest > 0
            logit = math.log(rho / (n - rho)) - math.log(mean / rest)
            steps = (logit * mean * rest / (n * var), (rho - mean) / var)
        w = next((w + d for d in steps if lo < w + d < hi), (lo + hi) / 2)
    return min(1.0, g / scale)


_SPHERE_PAIR = ("sphere-packing-upper", "sphere-covering-lower")


def _sphere_bound(name: str, eta: float, n: int, m: int, q: int) -> float:
    """One side of the sphere pair: 1 - H(eta n / 2) for packing, and
    1 - H(min(eta n, eps)) for covering."""
    eps = float(average_rank_weight(n, m, q))
    if eta <= 0 or eta > eps / n + 1e-12:
        raise DomainError(f"eta must lie in (0, {eps / n}]")
    rho = eta * n / 2 if name == "sphere-packing-upper" else min(eta * n, eps)
    return 1.0 - sumrank_entropy(rho, n, m, q)


def asymptotic_sphere_pack_cover(eta: float, n: int, m: int, q: int):
    """(upper, lower) rate bounds from packing and covering spheres."""
    return tuple(_sphere_bound(name, eta, n, m, q) for name in _SPHERE_PAIR)


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
        if name in _SPHERE_PAIR:
            if scenario.m_head or not scenario.constant_tail:
                raise DomainError("entropy bounds need equal block shapes")
            return _sphere_bound(name, eta, scenario.n_hat, m, q)
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
    if a > b:
        raise DomainError(f"grid start {a} exceeds its end {b}")
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
