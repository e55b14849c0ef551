"""Asymptotic rate bounds as the number of blocks grows.

The only floating-point module in the package.  The entropy H(rho) behind
the sphere curves is a convex minimum over w = log z in [-40, 0], solved by
safeguarded Newton (bisection backs up any step that leaves the bracket) on
log-sum-exp sums, so huge integer coefficients never overflow; H = 1
exactly at the w = 0 end.  `emit_series` solves each sphere curve in one
pass: the distinct rho values its requested sides read, ascending, each
Newton run starting at the previous minimizer and reusing the tilt computed
there, so no two tilts in a row share a w.  Only per-shape constants are
cached across calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .guard import BOUND_KEYS
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
    return _entropy(Q)(x)


def _entropy(Q):
    """x -> h_Q(x), with 1 - 1/Q and log_Q(Q - 1) computed once; Q >= 2."""
    hi = 1.0 - 1.0 / Q
    slope = math.log(Q - 1, Q)

    def value(x):
        if x < 0 or x > hi + 1e-15:
            raise DomainError(f"argument {x} outside [0, {hi}]")
        if x == 0:
            return 0.0
        x = min(x, hi)
        out = x * slope - x * math.log(x, Q)
        if x < 1:
            out -= (1 - x) * math.log(1 - x, Q)
        return out
    return value


def asymptotic_induced(eta: float, q: int, m: int, which: str):
    """Asymptotic induced bounds on the rate; alphabet size Q = q^m."""
    return _induced(q, m, which)(eta)


def _induced(q, m, which):
    """eta -> `asymptotic_induced`(eta, q, m, which), with Q = q^m, 1 - 1/Q
    and h_Q's constants computed once per curve."""
    if which == "singleton":
        return asymptotic_singleton
    Q = q ** m
    r = 1.0 - 1.0 / Q
    # h is read only where eta > 0 passes the checks, so only when Q >= 2
    h = _entropy(Q) if Q >= 2 else None

    def value(eta):
        if not 0 <= eta <= 1:
            raise DomainError(f"eta must lie in [0, 1], got {eta}")
        if which == "hamming":
            if eta == 0:
                return 1.0
            if eta >= 2 * r:
                raise DomainError("hamming bound needs eta/2 < 1 - Q^-1")
            return 1.0 - h(eta / 2)
        if which == "plotkin":
            if eta > r:
                return 0.0
            return 1.0 - eta / r
        if which == "elias":
            if eta == 0:
                return 1.0
            if eta >= r:
                raise DomainError("elias bound needs eta < 1 - Q^-1")
            return 1.0 - h(r - math.sqrt(r * (r - eta)))
        raise ValueError(f"unknown induced bound {which!r}")
    return value


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
    return _total_distance(scenario)(eta)


def _total_distance(scenario):
    # n_star is n_hat when the tail is constant
    cutoff = 1.0 - 1.0 / (scenario.n_star * scenario.q ** scenario.m_hat)

    def value(eta):
        if not 0 <= eta <= 1:
            raise DomainError(f"eta must lie in [0, 1], got {eta}")
        if eta > cutoff:
            return 0.0
        return 1.0 - eta / cutoff
    return value


@lru_cache(maxsize=None)
def average_rank_weight(n: int, m: int, q: int) -> Fraction:
    """Mean rank of a uniformly random n x m matrix, exact."""
    total = sum(s * count_matrices_of_rank(n, m, s, q) for s in range(n + 1))
    return Fraction(total, q ** (n * m))


@lru_cache(maxsize=None)
def _shape(n, m, q):
    """Per-shape constants of the entropy solve: the average rank eps as a
    float, log c_s for s = 0..n (c_s the n x m matrices of rank s) and
    log q^{nm}."""
    log_counts = tuple(math.log(count_matrices_of_rank(n, m, s, q))
                       for s in range(n + 1))
    return float(average_rank_weight(n, m, q)), log_counts, n * m * math.log(q)


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
    and H = log_{q^{nm}} f(1) = 1 exactly.  Otherwise Newton runs from
    w = -40, as the one-rho call of `_entropies`.
    """
    return _entropies((rho,), n, m, q)[rho]


def _entropies(rhos, n, m, q):
    """{rho: H(rho)} over the distinct rhos, solved in one ascending pass.

    The minimizer grows with rho, so each Newton run starts at the previous
    rho's minimizer (the first at w = -40) inside the bracket [-40, 0],
    and reuses the tilt the previous run stopped on there.
    Newton works on the logit log(E_w[s] / (n - E_w[s])) = log(rho / (n -
    rho)), which is close to linear in w at both ends; a step that leaves
    the current bracket is replaced by the plain Newton step on g', and by
    bisection if that leaves too.  A run stops at the clamp or once
    g'^2 / (2 g'') is below _H_TOL in units of H.  H is capped at 1.
    """
    eps, log_counts, scale = _shape(n, m, q)
    table = {}
    w = _LOG_Z_LO
    tilted = None  # (w, _tilt at w) of the last tilt
    for rho in sorted(set(rhos)):
        if rho < 0 or rho > eps + 1e-12:
            raise DomainError(f"rho must lie in [0, {eps}], got {rho}")
        if rho >= eps:
            table[rho] = 1.0
            continue
        lo, hi = _LOG_Z_LO, 0.0
        for _ in range(_NEWTON_CAP):
            if tilted is None or tilted[0] != w:
                tilted = w, _tilt(log_counts, w)
            log_f, mean, rest, var = tilted[1]
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
        table[rho] = min(1.0, g / scale)
    return table


_SPHERE_PAIR = ("sphere-packing-upper", "sphere-covering-lower")


def _sphere_rho(name: str, eta: float, n: int, eps: float) -> float:
    """The rho one side of the sphere pair reads at eta: eta n / 2 for
    packing, min(eta n, eps) for covering."""
    if eta <= 0 or eta > eps / n + 1e-12:
        raise DomainError(f"eta must lie in (0, {eps / n}]")
    return eta * n / 2 if name == "sphere-packing-upper" else min(eta * n, eps)


def _sphere_bound(name: str, n: int, m: int, q: int):
    """eta -> one side of the sphere pair, 1 - H(_sphere_rho(eta)), H
    solved cold."""
    eps = _shape(n, m, q)[0]
    return lambda eta: 1.0 - sumrank_entropy(
        _sphere_rho(name, eta, n, eps), n, m, q)


def asymptotic_sphere_pack_cover(eta: float, n: int, m: int, q: int):
    """(upper, lower) rate bounds from packing and covering spheres."""
    return tuple(_sphere_bound(name, n, m, q)(eta) for name in _SPHERE_PAIR)


# ---------------------------------------------------------------------------
# series emission
# ---------------------------------------------------------------------------

def _sphere_shape(scenario: AsymptoticScenario):
    """(n, m, q) of the one block shape the entropy pair needs."""
    if scenario.m_head or not scenario.constant_tail:
        raise DomainError("entropy bounds need equal block shapes")
    return scenario.n_hat, scenario.m_hat, scenario.q


def _bound(name: str, scenario: AsymptoticScenario):
    """eta -> one asymptotic bound; DomainError outside its domain.

    The entropy-based pair requires equal block shapes (no heads); there is
    no mixed-shape sphere bound.
    """
    if name not in BOUND_KEYS:
        raise ValueError(f"unknown bound {name!r}")
    # asymptotically the projection argument gives nothing beyond Singleton
    if name in ("singleton", "projective-sphere-packing"):
        return asymptotic_singleton
    if name == "total-distance":
        return _total_distance(scenario)
    if name in _SPHERE_PAIR:
        return _sphere_bound(name, *_sphere_shape(scenario))
    m_top = scenario.m_head[0] if scenario.m_head else scenario.m_hat
    return _induced(scenario.q, m_top, name.removeprefix("induced-"))


def evaluate_bound(name: str, eta: float, scenario: AsymptoticScenario):
    """Value of one asymptotic bound at eta, or None outside its domain.

    A sphere bound is solved cold, for this eta alone.
    """
    try:
        return _bound(name, scenario)(eta)
    except DomainError:
        return None


def _series_entropies(scenario, bounds, grid):
    """{side: {eta: H(rho)}} for the requested sphere sides, each eta of the
    grid in the side's domain, its rho computed once and H from one
    `_entropies` pass; {} when no side is requested or the shapes differ."""
    sides = [name for name in _SPHERE_PAIR if name in bounds]
    if not sides:
        return {}
    try:
        n, m, q = _sphere_shape(scenario)
    except DomainError:
        return {}
    eps = _shape(n, m, q)[0]
    rhos = {name: {} for name in sides}
    for name, at in rhos.items():
        for eta in grid:
            try:
                at[eta] = _sphere_rho(name, eta, n, eps)
            except DomainError:
                pass
    table = _entropies([rho for at in rhos.values() for rho in at.values()],
                       n, m, q)
    return {name: {eta: table[rho] for eta, rho in at.items()}
            for name, at in rhos.items()}


def emit_series(scenario: AsymptoticScenario, bounds, grid) -> str:
    """CSV text with columns eta,bound,value; bound-major, eta ascending.

    Every value equals `evaluate_bound`'s, byte for byte once formatted;
    the sphere sides read H from one warm-started `_entropies` pass.
    """
    sphere = _series_entropies(scenario, bounds, grid)
    etas = [(eta, f"{eta:.10f}") for eta in grid]
    lines = ["eta,bound,value"]
    for name in bounds:
        if name in sphere:
            at = sphere[name]
            lines += [f"{eta_text},{name},{1.0 - at[eta]:.10f}"
                      for eta, eta_text in etas if eta in at]
            continue
        try:
            value_at = _bound(name, scenario)
        except DomainError:
            continue
        for eta, eta_text in etas:
            try:
                value = value_at(eta)
            except DomainError:
                continue
            lines.append(f"{eta_text},{name},{value:.10f}")
    return "\n".join(lines) + "\n"


def parse_grid(text: str):
    """a:b:step inclusive of both ends (up to rounding).

    Each number is spelled in ASCII with no space or '_', so a grid reads
    the same to `float` as to a reader.
    """
    parts = text.split(":")
    try:
        if not all(x.isascii() and x == x.strip() and "_" not in x
                   for x in parts):
            raise ValueError
        a, b, step = map(float, parts)
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
