"""Cardinality bounds for sum-rank metric codes, exact over big integers.

Floors are applied exactly where the source formulas apply them; every
intermediate value is an integer, so a ratio is floored as a // b.
``None`` stands for "not applicable" (the bound's hypothesis fails at these
parameters).  A table over every d on one profile reads its sphere volumes
from the cumulative spectrum `ambient.sphere_volume` keeps on that profile,
and builds no profile for the projective bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .ambient import Profile, sphere_volume
from .code import singleton_decomposition, singleton_exponent
from .errors import BadDistance, HypothesisFailed
from .matq import count_matrices_of_rank

# the six bound families the comparison tables rank against each other
TABLE_BOUNDS = (
    "singleton",
    "induced-plotkin",
    "induced-elias",
    "sphere-packing",
    "projective-sphere-packing",
    "total-distance",
)


def _check_d(profile: Profile, d: int):
    if not 1 <= d <= profile.N:
        raise BadDistance(f"distance must lie in [1, {profile.N}], got {d}")


def _hamming_volume(N: int, w: int, Q: int) -> int:
    return sum(comb(N, i) * (Q - 1) ** i for i in range(w + 1))


def induced_bounds(profile: Profile, d: int) -> dict:
    """Singleton / Hamming / Plotkin / Elias bounds through the length-N
    Hamming-metric picture over the alphabet of size q^m, m = max column count."""
    _check_d(profile, d)
    q = profile.field.q
    N = profile.N
    m = max(profile.ms)
    Q = q ** m

    singleton = Q ** (N - d + 1)

    r = (d - 1) // 2
    hamming = Q ** N // _hamming_volume(N, r, Q)

    plotkin = None
    if Q * d > (Q - 1) * N:
        plotkin = (Q * d) // (Q * d - (Q - 1) * N)

    elias = None
    wmax = (N * (Q - 1)) // Q
    total = Q ** N
    volume, shell = 1, 1  # V_w and its top term, updated incrementally
    for w in range(wmax + 1):
        if w > 0:
            shell = shell * (N - w + 1) * (Q - 1) // w
            volume += shell
        den = Q * w * w - 2 * N * w * (Q - 1) + (Q - 1) * N * d
        if den <= 0:
            continue
        value = (N * d * (Q - 1) * total) // (den * volume)
        if elias is None or value < elias:
            elias = value

    return {"singleton": singleton, "hamming": hamming,
            "plotkin": plotkin, "elias": elias}


def singleton_bound(profile: Profile, d: int):
    """(value, j, delta); the maximizing projection is folded into (j, delta)."""
    _check_d(profile, d)
    expo, j, delta = singleton_exponent(profile, d)
    return profile.field.q ** expo, j, delta


def sphere_packing_bound(profile: Profile, d: int) -> int:
    _check_d(profile, d)
    r = (d - 1) // 2
    return profile.size() // sphere_volume(profile, r)


def projective_sphere_packing_bound(profile: Profile, d: int) -> int:
    """Sphere packing at radius 1 after projecting the first d-3 rows away."""
    _check_d(profile, d)
    if d < 3:
        raise BadDistance("the projective bound needs d >= 3")
    ns, ms = profile.ns, profile.ms
    # d-3 = n_1+...+n_ell + delta with 0 <= delta < n_{ell+1}: the Singleton
    # decomposition of d-2, which exists because d <= N, so ell = j-1
    # leaves at least one block
    j, delta = singleton_decomposition(ns, d - 2)
    ell = j - 1
    # delta < n_{ell+1}, so every block keeps a row; the reduced space has
    # q^(sum n m) tuples and 1 + sum_i #{rank-1 n_i x m_i} of weight <= 1
    q = profile.field.q
    reduced = [(ns[ell] - delta, ms[ell])] + list(profile.blocks[ell + 1:])
    size = q ** sum(n * m for n, m in reduced)
    return size // (1 + sum(count_matrices_of_rank(n, m, 1, q)
                            for n, m in reduced))


def total_distance_bound(profile: Profile, d: int):
    """floor((d-N+t)/(d-N+Q)) when d > N - Q; None otherwise.

    Q = sum_i q^-m_i = A / q^m_max with A = sum_i q^(m_max - m_i), so the
    bound is floor((d-N+t) q^m_max / ((d-N) q^m_max + A)), in integers.
    """
    _check_d(profile, d)
    N, t, q, ms = profile.N, profile.t, profile.field.q, profile.ms
    top = q ** ms[0]  # ms is non-increasing
    den = (d - N) * top + sum(q ** (ms[0] - m) for m in ms)
    if den <= 0:
        return None
    return (d - N + t) * top // den


def block_count_bound(N: int, d: int, m: int, q: int, cardinality: int) -> int:
    """Max block count t for any code with |C| > q^m."""
    if cardinality <= q ** m:
        raise HypothesisFailed("requires |C| > q^m")
    return (N - d) * q ** m * (cardinality - 1) // (cardinality - q ** m)


def sphere_covering_dimension(profile: Profile, d: int) -> int:
    """Smallest k with q^k >= ceil(|Pi| / V_{d-1}); such a linear code exists."""
    _check_d(profile, d)
    vol = sphere_volume(profile, d - 1)
    target = -(-profile.size() // vol)  # ceiling, >= 2 since d - 1 < N
    return linear_version(target - 1, profile.field.q) + 1


@dataclass(frozen=True)
class MsrdBlockCountBound:
    """Upper bounds on the block count of an equal-shape MSRD code."""
    tight: int          # floor-evaluated first formula
    relaxed: int        # the weaker displayed simplification
    d_le_n_plus_2: int | None   # extra simplification when d <= n+2
    q_cap: int | None   # "t <= q" style cap when n = m >= 2 and d <= n+2


def msrd_block_count_bound(n: int, m: int, q: int, d: int) -> MsrdBlockCountBound:
    if d < 3:
        raise BadDistance("the MSRD block-count bound needs d >= 3")
    if n > m:
        raise HypothesisFailed("requires n <= m")
    ell = (d - 3) // n
    expo = n * ell + n - d + 3
    tight = ell + (q ** n - q ** expo + (q - 1) * (q ** m + 1)) // (q ** n - 1)
    relaxed = ell + 1 + (q ** m * (q - 1)) // (q ** n - 1)
    small_d = None
    q_cap = None
    if d <= n + 2:
        small_d = (q ** n - q ** (n - d + 3) + (q - 1) * (q ** m + 1)) // (q ** n - 1)
        if n == m:
            q_cap = q if n >= 2 else q + 1
    return MsrdBlockCountBound(tight, relaxed, small_d, q_cap)


@dataclass(frozen=True)
class BoundReport:
    profile: Profile
    d: int
    entries: dict          # name -> value or None, for the six table bounds
    linear: dict           # name -> floor(log_q value) or None
    best: frozenset        # names of minimal applicable table bounds
    induced: dict          # all four induced bounds (singleton/hamming/plotkin/elias)


def linear_version(value, q: int):
    """floor(log_q value) via exact comparison with powers of q."""
    if value is None:
        return None
    k, power = 0, 1
    while power * q <= value:
        power *= q
        k += 1
    return k


def bound_report(profile: Profile, d: int) -> BoundReport:
    _check_d(profile, d)
    ind = induced_bounds(profile, d)
    entries = {
        "singleton": singleton_bound(profile, d)[0],
        "induced-plotkin": ind["plotkin"],
        "induced-elias": ind["elias"],
        "sphere-packing": sphere_packing_bound(profile, d),
        "projective-sphere-packing":
            projective_sphere_packing_bound(profile, d) if d >= 3 else None,
        "total-distance": total_distance_bound(profile, d),
    }
    q = profile.field.q
    linear = {name: linear_version(v, q) for name, v in entries.items()}
    applicable = {name: v for name, v in entries.items() if v is not None}
    smallest = min(applicable.values())
    best = frozenset(name for name, v in applicable.items() if v == smallest)
    return BoundReport(profile, d, entries, linear, best, ind)
