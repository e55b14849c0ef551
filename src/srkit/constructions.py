"""Constructions of optimal sum-rank metric codes.

Everything returns a LinearCode in a normalized profile.  Small outputs are
meant to be certified by msrd_check / minimum_distance; the simplex lift is
too large to enumerate and instead carries a structural certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .ambient import MatrixTuple, Profile, profile_create, unflatten
from .bounds import induced_bounds
from .code import LinearCode, code_create, codewords, dual
from .errors import BadParameters, HypothesisFailed, LengthTooLong
from .field import Field, tower_create
from .matq import Mat, linear_combination, nullspace, rank


def gabidulin_mrd(field: Field, n: int, m: int, d: int) -> LinearCode:
    """Rank-metric code of dimension m(n-d+1) and rank distance d (t = 1).

    Evaluation of q-power-linearized polynomials of q-degree < n-d+1 at the
    fixed tower basis points beta^0..beta^(n-1), expanded over the base
    field row by row.
    """
    if not (1 <= n <= m and 1 <= d <= n):
        raise BadParameters(f"need 1 <= d <= n <= m, got n={n}, m={m}, d={d}")
    tower = tower_create(field, m)
    top = tower.top
    points = tower.basis()[:n]
    profile = profile_create(field, [(n, m)])
    gens = []
    for rexp in range(n - d + 1):
        powered = [top.pow(g, field.q ** rexp) for g in points]
        for beta_l in tower.basis():
            rows = [tower.coords(top.mul(beta_l, gp)) for gp in powered]
            gens.append(MatrixTuple(profile, [Mat(field, rows)]))
    code = code_create(profile, gens)
    if code.k != m * (n - d + 1):
        raise BadParameters("evaluation points were dependent (internal error)")
    return code


def rs_mds(field: Field, length: int, distance: int) -> Mat:
    """Generator of an MDS code over the given field: [length, length-d+1, d].

    Vandermonde on the nonzero field elements (code order), extended by the
    zero point and the point at infinity at the boundary lengths.  The
    field-independent cases d = 1, d = 2 and k = 1 are built directly, so
    trivial MDS codes exist at every length.
    """
    k = length - distance + 1
    if k < 1 or distance < 1:
        raise BadParameters(f"no [{length}, {k}] code of distance {distance}")
    if distance == 1:
        return Mat.identity(field, length)
    if distance == 2:
        rows = [[1 if i == j else 0 for j in range(k)] + [1] for i in range(k)]
        return Mat(field, rows)
    if k == 1:
        return Mat(field, [[1] * length])
    if length > field.q + 1:
        raise LengthTooLong(
            f"length {length} exceeds q+1 = {field.q + 1} for distance {distance}")
    points = list(range(1, field.q)) + [0]
    rows = []
    for i in range(k):
        row = [field.pow(a, i) for a in points[:min(length, field.q)]]
        if length == field.q + 1:
            row.append(1 if i == k - 1 else 0)
        rows.append(row)
    return Mat(field, rows)


def construct_mds_lift(field: Field, m: int, t: int, d: int) -> LinearCode:
    """MSRD code in (1 x m)^t of distance d: an MDS code over GF(q^m),
    expanded through the tower coordinates."""
    if not (1 <= d <= t):
        raise BadParameters(f"need 1 <= d <= t, got d={d}, t={t}")
    tower = tower_create(field, m)
    top = tower.top
    G = rs_mds(top, t, d)
    profile = profile_create(field, [(1, m)] * t)
    gens = []
    for row in G.rows:
        for beta_l in tower.basis():
            blocks = [Mat(field, [tower.coords(top.mul(beta_l, a))]) for a in row]
            gens.append(MatrixTuple(profile, blocks))
    code = code_create(profile, gens)
    if code.k != m * (t - d + 1):
        raise BadParameters("MDS expansion lost rank (internal error)")
    return code


def _pad_rows(field: Field, mat: Mat, n_target: int) -> Mat:
    rows = list(mat.rows) + [(0,) * mat.ncols] * (n_target - mat.nrows)
    return Mat(field, rows)


def _neg_mat(field: Field, mat: Mat) -> Mat:
    return Mat(field, [[field.neg(x) for x in r] for r in mat.rows])


@dataclass(frozen=True)
class D2Result:
    code: LinearCode
    stated_dual: LinearCode | None  # the displayed dual form (equal-m case)


def construct_d2(field: Field, blocks) -> D2Result:
    """MSRD code of distance 2, any profile.

    Equal column counts: the kernel-sum construction around a rank-2 MRD
    code in the widest block, together with its displayed dual (the
    repetition code when all row counts agree).  Mixed column counts:
    intersect the equal-m code with the subspace of tuples whose trailing
    columns vanish.
    """
    blocks = [(int(n), int(m)) for n, m in blocks]
    profile = profile_create(field, blocks)
    ms = profile.ms
    if len(set(ms)) == 1:
        return _construct_d2_equal_m(field, profile)
    # mixed m: build in the widened space, keep the words whose extra
    # columns vanish, then cut those columns
    m1 = ms[0]
    wide = _construct_d2_equal_m(
        field, profile_create(field, [(n, m1) for n, _ in profile.blocks])).code
    keep, cut = [], []
    for (pos, n, _), (_, m2) in zip(wide.profile.slices, profile.blocks):
        for i in range(n):
            for b in range(m1):
                (keep if b < m2 else cut).append(pos + i * m1 + b)
    sol = nullspace(Mat(field, [[vec[c] for vec in wide._flat] for c in cut]))
    narrow = [[vec[c] for c in keep] for vec in wide._flat]
    code = code_create(profile, [
        unflatten(profile, linear_combination(coeffs, narrow, profile.dim, field))
        for coeffs in sol.basis])
    expect = sum(m * n for n, m in profile.blocks[1:]) + ms[0] * (profile.ns[0] - 1)
    if code.k != expect:
        raise BadParameters("distance-2 intersection lost rank (internal error)")
    return D2Result(code, None)


def _construct_d2_equal_m(field: Field, profile: Profile) -> D2Result:
    m = profile.ms[0]
    order = sorted(range(profile.t), key=lambda i: -profile.ns[i])
    ns_sorted = [profile.ns[i] for i in order]
    n1 = ns_sorted[0]
    inner = (gabidulin_mrd(field, n1, m, 2).basis if n1 >= 2 else [])
    gens_sorted = []
    zero_blocks = [Mat.zero(field, n, m) for n in ns_sorted]
    for a in inner:
        blocks = list(zero_blocks)
        blocks[0] = a.blocks[0]
        gens_sorted.append(blocks)
    for i in range(1, profile.t):
        n_i = ns_sorted[i]
        for r in range(n_i):
            for c in range(m):
                e = [[1 if (rr, cc) == (r, c) else 0 for cc in range(m)]
                     for rr in range(n_i)]
                blocks = list(zero_blocks)
                blocks[i] = Mat(field, e)
                blocks[0] = _neg_mat(field, _pad_rows(field, blocks[i], n1))
                gens_sorted.append(blocks)
    # dual: projections of the rank-n1 dual MRD code onto the first n_i rows
    if n1 >= 2:
        dual_inner = dual(gabidulin_mrd(field, n1, m, 2))
    else:
        one_block = profile_create(field, [(1, m)])
        dual_inner = code_create(
            one_block,
            [MatrixTuple(one_block,
                         [Mat(field, [[1 if cc == c0 else 0 for cc in range(m)]])])
             for c0 in range(m)])
    dual_gens_sorted = []
    for b in dual_inner.basis:
        top = b.blocks[0]
        dual_gens_sorted.append(
            [Mat(field, top.rows[:n]) for n in ns_sorted])
    inv = [0] * profile.t
    for newpos, old in enumerate(order):
        inv[old] = newpos
    gens = [MatrixTuple(profile, [bl[inv[i]] for i in range(profile.t)])
            for bl in gens_sorted]
    dual_gens = [MatrixTuple(profile, [bl[inv[i]] for i in range(profile.t)])
                 for bl in dual_gens_sorted]
    code = code_create(profile, gens)
    stated = code_create(profile, dual_gens)
    if code.k != m * (profile.N - 1) or stated.k != m:
        raise BadParameters("distance-2 construction lost rank (internal error)")
    return D2Result(code, stated)


def construct_dN(field: Field, blocks) -> LinearCode:
    """MSRD code of distance N: diagonal join of full-rank MRD bases."""
    profile = profile_create(field, blocks)
    ns, ms = profile.ns, profile.ms
    m_t = ms[-1]
    bases = [gabidulin_mrd(field, n, m, n).basis for n, m in profile.blocks]
    gens = [MatrixTuple(profile, [bases[i][ell].blocks[0]
                                  for i in range(profile.t)])
            for ell in range(m_t)]
    return code_create(profile, gens)


def construct_dN_minus(field: Field, blocks, alpha: int = 1) -> LinearCode:
    """MSRD code of distance N - alpha under the stated shape hypotheses.

    alpha = 1 is the worked case; larger alpha follows the same recipe and
    needs n_t >= alpha+1 and (alpha+1) m_t <= m_{t-1}.
    """
    if alpha < 1:
        raise BadParameters("alpha must be >= 1 (use construct_dN for alpha=0)")
    profile = profile_create(field, blocks)
    if profile.t < 2:
        raise HypothesisFailed("needs at least two blocks")
    ns, ms = profile.ns, profile.ms
    n_t, m_t = ns[-1], ms[-1]
    if n_t < alpha + 1 or (alpha + 1) * m_t > ms[-2]:
        raise HypothesisFailed(
            f"needs n_t >= {alpha + 1} and {(alpha + 1)}*m_t <= m_(t-1)")
    dim = (alpha + 1) * m_t
    bases = [gabidulin_mrd(field, n, m, n).basis for n, m in profile.blocks[:-1]]
    bases.append(gabidulin_mrd(field, n_t, m_t, n_t - alpha).basis)
    gens = [MatrixTuple(profile, [bases[i][ell].blocks[0]
                                  for i in range(profile.t)])
            for ell in range(dim)]
    return code_create(profile, gens)


def construct_msrd111(field: Field, inner_blocks, t2: int,
                      mds_generator: Mat | None = None) -> LinearCode:
    """Full-rank MRD blocks glued to an MDS code on t2 single-entry blocks.

    Distance sum(n_j) + t2 - m_last + 1 where m_last is the smallest inner
    column count; requires t2 >= m_last.
    """
    inner = [(int(n), int(m)) for n, m in inner_blocks]
    if not inner:
        raise BadParameters("need at least one inner block")
    inner_profile = profile_create(field, inner)
    m_last = inner_profile.ms[-1]
    if t2 < m_last:
        raise HypothesisFailed(f"needs t2 >= {m_last}")
    if mds_generator is None:
        mds_generator = rs_mds(field, t2, t2 - m_last + 1)
    if (mds_generator.nrows, mds_generator.ncols) != (m_last, t2):
        raise BadParameters(
            f"MDS generator must be {m_last} x {t2}")
    profile = profile_create(field, list(inner_profile.blocks) + [(1, 1)] * t2)
    bases = [gabidulin_mrd(field, n, m, n).basis
             for n, m in inner_profile.blocks]
    gens = []
    for i in range(m_last):
        blocks = [bases[jj][i].blocks[0] for jj in range(inner_profile.t)]
        blocks += [Mat(field, [[mds_generator.rows[i][col]]])
                   for col in range(t2)]
        gens.append(MatrixTuple(profile, blocks))
    return code_create(profile, gens)


def construct_combine(field: Field, inner_blocks, t2: int, m_hat: int) -> LinearCode:
    """Inner MRD blocks glued to an expanded MDS code over GF(q^m_hat).

    Needs m_last = m_hat * a with a <= t2; distance sum(n_j) + t2 - a + 1.
    """
    inner = [(int(n), int(m)) for n, m in inner_blocks]
    inner_profile = profile_create(field, inner)
    m_last = inner_profile.ms[-1]
    if m_last % m_hat != 0:
        raise HypothesisFailed(f"m_hat = {m_hat} must divide m_last = {m_last}")
    a = m_last // m_hat
    if a > t2:
        raise HypothesisFailed(f"needs a = {a} <= t2 = {t2}")
    if m_hat > m_last:
        raise HypothesisFailed("expanded blocks would be wider than inner ones")
    tower = tower_create(field, m_hat)
    top = tower.top
    G = rs_mds(top, t2, t2 - a + 1)
    profile = profile_create(field,
                             list(inner_profile.blocks) + [(1, m_hat)] * t2)
    bases = [gabidulin_mrd(field, n, m, n).basis
             for n, m in inner_profile.blocks]
    expanded = []
    for row in G.rows:
        for beta_l in tower.basis():
            expanded.append([Mat(field, [tower.coords(top.mul(beta_l, x))])
                             for x in row])
    gens = []
    for i in range(m_last):
        blocks = [bases[jj][i].blocks[0] for jj in range(inner_profile.t)]
        blocks += expanded[i]
        gens.append(MatrixTuple(profile, blocks))
    return code_create(profile, gens)


def construct_msrd111_ext(field: Field, m: int, s: int) -> LinearCode:
    """MSRD code of distance s+2 in (1 x m)^(s+1) + (1 x 1)^(m+1).

    Needs m >= 2 and s <= m + C(m,2) + 1; the distinct index pairs feeding
    the repeated-sum rows are chosen in lexicographic order.
    """
    if m < 2:
        raise HypothesisFailed("needs m >= 2")
    if s < 1 or s > m + m * (m - 1) // 2 + 1:
        raise HypothesisFailed(f"needs 1 <= s <= m + C(m,2) + 1 = "
                               f"{m + m * (m - 1) // 2 + 1}")
    profile = profile_create(field, [(1, m)] * (s + 1) + [(1, 1)] * (m + 1))

    def unit_row(j):
        return Mat(field, [[1 if c == j else 0 for c in range(m)]])

    def one_by_one(v):
        return Mat(field, [[v]])

    A = [unit_row(j) for j in range(m)]
    gens = []
    for j in range(m):
        blocks = [A[0]] + [A[j]] * s
        blocks += [one_by_one(1 if pos == j else 0) for pos in range(m + 1)]
        gens.append(MatrixTuple(profile, blocks))
    # the extra generator: leading row e_2, then all of A, then the pair sums
    if s <= m:
        middle = A[:s]
    else:
        n_pairs = max(s - m - 1, 1)
        pairs = list(combinations(range(m), 2))[:n_pairs]
        B = [Mat(field, [[field.add(x, y) for x, y in
                          zip(A[a0].rows[0], A[b0].rows[0])]])
             for a0, b0 in pairs]
        slots = [B[0]] * (2 if s - m >= 2 else 1) + B[1:]
        middle = A + slots
    blocks = [A[1]] + middle
    blocks += [one_by_one(1 if pos == m else 0) for pos in range(m + 1)]
    gens.append(MatrixTuple(profile, blocks))
    return code_create(profile, gens)


# ---------------------------------------------------------------------------
# lifting construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftResult:
    code: LinearCode
    distance_lower_bound: int


def construct_lifting(field: Field, blocks, deltas, h: int,
                      outer_generators, outer_distance: int) -> LiftResult:
    """Lift an F_q-linear Hamming-metric code over GF(q^h) blockwise through
    rank-distance-delta_i MRD codes.

    outer_generators: an F_q-basis of the outer code, each row a length-t
    tuple of GF(q^h) codes.  The lifted code has the same F_q-dimension and
    sum-rank distance at least the sum of the outer_distance smallest deltas.
    """
    blocks = [(int(n), int(m)) for n, m in blocks]
    profile = profile_create(field, blocks)
    deltas = profile.from_user_order([int(x) for x in deltas])
    if len(deltas) != profile.t:
        raise BadParameters("one delta per block required")
    for (n, m), delta in zip(profile.blocks, deltas):
        if not 1 <= delta <= n:
            raise HypothesisFailed(f"delta = {delta} outside [1, {n}]")
        if h > m * (n - delta + 1):
            raise HypothesisFailed(
                f"h = {h} exceeds the inner code dimension {m * (n - delta + 1)}")
    tower = tower_create(field, h)
    # inner[i]: flat rows of the first h basis elements of block i's MRD code
    mrd = {}
    inner = []
    for (n, m), delta in zip(profile.blocks, deltas):
        if (n, m, delta) not in mrd:
            mrd[(n, m, delta)] = gabidulin_mrd(field, n, m, delta)._flat[:h]
        inner.append(mrd[(n, m, delta)])

    gens = []
    for word in outer_generators:
        if len(word) != profile.t:
            raise BadParameters("outer words must have one symbol per block")
        word = profile.from_user_order(list(word))
        vec = []
        for (_, n, m), rows, a in zip(profile.slices, inner, word):
            vec += linear_combination(tower.coords(a), rows, n * m, field)
        gens.append(unflatten(profile, vec))
    code = code_create(profile, gens)
    if code.k != len(gens):
        raise BadParameters("outer generators were dependent over F_q")
    bound = sum(sorted(deltas)[:outer_distance])
    return LiftResult(code, bound)


@dataclass(frozen=True)
class SimplexLiftCertificate:
    """Structural certificate for a simplex lift: the outer simplex code has
    constant weight, the inner images have constant rank, so the sum-rank
    weight of every nonzero word is known without enumeration."""
    t: int
    dim: int
    size: int
    sumrank: int
    induced_plotkin: int
    meets_plotkin: bool
    inner_rank_checked: bool
    columns_distinct: bool


def simplex_lift(field: Field, m: int, n: int, r: int):
    """Lift the dimension-r simplex code over GF(q^m) through [n x m; n] MRD
    blocks; meets the induced Plotkin bound with equality."""
    if not 1 <= n <= m:
        raise BadParameters("needs 1 <= n <= m")
    tower = tower_create(field, m)
    top = tower.top
    Q = top.q
    # columns: all projective points of PG(r-1, q^m), leading-one normalized
    cols = []
    for lead in range(r):
        tail = r - lead - 1
        count = Q ** tail
        for idx in range(count):
            v = [0] * lead + [1]
            rest = idx
            for _ in range(tail):
                v.append(rest % Q)
                rest //= Q
            cols.append(tuple(v))
    t = len(cols)
    assert t == (Q ** r - 1) // (Q - 1)
    outer = []
    for i in range(r):
        for beta_l in tower.basis():
            outer.append(tuple(top.mul(beta_l, c[i]) for c in cols))
    delta = Q ** (r - 1)  # every nonzero simplex word has this weight
    result = construct_lifting(field, [(n, m)] * t, [n] * t, m,
                               outer, delta)
    code = result.code
    # structural checks replacing enumeration
    columns_distinct = len(set(cols)) == t
    inner = gabidulin_mrd(field, n, m, n)
    inner_rank_checked = all(
        rank(w.blocks[0]) == n
        for w in codewords(inner) if not w.is_zero())
    weight = n * delta
    ip = induced_bounds(code.profile, weight)["plotkin"]
    cert = SimplexLiftCertificate(
        t=t, dim=code.k, size=code.size(), sumrank=weight,
        induced_plotkin=ip, meets_plotkin=(ip == code.size()),
        inner_rank_checked=inner_rank_checked,
        columns_distinct=columns_distinct)
    return code, cert
