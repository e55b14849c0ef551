import math

import pytest

from conftest import oracle_entropy, oracle_rank_counts
import srkit.asymptotics as asymptotics
from srkit.asymptotics import (
    BOUND_KEYS,
    AsymptoticScenario,
    asymptotic_induced,
    asymptotic_singleton,
    asymptotic_sphere_pack_cover,
    asymptotic_total_distance,
    average_rank_weight,
    crossover,
    emit_series,
    evaluate_bound,
    hilbert_entropy,
    parse_grid,
    sumrank_entropy,
)
from srkit.errors import DomainError

SC_WIDE = AsymptoticScenario(q=2, m_hat=4, n_hat=2)   # blocks 2 x 4
SC_SQUARE = AsymptoticScenario(q=2, m_hat=4, n_hat=4)  # blocks 4 x 4


class TestHilbertEntropy:
    def test_zero(self):
        assert hilbert_entropy(0.0, 16) == 0.0

    def test_binary_midpoint(self):
        assert abs(hilbert_entropy(0.5, 2) - 1.0) < 1e-12

    def test_monotone_on_grid(self):
        values = [hilbert_entropy(x / 100, 4) for x in range(0, 75)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            hilbert_entropy(-0.1, 2)
        with pytest.raises(DomainError):
            hilbert_entropy(0.6, 2)


class TestInduced:
    def test_singleton_line(self):
        assert asymptotic_induced(0.3, 2, 4, "singleton") == 0.7

    def test_singleton_is_the_singleton_bound(self):
        for eta in (0.0, 0.3, 1.0):
            assert asymptotic_induced(eta, 2, 4, "singleton") == \
                asymptotic_singleton(eta)
        for eta in (-0.1, 1.1):
            with pytest.raises(DomainError):
                asymptotic_induced(eta, 2, 4, "singleton")

    def test_plotkin_zero_at_cutoff(self):
        r = 1 - 2.0 ** -4
        assert abs(asymptotic_induced(r, 2, 4, "plotkin")) < 1e-12
        assert asymptotic_induced(r + 0.01, 2, 4, "plotkin") == 0.0

    def test_elias_limit_at_zero(self):
        assert asymptotic_induced(0.0, 2, 4, "elias") == 1.0
        small = asymptotic_induced(1e-9, 2, 4, "elias")
        assert abs(small - 1.0) < 1e-3

    def test_values_in_unit_interval(self):
        for which in ("singleton", "hamming", "plotkin", "elias"):
            for eta in [0.05 * i for i in range(19)]:
                try:
                    v = asymptotic_induced(eta, 2, 4, which)
                except DomainError:
                    continue
                assert -1e-12 <= v <= 1 + 1e-12


class TestTotalDistance:
    def test_wide_blocks_midpoint(self):
        assert abs(asymptotic_total_distance(0.5, SC_WIDE)
                   - 0.4838709677) < 1e-9

    def test_eta_zero(self):
        assert asymptotic_total_distance(0.0, SC_WIDE) == 1.0

    def test_zero_region(self):
        cutoff = 1 - 1 / (2 * 2 ** 4)
        assert asymptotic_total_distance(cutoff + 1e-6, SC_WIDE) == 0.0

    def test_below_singleton_everywhere(self):
        for eta in [0.05 * i for i in range(21)]:
            assert asymptotic_total_distance(eta, SC_WIDE) <= \
                asymptotic_singleton(eta) + 1e-12

    def test_varying_tail_uses_max_row_count(self):
        sc = AsymptoticScenario(q=2, m_hat=2, n_hat=1, m_head=(4,),
                                n_head=(2, 2))
        # tail rows alternate in general; the bound is driven by n_star = 2
        assert sc.n_star == 2
        cutoff = 1 - 1 / (2 * 4)
        assert asymptotic_total_distance(cutoff + 1e-9, sc) == 0.0
        assert asymptotic_total_distance(0.5, sc) == 1 - 0.5 / cutoff


class TestSingletonFamily:
    def test_endpoints(self):
        assert asymptotic_singleton(0.0) == 1.0
        assert asymptotic_singleton(1.0) == 0.0
        assert asymptotic_singleton(0.65) == pytest.approx(0.35)

    def test_projective_agrees(self):
        for eta in (0.0, 0.3, 0.9):
            assert evaluate_bound("projective-sphere-packing", eta,
                                  SC_WIDE) == asymptotic_singleton(eta)


class TestSumRankEntropy:
    def test_limit_at_zero(self):
        assert sumrank_entropy(0.0, 2, 4, 2) < 1e-12

    def test_plot_coordinates(self):
        assert abs(1 - sumrank_entropy(2 * 0.1 / 2, 2, 4, 2)
                   - 0.8725241256) < 1e-6
        assert abs(1 - sumrank_entropy(4 * 0.3 / 2, 4, 4, 2)
                   - 0.6380276462) < 1e-6

    def test_average_weight_is_the_right_endpoint(self):
        eps = average_rank_weight(2, 4, 2)
        assert eps == pytest.approx(465 / 256)
        assert abs(sumrank_entropy(float(eps), 2, 4, 2) - 1.0) < 1e-9
        with pytest.raises(DomainError):
            sumrank_entropy(float(eps) + 0.01, 2, 4, 2)

    def test_objective_convex_in_log_z(self):
        # sampled second differences of the inner objective
        counts = [1, 45, 210]
        rho = 0.7

        def g(w):
            terms = [math.log(c) + s * w for s, c in enumerate(counts)]
            mx = max(terms)
            return mx + math.log(sum(math.exp(t - mx) for t in terms)) - rho * w

        ws = [-20 + 0.25 * i for i in range(80)]
        second = [g(ws[i - 1]) - 2 * g(ws[i]) + g(ws[i + 1])
                  for i in range(1, len(ws) - 1)]
        assert all(s >= -1e-9 for s in second)


ENTROPY_QS = (2, 3, 4, 5, 16, 65536)
SQUARE_OR_WIDE = [(n, m) for m in range(1, 5) for n in range(1, m + 1)]


def _sweep_rhos(n, m, q):
    """rho at 0, on both sides of the w = -40 clamp, inside, and at eps."""
    eps = float(average_rank_weight(n, m, q))
    # E_w[s] at w = -40, to first order in e^-40
    clamp = oracle_rank_counts(n, m, q)[1] * math.exp(-40)
    rhos = [0.0, clamp / 2, clamp * 2, 1e-9]
    rhos += [eps * i / 9 for i in range(1, 9)]
    rhos += [eps * (1 - 1e-12), eps]
    return [rho for rho in rhos if rho <= eps]


class TestEntropySolve:
    @pytest.mark.parametrize("q", ENTROPY_QS)
    def test_matches_bisection_oracle(self, q):
        for n, m in SQUARE_OR_WIDE:
            for rho in _sweep_rhos(n, m, q):
                got = sumrank_entropy(rho, n, m, q)
                assert abs(got - oracle_entropy(rho, n, m, q)) <= 1e-12, \
                    (rho, n, m, q)
                assert 0.0 <= got <= 1.0

    @pytest.mark.parametrize("q", ENTROPY_QS)
    def test_average_rank_gives_exactly_one(self, q):
        for n, m in SQUARE_OR_WIDE:
            eps = float(average_rank_weight(n, m, q))
            assert sumrank_entropy(eps, n, m, q) == 1.0
            assert sumrank_entropy(eps + 1e-13, n, m, q) == 1.0

    def test_few_tilts_per_solve(self, monkeypatch):
        tilts = []
        tilt = asymptotics._tilt
        monkeypatch.setattr(asymptotics, "_tilt",
                            lambda *a: tilts.append(1) or tilt(*a))
        n, m, q = 2, 4, 2
        eps = float(average_rank_weight(n, m, q))
        etas = [eta for eta in parse_grid("0:1:0.005") if 0 < eta <= eps / n]
        rhos = [eta * n / 2 for eta in etas] + [eta * n for eta in etas]
        for rho in rhos:
            sumrank_entropy(min(rho, eps), n, m, q)
        assert len(tilts) < 6 * len(rhos)
        # no solve crawls, close to either end of the bracket included
        for q in (2, 3, 4, 5):
            for n, m in SQUARE_OR_WIDE:
                eps = float(average_rank_weight(n, m, q))
                for rho in (eps * 1e-6, eps / 2, eps * (1 - 1e-6),
                            eps * (1 - 1e-12)):
                    tilts.clear()
                    sumrank_entropy(rho, n, m, q)
                    assert len(tilts) <= 10, (rho, n, m, q)


# the ten equal-shape scenarios (q, m, n) of the benchmark's curve ops
CURVES = [(2, 4, 2), (2, 2, 2), (3, 3, 3), (2, 3, 2), (2, 3, 3), (3, 2, 2),
          (4, 2, 2), (2, 4, 4), (5, 2, 1), (3, 3, 2)]
SPHERE_PAIR = ("sphere-packing-upper", "sphere-covering-lower")


class TestSpherePair:
    def test_no_negative_zero_in_curves(self):
        grid = parse_grid("0:1:0.005")
        for q, m, n in CURVES:
            sc = AsymptoticScenario(q=q, m_hat=m, n_hat=n)
            csv = emit_series(sc, list(BOUND_KEYS), grid)
            assert "-0.0000000000" not in csv, (q, m, n)
        sc = AsymptoticScenario(q=5, m_hat=2, n_hat=1)
        assert emit_series(sc, ["sphere-covering-lower"], [0.96]) == \
            "eta,bound,value\n0.9600000000,sphere-covering-lower,0.0000000000\n"

    @pytest.mark.parametrize("q,m,n", CURVES)
    def test_each_side_is_the_pair_element(self, q, m, n):
        sc = AsymptoticScenario(q=q, m_hat=m, n_hat=n)
        for eta in parse_grid("0:1:0.02") + [1e-9]:
            try:
                pair = asymptotic_sphere_pack_cover(eta, n, m, q)
            except DomainError:
                pair = (None, None)
            for name, want in zip(SPHERE_PAIR, pair):
                got = evaluate_bound(name, eta, sc)
                # bit for bit: repr round-trips a float exactly
                assert repr(got) == repr(want), (name, eta)

    def test_only_the_requested_side_is_solved(self, monkeypatch):
        solved = []
        solve = asymptotics._entropies

        def spy(*a):
            table = solve(*a)
            solved.append(set(table))
            return table
        monkeypatch.setattr(asymptotics, "_entropies", spy)
        n, m, q = 2, 4, 2
        eps = float(average_rank_weight(n, m, q))
        grid = parse_grid("0:1:0.005")
        etas = [eta for eta in grid if 0 < eta <= eps / n]
        rhos = {"sphere-packing-upper": {eta * n / 2 for eta in etas},
                "sphere-covering-lower": {min(eta * n, eps) for eta in etas}}
        csv = emit_series(SC_WIDE, list(SPHERE_PAIR), grid)
        assert len(csv.splitlines()) - 1 == 362
        # one pass over the distinct rho values of both sides
        assert solved == [rhos[SPHERE_PAIR[0]] | rhos[SPHERE_PAIR[1]]]
        for side, other in (SPHERE_PAIR, SPHERE_PAIR[::-1]):
            solved.clear()
            emit_series(SC_WIDE, [side], grid)
            assert solved == [rhos[side]]
            assert solved[0].isdisjoint(rhos[other] - rhos[side])

    def test_warm_start_halves_the_tilts(self, monkeypatch):
        tilts = []
        tilt = asymptotics._tilt
        monkeypatch.setattr(asymptotics, "_tilt",
                            lambda *a: tilts.append(1) or tilt(*a))
        grid = parse_grid("0:1:0.005")
        for q, m, n in CURVES:
            emit_series(AsymptoticScenario(q=q, m_hat=m, n_hat=n),
                        list(SPHERE_PAIR), grid)
        # 14,666 with one cold solve per grid point and side
        assert len(tilts) <= 7400

    def test_each_run_reuses_the_tilt_it_starts_on(self, monkeypatch):
        # a run starts at the w its predecessor stopped on, whose tilt is
        # already known: no two tilts in a row share a w, and a run costs
        # about two new tilts (3 before reuse, 4,697 in all against 7,174)
        ws, below = [], []
        tilt, entropies = asymptotics._tilt, asymptotics._entropies

        def solve(rhos, n, m, q):
            eps = asymptotics._shape(n, m, q)[0]
            below.append(sum(rho < eps for rho in set(rhos)))
            return entropies(rhos, n, m, q)

        monkeypatch.setattr(asymptotics, "_tilt",
                            lambda lc, w: ws.append(w) or tilt(lc, w))
        monkeypatch.setattr(asymptotics, "_entropies", solve)
        grid = parse_grid("0:1:0.005")
        total = 0
        for q, m, n in CURVES:
            ws.clear()
            emit_series(AsymptoticScenario(q=q, m_hat=m, n_hat=n),
                        list(SPHERE_PAIR), grid)
            assert all(a != b for a, b in zip(ws, ws[1:])), (q, m, n)
            total += len(ws)
        assert len(below) == len(CURVES)
        assert total <= 2 * sum(below)


def _cold_series(scenario, bounds, grid):
    """emit_series' CSV built point by point from evaluate_bound, which
    solves every sphere value cold."""
    lines = ["eta,bound,value"]
    for name in bounds:
        for eta in grid:
            value = evaluate_bound(name, eta, scenario)
            if value is not None:
                lines.append(f"{eta:.10f},{name},{value:.10f}")
    return "\n".join(lines) + "\n"


class TestContinuationOracle:
    @pytest.mark.parametrize("q", ENTROPY_QS)
    def test_series_equals_the_cold_points(self, q):
        for text in ("0:1:0.005", "0.0005:0.9995:0.003"):
            grid = parse_grid(text)
            for n, m in SQUARE_OR_WIDE:
                sc = AsymptoticScenario(q=q, m_hat=m, n_hat=n)
                for bounds in (BOUND_KEYS,) + tuple((s,) for s in SPHERE_PAIR):
                    assert emit_series(sc, list(bounds), grid) == \
                        _cold_series(sc, bounds, grid), (q, n, m, text, bounds)


# embedded plot coordinates: series values a correct minimizer reproduces
FIG1_TOTAL = {0.02: 0.9793548387, 0.1: 0.8967741936, 0.2: 0.7935483871,
              0.3: 0.6903225806, 0.4: 0.5870967742, 0.5: 0.4838709677,
              0.6: 0.3806451613, 0.7: 0.2774193548, 0.8: 0.1741935484,
              0.9: 0.07096774194, 0.96: 0.009032258065, 0.97: 0.0, 1.0: 0.0}
FIG1_UPPER = {0.06: 0.9178098059, 0.1: 0.8725241256, 0.2: 0.7715741341,
              0.3: 0.6816928074, 0.4: 0.5996862992, 0.5: 0.5241092766,
              0.6: 0.4541717806, 0.7: 0.3894067669, 0.8: 0.3295311938,
              0.9: 0.2743782725, 0.908: 0.2701669779}
FIG1_LOWER = {0.1: 0.7715741341, 0.2: 0.5996862992, 0.3: 0.4541717806,
              0.5: 0.2238603634, 0.7: 0.06845957069, 0.9: 0.0001502111691,
              0.908: 0.00000009}
FIG2_TOTAL = {0.02: 0.9796825397, 0.1: 0.8984126984, 0.3: 0.6952380952,
              0.5: 0.4920634921, 0.635: 0.3549206349, 0.7: 0.2888888889,
              0.9: 0.08571428571, 0.98: 0.004444444444, 0.985: 0.0, 1.0: 0.0}
FIG2_UPPER = {0.3: 0.6380276462, 0.4: 0.5445965053, 0.5: 0.4594529975,
              0.6: 0.3819336668, 0.635: 0.3565271273, 0.7: 0.3116581172,
              0.79: 0.2544207454, 0.797138: 0.2501218860}
FIG2_LOWER = {0.3: 0.3819336668, 0.5: 0.1426585639, 0.7: 0.01635248789,
              0.76: 0.002453214555, 0.79: 0.00009198052045, 0.797138: 0.0}


class TestFigureSeries:
    def test_wide_block_coordinates(self):
        assert len(FIG1_TOTAL) + len(FIG1_UPPER) + len(FIG1_LOWER) >= 20
        for eta, want in FIG1_TOTAL.items():
            assert abs(asymptotic_total_distance(eta, SC_WIDE) - want) < 1e-6
        for eta, want in FIG1_UPPER.items():
            up, _ = asymptotic_sphere_pack_cover(eta, 2, 4, 2)
            assert abs(up - want) < 1e-6, eta
        for eta, want in FIG1_LOWER.items():
            _, low = asymptotic_sphere_pack_cover(eta, 2, 4, 2)
            assert abs(low - want) < 1e-6, eta

    def test_square_block_coordinates(self):
        assert len(FIG2_TOTAL) + len(FIG2_UPPER) + len(FIG2_LOWER) >= 20
        for eta, want in FIG2_TOTAL.items():
            assert abs(asymptotic_total_distance(eta, SC_SQUARE) - want) < 1e-6
        for eta, want in FIG2_UPPER.items():
            up, _ = asymptotic_sphere_pack_cover(eta, 4, 4, 2)
            assert abs(up - want) < 1e-6, eta
        for eta, want in FIG2_LOWER.items():
            _, low = asymptotic_sphere_pack_cover(eta, 4, 4, 2)
            assert abs(low - want) < 1e-6, eta

    def test_crossovers(self):
        x1 = crossover(lambda e: asymptotic_total_distance(e, SC_WIDE),
                       lambda e: asymptotic_sphere_pack_cover(e, 2, 4, 2)[0],
                       0.2, 0.5)
        assert abs(x1 - 0.345) < 0.01
        x2 = crossover(lambda e: asymptotic_total_distance(e, SC_SQUARE),
                       lambda e: asymptotic_sphere_pack_cover(e, 4, 4, 2)[0],
                       0.4, 0.76)
        assert abs(x2 - 0.635) < 0.01

    def test_upper_dominates_lower(self):
        for eta in [0.05 * i for i in range(1, 19)]:
            if eta > 0.908:
                continue
            up, low = asymptotic_sphere_pack_cover(eta, 2, 4, 2)
            assert up >= low - 1e-12


class TestEmitSeries:
    def test_header_only(self):
        csv = emit_series(SC_WIDE, [], [0.1, 0.2])
        assert csv == "eta,bound,value\n"

    def test_row_shape_and_determinism(self):
        grid = parse_grid("0:1:0.25")
        csv1 = emit_series(SC_WIDE, ["singleton", "total-distance"], grid)
        csv2 = emit_series(SC_WIDE, ["singleton", "total-distance"], grid)
        assert csv1 == csv2
        lines = csv1.splitlines()
        assert lines[0] == "eta,bound,value"
        assert lines[1] == "0.0000000000,singleton,1.0000000000"
        assert len(lines) == 11

    def test_malformed_grid_is_a_domain_error(self):
        for text in ("0:1", "a:b:c", "0:1:0.1:2", "", "0:inf:1", "0:1:nan",
                     "0:1:0", "0:1:-1"):
            with pytest.raises(DomainError):
                parse_grid(text)

    def test_reversed_grid_is_a_domain_error(self):
        with pytest.raises(DomainError):
            parse_grid("1:0:0.5")
        assert parse_grid("1:1:0.5") == [1.0]

    def test_out_of_domain_rows_skipped(self):
        csv = emit_series(SC_WIDE, ["sphere-packing-upper"], [0.5, 0.95])
        assert len(csv.splitlines()) == 2  # header + the 0.5 row

    def test_all_bounds_in_unit_interval(self):
        grid = parse_grid("0:1:0.05")
        for name in BOUND_KEYS:
            for eta in grid:
                v = evaluate_bound(name, eta, SC_WIDE)
                if v is not None:
                    assert -1e-9 <= v <= 1 + 1e-9, (name, eta)
