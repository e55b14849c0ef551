import math

import pytest

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
