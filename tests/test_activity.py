import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import columns, make_trade, matrix, series_from_counts
from oracles import bruteforce_hill, least_squares_slope
from tradesync.activity import build_activity, ccdf, hill_fit, hill_sweep, ops_vs_days
from tradesync.errors import DataError, DegenerateInputError


class TestBuildActivity:
    def test_direct_count(self, calendar20, quotes20):
        days = quotes20.days
        trades = [make_trade("A", days[3]), make_trade("A", days[3]),
                  make_trade("A", days[7])]
        m = build_activity(columns(trades), calendar20)
        assert m.first_day.tolist() == [3] and m.last_day.tolist() == [7]
        assert [a.tolist() for a in m.active(0)] == [[3, 7], [2, 1]]
        assert m.total_ops.tolist() == [3]
        assert m.n_active.tolist() == [2]
        assert (m.last_day - m.first_day + 1).tolist() == [5]
        assert m.opd.tolist() == [1.5]

    def test_single_trade_boundary(self, calendar20, quotes20):
        m = build_activity(columns([make_trade("B", quotes20.days[9])]), calendar20)
        assert m.n_active.tolist() == [1]
        assert [a.tolist() for a in m.active(0)] == [[9], [1]]
        assert (m.last_day - m.first_day + 1).tolist() == [1]
        assert m.opd.tolist() == [1.0]

    def test_opd_definition(self, calendar20, quotes20):
        trades = [make_trade("C", quotes20.days[d]) for d in range(20)] * 2
        m = build_activity(columns(trades), calendar20)
        assert m.total_ops.tolist() == [40]
        assert m.n_active.tolist() == [20]
        assert m.opd.tolist() == [2.0]

    def test_rows_of_maps_ids_to_rows(self, calendar20, quotes20):
        trades = [make_trade(inv, quotes20.days[0]) for inv in "CAB"]
        m = build_activity(columns(trades), calendar20)
        assert m.ids == ["A", "B", "C"]
        assert m.rows_of(["C", "A"]).tolist() == [2, 0]
        with pytest.raises(KeyError):
            m.rows_of(["A", "D"])

    def test_wrong_ticker_raises(self, calendar20, quotes20):
        with pytest.raises(DataError):
            build_activity(columns([make_trade("A", quotes20.days[0], ticker="XXX")]),
                           calendar20)

    def test_invariants_on_random_populations(self, rng, calendar20, quotes20):
        days = quotes20.days
        trades = []
        for i in range(50):
            for d in rng.integers(0, 20, size=rng.integers(1, 30)):
                trades.append(make_trade(f"I{i:02d}", days[int(d)]))
        m = build_activity(columns(trades), calendar20)
        spans = (m.last_day - m.first_day + 1).tolist()
        for k, opd in enumerate(m.opd.tolist()):
            day, count = m.active(k)
            assert (day[0], day[-1]) == (m.first_day[k], m.last_day[k])
            assert np.all(np.diff(day) > 0) and np.all(count > 0)
            assert m.n_active[k] == day.size <= spans[k]
            assert opd == m.total_ops[k] / m.n_active[k] >= m.total_ops[k] / spans[k]
            assert m.total_ops[k] == int(count.sum())


class TestCcdf:
    def test_direct_count(self):
        assert ccdf([1, 1, 2, 4]) == [(1.0, 1.0), (2.0, 0.5), (4.0, 0.25)]

    def test_degenerate_all_equal(self):
        assert ccdf([5, 5, 5]) == [(5.0, 1.0)]

    def test_empty_errors(self):
        with pytest.raises(DegenerateInputError):
            ccdf([])

    def test_pareto_tail_slope(self):
        # 1e4 Pareto(alpha=1) draws: log-log slope of the survival tail is -1
        rng = np.random.default_rng(777)
        vals = 1.0 + rng.pareto(1.0, 10_000)
        pts = ccdf(vals)
        sel = [(math.log(v), math.log(f)) for v, f in pts if f >= 10 / len(vals)]
        slope = least_squares_slope([p[0] for p in sel], [p[1] for p in sel])
        assert slope == pytest.approx(-1.0, abs=0.1)

    @settings(max_examples=50)
    @given(st.lists(st.integers(1, 1000), min_size=1, max_size=200))
    def test_survival_function_property(self, values):
        pts = ccdf(values)
        vs = [v for v, _ in pts]
        fs = [f for _, f in pts]
        assert vs == sorted(set(float(v) for v in values))
        assert fs[0] == 1.0 or vs[0] > min(values)
        assert all(a > b for a, b in zip(fs, fs[1:]))  # strictly decreasing
        assert all(0 < f <= 1 for f in fs)
        assert pts[0][1] == 1.0


class TestHill:
    def test_exact_pareto_quantiles(self):
        n = 1000
        xs = [(j / n) ** (-1.0) for j in range(1, n + 1)]
        fit = hill_fit(xs, k=100)
        assert fit.alpha == pytest.approx(bruteforce_hill(xs, 100), abs=1e-12)
        assert fit.alpha == pytest.approx(1.0, abs=0.05)
        assert fit.stderr == pytest.approx(fit.alpha / math.sqrt(100))

    def test_all_equal_degenerate(self):
        with pytest.raises(DegenerateInputError):
            hill_fit([3.0] * 50, k=5)

    def test_k_bounds(self):
        with pytest.raises(DegenerateInputError):
            hill_fit([1, 2, 3], k=3)
        with pytest.raises(DataError):
            hill_fit([1.0, -2.0, 3.0], k=1)

    def test_pareto_mc_at_129(self):
        # OpD-style tail: 1e5 iid Pareto(1.29), k=1e4
        rng = np.random.default_rng(12345)
        draws = 1.0 + rng.pareto(1.29, 100_000)
        fit = hill_fit(draws, k=10_000)
        assert fit.alpha == pytest.approx(1.29, abs=0.05)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0.5, 1e6, allow_nan=False), min_size=10, max_size=300),
        st.floats(1e-6, 1e6),
    )
    def test_scale_invariance(self, values, c):
        # break ties: sorted values at least 0.1% apart, so each log-spacing is
        # >= 1e-3 and the rounding of c * v moves alpha well below rel=1e-12
        values = [v * 1.001 ** i for i, v in enumerate(sorted(values))]
        base = hill_fit(values)
        scaled = hill_fit([c * v for v in values], k=base.k)
        assert scaled.alpha == pytest.approx(base.alpha, rel=1e-12)

    @pytest.mark.parametrize("n", [10 ** 3, 10 ** 4, 10 ** 5])
    def test_consistency_on_exact_quantiles(self, n):
        # Hill on exact Pareto(alpha) quantiles converges with k = sqrt(n)
        alpha = 1.5
        xs = ((np.arange(1, n + 1) / n) ** (-1.0 / alpha))
        k = int(math.sqrt(n))
        fit = hill_fit(xs, k=k)
        assert fit.alpha == pytest.approx(alpha, rel=3.0 / math.sqrt(k))

    def test_sweep_covers_requested_ks(self):
        rng = np.random.default_rng(5)
        vals = 1.0 + rng.pareto(1.0, 500)
        fits = hill_sweep(vals, k_values=[5, 10, 50])
        assert [f.k for f in fits] == [5, 10, 50]
        default = hill_sweep(vals)
        assert len(default) > 10


class TestOpsVsDays:
    def test_exact_rows(self):
        series = {}
        for name, (n_days, ops) in {"A": (1, 1), "B": (10, 15), "C": (100, 400)}.items():
            counts = [1] * n_days
            counts[0] += ops - n_days
            series[name] = series_from_counts(counts, investor=name)
        assert ops_vs_days(matrix(series.values())) == \
            [(1, 1), (10, 15), (100, 400)]

    def test_empty(self):
        assert ops_vs_days(matrix([])) == []

    def test_positive_slope_on_synthetic_population(self, rng):
        series = {}
        for i in range(200):
            n_days = int(rng.integers(1, 60))
            counts = rng.poisson(2.0, n_days) + 1
            series[f"I{i:03d}"] = series_from_counts(counts, investor=f"I{i:03d}")
        rows = ops_vs_days(matrix(series.values()))
        slope = least_squares_slope([float(r[0]) for r in rows],
                                    [float(r[1]) for r in rows])
        assert slope > 0
