import numpy as np
import pytest

from conftest import make_quotes, matrix, series_from_counts
from oracles import bruteforce_pair_correlation, trailing_ma_residual
from tradesync.errors import DegenerateInputError
from tradesync.ingest import QuoteSeries
from tradesync.volatility import (MesoSeries, VolatilitySeries,
                                  high_low_volatility, meso_long_correlation,
                                  meso_series, meso_short_correlation,
                                  moving_average_residual)


def _quotes_from_ohl(rows, ticker="TST"):
    base = make_quotes(len(rows), ticker=ticker)
    return QuoteSeries(ticker=ticker, days=base.days,
                       open_=[r[0] for r in rows],
                       high=[r[1] for r in rows],
                       low=[r[2] for r in rows])


class TestHighLowVolatility:
    @pytest.mark.parametrize("ohl,expected", [
        ((100.0, 105.0, 95.0), 0.10),
        ((50.0, 50.0, 50.0), 0.0),
        ((20.0, 22.0, 19.0), 0.15),
    ])
    def test_definition(self, ohl, expected):
        vol = high_low_volatility(_quotes_from_ohl([ohl]))
        assert vol.nu[0] == pytest.approx(expected, abs=1e-15)

    def test_scale_invariance(self, rng):
        n = 60
        opens = 50 + 10 * rng.random(n)
        highs = opens * (1 + 0.05 * rng.random(n))
        lows = opens * (1 - 0.05 * rng.random(n))
        rows = list(zip(opens, highs, lows))
        nu1 = high_low_volatility(_quotes_from_ohl(rows)).nu
        c = 3.7
        nu2 = high_low_volatility(
            _quotes_from_ohl([(o * c, h * c, lo * c) for o, h, lo in rows])).nu
        assert np.allclose(nu1, nu2, rtol=0, atol=1e-12)
        assert np.all(nu1 >= 0)


class TestMesoSeries:
    def test_sum_over_investors(self, quotes20, calendar20):
        series = {
            "A": series_from_counts([1, 0, 2], first_day=0, investor="A"),
            "B": series_from_counts([3, 1], first_day=1, investor="B"),
        }
        meso = meso_series(matrix(series.values()), calendar20)
        assert list(meso.ops[:4]) == [1, 3, 3, 0]
        assert meso.ops.sum() == sum(int(s.count.sum()) for s in series.values())
        assert len(meso) == 20


class TestLongCorrelation:
    def test_perfect_linear_dependence(self, rng):
        nu = np.abs(rng.standard_normal(100)) + 0.01
        ops = 3.0 * nu + 7.0
        c = meso_long_correlation(MesoSeries("X", ops), VolatilitySeries("X", nu))
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_bounds(self, rng):
        a = rng.poisson(4.0, 300).astype(float)
        b = rng.lognormal(-3, 0.5, 300)
        c1 = meso_long_correlation(MesoSeries("X", a), VolatilitySeries("X", b))
        c2 = meso_long_correlation(MesoSeries("X", b), VolatilitySeries("X", a))
        assert c1 == c2
        assert -1.0 <= c1 <= 1.0

    def test_independent_series_null_band(self):
        # 99% Monte-Carlo band for 2000 independent days is about 0.053
        rng = np.random.default_rng(2024)
        ops = rng.poisson(5.0, 2000).astype(float)
        nu = rng.lognormal(-3.9, 0.4, 2000)
        c = meso_long_correlation(MesoSeries("X", ops), VolatilitySeries("X", nu))
        assert abs(c) < 0.07

    def test_planted_mixture_correlation(self):
        rng = np.random.default_rng(424242)
        n = 2000
        z = rng.standard_normal(n)
        e1 = rng.standard_normal(n)
        e2 = rng.standard_normal(n)
        ops = 50 + 10 * (np.sqrt(0.5) * z + np.sqrt(0.5) * e1)
        nu = 5 + (np.sqrt(0.5) * z + np.sqrt(0.5) * e2)
        c = meso_long_correlation(MesoSeries("X", ops), VolatilitySeries("X", nu))
        assert c == pytest.approx(0.5, abs=0.05)

    def test_constant_series_undefined(self):
        with pytest.raises(DegenerateInputError):
            meso_long_correlation(MesoSeries("X", np.ones(50)),
                                  VolatilitySeries("X", np.arange(50.0) + 1))

    def test_matches_bruteforce(self, rng):
        ops = rng.poisson(3.0, 47).astype(float)
        nu = rng.lognormal(-3, 0.4, 47)
        c = meso_long_correlation(MesoSeries("X", ops), VolatilitySeries("X", nu))
        assert c == pytest.approx(
            bruteforce_pair_correlation(ops.tolist(), nu.tolist()), abs=1e-12)


class TestShortCorrelation:
    def test_residual_matches_bruteforce(self, rng):
        x = rng.random(40)
        res = moving_average_residual(x, 5)
        assert np.allclose(res, trailing_ma_residual(x.tolist(), 5), atol=1e-12)
        assert res.size == 36

    def test_shared_wiggle_over_different_trends(self):
        # same high-frequency component on top of linear trends: the trailing
        # MA residual of a line is constant, so residuals are affine images
        # of one another and the correlation is exactly 1
        t = np.arange(300, dtype=float)
        w = np.sin(2 * np.pi * t / 7) + 0.5 * np.cos(2 * np.pi * t / 3)
        ops = 200 + 0.5 * t + 40 * w
        nu = 0.05 + 0.0001 * t + 0.004 * w
        c = meso_short_correlation(MesoSeries("X", ops), VolatilitySeries("X", nu))
        assert c == pytest.approx(1.0, abs=1e-9)

    def test_self_correlation_is_one(self, rng):
        x = rng.lognormal(-3, 0.4, 100)
        c = meso_short_correlation(MesoSeries("X", x), VolatilitySeries("X", x))
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_slow_trend_vs_noise_null(self):
        # 99% Monte-Carlo band for this construction is about 0.015
        rng = np.random.default_rng(1000)
        t = np.arange(500, dtype=float)
        ops = 100 + 30 * np.sin(2 * np.pi * t / 200)
        nu = rng.lognormal(-3.9, 0.3, 500)
        c = meso_short_correlation(MesoSeries("X", ops), VolatilitySeries("X", nu))
        assert abs(c) < 0.05

    def test_window_as_long_as_series_errors(self):
        x = np.arange(10, dtype=float)
        with pytest.raises(DegenerateInputError):
            # one residual point at most: correlation undefined
            meso_short_correlation(MesoSeries("X", x), VolatilitySeries("X", x),
                                   window=10)
