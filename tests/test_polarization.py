import numpy as np
import pytest

from conftest import matrix, matrix_rows, series_from_counts
from oracles import bruteforce_activity_vol_correlation
from tradesync.errors import DegenerateInputError
from tradesync.parallel import task_rng
from tradesync.polarization import (EXCLUDE_CONST_OPS, EXCLUDE_FEW_DAYS,
                                    Exclusion, PolarizationScore,
                                    polarization_score, population_distribution,
                                    score_population, shuffled_baseline,
                                    summarize)
from tradesync.volatility import VolatilitySeries


def _vol(values):
    return VolatilitySeries("TST", np.asarray(values, dtype=float))


def _active_everywhere(counts, investor="I1"):
    """A one-row activity matrix of `counts` from calendar day 0."""
    return matrix([series_from_counts(counts, investor=investor)])


class TestPolarizationScore:
    def test_proportional_alignment_gives_one(self):
        counts = [2, 5, 3, 7, 2, 4, 6, 3, 2, 8, 5, 3, 2, 4, 6, 7, 3, 2, 5, 4, 3, 6]
        nu = [c / 100 for c in counts]
        score = polarization_score(_active_everywhere(counts), 0, _vol(nu), min_days=20)
        assert isinstance(score, PolarizationScore)
        assert score.rho_ov == pytest.approx(1.0, abs=1e-12)
        assert score.trading_days_used == len(counts)

    def test_constant_activity_excluded(self):
        counts = [1] * 25
        nu = np.linspace(0.01, 0.05, 25)
        out = polarization_score(_active_everywhere(counts), 0, _vol(nu), min_days=20)
        assert out == Exclusion("I1", EXCLUDE_CONST_OPS)

    def test_too_few_days_excluded(self):
        out = polarization_score(_active_everywhere([1, 2, 3]), 0, _vol([0.1] * 3),
                                 min_days=20)
        assert out == Exclusion("I1", EXCLUDE_FEW_DAYS)

    def test_25_day_bruteforce_oracle(self, rng):
        counts = rng.integers(1, 9, size=25)
        nu = rng.lognormal(-3.5, 0.5, 25)
        score = polarization_score(_active_everywhere(counts), 0, _vol(nu), min_days=20)
        expected = bruteforce_activity_vol_correlation(
            [float(c) for c in counts], nu.tolist())
        assert score.rho_ov == pytest.approx(expected, abs=1e-12)

    def test_only_trading_days_enter(self, rng):
        # zeros inside the span must not contribute
        counts = [3, 0, 5, 0, 2, 0, 4] * 5
        counts = counts[:-1] if counts[-1] == 0 else counts
        nu = rng.lognormal(-3.5, 0.3, len(counts))
        series = matrix([series_from_counts(counts, investor="Z")])
        score = polarization_score(series, 0, _vol(nu), min_days=5)
        active = [i for i, c in enumerate(counts) if c > 0]
        expected = bruteforce_activity_vol_correlation(
            [float(counts[i]) for i in active], [nu[i] for i in active])
        assert score.rho_ov == pytest.approx(expected, abs=1e-12)

    def test_invariance_under_nu_scaling_and_ops_shift(self, rng):
        counts = rng.integers(1, 7, size=40)  # active every day, shift-safe
        nu = rng.lognormal(-3.5, 0.4, 40)
        base = polarization_score(_active_everywhere(counts), 0, _vol(nu), min_days=20)
        scaled = polarization_score(_active_everywhere(counts), 0, _vol(nu * 3.7),
                                    min_days=20)
        shifted = polarization_score(_active_everywhere(counts + 5), 0, _vol(nu),
                                     min_days=20)
        assert scaled.rho_ov == pytest.approx(base.rho_ov, abs=1e-12)
        assert shifted.rho_ov == pytest.approx(base.rho_ov, abs=1e-12)


class TestPopulationDistribution:
    def test_single_value(self):
        scores = [PolarizationScore(f"I{k}", 0.3, 25) for k in range(10)]
        hist = population_distribution(scores, bins=50)
        assert hist.mean == pytest.approx(0.3)
        assert hist.variance == pytest.approx(0.0, abs=1e-30)
        assert (hist.density > 0).sum() == 1
        assert hist.mode_bin == pytest.approx(0.3, abs=0.02)

    def test_symmetric_scores_zero_mean(self):
        scores = []
        for k, x in enumerate((0.1, 0.25, 0.4)):
            scores.append(PolarizationScore(f"P{k}", x, 25))
            scores.append(PolarizationScore(f"M{k}", -x, 25))
        hist = population_distribution(scores, bins=20)
        assert hist.mean == pytest.approx(0.0, abs=1e-15)

    def test_empty_errors(self):
        with pytest.raises(DegenerateInputError):
            population_distribution([])


def _population(rng, n_inv, n_days, beta=0.0, nu=None):
    if nu is None:
        nu = rng.lognormal(-3.9, 0.4, n_days)
    z = (nu - nu.mean()) / nu.std()
    series = {}
    for i in range(n_inv):
        lam = 0.5 * np.clip(1.0 + beta * z, 0.0, None)
        counts = rng.poisson(lam)
        counts[0] = max(counts[0], 1)
        counts[-1] = max(counts[-1], 1)
        inv = f"I{i:04d}"
        series[inv] = series_from_counts(counts, investor=inv)
    return matrix(series.values()), VolatilitySeries("TST", nu)


class TestShuffledBaseline:
    def test_deterministic(self, rng):
        series, vol = _population(rng, 60, 150)
        b1 = shuffled_baseline(series, vol, replicas=20, seed=5)
        b2 = shuffled_baseline(series, vol, replicas=20, seed=5)
        assert b1.shuffled_variance == b2.shuffled_variance
        assert np.array_equal(b1.replica_variances, b2.replica_variances)

    @pytest.mark.parametrize("replicas", [0, -3])
    def test_replicas_below_one_raise(self, rng, replicas):
        series, vol = _population(rng, 20, 60)
        with pytest.raises(ValueError, match=f"replicas must be at least 1, got {replicas}"):
            shuffled_baseline(series, vol, replicas=replicas, seed=5)

    def test_planted_alignment_inflates_variance(self, rng):
        series, vol = _population(rng, 250, 250, beta=0.8)
        scores, _ = score_population(series, vol, min_days=20)
        baseline = shuffled_baseline(series, vol, replicas=40, seed=2)
        summary = summarize(population_distribution(scores), baseline)
        assert summary.variance_ratio > 1.0
        assert summary.mean > 0

    def test_null_population_ratio_near_one(self):
        ratios = []
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            series, vol = _population(rng, 250, 250, beta=0.0)
            scores, _ = score_population(series, vol, min_days=20)
            baseline = shuffled_baseline(series, vol, replicas=30, seed=seed)
            summary = summarize(population_distribution(scores), baseline)
            ratios.append(summary.variance_ratio)
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.1)

    def test_shuffled_mean_within_three_se(self, rng):
        series, vol = _population(rng, 200, 200)
        baseline = shuffled_baseline(series, vol, replicas=60, seed=4)
        means = baseline.replica_means
        se = means.std(ddof=1) / np.sqrt(means.size)
        assert abs(means.mean()) <= 3 * se + 1e-12

    def test_replica_scores_are_scores_of_permuted_nu(self):
        # one investor trading on 30 of 300 days, where volatility varies;
        # elsewhere it is flat
        r = np.random.default_rng(8)
        days = np.sort(r.choice(300, size=30, replace=False))
        days[0], days[-1] = 0, 299
        nu = np.full(300, 0.05)
        nu[days] += 0.04 * r.standard_normal(30)
        counts = np.zeros(300, dtype=int)
        counts[days] = r.integers(1, 9, size=30)
        series = matrix([series_from_counts(counts)])
        replicas = 50
        baseline = shuffled_baseline(series, _vol(nu), replicas=replicas, seed=6)
        # the same draws applied to day positions: row k permutes the days
        perms = np.tile(np.arange(30, dtype=float), (replicas, 1))
        task_rng(6, 0).permuted(perms, axis=1, out=perms)
        expected = []
        for perm in perms.astype(int):
            shuffled = nu.copy()
            shuffled[days] = nu[days][perm]
            expected.append(polarization_score(series, 0, _vol(shuffled)).rho_ov)
        assert np.allclose(baseline.replica_means, expected, rtol=0, atol=1e-12)

    def test_eligibility_invariants(self, rng):
        series, vol = _population(rng, 120, 150)
        series = matrix([
            *matrix_rows(series), series_from_counts([1, 2, 1], investor="LONELY")])
        scores, exclusions = score_population(series, vol, min_days=20)
        assert all(s.trading_days_used >= 20 for s in scores)
        reasons = set(exclusions)
        assert reasons <= {EXCLUDE_FEW_DAYS, EXCLUDE_CONST_OPS, "constant-volatility"}
        assert len(scores) + exclusions.total() == len(series)
