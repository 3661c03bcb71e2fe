import io
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import matrix, series_from_counts, window
from oracles import bruteforce_pair_correlation
from tradesync import syncnet
from tradesync.errors import DegenerateInputError
from tradesync.parallel import task_rng
from tradesync.syncnet import build_sync_network, permutation_pvalue, write_edges
from tradesync.volatility import population_correlation


def _pair_network(counts_a, counts_b, first_a=0, first_b=0, **kwargs):
    """build_sync_network on investors A and B, both of them nodes."""
    return build_sync_network(
        matrix([series_from_counts(counts_a, investor="A", first_day=first_a),
                series_from_counts(counts_b, investor="B", first_day=first_b)]),
        min_ops=1, workers=1, **kwargs)


class TestOverlap:
    """A pair's window is the overlap of the two investors' active spans."""

    def test_interval_intersection(self):
        # spans [0, 10] and [5, 20]: both make 1..6 operations on days 5..10
        net = _pair_network([1] * 5 + [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6] + [1] * 10,
                            first_b=5, shuffles=199, level=0.05, seed=1)
        assert [(e.i, e.j, e.rho, e.overlap) for e in net.edges] == [("A", "B", 1.0, 6)]

    def test_disjoint(self):
        # spans [0, 4] and [5, 9] touch but share no day
        net = _pair_network([1] * 5, [1] * 5, first_b=5, shuffles=199, seed=1)
        d = net.diagnostics
        assert (d["pairs_total"], d["pairs_disjoint"], net.edges) == (1, 1, [])

    def test_identical_periods(self):
        counts = [1, 2, 3, 4, 5, 6]
        net = _pair_network(counts, counts, first_a=3, first_b=3, shuffles=199,
                            level=0.05, seed=1)
        assert [e.overlap for e in net.edges] == [6]


class TestCrossCorrelation:
    def test_identical_series_exactly_one(self):
        counts = [3, 1, 4, 1, 5]
        net = _pair_network(counts, counts, shuffles=199, level=0.05, seed=1)
        assert [e.rho for e in net.edges] == [1.0]

    def test_exact_anticorrelation(self):
        counts = [1, 3, 2, 1, 3]
        net = _pair_network(counts, [4 - c for c in counts], shuffles=199, seed=1)
        d = net.diagnostics
        assert (d["pairs_tested"], d["pairs_negative_rho"], net.edges) == (1, 1, [])

    def test_five_day_window_matches_bruteforce(self):
        x = np.array([0.0, 2.0, 0.0, 1.0, 0.0])
        y = np.array([1.0, 3.0, 0.0, 2.0, 0.0])
        assert population_correlation(x, y) == pytest.approx(
            bruteforce_pair_correlation(x.tolist(), y.tolist()), abs=1e-12)

    def test_symmetry_and_shift_invariance(self, rng):
        for _ in range(50):
            x = rng.integers(0, 6, size=30).astype(float)
            y = rng.integers(0, 6, size=30).astype(float)
            if x.std() == 0 or y.std() == 0:
                continue
            r1 = population_correlation(x, y)
            assert population_correlation(y, x) == pytest.approx(r1, abs=1e-12)
            assert population_correlation(x + 17.0, y) == pytest.approx(r1, abs=1e-12)

    def test_bounds_over_1000_random_integer_pairs(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 40))
            x = rng.integers(0, 10, size=n).astype(float)
            y = rng.integers(0, 10, size=n).astype(float)
            if x.std() == 0 or y.std() == 0:
                continue
            assert -1.0 <= population_correlation(x, y) <= 1.0
            checked += 1

    def test_degenerate_sigma(self):
        with pytest.raises(DegenerateInputError):
            population_correlation(np.ones(10), np.arange(10.0))


class TestPermutationFilter:
    def test_perfectly_synchronized_pair(self):
        x = np.random.default_rng(1).integers(1, 9, size=30).astype(float)
        y = x.copy()
        assert population_correlation(x, y) == 1.0
        pvalue = permutation_pvalue(x, y, shuffles=999, rng=task_rng(7))
        assert pvalue < 0.01
        assert pvalue == pytest.approx(1 / 1000)

    def test_exact_zero_rho_not_kept(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([1.0, 3.0, 0.0, 2.0])
        assert population_correlation(x, y) == 0.0
        p = permutation_pvalue(x, y, shuffles=999, rng=task_rng(3, 0))
        assert p > 0.1  # far above any conventional level

    def test_deterministic_given_seed(self):
        rng_data = np.random.default_rng(5)
        x = rng_data.poisson(1.0, 100).astype(float)
        y = rng_data.poisson(1.0, 100).astype(float)
        p1 = permutation_pvalue(x, y, 999, task_rng(11, 4, 9))
        p2 = permutation_pvalue(x, y, 999, task_rng(11, 4, 9))
        assert p1 == p2

    def test_null_permutes_one_window(self):
        rng_data = np.random.default_rng(6)
        x = rng_data.poisson(1.0, 60).astype(float)
        y = rng_data.poisson(1.0, 60).astype(float)
        p = permutation_pvalue(x, y, 499, task_rng(1, 0))
        exceed = _replayed_exceedances(x, y, 499, task_rng(1, 0))
        assert p == (1 + exceed.sum()) / 500
        assert 0 < p <= 1

    def test_min_shuffles_enforced(self):
        with pytest.raises(ValueError):
            permutation_pvalue(np.arange(5.0), np.arange(5.0), 10, task_rng(0, 0))


def _replayed_exceedances(x, y, shuffles, rng):
    """Per-replica exceedance flags, drawing one permutation of x at a time."""
    s0 = float(np.dot(x, y))
    flags = []
    for _ in range(shuffles):
        xs = x[np.newaxis, :].copy()
        rng.permuted(xs, axis=1, out=xs)
        flags.append(float(xs[0] @ y) >= s0)
    return np.array(flags)


def _build(series, **kwargs):
    """build_sync_network on a dict of series, joined into one matrix."""
    return build_sync_network(matrix(series.values()), **kwargs)


def _population(rng, n_investors=24, n_days=80, lam=1.0):
    series = {}
    for i in range(n_investors):
        counts = rng.poisson(lam, n_days)
        counts[0] = max(counts[0], 1)
        counts[-1] = max(counts[-1], 1)
        inv = f"I{i:03d}"
        series[inv] = series_from_counts(counts, investor=inv)
    return series


class TestBuildSyncNetwork:
    def test_planted_pair_survives(self, rng):
        n_days = 100
        gate = rng.random(n_days) < 0.5
        series = _population(rng, n_investors=20, n_days=n_days)
        for inv in ("SYNC_A", "SYNC_B"):
            counts = rng.poisson(2.0, n_days) * gate + rng.poisson(0.1, n_days)
            counts[0] = max(counts[0], 1)
            counts[-1] = max(counts[-1], 1)
            series[inv] = series_from_counts(counts, investor=inv)
        net = _build(series, min_ops=20, shuffles=499, level=0.01, seed=3, workers=1)
        kept_pairs = {(e.i, e.j) for e in net.edges}
        assert ("SYNC_A", "SYNC_B") in kept_pairs
        # spurious edges stay near the false-positive level
        assert len(kept_pairs) - 1 <= 10

    def test_min_ops_filter_empties_network(self, rng):
        series = _population(rng, n_investors=6, n_days=10, lam=0.5)
        net = _build(series, min_ops=1000, shuffles=199, seed=0, workers=1)
        assert net.node_ids == []
        assert net.edges == []

    def test_identical_series_complete_graph(self):
        counts = [3, 1, 2, 5, 1, 2, 4, 1, 2, 3]
        series = {f"I{i}": series_from_counts(counts, investor=f"I{i}")
                  for i in range(6)}
        net = _build(series, min_ops=1, shuffles=199, level=0.01, seed=1, workers=1)
        assert len(net.edges) == 15
        assert all(e.rho == 1.0 for e in net.edges)

    def test_parallel_equals_serial(self, rng):
        series = _population(rng, n_investors=16, n_days=60)
        net1 = _build(series, min_ops=5, shuffles=199, seed=9, workers=1)
        net2 = _build(series, min_ops=5, shuffles=199, seed=9, workers=2)
        assert net1.edges == net2.edges
        assert net1.diagnostics == net2.diagnostics

    def test_byte_identical_outputs(self, rng):
        series = _population(rng, n_investors=12, n_days=50)
        bufs = []
        for _ in range(2):
            net = _build(series, min_ops=5, shuffles=199, seed=4, workers=1)
            buf = io.StringIO()
            write_edges(net, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_retention_monotone_in_level(self, rng):
        series = _population(rng, n_investors=18, n_days=60)
        counts = []
        for level in (0.002, 0.01, 0.05, 0.2):
            net = _build(series, min_ops=5, shuffles=499, seed=2, level=level,
                         workers=1)
            counts.append(len(net.edges))
        assert counts == sorted(counts)

    def test_diagnostics_account_for_all_pairs(self, rng):
        series = _population(rng, n_investors=14, n_days=40)
        # one investor active on a single day: degenerate in most windows
        series["FLAT"] = series_from_counts([2], investor="FLAT", first_day=20)
        net = _build(series, min_ops=1, shuffles=199, seed=5, workers=1)
        d = net.diagnostics
        assert d["pairs_total"] == d["pairs_disjoint"] + d["pairs_short_overlap"] \
            + d["pairs_degenerate"] + d["pairs_tested"]
        assert d["edges_retained"] == len(net.edges)
        assert "permute" not in d
        assert d["pairs_tested"] <= d["shuffles_used"] < d["pairs_tested"] * d["shuffles"]

    @pytest.mark.parametrize("shuffles,level,rate", [
        (999, 0.01, Fraction(9, 1000)), (199, 0.01, Fraction(1, 200)),
        (99, 0.07, Fraction(6, 100)),  # 0.07 * 100 is 7.000000000000001 in floats
    ])
    def test_expected_false_edges_max(self, rng, shuffles, level, rate):
        series = _population(rng, n_investors=10, n_days=40)
        net = _build(series, min_ops=5, shuffles=shuffles, level=level, seed=6,
                     workers=1)
        d = net.diagnostics
        assert d["pairs_tested"] > 0
        assert d["expected_false_edges_max"] == float(rate * d["pairs_tested"])
        # the share of the shuffles + 1 null ranks that the keep test passes
        grid = shuffles + 1
        kept_ranks = sum((1 + c) / grid < level for c in range(grid))
        assert d["expected_false_edges_max"] == pytest.approx(
            kept_ranks / grid * d["pairs_tested"], rel=1e-15)

    def test_pair_outcomes_counted_by_status(self):
        series = {
            "a": series_from_counts([1, 2, 1, 3, 1], investor="a"),
            "b": series_from_counts([2, 1, 2, 1, 2], investor="b"),
            "c": series_from_counts([1, 1], investor="c", first_day=30),  # disjoint
            "d": series_from_counts([5], investor="d", first_day=2),      # short
        }
        net = _build(series, min_ops=1, shuffles=199, seed=1, workers=1)
        d = net.diagnostics
        assert (d["pairs_total"], d["pairs_tested"], d["pairs_disjoint"],
                d["pairs_short_overlap"], d["pairs_degenerate"]) == (6, 1, 3, 2, 0)


class TestTriangle:
    def test_every_pair_once_in_row_major_order(self):
        for n in range(2, 41):
            cum = syncnet._row_offsets(n)
            decoded = [syncnet._pair_at(p, cum) for p in range(n * (n - 1) // 2)]
            assert decoded == [(i, j) for i in range(n) for j in range(i + 1, n)]


def _windows(m, i, j):
    """Rows i and j of matrix m over the overlap of their active spans."""
    start = max(m.first_day[i], m.first_day[j])
    end = min(m.last_day[i], m.last_day[j])
    return (window(m, i, start, end).astype(float),
            window(m, j, start, end).astype(float))


def _stop_point(flags, shuffles, level, block_rows):
    """Shuffles an early-stopped pair draws: the first block end where
    (1 + count) / (shuffles + 1) reaches level, else all of them. A block
    holds min(block_rows, max(exceedances still needed to stop, twice the
    previous block, 1)) shuffles."""
    stop_count = math.ceil(level * (shuffles + 1)) - 1
    done = block = 0
    while done < shuffles:
        block = min(block_rows, max(stop_count - flags[:done].sum(), 2 * block, 1))
        done = min(done + block, shuffles)
        if (1 + flags[:done].sum()) / (shuffles + 1) >= level:
            return done
    return shuffles


def _network(slist, **kwargs):
    return build_sync_network(matrix(slist), min_ops=1,
                              workers=1, **kwargs)


class TestEarlyStopping:
    @pytest.mark.parametrize("block_rows", [1, 7, 50])
    def test_stopped_run_matches_full_run(self, rng, monkeypatch, block_rows):
        monkeypatch.setattr(syncnet, "_BLOCK_ROWS", block_rows)
        n_days, shuffles, level, seed = 120, 199, 0.05, 13
        gate = rng.random(n_days) < 0.4
        slist = []
        for i in range(16):
            counts = rng.poisson(1.0, n_days)
            if i < 5:  # a planted group, so that some pairs are kept
                counts = rng.poisson(2.0, n_days) * gate + rng.poisson(0.2, n_days)
            counts[0] = max(counts[0], 1)
            counts[-1] = max(counts[-1], 1)
            slist.append(series_from_counts(counts, investor=f"s{i:02d}"))
        net = _network(slist, shuffles=shuffles, level=level, seed=seed)
        assert net.node_ids == [s.investor_id for s in slist]
        assert net.diagnostics["pairs_tested"] == 120
        m = matrix(slist)
        full, stops = {}, []
        for i in range(16):
            for j in range(i + 1, 16):
                x, y = _windows(m, i, j)
                full_p = permutation_pvalue(x, y, shuffles, task_rng(seed, i, j))
                if full_p < level:
                    full[(f"s{i:02d}", f"s{j:02d}")] = (population_correlation(x, y),
                                                        full_p)
                flags = _replayed_exceedances(x, y, shuffles, task_rng(seed, i, j))
                stops.append(_stop_point(flags, shuffles, level, block_rows))
        assert {(e.i, e.j): (e.rho, e.pvalue) for e in net.edges} == full
        assert len(full) >= 5 and sum(s < shuffles for s in stops) >= len(stops) // 2
        assert net.diagnostics["shuffles_used"] == sum(stops)

    def test_first_block_holds_the_exceedances_needed_to_stop(self):
        # the two never trade on the same day, so x.y = 0 and every shuffle
        # reaches it: at 999 shuffles and level 0.01 the pair stops at its
        # 9th exceedance, which is the end of its first block
        net = _pair_network([1, 0] * 40, [0, 1] * 40, shuffles=999, level=0.01,
                            seed=2)
        assert net.diagnostics["pairs_tested"] == 1
        assert (net.edges, net.diagnostics["shuffles_used"]) == ([], 9)

    @pytest.mark.parametrize("block_rows", [1, 50])
    def test_stopping_exceedance_on_last_shuffle(self, monkeypatch, block_rows):
        monkeypatch.setattr(syncnet, "_BLOCK_ROWS", block_rows)
        data = np.random.default_rng(21)
        gate = data.random(80) < 0.5
        x = data.poisson(1.0, 80) * gate + data.poisson(0.5, 80)
        y = data.poisson(1.0, 80) * gate + data.poisson(0.8, 80)
        x[0] = y[0] = 1
        slist = [series_from_counts(x, investor="a"), series_from_counts(y, investor="b")]
        xw, yw = _windows(matrix(slist), 0, 1)
        flags = _replayed_exceedances(xw, yw, 600, task_rng(5, 0, 1))
        # the shuffle count ending at an exceedance, with at least 99 shuffles
        hits = np.flatnonzero(flags) + 1
        shuffles = int(hits[hits >= 99][0])
        count = int(flags[:shuffles].sum())
        assert flags[shuffles - 1] and count >= 1
        # at this level the pair's count reaches the stop point exactly on its
        # last shuffle: it is dropped after drawing every shuffle
        level = (1 + count) / (shuffles + 1)
        net = _network(slist, shuffles=shuffles, level=level, seed=5)
        assert (net.edges, net.diagnostics["shuffles_used"]) == ([], shuffles)
        # one ulp above, the same pair is kept with that exact p-value
        net = _network(slist, shuffles=shuffles, level=np.nextafter(level, 1.0),
                       seed=5)
        assert [e.pvalue for e in net.edges] == [level]
        assert net.diagnostics["shuffles_used"] == shuffles
