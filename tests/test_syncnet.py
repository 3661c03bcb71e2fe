import io
import itertools
import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrix, series_from_counts, window
from oracles import bruteforce_pair_correlation, permutation_pvalue, reference_plan
from tradesync import parallel, syncnet
from tradesync.errors import DegenerateInputError
from tradesync.parallel import task_rng
from tradesync.syncnet import build_sync_network, write_edges
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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 400), st.integers(1, 6), st.floats(0.05, 3.0),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_partner_matrix_is_bit_identical_to_pairs(self, n, m, lam, seed,
                                                      constant_row):
        # activity windows: mostly zeros and tied counts, over lengths on
        # both sides of numpy's 128-element pairwise-summation block
        data = np.random.default_rng(seed)
        x = data.poisson(lam, n).astype(float)
        ys = data.poisson(lam, (m, n)).astype(float)
        if constant_row:
            ys[data.integers(m)] = data.integers(3)
        rho = population_correlation(x, ys)
        assert rho.shape == (m,)
        for row, r in zip(ys, rho.tolist()):
            try:
                assert r == population_correlation(x, row)
            except DegenerateInputError:
                assert math.isnan(r)


class TestPermutationFilter:
    def test_perfectly_synchronized_pair(self):
        x = np.random.default_rng(1).integers(1, 9, size=30).astype(float)
        y = x.copy()
        assert population_correlation(x, y) == 1.0
        pvalue = permutation_pvalue(x, y, shuffles=999, seed=7)
        assert pvalue < 0.01
        assert pvalue == pytest.approx(1 / 1000)

    def test_exact_zero_rho_not_kept(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([1.0, 3.0, 0.0, 2.0])
        assert population_correlation(x, y) == 0.0
        p = permutation_pvalue(x, y, shuffles=999, seed=3)
        assert p > 0.1  # far above any conventional level

    def test_deterministic_given_seed(self):
        rng_data = np.random.default_rng(5)
        x = rng_data.poisson(1.0, 100).astype(float)
        y = rng_data.poisson(1.0, 100).astype(float)
        p1 = permutation_pvalue(x, y, 999, 11)
        p2 = permutation_pvalue(x, y, 999, 11)
        assert p1 == p2

    def test_null_permutes_one_window(self):
        rng_data = np.random.default_rng(6)
        x = rng_data.poisson(1.0, 60).astype(float)
        y = rng_data.poisson(1.0, 60).astype(float)
        p = permutation_pvalue(x, y, 499, 1)
        exceed = _replayed_exceedances(x, y, 499, 1)
        assert p == (1 + exceed.sum()) / 500
        assert 0 < p <= 1

    def test_min_shuffles_enforced(self):
        with pytest.raises(ValueError):
            permutation_pvalue(np.arange(5.0), np.arange(5.0), 10, 0)


def _exact_exceed_probability(x, y) -> Fraction:
    """P(sigma(x).y >= x.y) over all len(x)! orderings of x, in integers; tied
    values count once per position, as a uniform permutation draws them."""
    s0 = sum(a * b for a, b in zip(x, y))
    perms = list(itertools.permutations(x))
    hits = sum(sum(a * b for a, b in zip(p, y)) >= s0 for p in perms)
    return Fraction(hits, len(perms))


@pytest.mark.parametrize("x,y,exact", [
    ([3, 0, 5, 1, 4, 2, 6], [1, 4, 6, 0, 3, 2, 5], Fraction(1, 10)),
    # tied values, zeros among them, as in activity windows
    ([0, 2, 1, 0, 0, 3, 1], [1, 0, 2, 0, 1, 3, 0], Fraction(73, 420)),
    # a group: each permutation of x scores both partners, one with tied zeros
    ([3, 0, 5, 1, 4, 2, 6], [[1, 4, 6, 0, 3, 2, 5], [1, 0, 2, 0, 1, 3, 0]],
     [Fraction(1, 10), Fraction(59, 140)]),
    # 8 days fill their size class: the bank's rows are used whole
    ([0, 2, 1, 0, 3, 1, 0, 4], [1, 0, 2, 0, 1, 3, 0, 2], Fraction(1, 4)),
])
def test_shuffle_null_matches_every_permutation(x, y, exact):
    # the pair null is enumerated over all 5,040 permutations of 7 days (rows
    # of the 8-day bank cut to 7) or 40,320 of 8 days, and any sampler of it
    # must land within 4 standard errors of that for every partner
    shuffles = 20_000
    ys = np.atleast_2d(np.array(y, float))
    exact = exact if isinstance(exact, list) else [exact]
    assert [_exact_exceed_probability(x, row) for row in ys.tolist()] == exact
    count, done = syncnet._shuffle_exceed_count(
        np.array(x, float), ys.T, shuffles, syncnet._Bank(17, shuffles))
    assert done.tolist() == [shuffles] * len(exact)
    for c, p in zip(count.tolist(), map(float, exact)):
        assert abs(c / shuffles - p) <= 4 * math.sqrt(p * (1 - p) / shuffles)


def test_restriction_of_every_permutation_is_uniform():
    # all 8! permutations of range(8), cut to their entries below 5: each of
    # the 5! orders of range(5) comes from exactly 8! / 5! = 336 of them
    perms = np.array(list(itertools.permutations(range(8))), dtype=np.uint8)
    restricted = syncnet._restrict(perms, 5)
    assert restricted.shape == (40_320, 5)
    hits = Counter(map(tuple, restricted.tolist()))
    assert len(hits) == 120 and set(hits.values()) == {336}
    assert syncnet._restrict(perms, 8) is perms


@pytest.mark.parametrize("length,dtype", [(2, np.uint8), (200, np.uint8),
                                          (256, np.uint8), (257, np.uint16),
                                          (512, np.uint16)])
def test_bank_rows_do_not_depend_on_how_the_bank_grew(length, dtype):
    # rows drawn in one call equal rows drawn in the kernel's block sizes:
    # 9 (the exceedances needed to stop at 999 shuffles and level 0.01),
    # then doubling up to 50 rows
    shuffles = 999
    whole = syncnet._Bank(4, shuffles).permutations(length, 0, shuffles)
    bank, blocks, done, rows = syncnet._Bank(4, shuffles), [], 0, 0
    while done < shuffles:
        rows = min(50, 2 * rows if rows else 9, shuffles - done)
        blocks.append(bank.permutations(length, done, done + rows))
        done += rows
    assert [b.shape[0] for b in blocks[:4]] == [9, 18, 36, 50]
    assert np.array_equal(np.concatenate(blocks), whole)
    assert whole.shape == (shuffles, length) and whole.dtype == dtype
    assert (np.sort(whole, axis=1) == np.arange(length)).all()
    # a later call reads the rows already drawn
    assert np.array_equal(bank.permutations(length, 100, 200), whole[100:200])
    # a window of another length in the same size class reads the same rows
    m = 1 << (length - 1).bit_length()
    full = bank.permutations(m, 0, shuffles)
    assert np.array_equal(syncnet._restrict(full, length), whole)


def _replayed_exceedances(x, y, shuffles, seed):
    """Per-replica exceedance flags, drawing one permutation at a time from
    the stream of x's size class, the smallest power of two m >= len(x), and
    keeping its entries below len(x)."""
    s0 = float(np.dot(x, y))
    m = 1 << (x.size - 1).bit_length()
    rng = task_rng(seed, m)
    flags = []
    for _ in range(shuffles):
        perm = np.arange(m)[np.newaxis, :]
        rng.permuted(perm, axis=1, out=perm)
        flags.append(float(x[perm[perm < x.size]] @ y) >= s0)
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
        # distinct counts: only the identity arrangement reaches x.x, so a
        # group of partners drops them all with probability 199 / 12! ~ 4e-7
        counts = [3, 1, 4, 12, 5, 9, 2, 6, 8, 7, 11, 10]
        series = {f"I{i}": series_from_counts(counts, investor=f"I{i}")
                  for i in range(6)}
        net = _build(series, min_ops=1, shuffles=199, level=0.01, seed=1, workers=1)
        assert len(net.edges) == 15
        assert all(e.rho == 1.0 for e in net.edges)

    def test_parallel_equals_serial(self, rng, monkeypatch):
        monkeypatch.setattr(parallel, "POOL_MIN_CPU_S", 0.0)  # pool this small test
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


    def test_false_edges_do_not_cluster_on_the_permuted_node(self):
        # a null market whose pairs all share one window: node a permutes its
        # window for every partner b > a, so dependent p-values would show as
        # an excess of false edges or as a wider spread of false degrees
        n_nodes, n_days, shuffles, level = 60, 100, 199, 0.05
        q = (math.ceil(level * (shuffles + 1)) - 1) / (shuffles + 1)  # 9 / 200
        tested = edges = 0
        variances = []
        for seed in range(12):
            data = np.random.default_rng(800 + seed)
            slist = []
            for i in range(n_nodes):
                counts = data.poisson(1.0, n_days)
                counts[0] = max(counts[0], 1)
                counts[-1] = max(counts[-1], 1)
                slist.append(series_from_counts(counts, investor=f"N{i:02d}"))
            net = _network(slist, shuffles=shuffles, level=level, seed=seed)
            tested += net.diagnostics["pairs_tested"]
            edges += len(net.edges)
            variances.append(np.var(list(net.degree().values())))
        assert tested == 12 * n_nodes * (n_nodes - 1) // 2
        assert edges / tested <= q + 3 * math.sqrt(q * (1 - q) / tested)
        assert np.mean(variances) <= 1.3 * (n_nodes - 1) * q * (1 - q)

    def test_false_edges_do_not_cluster_across_groups_of_one_bank(self):
        # a null market whose nodes start on 20 different days and end on the
        # last: pairs fall in groups of 20 windows, 81 to 100 days long, and
        # every group scores the same rows of the 128-day bank, so dependence
        # across groups would show as an excess of false edges or as a wider
        # spread of false degrees
        n_nodes, n_days, shuffles, level = 60, 100, 199, 0.05
        q = (math.ceil(level * (shuffles + 1)) - 1) / (shuffles + 1)  # 9 / 200
        tested = edges = 0
        variances = []
        for seed in range(12):
            data = np.random.default_rng(900 + seed)
            slist = []
            for i in range(n_nodes):
                counts = data.poisson(1.0, n_days)
                counts[:i % 20] = 0
                counts[i % 20] = max(counts[i % 20], 1)
                counts[-1] = max(counts[-1], 1)
                slist.append(series_from_counts(counts, investor=f"N{i:02d}"))
            net = _network(slist, shuffles=shuffles, level=level, seed=seed)
            tested += net.diagnostics["pairs_tested"]
            edges += len(net.edges)
            variances.append(np.var(list(net.degree().values())))
        assert tested == 12 * n_nodes * (n_nodes - 1) // 2
        windows = {end - start + 1 for _, start, end, _, _ in _groups(matrix(slist))}
        assert len(windows) == 20 and {1 << (w - 1).bit_length() for w in windows} == {128}
        assert edges / tested <= q + 3 * math.sqrt(q * (1 - q) / tested)
        assert np.mean(variances) <= 1.3 * (n_nodes - 1) * q * (1 - q)


def _plan(first, last):
    """`syncnet._owned` over every owner: the pair test's groups, owner by
    owner, and its counts of disjoint and short pairs."""
    tables = syncnet._count_table(first, last)
    groups, disjoint, short = [], 0, 0
    for a in range(len(first)):
        owned, a_disjoint, a_short = syncnet._owned(tables, a)
        groups += owned
        disjoint += a_disjoint
        short += a_short
    return groups, disjoint, short


def _pairs_by_brute_force(first, last):
    """Each pair's window, and the pairs of each (node, window)."""
    n = len(first)
    window = {(a, b): (max(first[a], first[b]), min(last[a], last[b]))
              for a in range(n) for b in range(n) if a != b}
    serves = Counter((a, w) for (a, b), w in window.items() if w[1] > w[0])
    return window, serves


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=16),
       st.integers(1, 60))
def test_plan_puts_every_pair_in_one_group(spans, max_elements):
    first, last = [min(s) for s in spans], [max(s) for s in spans]
    with mock.patch.object(syncnet, "_BLOCK_ELEMENTS", max_elements):
        groups, disjoint, short = _plan(first, last)
    window, serves = _pairs_by_brute_force(first, last)
    pairs = [(a, b) for a in range(len(spans)) for b in range(a + 1, len(spans))]
    assert disjoint == sum(window[p][1] < window[p][0] for p in pairs)
    assert short == sum(window[p][1] == window[p][0] for p in pairs)
    seen: Counter = Counter()
    parts: dict = {}
    for a, start, end, part, partners in groups:
        length = end - start + 1
        assert 1 <= partners.size <= max(1, max_elements // length)
        assert partners.tolist() == sorted(partners.tolist())
        parts.setdefault((a, start, end), []).append(part)
        for b in partners.tolist():
            assert window[a, b] == (start, end) and length >= 2
            # the side whose (node, window) serves more pairs, lower index on a tie
            mine, theirs = serves[a, (start, end)], serves[b, (start, end)]
            assert mine > theirs or (mine == theirs and a < b)
            seen[min(a, b), max(a, b)] += 1
    assert seen == Counter(p for p in pairs if window[p][1] > window[p][0])
    for numbers in parts.values():
        assert numbers in ([None], list(range(len(numbers))))
        assert numbers == [None] or len(numbers) >= 2


def test_plan_matches_the_serves_matrix_plan():
    # 200 seeded span sets, from many nodes sharing few days (ties and
    # repeated spans) to few nodes over many days
    rng = np.random.default_rng(2026)
    for _ in range(200):
        n, days = int(rng.integers(0, 80)), int(rng.integers(1, 300))
        spans = np.sort(rng.integers(0, days, size=(n, 2)), axis=1)
        first, last = spans[:, 0].tolist(), spans[:, 1].tolist()
        with mock.patch.object(syncnet, "_BLOCK_ELEMENTS", int(rng.integers(1, 400))):
            got, want = _plan(first, last), reference_plan(first, last)
        assert got[1:] == want[1:]
        assert [(*g[:4], g[4].tolist()) for g in got[0]] == \
            [(*g[:4], g[4].tolist()) for g in want[0]]


def test_owner_tasks_give_one_result_in_any_split_and_order(rng):
    # spans that start and end on different days, so owners own groups of
    # several windows, and a planted group, so that some pairs are kept
    n_days, n = 90, 18
    gate = rng.random(n_days) < 0.4
    slist = []
    for i in range(n):
        counts = rng.poisson(2.0 if i < 5 else 1.0, n_days) * (gate if i < 5 else 1)
        start, end = 5 * (i % 4), n_days - 1 - 7 * (i % 3)
        counts[:start] = counts[end + 1:] = 0
        counts[[start, end]] += 1
        slist.append(series_from_counts(counts, investor=f"s{i:02d}"))
    m = matrix(slist)
    assert len({(start, end) for _, start, end, _, _ in _groups(m)}) >= 6
    payload = {"rows": [m.active(k) for k in range(n)],
               "tables": syncnet._count_table(m.first_day.tolist(), m.last_day.tolist()),
               "seed": 8, "shuffles": 199, "level": 0.05}

    def run(tasks):
        results = [syncnet._test_owners(dict(payload), task) for task in tasks]
        return (sorted(edge for kept, _ in results for edge in kept),
                sum((counts for _, counts in results), Counter()))

    kept, counts = run([range(n)])
    assert len(kept) >= 5 and counts["tested"] > 0
    assert sum(counts[k] for k in ("disjoint", "short", "degenerate", "tested")) \
        == n * (n - 1) // 2
    for tasks in ([range(k, n, 5) for k in range(5)], [range(n - 1, -1, -1)],
                  [[a] for a in reversed(range(n))]):
        assert run(tasks) == (kept, counts)
    net = build_sync_network(m, min_ops=1, shuffles=199, level=0.05, seed=8, workers=1)
    assert [(e.i, e.j) for e in net.edges] == \
        [(f"s{i:02d}", f"s{j:02d}") for i, j, *_ in kept]


def _stop_points(flags, shuffles, level, block_rows):
    """Shuffles each partner of a group draws (flags: one row of per-replica
    exceedances per partner): the first block end where the partner's own
    (1 + count) / (shuffles + 1) reaches level, else all of them. A block
    holds min(block_rows, max(exceedances the closest live partner still
    needs to stop, twice the previous block, 1)) shuffles. The kernel's rule,
    the exceedances to stop and then doubling, is this one without the need
    term, which binds only on the first block; replaying the longer form
    checks that the two agree."""
    stop_count = math.ceil(level * (shuffles + 1)) - 1
    stops = [shuffles] * len(flags)
    live = list(range(len(flags)))
    done = block = 0
    while done < shuffles and live:
        need = stop_count - max(flags[k, :done].sum() for k in live)
        block = min(block_rows, max(need, 2 * block, 1))
        done = min(done + block, shuffles)
        for k in list(live):
            if (1 + flags[k, :done].sum()) / (shuffles + 1) >= level:
                stops[k] = done
                live.remove(k)
    return stops


def _groups(m):
    """The pair test's groups over every row of matrix m."""
    groups, _, _ = _plan(m.first_day.tolist(), m.last_day.tolist())
    return groups


def _network(slist, **kwargs):
    return build_sync_network(matrix(slist), min_ops=1,
                              workers=1, **kwargs)


class TestEarlyStopping:
    @pytest.mark.parametrize("block_rows,max_elements", [
        pytest.param(1, syncnet._BLOCK_ELEMENTS, id="1"),
        pytest.param(7, syncnet._BLOCK_ELEMENTS, id="7"),
        pytest.param(50, syncnet._BLOCK_ELEMENTS, id="50"),
        # groups split into parts of 3 to 5 partners, all on one bank
        pytest.param(50, 400, id="50-split"),
    ])
    def test_stopped_run_matches_full_run(self, rng, monkeypatch, block_rows,
                                          max_elements):
        monkeypatch.setattr(syncnet, "_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(syncnet, "_BLOCK_ELEMENTS", max_elements)
        n_days, shuffles, level, seed = 120, 199, 0.05, 13
        gate = rng.random(n_days) < 0.4
        slist = []
        for i in range(16):
            counts = rng.poisson(1.0, n_days)
            if i < 5:  # a planted group, so that some pairs are kept
                counts = rng.poisson(2.0, n_days) * gate + rng.poisson(0.2, n_days)
            counts[0] = max(counts[0], 1)
            counts[-1] = max(counts[-1], 1)
            if i % 4 == 3:  # later starts, so that groups differ in window
                counts[:3 * i] = 0
                counts[3 * i] = 1
            slist.append(series_from_counts(counts, investor=f"s{i:02d}"))
        net = _network(slist, shuffles=shuffles, level=level, seed=seed)
        assert net.node_ids == [s.investor_id for s in slist]
        assert net.diagnostics["pairs_tested"] == 120
        m = matrix(slist)
        groups = _groups(m)
        assert len({(start, end) for _, start, end, _, _ in groups}) >= 3
        parts = [part for _, _, _, part, _ in groups]
        assert (parts.count(None) < len(parts)) == (max_elements == 400)
        full, stops = {}, []
        for a, start, end, _, partners in groups:
            x = window(m, a, start, end).astype(float)
            flags = []
            for b in partners.tolist():
                y = window(m, b, start, end).astype(float)
                # each partner alone replays the whole bank of its window
                full_p = permutation_pvalue(x, y, shuffles, seed)
                if full_p < level:
                    full[f"s{min(a, b):02d}", f"s{max(a, b):02d}"] = (
                        population_correlation(x, y), full_p)
                flags.append(_replayed_exceedances(x, y, shuffles, seed))
            rows = max(1, min(block_rows, max_elements // x.size))
            stops += _stop_points(np.array(flags), shuffles, level, rows)
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
        m = matrix(slist)
        [(a, start, end, part, partners)] = _groups(m)
        assert part is None and partners.tolist() == [1 - a]
        xw, yw = window(m, a, start, end), window(m, 1 - a, start, end)
        flags = _replayed_exceedances(xw.astype(float), yw.astype(float), 600, 5)
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
