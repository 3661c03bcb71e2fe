import itertools
from dataclasses import replace

import numpy as np
import pytest

from conftest import complete_bipartite, fixture_network, two_cliques
from oracles import (endpoint_assortativity, modularity_of,
                     reference_double_edge_swap, two_clique_modularity)
from tradesync import netmetrics, parallel
from tradesync.errors import DegenerateInputError
from tradesync.netmetrics import (SAMPLE_GAP, assortativity, discretize_attribute,
                                  discretize_opd, double_edge_swap, louvain,
                                  null_rewire, null_shuffle)
from tradesync.parallel import task_rng


def _swap(edges, n_steps, rng):
    """One run of the swap chain, in the form reference_double_edge_swap returns."""
    (src, dst, accepted), = double_edge_swap(edges, [n_steps], rng)
    return list(zip(src, dst)), accepted


def _random_graph(rng, n=30, p=0.15):
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return fixture_network(n, edges)


def _edge_indices(net, rng=None):
    """Index edges of a fixture network; with `rng`, each edge's orientation
    is flipped at random."""
    pos = {n: k for k, n in enumerate(net.node_ids)}
    edges = [(pos[e.i], pos[e.j]) for e in net.edges]
    if rng is not None:
        edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    return edges


def _block_graph(seed, size=50, p_in=0.3, p_out=0.01):
    r = np.random.default_rng(seed)
    n = 2 * size
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            p = p_in if (a < size) == (b < size) else p_out
            if r.random() < p:
                edges.append((a, b))
    return fixture_network(n, edges)


class TestModularity:
    def test_all_in_one_is_zero(self, rng):
        net = _random_graph(rng)
        q = modularity_of(net, {n: 0 for n in net.node_ids})
        assert q == pytest.approx(0.0, abs=1e-12)

    def test_two_clique_closed_form(self):
        net = two_cliques(5)
        split = {n: (0 if int(n[1:]) < 5 else 1) for n in net.node_ids}
        assert modularity_of(net, split) == pytest.approx(
            two_clique_modularity(5), abs=1e-12)

    def test_random_partition_near_zero(self):
        qs = []
        for seed in range(100):
            r = np.random.default_rng(seed)
            net = _random_graph(r, n=50, p=0.3)
            part = {n: int(r.integers(0, 4)) for n in net.node_ids}
            qs.append(modularity_of(net, part))
        assert max(abs(q) for q in qs) < 0.1

    def test_missing_node_errors(self):
        net = two_cliques(3)
        with pytest.raises(ValueError):
            modularity_of(net, {net.node_ids[0]: 0})


class TestLouvain:
    def test_two_cliques_every_seed(self):
        net = two_cliques(5)
        for seed in range(20):
            part = louvain(net, seed=seed)
            assert part.q == pytest.approx(0.5, abs=1e-9)
            left = {part.communities[n] for n in net.node_ids[:5]}
            right = {part.communities[n] for n in net.node_ids[5:]}
            assert len(left) == 1 and len(right) == 1 and left != right

    def test_single_clique_one_community(self):
        net = fixture_network(6, [(a, b) for a in range(6) for b in range(a + 1, 6)])
        part = louvain(net, seed=0)
        assert len(set(part.communities.values())) == 1
        assert part.q == pytest.approx(0.0, abs=1e-12)

    def test_planted_blocks_recovered(self):
        hits = 0
        trials = 40
        for seed in range(trials):
            net = _block_graph(1000 + seed)
            part = louvain(net, seed=seed)
            comms: dict[int, set] = {}
            for n, c in part.communities.items():
                comms.setdefault(c, set()).add(int(n[1:]))
            planted = [set(range(50)), set(range(50, 100))]
            if sorted(map(sorted, comms.values())) == sorted(map(sorted, planted)):
                hits += 1
        assert hits / trials >= 0.95

    def test_never_worse_than_trivial(self):
        for seed in range(25):
            r = np.random.default_rng(seed)
            net = _random_graph(r, n=25, p=0.2)
            if not net.edges:
                continue
            assert louvain(net, seed=seed).q >= -1e-12

    def test_deterministic_given_seed(self, rng):
        net = _random_graph(rng, n=40, p=0.15)
        p1 = louvain(net, seed=11)
        p2 = louvain(net, seed=11)
        assert p1.communities == p2.communities and p1.q == p2.q

    def test_empty_and_edgeless_errors(self):
        with pytest.raises(DegenerateInputError):
            louvain(fixture_network(0, []), seed=0)
        with pytest.raises(DegenerateInputError):
            louvain(fixture_network(3, []), seed=0)


class TestDiscretize:
    @pytest.mark.parametrize("value,score", [
        (0.379, 37), (-0.379, -37), (1.0, 100), (-1.0, -100), (0.0, 0),
        (0.999, 99),
    ])
    def test_truncation_toward_zero(self, value, score):
        assert discretize_attribute({"a": value}) == {"a": score}

    def test_out_of_range_errors(self):
        with pytest.raises(ValueError):
            discretize_attribute({"a": 1.5})

    def test_opd_cap(self):
        assert discretize_opd({"a": 3.9, "b": 250.0}, cap=100) == {"a": 3, "b": 100}


class TestAssortativity:
    def test_two_clique_monochrome(self):
        net = two_cliques(5)
        attr = {n: (10 if int(n[1:]) < 5 else 20) for n in net.node_ids}
        assert assortativity(net, attr) == 1.0

    def test_complete_bipartite(self):
        net = complete_bipartite(4)
        attr = {n: (10 if int(n[1:]) < 4 else 20) for n in net.node_ids}
        assert assortativity(net, attr) == -1.0

    def test_matches_endpoint_covariance(self, rng):
        for _ in range(20):
            net = _random_graph(rng, n=25, p=0.2)
            if not net.edges:
                continue
            scores = {n: int(rng.integers(-50, 51)) for n in net.node_ids}
            pairs = [(e.i, e.j) for e in net.edges]
            try:
                r = assortativity(net, scores)
            except DegenerateInputError:
                continue
            assert r == pytest.approx(endpoint_assortativity(pairs, scores),
                                      abs=1e-12)

    def test_constant_attribute_errors(self):
        net = two_cliques(3)
        with pytest.raises(DegenerateInputError):
            assortativity(net, {n: 7 for n in net.node_ids})

    def test_endpoint_r_is_the_exact_endpoint_sums(self, rng):
        # nodes 0-4 carry no edge, and a few draws put one value on every
        # endpoint; one buffer serves every call, as in the nulls
        for n, m in [(30, 20), (60, 300), (200, 150)]:
            pairs = rng.choice([(a, b) for a in range(5, n) for b in range(a + 1, n)],
                               size=m, replace=False)
            ends = np.ascontiguousarray(pairs.T)
            degree = np.bincount(ends.ravel(), minlength=n)
            buf = np.empty_like(ends)
            for high in (1, 2, 3, 201) * 5:
                scores = rng.integers(-100, -100 + high, size=n)
                x, y = ([int(scores[v]) for v in col] for col in ends.tolist())
                s = sum(x) + sum(y)
                q = sum(v * v for v in x + y)
                p = sum(a * b for a, b in zip(x, y))
                den = 2 * m * q - s * s
                if den == 0:
                    with pytest.raises(DegenerateInputError):
                        netmetrics._endpoint_r(ends, degree, scores, buf)
                    continue
                assert netmetrics._endpoint_r(ends, degree, scores, buf) == \
                    (4 * m * p - s * s) / den


class TestDoubleEdgeSwap:
    def test_preserves_degrees_and_simplicity(self, rng):
        net = _random_graph(rng, n=25, p=0.25)
        edges = [(int(e.i[1:]), int(e.j[1:])) for e in net.edges]
        swapped, accepted = _swap(edges, 10 * len(edges), task_rng(5, 0))
        def degs(es):
            d: dict[int, int] = {}
            for a, b in es:
                d[a] = d.get(a, 0) + 1
                d[b] = d.get(b, 0) + 1
            return d
        assert degs(swapped) == degs(edges)
        canon = {tuple(sorted(e)) for e in swapped}
        assert len(canon) == len(edges)                  # simple, same count
        assert all(a != b for a, b in swapped)           # no self-loops
        assert canon != {tuple(sorted(e)) for e in edges}  # actually rewired
        assert 0 < accepted <= 10 * len(edges)

    @pytest.mark.parametrize("n,p", [(60, 0.05), (30, 0.3), (20, 0.6)])
    def test_matches_reference_on_random_graphs(self, n, p):
        for seed in range(4):
            r = np.random.default_rng(seed)
            edges = _edge_indices(_random_graph(r, n=n, p=p), r)
            n_steps = 10 * len(edges)
            swapped = _swap(edges, n_steps, task_rng(seed, 1))
            assert swapped == reference_double_edge_swap(edges, n_steps,
                                                         task_rng(seed, 1))
            assert swapped[0] != edges

    def test_matches_reference_on_two_cliques(self):
        edges = _edge_indices(two_cliques(8))
        for seed in range(4):
            assert _swap(edges, 10 * len(edges), task_rng(seed, 2)) == \
                reference_double_edge_swap(edges, 10 * len(edges), task_rng(seed, 2))

    def test_schedule_carries_the_chain_from_one_count_to_the_next(self):
        # each count continues the same chain: the reference run again on
        # the edges it left, on the same generator
        r = np.random.default_rng(2)
        edges = _edge_indices(_random_graph(r, n=40, p=0.15), r)
        schedule = [10 * len(edges), 1, 1500, 0, 2 * len(edges)]
        ref_rng, current, total = task_rng(3, 1), edges, 0
        chain = double_edge_swap(edges, schedule, task_rng(3, 1))
        for (src, dst, accepted), steps in zip(chain, schedule, strict=True):
            current, got = reference_double_edge_swap(current, steps, ref_rng)
            total += got
            assert (list(zip(src, dst)), accepted) == (current, total)

    @pytest.mark.parametrize("edges", [
        [(a, b) for a in range(4) for b in range(a + 1, 4)],  # K4
        [(0, 1)],
    ], ids=["K4", "single-edge"])
    def test_graph_without_swaps_stays_put(self, edges):
        # every proposal is rejected, and each rejection is a step
        for steps in (0, 1, 1023, 1025):
            got = _swap(edges, steps, task_rng(0, 0))
            assert got == (edges, 0)
            assert got == reference_double_edge_swap(edges, steps, task_rng(0, 0))

    def test_uniform_over_two_regular_graphs_on_six_nodes(self):
        # the 70 simple 2-regular graphs on 6 labelled nodes (60 hexagons, 10
        # pairs of triangles) differ in how many proposals they accept, 24 to
        # 36 of 72; counting rejections as steps still samples them uniformly.
        # From a hexagon, 60 steps leave the chain within 3e-6 of uniform in
        # total variation (exact transition matrix).
        graphs = {frozenset(es) for es in itertools.combinations(
            itertools.combinations(range(6), 2), 6)
            if all(sum(v in e for e in es) == 2 for v in range(6))}
        assert len(graphs) == 70
        start = [(v, (v + 1) % 6) for v in range(6)]
        runs = 7000
        counts = dict.fromkeys(graphs, 0)
        for rep in range(runs):
            edges, _ = _swap(start, 60, task_rng(0, rep))
            counts[frozenset(tuple(sorted(e)) for e in edges)] += 1
        expected = runs / len(graphs)
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert len(counts) == 70
        assert stat < 111.06  # upper 0.1% point of chi-square with 69 df

    @pytest.mark.parametrize("edges,message", [
        ([(0, 1), (2, 2)], "self-loop"),
        ([(0, 1), (1, 2), (0, 1)], "duplicate"),
        ([(0, 1), (2, 1), (1, 0)], "duplicate"),
        ([(0, 1), (-1, 2)], "negative"),
    ])
    def test_invalid_edges_raise(self, edges, message):
        with pytest.raises(ValueError, match=message):
            _swap(edges, 5, task_rng(0, 0))


class TestNullModels:
    @pytest.mark.parametrize("n", [1, 2, 3, 39, 40, 41, 100, 1000, 1001])
    def test_percentile_is_numpys_to_the_bit(self, rng, n):
        # np.percentile is the reference; the null's own copy of its linear
        # rule exists only to keep numpy.ma unloaded
        for sample in (rng.normal(size=n), rng.integers(-3, 3, n) / 7.0):
            ordered = np.sort(sample)
            for q in np.arange(0.0, 100.5, 0.5).tolist():
                assert netmetrics._percentile(ordered, q) == np.percentile(ordered, q)

    def test_rewire_null_centers_near_zero(self):
        net = two_cliques(30)
        attr = {n: (10 if int(n[1:]) < 30 else 20) for n in net.node_ids}
        stats = null_rewire(net, attr, replicas=100, seed=5, workers=1)
        assert abs(stats.mean) < 0.05
        assert stats.ci_low <= 0.0 <= stats.ci_high

    def test_shuffle_null_centers_near_zero(self):
        net = two_cliques(30)
        attr = {n: (10 if int(n[1:]) < 30 else 20) for n in net.node_ids}
        stats = null_shuffle(net, attr, replicas=200, seed=5)
        assert abs(stats.mean) < 0.05
        assert stats.ci_low <= 0.0 <= stats.ci_high

    def test_single_replica_degenerate_ci(self):
        net = two_cliques(4)
        attr = {n: (1 if int(n[1:]) < 4 else 2) for n in net.node_ids}
        stats = null_rewire(net, attr, replicas=1, seed=9, workers=1)
        assert stats.ci_low == stats.ci_high == stats.mean

    def test_deterministic_given_seed(self):
        net = two_cliques(6)
        attr = {n: (1 if int(n[1:]) < 6 else 2) for n in net.node_ids}
        s1 = null_rewire(net, attr, replicas=25, seed=3, workers=1)
        s2 = null_rewire(net, attr, replicas=25, seed=3, workers=1)
        assert s1 == s2
        s3 = null_shuffle(net, attr, replicas=25, seed=3)
        s4 = null_shuffle(net, attr, replicas=25, seed=3)
        assert s3 == s4

    def test_parallel_equals_serial(self, monkeypatch):
        monkeypatch.setattr(parallel, "POOL_MIN_CPU_S", 0.0)  # pool this small null
        net = two_cliques(8)
        attr = {n: (1 if int(n[1:]) < 8 else 2) for n in net.node_ids}
        rewired = {null_rewire(net, attr, replicas=22, seed=2, workers=w)
                   for w in (1, 2, 3)}
        assert len(rewired) == 1

    def test_shuffle_null_runs_in_the_calling_process(self, monkeypatch):
        net = two_cliques(8)
        attr = {n: (1 if int(n[1:]) < 8 else 2) for n in net.node_ids}

        def no_pool(*args):
            raise AssertionError("the shuffle null called map_tasks")

        monkeypatch.setattr(netmetrics, "map_tasks", no_pool)
        shuffled = set()
        for workers in ("1", "2"):
            monkeypatch.setenv("TRADESYNC_WORKERS", workers)
            shuffled.add(null_shuffle(net, attr, replicas=40, seed=2))
        assert len(shuffled) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tuple_attribute_scores_each_position_on_one_chain_set(self, workers,
                                                                     monkeypatch):
        monkeypatch.setattr(parallel, "POOL_MIN_CPU_S", 0.0)  # pool this small null
        # nodes 0-4 carry no edge: the single calls score them and the first
        # joint call does not, so the two number the edge endpoints apart
        r = np.random.default_rng(5)
        net = fixture_network(30, [(a, b) for a in range(5, 30)
                                   for b in range(a + 1, 30) if r.random() < 0.2])
        rho = {node: k % 7 - 3 for k, node in enumerate(net.node_ids)}
        opd = {node: k % 4 for k, node in enumerate(net.node_ids)}
        singles = [null_rewire(net, attr, replicas=22, seed=4, workers=workers)
                   for attr in (rho, opd)]
        assert singles[0] != singles[1]
        assert singles[0].acceptance == singles[1].acceptance
        for nodes in (net.node_ids[5:], net.node_ids):
            joint = {node: (rho[node], opd[node]) for node in nodes}
            assert null_rewire(net, joint, replicas=22, seed=4,
                               workers=workers) == singles
        alone = {node: (opd[node],) for node in net.node_ids[5:]}
        assert null_rewire(net, alone, replicas=22, seed=4,
                           workers=workers) == singles[1:]

    def test_shuffle_needs_two_values(self):
        net = two_cliques(3)
        with pytest.raises(DegenerateInputError):
            null_shuffle(net, {n: 4 for n in net.node_ids}, replicas=5, seed=0)

    @pytest.mark.parametrize("n,values", [(4, 4), (8, 2)], ids=["K4", "K8-minus-edge"])
    def test_graph_without_swaps_gives_point_mass(self, n, values):
        # K4, and K8 without edge (0, 1), admit no swap; r and both nulls are
        # still defined, and the rewire null is a point mass at r
        net = fixture_network(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                                  if n == 4 or (a, b) != (0, 1)])
        attr = {node: k % values for k, node in enumerate(net.node_ids)}
        r = assortativity(net, attr)
        rew = null_rewire(net, attr, replicas=20, seed=1, workers=1)
        assert rew.acceptance == 0.0 and rew.lag1 is None
        assert rew.as_dict()["lag1"] is None
        assert rew.ci_low == rew.ci_high == r
        assert rew.mean == pytest.approx(r, abs=1e-15)
        shu = null_shuffle(net, attr, replicas=20, seed=2)
        assert shu.undefined == 0

    def test_rewire_acceptance_on_a_sparse_graph(self):
        net = _random_graph(np.random.default_rng(3), n=40, p=0.1)
        attr = {node: k % 5 for k, node in enumerate(net.node_ids)}
        stats = null_rewire(net, attr, replicas=10, seed=2, workers=1)
        assert 0.0 < stats.acceptance <= 1.0

    def test_rewire_null_is_four_thinned_reference_chains(self):
        # sample k of chain c is the reference chain run on the observed
        # edges for the burn-in, then k times for the gap, all on one
        # task_rng(seed, c); ten replicas split 3, 3, 2, 2 over the chains
        net = _random_graph(np.random.default_rng(8), n=30, p=0.2)
        attr = {node: k % 7 for k, node in enumerate(net.node_ids)}
        edges, scores = _edge_indices(net), [attr[n] for n in net.node_ids]
        m = len(edges)
        chains, proposals, accepted = [], 0, 0
        for c, samples in enumerate([3, 3, 2, 2]):
            rng, current, values = task_rng(7, c), edges, []
            for k in range(samples):
                steps = 10 * m if k == 0 else SAMPLE_GAP * m
                current, got = reference_double_edge_swap(current, steps, rng)
                proposals += steps
                accepted += got
                values.append(endpoint_assortativity(current, scores))
            chains.append(values)
        flat = [r for c in chains for r in c]
        mu = sum(flat) / len(flat)
        lag1 = sum((c[t] - mu) * (c[t + 1] - mu) for c in chains
                   for t in range(len(c) - 1)) / sum((r - mu) ** 2 for r in flat)

        stats = null_rewire(net, attr, replicas=10, seed=7, workers=1)
        assert stats.replicas == 10
        assert stats.acceptance == accepted / proposals
        assert stats.mean == pytest.approx(mu, abs=1e-12)
        assert [stats.ci_low, stats.ci_high] == pytest.approx(
            np.percentile(flat, [2.5, 97.5]).tolist(), abs=1e-12)
        assert stats.lag1 == pytest.approx(lag1, abs=1e-9)

    @pytest.mark.parametrize("replicas", [1, 3, 5, 81])
    def test_rewire_null_draws_one_sample_per_replica(self, monkeypatch, replicas):
        seen = []
        real = netmetrics._null_stats

        def spy(values, n, **counters):
            seen.append(len(values))
            return real(values, n, **counters)

        monkeypatch.setattr(netmetrics, "_null_stats", spy)
        net = _random_graph(np.random.default_rng(3), n=40, p=0.1)
        attr = {node: k % 5 for k, node in enumerate(net.node_ids)}
        stats = null_rewire(net, attr, replicas=replicas, seed=2, workers=1)
        assert seen == [replicas] and stats.replicas == replicas
        # with at most four replicas no chain has a second sample
        assert (stats.lag1 is None) == (replicas <= 4)

    @pytest.mark.parametrize("replicas", [0, -3])
    def test_replicas_below_one_raise(self, replicas):
        net = _random_graph(np.random.default_rng(3), n=12, p=0.3)
        attr = {node: k % 3 for k, node in enumerate(net.node_ids)}
        with pytest.raises(ValueError, match=f"replicas must be at least 1, got {replicas}"):
            null_rewire(net, attr, replicas=replicas, seed=2, workers=1)
        with pytest.raises(ValueError, match=f"replicas must be at least 1, got {replicas}"):
            null_shuffle(net, attr, replicas=replicas, seed=2)

    def test_shuffle_leaves_out_undefined_replicas(self):
        # opd-like: 9 of 10 nodes share one value and there are two edges, so
        # a permutation that puts the other value off the edges leaves r
        # undefined; wherever it lands on an endpoint, r = -1/3
        net = fixture_network(10, [(0, 1), (2, 3)])
        attr = {node: 1 for node in net.node_ids}
        attr["N000"] = 2
        r = assortativity(net, attr)
        stats = null_shuffle(net, attr, replicas=200, seed=4)
        off_edges = sum(int(np.flatnonzero(task_rng(4, rep).permutation(10) == 0)[0]) >= 4
                        for rep in range(200))
        assert 0 < off_edges < 200
        assert stats.undefined == off_edges
        assert stats.replicas == 200
        assert stats.ci_low == stats.ci_high == r == pytest.approx(-1 / 3, abs=1e-15)

    def test_attribute_multiset_preserved_per_replica(self):
        # shuffle permutes values; check via a replica-level reimplementation
        net = two_cliques(5)
        attr = {n: int(n[1:]) % 3 for n in net.node_ids}
        scores = [attr[n] for n in net.node_ids if n in attr]
        for rep in range(10):
            rng = task_rng(77, rep)
            perm = rng.permutation(len(scores))
            shuffled = [scores[int(p)] for p in perm]
            assert sorted(shuffled) == sorted(scores)


class TestNetworkxCrossChecks:
    @staticmethod
    def _graph(nx, net):
        g = nx.Graph()
        g.add_nodes_from(net.node_ids)
        g.add_weighted_edges_from((e.i, e.j, e.rho) for e in net.edges)
        return g

    def test_assortativity_matches_networkx(self, rng):
        nx = pytest.importorskip("networkx")
        for _ in range(10):
            net = _random_graph(rng, n=25, p=0.2)
            scores = {n: int(rng.integers(-50, 51)) for n in net.node_ids}
            g = self._graph(nx, net)
            nx.set_node_attributes(g, scores, "score")
            assert assortativity(net, scores) == pytest.approx(
                nx.numeric_assortativity_coefficient(g, "score"), abs=1e-12)

    def test_louvain_modularity_matches_networkx(self, rng):
        nx = pytest.importorskip("networkx")
        for seed in range(5):
            base = _block_graph(500 + seed, size=15, p_in=0.4, p_out=0.05)
            net = replace(base, edges=[replace(e, rho=float(rng.uniform(0.05, 1.0)))
                                       for e in base.edges])
            part = louvain(net, seed=seed)
            groups: dict[int, set] = {}
            for n, c in part.communities.items():
                groups.setdefault(c, set()).add(n)
            assert part.q == pytest.approx(
                nx.community.modularity(self._graph(nx, net), groups.values(),
                                        weight="weight"), abs=1e-12)
