"""Network structure metrics: weighted-modularity community detection,
attribute assortativity from the edge mixing matrix, and two randomized
benchmarks (degree-preserving rewiring, attribute shuffling) with 95% CIs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .parallel import chunked, map_tasks, resolve_workers, task_rng
from .syncnet import SyncNetwork


@dataclass(frozen=True)
class Partition:
    """Community id per node plus the partition's weighted modularity."""

    communities: dict[str, int]
    q: float


@dataclass(frozen=True)
class MixingMatrix:
    """Fraction e[x, y] of edge endpoint pairs joining attribute values
    values[x] and values[y]; each undirected edge contributes both
    orientations, so the matrix is symmetric and sums to 1."""

    values: np.ndarray
    e: np.ndarray

    @property
    def a(self) -> np.ndarray:
        return self.e.sum(axis=1)

    @property
    def b(self) -> np.ndarray:
        return self.e.sum(axis=0)


@dataclass(frozen=True)
class NullStats:
    mean: float
    ci_low: float
    ci_high: float
    replicas: int

    def as_dict(self) -> dict:
        return {"mean": self.mean, "ci95_low": self.ci_low,
                "ci95_high": self.ci_high, "replicas": self.replicas}


@dataclass(frozen=True)
class AssortativityResult:
    r: float
    null_rewire: NullStats
    null_shuffle: NullStats

    def as_dict(self) -> dict:
        return {"r": self.r, "null_rewire": self.null_rewire.as_dict(),
                "null_shuffle": self.null_shuffle.as_dict()}


# ---------------------------------------------------------------------------
# modularity and Louvain

def _index_graph(net: SyncNetwork) -> tuple[list[str], list[dict[int, float]]]:
    node_ids = list(net.node_ids)
    pos = {inv: k for k, inv in enumerate(node_ids)}
    adj: list[dict[int, float]] = [dict() for _ in node_ids]
    for e in net.edges:
        if e.rho < 0:
            raise ValueError("community detection requires non-negative edge weights")
        i, j = pos[e.i], pos[e.j]
        adj[i][j] = adj[i].get(j, 0.0) + e.rho
        adj[j][i] = adj[j].get(i, 0.0) + e.rho
    return node_ids, adj


def _degrees(adj: list[dict[int, float]]) -> list[float]:
    # a self-loop of weight w contributes 2w to the node degree
    return [sum(w for u, w in nbrs.items() if u != v) + 2.0 * nbrs.get(v, 0.0)
            for v, nbrs in enumerate(adj)]


def _modularity_indexed(adj: list[dict[int, float]], comm: list[int]) -> float:
    k = _degrees(adj)
    two_m = sum(k)
    if two_m <= 0:
        raise DegenerateInputError("modularity undefined for a network without edges")
    sig_in: dict[int, float] = {}
    sig_tot: dict[int, float] = {}
    for v, nbrs in enumerate(adj):
        c = comm[v]
        sig_tot[c] = sig_tot.get(c, 0.0) + k[v]
        for u, w in nbrs.items():
            if u == v:
                sig_in[c] = sig_in.get(c, 0.0) + 2.0 * w
            elif comm[u] == c:
                sig_in[c] = sig_in.get(c, 0.0) + w
    q = 0.0
    for c, tot in sig_tot.items():
        q += sig_in.get(c, 0.0) / two_m - (tot / two_m) ** 2
    return q


def modularity_of(net: SyncNetwork, communities: dict[str, int]) -> float:
    """Weighted modularity of an arbitrary partition covering every node."""
    missing = [n for n in net.node_ids if n not in communities]
    if missing:
        raise ValueError(f"partition misses nodes: {missing[:5]}")
    node_ids, adj = _index_graph(net)
    return _modularity_indexed(adj, [communities[n] for n in node_ids])


def _louvain_level(adj: list[dict[int, float]], rng: np.random.Generator
                   ) -> tuple[list[int], bool]:
    """One local-move phase; returns (community per node, any node moved)."""
    n = len(adj)
    k = _degrees(adj)
    two_m = sum(k)
    m = two_m / 2.0
    comm = list(range(n))
    sig_tot = list(k)
    moved_any = False
    improved = True
    while improved:
        improved = False
        for v in rng.permutation(n):
            v = int(v)
            cv = comm[v]
            # weight from v to each neighboring community, v excluded
            links: dict[int, float] = {}
            for u, w in adj[v].items():
                if u != v:
                    cu = comm[u]
                    links[cu] = links.get(cu, 0.0) + w
            sig_tot[cv] -= k[v]
            comm[v] = -1
            best_c = cv
            best_gain = links.get(cv, 0.0) / m - sig_tot[cv] * k[v] / (2.0 * m * m)
            for c in sorted(links):
                gain = links[c] / m - sig_tot[c] * k[v] / (2.0 * m * m)
                # strict improvement, ties broken by lowest community id
                if gain > best_gain + 1e-15 or (abs(gain - best_gain) <= 1e-15 and c < best_c):
                    best_gain = gain
                    best_c = c
            comm[v] = best_c
            sig_tot[best_c] += k[v]
            if best_c != cv:
                improved = True
                moved_any = True
    return comm, moved_any


def _aggregate(adj: list[dict[int, float]], comm: list[int]
               ) -> tuple[list[dict[int, float]], list[int]]:
    labels = sorted(set(comm))
    remap = {c: i for i, c in enumerate(labels)}
    new_adj: list[dict[int, float]] = [dict() for _ in labels]
    for v, nbrs in enumerate(adj):
        cv = remap[comm[v]]
        for u, w in nbrs.items():
            cu = remap[comm[u]]
            if u == v:
                new_adj[cv][cv] = new_adj[cv].get(cv, 0.0) + w
            elif u > v:
                if cu == cv:
                    new_adj[cv][cv] = new_adj[cv].get(cv, 0.0) + w
                else:
                    new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + w
                    new_adj[cu][cv] = new_adj[cu].get(cv, 0.0) + w
    return new_adj, [remap[c] for c in comm]


def louvain(net: SyncNetwork, seed: int = 0) -> Partition:
    """Greedy weighted-modularity optimization (local moves + aggregation,
    repeated until no move improves Q). Node visit order is randomized by
    `seed`; ties in gain are broken toward the lowest community id, so the
    result is deterministic for a given seed.
    """
    if not net.node_ids:
        raise DegenerateInputError("community detection on an empty network")
    node_ids, adj = _index_graph(net)
    if not any(a for a in adj):
        raise DegenerateInputError("community detection needs at least one edge")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))

    assignment = list(range(len(node_ids)))  # original node -> current super-node
    level_adj = adj
    while True:
        comm, moved = _louvain_level(level_adj, rng)
        if not moved:
            break
        n_before = len(level_adj)
        level_adj, comm = _aggregate(level_adj, comm)
        assignment = [comm[assignment[v]] for v in range(len(node_ids))]
        if len(level_adj) == n_before:
            # only label churn, no community actually merged
            break

    # canonical labels: 0..K-1 in order of first appearance over sorted nodes
    relabel: dict[int, int] = {}
    communities: dict[str, int] = {}
    for v, inv in enumerate(node_ids):
        c = assignment[v]
        if c not in relabel:
            relabel[c] = len(relabel)
        communities[inv] = relabel[c]
    q = _modularity_indexed(adj, [communities[inv] for inv in node_ids])
    return Partition(communities=communities, q=q)


def write_partition(partition: Partition, stream) -> None:
    stream.write("investor\tcommunity\n")
    for inv in sorted(partition.communities):
        stream.write(f"{inv}\t{partition.communities[inv]}\n")


# ---------------------------------------------------------------------------
# attribute discretization and assortativity

def discretize_attribute(values: dict[str, float]) -> dict[str, int]:
    """Integer score = the integer part of value*100 (truncation toward zero).
    Values must lie in [-1, 1]."""
    out: dict[str, int] = {}
    for node, v in values.items():
        if not -1.0 <= v <= 1.0:
            raise ValueError(f"attribute value {v} for {node} outside [-1, 1]")
        out[node] = int(v * 100)
    return out


def discretize_opd(values: dict[str, float], cap: int = 100) -> dict[str, int]:
    """Integer part of operations-per-day, capped to keep the score range small."""
    return {node: min(int(v), cap) for node, v in values.items()}


def mixing_matrix_from_pairs(x: np.ndarray, y: np.ndarray) -> MixingMatrix:
    if x.size == 0:
        raise DegenerateInputError("mixing matrix needs at least one edge")
    values = np.unique(np.concatenate([x, y]))
    idx = {v: i for i, v in enumerate(values.tolist())}
    k = values.size
    e = np.zeros((k, k))
    xi = np.fromiter((idx[v] for v in x.tolist()), dtype=np.int64, count=x.size)
    yi = np.fromiter((idx[v] for v in y.tolist()), dtype=np.int64, count=y.size)
    np.add.at(e, (xi, yi), 1.0)
    np.add.at(e, (yi, xi), 1.0)
    e /= e.sum()
    return MixingMatrix(values=values, e=e)


def assortativity_from_matrix(mm: MixingMatrix) -> float:
    vals = mm.values.astype(float)
    a = mm.a
    b = mm.b
    mu_a = float(vals @ a)
    mu_b = float(vals @ b)
    var_a = float((vals * vals) @ a) - mu_a * mu_a
    var_b = float((vals * vals) @ b) - mu_b * mu_b
    if var_a <= 0.0 or var_b <= 0.0:
        raise DegenerateInputError("assortativity undefined: constant attribute "
                                   "over edge endpoints")
    num = float(vals @ (mm.e - np.outer(a, b)) @ vals)
    r = num / float(np.sqrt(var_a * var_b))
    return min(1.0, max(-1.0, r))


def _pairs_assortativity(edges: list[tuple[int, int]], scores: list[int]) -> float:
    x = np.array([scores[i] for i, _ in edges], dtype=np.int64)
    y = np.array([scores[j] for _, j in edges], dtype=np.int64)
    return assortativity_from_matrix(mixing_matrix_from_pairs(x, y))


def _edge_pairs_with_scores(net: SyncNetwork, attribute: dict[str, int]
                            ) -> tuple[list[tuple[int, int]], list[int]]:
    """Restrict to edges whose both endpoints carry a score."""
    nodes = [n for n in net.node_ids if n in attribute]
    pos = {n: i for i, n in enumerate(nodes)}
    pairs = [(pos[e.i], pos[e.j]) for e in net.edges if e.i in pos and e.j in pos]
    if not pairs:
        raise DegenerateInputError("no edges with both endpoints scored")
    return pairs, [attribute[n] for n in nodes]


def assortativity(net: SyncNetwork, attribute: dict[str, int]) -> float:
    """Assortativity of the network by a discretized scalar attribute, from
    the mixing matrix of retained edges (edge presence only)."""
    return _pairs_assortativity(*_edge_pairs_with_scores(net, attribute))


# ---------------------------------------------------------------------------
# null models

def double_edge_swap(edges: list[tuple[int, int]], n_swaps: int,
                     rng: np.random.Generator, max_tries: int | None = None
                     ) -> list[tuple[int, int]]:
    """Randomize topology with degree-preserving double-edge swaps.

    Picks two random edges (a,b),(c,d) and rewires to (a,d),(c,b); the
    proposal is rejected whenever it would create a self-loop or a duplicate
    edge, and the result stays a simple graph with the same degree sequence.
    Raises after `max_tries` failed attempts (graphs where no swap is
    possible, e.g. a single edge or a complete graph).

    Nodes are non-negative ints. Proposals are drawn in blocks of 1024 and
    the adjacency is one set of packed keys, so each try costs a few integer
    operations and two set lookups.
    """
    m = len(edges)
    if m < 2:
        raise DegenerateInputError("rewiring needs at least 2 edges")
    if max_tries is None:
        max_tries = 100 * n_swaps + 1000
    src = [int(a) for a, _ in edges]
    dst = [int(b) for _, b in edges]
    if min(min(src), min(dst)) < 0:
        raise ValueError("negative node index in input edges")
    # adjacency as one set of packed keys a*n + b, both orientations
    n = 1 + max(max(src), max(dst))
    adj: set[int] = set()
    for a, b in zip(src, dst):
        if a == b:
            raise ValueError("self-loop in input edges")
        if a * n + b in adj:
            raise ValueError("duplicate edge in input")
        adj.add(a * n + b)
        adj.add(b * n + a)

    add, remove = adj.add, adj.remove
    swaps = 0
    tries = 0
    block = 1024
    while swaps < n_swaps:
        if tries >= max_tries:
            raise DegenerateInputError(
                f"no valid swap found in {max_tries} attempts; graph may admit none")
        # a block always draws all its proposals; only the last block before
        # max_tries uses fewer than all of them
        picks = rng.integers(0, m, size=(block, 2)).ravel().tolist()
        coins = rng.integers(0, 2, size=block).tolist()
        budget = min(block, max_tries - tries)
        tries += budget
        it = iter(picks[:2 * budget])
        for e1, e2, coin in zip(it, it, coins):
            if e1 == e2:
                continue
            a = src[e1]
            b = dst[e1]
            if coin:
                c = dst[e2]
                d = src[e2]
            else:
                c = src[e2]
                d = dst[e2]
            # propose (a,d) and (c,b)
            if a == d or c == b:
                continue
            ad = a * n + d
            cb = c * n + b
            if ad in adj or cb in adj:
                continue
            remove(a * n + b)
            remove(b * n + a)
            remove(c * n + d)
            remove(d * n + c)
            add(ad)
            add(d * n + a)
            add(cb)
            add(b * n + c)
            dst[e1] = d
            src[e2] = c
            dst[e2] = b
            swaps += 1
            if swaps == n_swaps:
                break
    return list(zip(src, dst))


def _null_stats(values: list[float], replicas: int) -> NullStats:
    arr = np.sort(np.asarray(values, dtype=float))
    lo, hi = np.percentile(arr, [2.5, 97.5])
    return NullStats(mean=float(arr.mean()), ci_low=float(lo), ci_high=float(hi),
                     replicas=replicas)


def _rewire_replicas(payload: dict, reps: list[int]) -> list[float]:
    out = []
    for rep in reps:
        swapped = double_edge_swap(payload["pairs"], payload["n_swaps"],
                                   task_rng(payload["seed"], rep))
        out.append(_pairs_assortativity(swapped, payload["scores"]))
    return out


def _shuffle_replicas(payload: dict, reps: list[int]) -> list[float]:
    scores = payload["scores"]
    out = []
    for rep in reps:
        perm = task_rng(payload["seed"], rep).permutation(len(scores))
        out.append(_pairs_assortativity(payload["pairs"],
                                        [scores[int(p)] for p in perm]))
    return out


def _run_null(fn, payload: dict, replicas: int, workers: int | None) -> NullStats:
    workers = resolve_workers(workers)
    chunks = chunked(list(range(replicas)), workers * 4)
    values = [v for part in map_tasks(fn, payload, chunks, workers) for v in part]
    return _null_stats(values, replicas)


def null_rewire(net: SyncNetwork, attribute: dict[str, int], replicas: int = 1000,
                seed: int = 0, swap_factor: int = 10,
                workers: int | None = None) -> NullStats:
    """Assortativity under degree-preserving rewiring (attributes fixed).

    Each replica applies swap_factor*|E| successful double-edge swaps to a
    fresh copy and re-scores; reports the mean and the empirical 2.5/97.5
    percentiles over replicas.
    """
    pairs, scores = _edge_pairs_with_scores(net, attribute)
    if len(pairs) < 2:
        raise DegenerateInputError("rewiring null needs at least 2 edges")
    payload = {"pairs": pairs, "scores": scores, "seed": seed,
               "n_swaps": swap_factor * len(pairs)}
    return _run_null(_rewire_replicas, payload, replicas, workers)


def null_shuffle(net: SyncNetwork, attribute: dict[str, int], replicas: int = 1000,
                 seed: int = 0, workers: int | None = None) -> NullStats:
    """Assortativity under uniform permutation of node attributes
    (topology untouched)."""
    pairs, scores = _edge_pairs_with_scores(net, attribute)
    if len(set(scores)) < 2:
        raise DegenerateInputError("attribute shuffle needs >= 2 distinct values")
    payload = {"pairs": pairs, "scores": scores, "seed": seed}
    return _run_null(_shuffle_replicas, payload, replicas, workers)


def assortativity_with_nulls(net: SyncNetwork, attribute: dict[str, int],
                             replicas: int = 1000, rewire_seed: int = 0,
                             shuffle_seed: int = 1, swap_factor: int = 10,
                             workers: int | None = None) -> AssortativityResult:
    return AssortativityResult(
        r=assortativity(net, attribute),
        null_rewire=null_rewire(net, attribute, replicas=replicas, seed=rewire_seed,
                                swap_factor=swap_factor, workers=workers),
        null_shuffle=null_shuffle(net, attribute, replicas=replicas,
                                  seed=shuffle_seed, workers=workers),
    )
