"""Network structure metrics: weighted-modularity community detection,
attribute assortativity as the correlation over edge endpoints, and two
randomized benchmarks (degree-preserving rewiring, attribute shuffling) with
95% CIs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .parallel import map_tasks, resolve_workers, task_rng
from .syncnet import SyncNetwork


@dataclass(frozen=True)
class Partition:
    """Community id per node plus the partition's weighted modularity."""

    communities: dict[str, int]
    q: float


@dataclass(frozen=True)
class NullStats:
    """Mean and 2.5/97.5 percentiles of r over the replicas where r is
    defined, plus the counters of the null that made them: `acceptance`
    (accepted over proposed swaps) and `lag1` (lag-1 autocorrelation of r
    within chains, None where undefined) for the rewire null, `undefined`
    (replicas left out because r was undefined) for the shuffle null."""

    mean: float
    ci_low: float
    ci_high: float
    replicas: int
    acceptance: float | None = None
    lag1: float | None = None
    undefined: int | None = None

    def as_dict(self) -> dict:
        counters = ({"undefined": self.undefined} if self.acceptance is None
                    else {"acceptance": self.acceptance, "lag1": self.lag1})
        return {"mean": self.mean, "ci95_low": self.ci_low,
                "ci95_high": self.ci_high, "replicas": self.replicas, **counters}


@dataclass(frozen=True)
class AssortativityResult:
    r: float
    null_rewire: NullStats
    null_shuffle: NullStats | None

    def as_dict(self) -> dict:
        return {"r": self.r, "null_rewire": self.null_rewire.as_dict(),
                "null_shuffle": None if self.null_shuffle is None
                else self.null_shuffle.as_dict()}


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
    rng = task_rng(seed)

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


def _endpoint_r(ends: np.ndarray, degree: np.ndarray, scores: np.ndarray,
                buf: np.ndarray) -> float:
    """Newman's (2003) assortativity r: the correlation of the values at the
    two ends of an edge, over the 2m ordered endpoints of the m edges.

    `ends` holds the edges' endpoints, an int64 array of shape (2, m), and
    `degree` each node's count of endpoints. With x, y the integer scores at
    the ends of each edge, S = sum(x + y) and Q = sum(x^2 + y^2) are sums
    over the nodes weighted by `degree`, P = sum(x*y) comes from one gather
    of the endpoint scores into `buf`, an int64 array of the shape of `ends`
    that every call may reuse, and r = (2*2m*P - S^2) / (2m*Q - S^2). The
    sums are exact in int64 while sum(x^2) stays below 2**63 (the
    discretized attributes lie in [-100, 100] by default), the products are
    Python ints, and the ratio of two ints is correctly rounded, so |r| <= 1
    holds exactly.
    """
    # every index is in range; "clip", unlike "raise", writes into buf directly
    np.take(scores, ends, out=buf, mode="clip")
    return _r_of_sums(ends.size, int(degree @ scores), int(degree @ (scores * scores)),
                      int(buf[0] @ buf[1]))


def _r_of_sums(two_m: int, s: int, q: int, p: int) -> float:
    """r from the endpoint count and the sums S, Q and P of _endpoint_r."""
    den = two_m * q - s * s
    if den == 0:
        raise DegenerateInputError("assortativity undefined: constant attribute "
                                   "over edge endpoints")
    return (2 * two_m * p - s * s) / den


def _scored_ends(net: SyncNetwork, attribute: dict[str, int | tuple[int, ...]]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Restrict to edges whose both endpoints carry a score: their endpoints
    as an int64 array of shape (2, m) over the scored nodes in node order,
    each scored node's count of endpoints, and the scores, one row per
    scored node of one int or a tuple of ints."""
    nodes = [n for n in net.node_ids if n in attribute]
    pos = {n: i for i, n in enumerate(nodes)}
    pairs = [(pos[e.i], pos[e.j]) for e in net.edges if e.i in pos and e.j in pos]
    if not pairs:
        raise DegenerateInputError("no edges with both endpoints scored")
    ends = np.array(pairs, dtype=np.int64).T.copy()
    return (ends, np.bincount(ends.ravel(), minlength=len(nodes)),
            np.array([attribute[n] for n in nodes], dtype=np.int64))


def assortativity(net: SyncNetwork, attribute: dict[str, int]) -> float:
    """Assortativity of the network by a discretized scalar attribute over
    the retained edges (edge presence only)."""
    ends, degree, scores = _scored_ends(net, attribute)
    return _endpoint_r(ends, degree, scores, np.empty_like(ends))


# ---------------------------------------------------------------------------
# null models

def double_edge_swap(edges: list[tuple[int, int]], schedule: Iterable[int],
                     rng: np.random.Generator
                     ) -> Iterator[tuple[list[int], list[int], int]]:
    """Run the degree-preserving double-edge-swap chain from `edges` for each
    step count in `schedule` in turn; after each count, yield the endpoint
    lists (src, dst) of the current edges and the swaps accepted so far. The
    lists are the chain's own state, carried from one count to the next.

    Each step picks two random edges (a,b),(c,d) and proposes (a,d),(c,b).
    A proposal that picks one edge twice or would create a self-loop or a
    duplicate edge is rejected, and the graph stays as it is for that step.
    Counting rejected proposals as steps makes the chain uniform over the
    simple graphs with the input's degree sequence (Fosdick, Larremore,
    Nishimura and Ugander, SIAM Review 60:315, 2018); a graph that admits no
    swap, such as a complete graph or a single edge, comes back unchanged.

    Nodes are non-negative ints. Proposals are drawn in blocks of 1024, from
    the start of each count, and the adjacency is one set of packed keys, so
    each step costs a few integer operations and two set lookups.
    """
    m = len(edges)
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
    accepted = 0
    block = 1024
    for n_steps in schedule:
        for start in range(0, n_steps, block):
            size = min(block, n_steps - start)
            picks = rng.integers(0, m, size=(size, 2)).ravel().tolist()
            coins = rng.integers(0, 2, size=size).tolist()
            it = iter(picks)
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
                accepted += 1
        yield src, dst, accepted


# rewire chains per null, and proposals per scored edge before the first
# sample and between two samples
REWIRE_CHAINS = 4
BURN_IN = 10
SAMPLE_GAP = 2
# serial CPU seconds per proposal, scoring included, for the pool's gate
# (measured 0.6-1.1 us)
_CPU_S_PER_PROPOSAL = 1e-6


def _percentile(ordered: np.ndarray, q: float) -> float:
    """np.percentile(ordered, q) of a sorted sample, with numpy's linear rule
    and rounding, but without its np.unique call, which loads numpy.ma."""
    v = (ordered.size - 1) * (q / 100)
    lo = int(v)
    a, b = float(ordered[lo]), float(ordered[min(lo + 1, ordered.size - 1)])
    g = v - lo
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def _null_stats(values: list[float], replicas: int, **counter) -> NullStats:
    arr = np.sort(np.asarray(values, dtype=float))
    return NullStats(mean=float(arr.mean()), ci_low=_percentile(arr, 2.5),
                     ci_high=_percentile(arr, 97.5), replicas=replicas, **counter)


def _rewire_chain(payload: dict, task: tuple[int, int]
                  ) -> tuple[list[list[float]], int]:
    """The r samples of chain `task[0]`, one list of every score column's r
    per sample, and its accepted swaps: a sample after the burn-in, then one
    after each further gap, `task[1]` in all."""
    chain, samples = task
    schedule = [payload["burn_in"]] + [payload["gap"]] * (samples - 1)
    # the chain's edges as endpoints; a swap keeps every node's degree
    ends, degree = payload["ends"].copy(), payload["degree"]
    buf = np.empty_like(ends)
    values, accepted = [], 0
    for src, dst, accepted in double_edge_swap(ends.T.tolist(), schedule,
                                               task_rng(payload["seed"], chain)):
        ends[0], ends[1] = src, dst
        values.append([_endpoint_r(ends, degree, column, buf)
                       for column in payload["scores"].T])
    return values, accepted


def _lag1(chains: list[list[float]]) -> float | None:
    """Pooled lag-1 autocorrelation of r within chains about the overall mean."""
    flat = np.concatenate(chains)
    if flat.min() == flat.max() or max(map(len, chains)) < 2:
        return None
    dev = [np.asarray(c) - flat.mean() for c in chains]
    return float(sum(d[:-1] @ d[1:] for d in dev) / sum(d @ d for d in dev))


def null_rewire(net: SyncNetwork, attribute: dict[str, int | tuple[int, ...]],
                replicas: int = 1000, seed: int = 0, workers: int | None = None
                ) -> NullStats | list[NullStats]:
    """Assortativity under degree-preserving rewiring (attributes fixed).

    min(REWIRE_CHAINS, replicas) double-edge-swap chains start from the
    observed graph, chain c on task_rng(seed, c); each burns in for
    BURN_IN*|E| proposals, then re-scores every SAMPLE_GAP*|E| proposals;
    chain c takes len(range(c, replicas, REWIRE_CHAINS)) samples. Reports the mean
    and 2.5/97.5 percentiles over the samples, the share of proposed swaps
    accepted (burn-in included) and the lag-1 autocorrelation of r. A swap
    keeps every endpoint's value, so the null is defined wherever r is; a
    graph that admits no swap gets a point mass at r.

    The chain never reads the attribute, so one chain set serves several:
    where `attribute` maps each node to a tuple of integers, every sample
    scores each position of the tuple, and one NullStats per position comes
    back, in order, each equal to the call with that position alone. Swaps
    test only node equality, so relabelling the nodes, as scoring more or
    fewer nodes off the scored edges does, leaves the chain unchanged.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    ends, degree, scores = _scored_ends(net, attribute)
    single = scores.ndim == 1
    burn_in, gap = BURN_IN * ends.shape[1], SAMPLE_GAP * ends.shape[1]
    columns = scores.reshape(len(scores), -1)
    payload = {"ends": ends, "degree": degree, "scores": columns, "seed": seed,
               "burn_in": burn_in, "gap": gap}
    tasks = [(c, len(range(c, replicas, REWIRE_CHAINS)))
             for c in range(min(REWIRE_CHAINS, replicas))]
    proposals = len(tasks) * burn_in + (replicas - len(tasks)) * gap
    results = map_tasks(_rewire_chain, payload, tasks, resolve_workers(workers),
                        cpu_s=proposals * _CPU_S_PER_PROPOSAL)
    acceptance = sum(a for _, a in results) / proposals if proposals else 0.0
    stats = []
    for k in range(columns.shape[1]):
        chains = [[sample[k] for sample in values] for values, _ in results]
        stats.append(_null_stats([r for c in chains for r in c], replicas,
                                 acceptance=acceptance, lag1=_lag1(chains)))
    return stats[0] if single else stats


def null_shuffle(net: SyncNetwork, attribute: dict[str, int], replicas: int = 1000,
                 seed: int = 0) -> NullStats:
    """Assortativity under uniform permutation of node attributes (topology
    untouched), replica k on task_rng(seed, k), all in the calling process.
    A replica that puts one value on every edge endpoint has no r; it is
    left out and counted as `undefined`."""
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    ends, degree, scores = _scored_ends(net, attribute)
    buf = np.empty_like(ends)
    values = []
    for rep in range(replicas):
        perm = task_rng(seed, rep).permutation(len(scores))
        try:
            values.append(_endpoint_r(ends, degree, scores[perm], buf))
        except DegenerateInputError:
            pass
    if not values:
        raise DegenerateInputError("assortativity undefined in every shuffle "
                                   "replica: one value on every edge endpoint")
    return _null_stats(values, replicas, undefined=replicas - len(values))
