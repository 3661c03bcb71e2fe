"""Activity-synchronization network: pairwise cross-correlation of investor
activity over overlapping active periods, with a shuffle-based significance
filter.

This is the O(N^2 * shuffles) hot path. A shuffle permutes one window only
(permuting both gives the same null: sigma(x).tau(y) = x.(sigma^-1 tau)(y)).
Pairs that permute the same node's window over the same days form a group,
and each permutation of that window is scored against every partner of the
group, so the p-values of pairs that share a permuted node are dependent.
Each pair's exceedances are still i.i.d. over its own replicas, and a pair
stops drawing once it can no longer be kept (Besag and Clifford 1991), by its
own count only, so every kept pair gets an exact p-value and the bound on
false edges (`expected_false_edges_max`) is unchanged. Groups run on a
process pool when the test is large enough to pay for one (see
`parallel.map_tasks`), else in the calling process; each draws from an RNG
stream derived from (seed, node, window start, window end[, part]), so the
network is identical for any worker count and any execution order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .activity import ActivityMatrix
from .parallel import chunked, map_tasks, resolve_workers, task_rng
from .volatility import population_correlation

# Shuffles are drawn in blocks of at most _BLOCK_ROWS (fewer for very long
# windows). `rng.permuted` consumes the stream row by row, so the block size
# only sets where a pair may stop, never which permutations it draws. A group
# holds at most _BLOCK_ELEMENTS // L partners of window length L.
_BLOCK_ROWS = 50
_BLOCK_ELEMENTS = 2_000_000

# Serial CPU seconds per unit of the pair test's work, one partner's window
# day under one shuffle, for the pool's gate (measured 0.4-2.8 ns).
_CPU_S_PER_UNIT = 1e-9


@dataclass(frozen=True)
class SyncEdge:
    i: str
    j: str
    rho: float
    overlap: int
    pvalue: float


@dataclass
class SyncNetwork:
    """Undirected simple graph of investors; edges are the pair correlations
    that survived the significance filter. Isolated nodes stay in the node
    set (they are only dropped for display purposes downstream); per-investor
    numbers stay in the asset's ActivityMatrix."""

    ticker: str
    node_ids: list[str]
    edges: list[SyncEdge]
    diagnostics: dict = field(default_factory=dict)

    def degree(self) -> dict[str, int]:
        deg = {n: 0 for n in self.node_ids}
        for e in self.edges:
            deg[e.i] += 1
            deg[e.j] += 1
        return deg

    def isolated_nodes(self) -> list[str]:
        deg = self.degree()
        return [n for n in self.node_ids if deg[n] == 0]


def _shuffle_exceed_count(x: np.ndarray, y: np.ndarray, shuffles: int,
                          rng: np.random.Generator, level: float | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Per partner: (replicas whose correlation reaches the observed one,
    replicas drawn).

    `y` holds one partner window per column; a single pair is one column.
    Each replica permutes x once and scores every partner still drawing with
    one matrix product. Permutations leave window means and sigmas unchanged,
    so comparing raw dot products is equivalent to comparing correlations.
    With a `level`, a partner stops drawing after the first block where its
    own (1 + count) / (shuffles + 1) >= level: it can no longer be kept. The
    first block holds the exceedances a partner needs to stop, since no
    smaller one can stop any, and each later block doubles; no block holds
    more than the cap.
    """
    s0 = x @ y
    count = np.zeros(y.shape[1], dtype=np.int64)
    used = np.zeros(y.shape[1], dtype=np.int64)
    cap = max(1, min(_BLOCK_ROWS, _BLOCK_ELEMENTS // max(x.size, 1)))
    stop_count = shuffles if level is None else math.ceil(level * (shuffles + 1)) - 1
    live = np.arange(y.shape[1])
    y_live, s0_live = y, s0
    done = rows = 0
    while done < shuffles and live.size:
        rows = min(cap, 2 * rows if rows else max(stop_count, 1), shuffles - done)
        xs = np.tile(x, (rows, 1))
        rng.permuted(xs, axis=1, out=xs)
        count[live] += np.count_nonzero(xs @ y_live >= s0_live, axis=0)
        done += rows
        used[live] = done
        if level is not None:
            stop = (1 + count[live]) / (shuffles + 1) >= level
            if stop.any():
                live = live[~stop]
                y_live, s0_live = y[:, live], s0[live]
    return count, used


# ---------------------------------------------------------------------------
# parallel pair test

def _plan(first: list[int], last: list[int]) -> tuple[list[tuple], int, int]:
    """The pairs to test, grouped by the window they permute, and the counts
    of disjoint and short pairs.

    A pair's window is the overlap of its two nodes' active spans. A pair
    whose window holds at least 2 days joins the group (a, start, end) of one
    of its nodes a: the node whose (node, window) serves more pairs, the lower
    node index on a tie. A group holds at most _BLOCK_ELEMENTS // L partners
    (L the window length); a longer partner list splits into consecutive
    parts. Each entry is (a, start, end, part, partners), part None for an
    unsplit group, partners an increasing index array.
    """
    n = len(first)
    first = np.asarray(first, dtype=np.int64)
    last = np.asarray(last, dtype=np.int64)
    width = int(last.max()) + 1 if n else 1  # day indices are >= 0
    index = np.arange(n, dtype=np.int32)
    # A window is the max of two first days and the min of two last days, so
    # in ranks of the nodes' distinct first and last days it is the rank pair
    # (s, e) = (max, min) of the two nodes' ranks. table[i + 1, j] counts the
    # nodes whose first day ranks at most i and whose last day ranks at least
    # j; row 0 and the last column are zero.
    f_rank = np.unique(first, return_inverse=True)[1]
    l_rank = np.unique(last, return_inverse=True)[1]
    table = np.zeros((int(f_rank.max(initial=-1)) + 2, int(l_rank.max(initial=-1)) + 2),
                     dtype=np.int32)
    np.add.at(table, (f_rank + 1, l_rank), 1)
    table = np.cumsum(table[:, ::-1], axis=1, dtype=np.int32)[:, ::-1]
    table = np.cumsum(table, axis=0, dtype=np.int32)

    groups = []
    disjoint = short = 0
    for a in range(n):
        start, end = np.maximum(first[a], first), np.minimum(last[a], last)
        disjoint += int(np.count_nonzero(end[a + 1:] < start[a + 1:]))
        short += int(np.count_nonzero(end[a + 1:] == start[a + 1:]))
        s, e = np.maximum(f_rank[a], f_rank), np.minimum(l_rank[a], l_rank)
        # nodes that start no later than s and end no earlier than e: all of
        # them, those that start before s, those that end after e, and both
        cover, early, late, both = (table[s + 1, e], table[s, e], table[s + 1, e + 1],
                                    table[s, e + 1])

        def serves(f_x, l_x):
            """The pairs of node x with window (s, e): a partner must start on
            s if x starts before s, and end on e if x ends after e; x itself
            is none."""
            starts_before, ends_after = s > f_x, e < l_x
            return (cover - starts_before * early - ends_after * late
                    + (starts_before & ends_after) * both - ~(starts_before | ends_after))

        mine, theirs = serves(f_rank[a], l_rank[a]), serves(f_rank, l_rank)
        owned = (end > start) & (index != a) & (
            (mine > theirs) | ((mine == theirs) & (index > a)))
        key = start[owned] * width + end[owned]
        order = np.argsort(key, kind="stable")
        partners, key = index[owned][order], key[order]
        windows_owned, firsts = np.unique(key, return_index=True)
        for window, lo, hi in zip(windows_owned.tolist(), firsts.tolist(),
                                  [*firsts[1:].tolist(), key.size]):
            start, end = divmod(window, width)
            size = max(1, _BLOCK_ELEMENTS // (end - start + 1))
            parts = range(lo, hi, size)
            for part, p in enumerate(parts):
                groups.append((a, start, end, part if len(parts) > 1 else None,
                               partners[p:min(p + size, hi)]))
    return groups, disjoint, short


def _test_groups(payload: dict, groups: list[tuple]) -> tuple[list[tuple], dict]:
    """Test the pairs of some groups of the plan: the kept edges as (i, j,
    rho, overlap, pvalue) tuples with i < j node indices, and the count of
    each pair outcome. Each group permutes its node's window on its own RNG
    stream and shares every permutation among its partners."""
    first, last = payload["first"], payload["last"]
    if "spans" not in payload:
        # each node's counts on every day of its active span, as floats; made
        # once per call in each process and kept with the payload
        payload["spans"] = []
        for (day, count), start, end in zip(payload["rows"], first, last):
            span = np.zeros(end - start + 1)
            span[day - start] = count
            payload["spans"].append(span)
    spans = payload["spans"]
    seed, shuffles, level = payload["seed"], payload["shuffles"], payload["level"]
    counts = dict.fromkeys(("degenerate", "tested", "negative_rho", "shuffles_used"), 0)
    kept: list[tuple] = []
    for a, start, end, part, partners in groups:
        x = spans[a][start - first[a]:end - first[a] + 1]
        ys = np.array([spans[b][start - first[b]:end - first[b] + 1]
                       for b in partners.tolist()])
        rho = population_correlation(x, ys)
        tested = ~np.isnan(rho)
        counts["degenerate"] += int(partners.size - np.count_nonzero(tested))
        if not tested.any():
            continue
        partners, rho = partners[tested], rho[tested]
        coords = (a, start, end) if part is None else (a, start, end, part)
        count, used = _shuffle_exceed_count(x, ys[tested].T, shuffles,
                                            task_rng(seed, *coords), level)
        counts["tested"] += partners.size
        counts["negative_rho"] += int(np.count_nonzero(rho < 0))
        counts["shuffles_used"] += int(used.sum())
        pvalue = (1 + count) / (used + 1)
        keep = pvalue < level
        for b, r, p in zip(partners[keep].tolist(), rho[keep].tolist(),
                           pvalue[keep].tolist()):
            kept.append((min(a, b), max(a, b), r, end - start + 1, p))
    return kept, counts


def build_sync_network(series: ActivityMatrix, min_ops: int = 20,
                       shuffles: int = 999, level: float = 0.01, seed: int = 0,
                       workers: int | None = None) -> SyncNetwork:
    """Build the synchronization network for one asset.

    Nodes are investors with at least `min_ops` operations; an edge is kept
    when the pair's one-sided permutation p-value is below `level`. Pairs
    with window length < 2 or zero variance produce no edge and are only
    counted in the diagnostics; `shuffles_used` totals the shuffles the
    tested pairs drew before they stopped.
    """
    rows = np.flatnonzero(series.total_ops >= min_ops)
    node_ids = [series.ids[k] for k in rows.tolist()]
    first, last = series.first_day[rows].tolist(), series.last_day[rows].tolist()
    n = len(node_ids)
    n_pairs = n * (n - 1) // 2
    workers = resolve_workers(workers)
    # the nodes' sparse rows travel to the workers: dense spans would make
    # each message about 100 MB at paper size
    payload = {"rows": [series.active(k) for k in rows.tolist()],
               "first": first, "last": last, "seed": seed, "shuffles": shuffles,
               "level": level}
    groups, disjoint, short = _plan(first, last)
    units = shuffles * sum((end - start + 1) * partners.size
                           for _, start, end, _, partners in groups)
    kept: list[tuple] = []
    counts = Counter(disjoint=disjoint, short=short)
    for chunk_kept, chunk_counts in map_tasks(
            _test_groups, payload, chunked(groups, workers * 8), workers,
            cpu_s=units * _CPU_S_PER_UNIT):
        kept.extend(chunk_kept)
        counts.update(chunk_counts)
    # sorted by node indices, so the edges do not depend on the chunking
    edges = [SyncEdge(i=node_ids[i], j=node_ids[j], rho=rho, overlap=overlap,
                      pvalue=pvalue) for i, j, rho, overlap, pvalue in sorted(kept)]

    # kept pairs to expect if every tested pair were null: a null pair's rank
    # among the grid statistics is uniform and ties count against it, so at
    # most ceil(level * grid) - 1 ranks keep it; the level is read as the
    # decimal it prints as, so that no ulp moves the ceiling
    grid = shuffles + 1
    false_rate = Fraction(math.ceil(Fraction(repr(float(level))) * grid) - 1, grid)
    diagnostics = {
        "pairs_total": n_pairs,
        "pairs_disjoint": counts["disjoint"],
        "pairs_short_overlap": counts["short"],
        "pairs_degenerate": counts["degenerate"],
        "pairs_tested": counts["tested"],
        "expected_false_edges_max": float(false_rate * counts["tested"]),
        "pairs_negative_rho": counts["negative_rho"],
        "edges_retained": len(edges),
        "nodes": n,
        "min_ops": min_ops,
        "shuffles": shuffles,
        "shuffles_used": counts["shuffles_used"],
        "level": level,
    }
    net = SyncNetwork(ticker=series.ticker, node_ids=node_ids, edges=edges,
                      diagnostics=diagnostics)
    net.diagnostics["isolated_nodes"] = len(net.isolated_nodes())
    return net


def write_edges(net: SyncNetwork, stream) -> None:
    stream.write("i\tj\trho\toverlap\tpvalue\n")
    for e in net.edges:
        stream.write(f"{e.i}\t{e.j}\t{e.rho!r}\t{e.overlap}\t{e.pvalue!r}\n")

