"""Activity-synchronization network: pairwise cross-correlation of investor
activity over overlapping active periods, with a shuffle-based significance
filter.

This is the O(N^2 * shuffles) hot path. A shuffle permutes one window only
(permuting both gives the same null: sigma(x).tau(y) = x.(sigma^-1 tau)(y)),
and a pair stops drawing shuffles once it can no longer be kept (Besag and
Clifford 1991), so kept pairs still get exact p-values. Pairs run on a process
pool; each draws from an RNG stream derived from (seed, i, j), so the network
is identical for any worker count and any execution order.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .activity import ActivityMatrix
from .errors import DegenerateInputError
from .parallel import chunked, map_tasks, resolve_workers, task_rng
from .volatility import population_correlation

# Shuffles are drawn in blocks of at most _BLOCK_ROWS (fewer for very long
# windows). `rng.permuted` consumes the stream row by row, so the block size
# only sets where a pair may stop, never which permutations it draws.
_BLOCK_ROWS = 50
_BLOCK_ELEMENTS = 2_000_000


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
                          ) -> tuple[int, int]:
    """(replicas whose correlation reaches the observed one, replicas drawn).

    Each replica permutes x. Permutations leave window means and sigmas
    unchanged, so comparing raw dot products is equivalent to comparing
    correlations. With a `level`, drawing stops after the first block where
    (1 + count) / (shuffles + 1) >= level: the pair can no longer be kept.
    A block holds at least the exceedances still needed to stop, since no
    smaller one can, and at least twice the previous block.
    """
    s0 = float(np.dot(x, y))
    cap = max(1, min(_BLOCK_ROWS, _BLOCK_ELEMENTS // max(x.size, 1)))
    stop_count = shuffles if level is None else math.ceil(level * (shuffles + 1)) - 1
    count = done = rows = 0
    while done < shuffles:
        rows = min(cap, max(stop_count - count, 2 * rows, 1), shuffles - done)
        xs = np.tile(x, (rows, 1))
        rng.permuted(xs, axis=1, out=xs)
        count += int(np.count_nonzero(xs @ y >= s0))
        done += rows
        if level is not None and (1 + count) / (shuffles + 1) >= level:
            break
    return count, done


# ---------------------------------------------------------------------------
# parallel pair test

def _row_offsets(n: int) -> list[int]:
    """Flat index of the first pair (i, i + 1) of each row of the (i < j)
    triangle over n nodes."""
    return [0, *itertools.accumulate(range(n - 1, 0, -1))]


def _pair_at(p: int, cum: list[int]) -> tuple[int, int]:
    """Decode flat pair index p into (i, j), i < j, using cumulative row sizes."""
    i = bisect.bisect_right(cum, p) - 1
    j = i + 1 + (p - cum[i])
    return i, j


def _test_pairs(payload: dict, chunk: range) -> tuple[list[SyncEdge], dict]:
    """Test the pairs at a contiguous range of flat triangle indices: the kept
    edges in index order, and the count of each pair outcome. A pair's window
    is the overlap of the two nodes' active spans."""
    first, last = payload["first"], payload["last"]
    node_ids, cum = payload["node_ids"], payload["cum"]
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
    counts = dict.fromkeys(("disjoint", "short", "degenerate", "tested",
                            "negative_rho", "shuffles_used"), 0)
    edges: list[SyncEdge] = []
    for p in chunk:
        ia, ib = _pair_at(p, cum)
        start, end = max(first[ia], first[ib]), min(last[ia], last[ib])
        if start > end:
            counts["disjoint"] += 1
            continue
        length = end - start + 1
        if length < 2:
            counts["short"] += 1
            continue
        x = spans[ia][start - first[ia]:end - first[ia] + 1]
        y = spans[ib][start - first[ib]:end - first[ib] + 1]
        try:
            rho = population_correlation(x, y)
        except DegenerateInputError:
            counts["degenerate"] += 1
            continue
        count, used = _shuffle_exceed_count(x, y, shuffles, task_rng(seed, ia, ib),
                                            level)
        counts["tested"] += 1
        counts["negative_rho"] += int(rho < 0)
        counts["shuffles_used"] += used
        pvalue = (1 + count) / (used + 1)
        if pvalue < level:
            edges.append(SyncEdge(i=node_ids[ia], j=node_ids[ib], rho=rho,
                                  overlap=length, pvalue=pvalue))
    return edges, counts


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
               "first": first, "last": last, "node_ids": node_ids,
               "cum": _row_offsets(n), "seed": seed, "shuffles": shuffles,
               "level": level}
    edges: list[SyncEdge] = []
    counts: Counter = Counter()
    # chunks are contiguous and come back in order, so edges are sorted
    for chunk_edges, chunk_counts in map_tasks(
            _test_pairs, payload, chunked(range(n_pairs), workers * 8), workers):
        edges.extend(chunk_edges)
        counts.update(chunk_counts)

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

