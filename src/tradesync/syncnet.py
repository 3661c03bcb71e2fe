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
from dataclasses import dataclass, field

import numpy as np

from .activity import ActivitySeries
from .errors import DegenerateInputError
from .parallel import chunked, map_tasks, resolve_workers, task_rng
from .volatility import population_correlation

# Shuffles are drawn in blocks of _BLOCK_ROWS (fewer for very long windows).
# `rng.permuted` consumes the stream row by row, so the block size only sets
# where a pair may stop, never which permutations it draws.
_BLOCK_ROWS = 50
_BLOCK_ELEMENTS = 2_000_000


@dataclass(frozen=True)
class OverlapWindow:
    """Calendar ordinals [start, end] where two investors are both inside
    their active spans."""

    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start + 1


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
    numbers stay on the ActivitySeries of each node id."""

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


@dataclass(frozen=True)
class PairStat:
    """Outcome for one tested node pair (indices into the eligible node list).
    A pair that stopped early has a censored p-value, >= level."""

    i: int
    j: int
    status: str  # ok | disjoint | short | degenerate
    rho: float | None = None
    pvalue: float | None = None
    overlap: int = 0
    kept: bool = False
    shuffles_used: int = 0


def overlap_window(a: ActivitySeries, b: ActivitySeries) -> OverlapWindow | None:
    start = max(a.first_day, b.first_day)
    end = min(a.last_day, b.last_day)
    if start > end:
        return None
    return OverlapWindow(start, end)


def cross_correlation(a: ActivitySeries, b: ActivitySeries, w: OverlapWindow) -> float:
    x = a.window(w.start, w.end).astype(float)
    y = b.window(w.start, w.end).astype(float)
    return population_correlation(x, y)


def _shuffle_exceed_count(x: np.ndarray, y: np.ndarray, shuffles: int,
                          rng: np.random.Generator, level: float | None = None
                          ) -> tuple[int, int]:
    """(replicas whose correlation reaches the observed one, replicas drawn).

    Each replica permutes x. Permutations leave window means and sigmas
    unchanged, so comparing raw dot products is equivalent to comparing
    correlations. With a `level`, drawing stops after the first block where
    (1 + count) / (shuffles + 1) >= level: the pair can no longer be kept.
    """
    s0 = float(np.dot(x, y))
    block = max(1, min(_BLOCK_ROWS, _BLOCK_ELEMENTS // max(x.size, 1)))
    count = done = 0
    while done < shuffles:
        rows = min(block, shuffles - done)
        xs = np.tile(x, (rows, 1))
        rng.permuted(xs, axis=1, out=xs)
        count += int(np.count_nonzero(xs @ y >= s0))
        done += rows
        if level is not None and (1 + count) / (shuffles + 1) >= level:
            break
    return count, done


def permutation_pvalue(x: np.ndarray, y: np.ndarray, shuffles: int,
                       rng: np.random.Generator) -> float:
    """One-sided permutation p-value for the correlation of two windows.

    Each replica re-permutes the day sequence of x, and all shuffles are
    drawn; p = (1 + #{rho_shuffled >= rho}) / (shuffles + 1).
    """
    if shuffles < 99:
        raise ValueError("need at least 99 shuffles for a meaningful p-value")
    count, _ = _shuffle_exceed_count(np.asarray(x, float), np.asarray(y, float),
                                     shuffles, rng)
    return (1 + count) / (shuffles + 1)


# ---------------------------------------------------------------------------
# parallel pair evaluation

def _pair_at(p: int, cum: list[int]) -> tuple[int, int]:
    """Decode flat pair index p into (i, j), i < j, using cumulative row sizes."""
    i = bisect.bisect_right(cum, p) - 1
    j = i + 1 + (p - cum[i])
    return i, j


def _eval_pair(ia: int, ib: int, payload: dict) -> PairStat:
    series: list[ActivitySeries] = payload["series"]
    a, b = series[ia], series[ib]
    w = overlap_window(a, b)
    if w is None:
        return PairStat(ia, ib, "disjoint")
    if w.length < 2:
        return PairStat(ia, ib, "short", overlap=w.length)
    x = a.window(w.start, w.end).astype(float)
    y = b.window(w.start, w.end).astype(float)
    try:
        rho = population_correlation(x, y)
    except DegenerateInputError:
        return PairStat(ia, ib, "degenerate", overlap=w.length)
    rng = task_rng(payload["seed"], ia, ib)
    count, used = _shuffle_exceed_count(x, y, payload["shuffles"], rng,
                                        payload["level"])
    pvalue = (1 + count) / (used + 1)
    return PairStat(ia, ib, "ok", rho=rho, pvalue=pvalue, overlap=w.length,
                    kept=pvalue < payload["level"], shuffles_used=used)


def _new_counters() -> dict:
    return {"disjoint": 0, "short": 0, "degenerate": 0, "tested": 0,
            "kept": 0, "negative_rho": 0, "shuffles_used": 0}


def _eval_chunk(payload: dict, chunk) -> tuple[list[PairStat], dict]:
    """Test a chunk of pairs: (i, j) tuples, or flat indices into the (i < j)
    triangle when the payload carries its cumulative row offsets."""
    counters = _new_counters()
    out: list[PairStat] = []
    keep_all = payload["keep_all"]
    cum = payload["cum"]
    indices = chunk if cum is None else (_pair_at(p, cum) for p in chunk)
    for ia, ib in indices:
        st = _eval_pair(ia, ib, payload)
        if st.status == "ok":
            counters["tested"] += 1
            counters["shuffles_used"] += st.shuffles_used
            counters["negative_rho"] += int(st.rho < 0)
            counters["kept"] += int(st.kept)
        else:
            counters[st.status] += 1
        if keep_all or st.kept:
            out.append(st)
    return out, counters


def _run_chunks(payload: dict, chunks: list, workers: int
                ) -> tuple[list[PairStat], dict]:
    results: list[PairStat] = []
    counters = _new_counters()
    for stats, c in map_tasks(_eval_chunk, payload, chunks, workers):
        results.extend(stats)
        for k, v in c.items():
            counters[k] += v
    return results, counters


def evaluate_pairs(series: list[ActivitySeries], pairs: list[tuple[int, int]],
                   shuffles: int = 999, level: float = 0.01, seed: int = 0,
                   workers: int | None = None) -> tuple[list[PairStat], dict]:
    """Correlate and significance-test an explicit list of (unique) index pairs.

    Returns one PairStat per input pair (in input order) plus a counter
    summary. The RNG stream of a pair depends only on (seed, i, j).
    """
    workers = resolve_workers(workers)
    payload = {"series": series, "seed": seed, "shuffles": shuffles,
               "level": level, "keep_all": True, "cum": None}
    return _run_chunks(payload, chunked(list(pairs), workers * 8), workers)


def build_sync_network(series: dict[str, ActivitySeries], min_ops: int = 20,
                       shuffles: int = 999, level: float = 0.01, seed: int = 0,
                       workers: int | None = None) -> SyncNetwork:
    """Build the synchronization network for one asset.

    Nodes are investors with at least `min_ops` operations; an edge is kept
    when the pair's one-sided permutation p-value is below `level`. Pairs
    with window length < 2 or zero variance produce no edge and are only
    counted in the diagnostics; `shuffles_used` totals the shuffles the
    tested pairs drew before they stopped.
    """
    tickers = {s.ticker for s in series.values()}
    if len(tickers) > 1:
        raise ValueError(f"series from multiple assets: {sorted(tickers)}")
    ticker = tickers.pop() if tickers else ""

    node_ids = sorted(inv for inv, s in series.items() if s.total_ops >= min_ops)
    slist = [series[inv] for inv in node_ids]
    n = len(node_ids)
    n_pairs = n * (n - 1) // 2
    workers = resolve_workers(workers)

    # cumulative flat-index offsets of each row of the (i < j) triangle
    cum = [0] * n
    for i in range(1, n):
        cum[i] = cum[i - 1] + (n - i)

    payload = {"series": slist, "seed": seed, "shuffles": shuffles,
               "level": level, "keep_all": False, "cum": cum}
    # chunks are contiguous and come back in order, so results are sorted
    results, counters = _run_chunks(payload, chunked(range(n_pairs), workers * 8),
                                    workers)

    edges = [SyncEdge(i=node_ids[st.i], j=node_ids[st.j], rho=st.rho,
                      overlap=st.overlap, pvalue=st.pvalue)
             for st in results if st.kept]
    diagnostics = {
        "pairs_total": n_pairs,
        "pairs_disjoint": counters["disjoint"],
        "pairs_short_overlap": counters["short"],
        "pairs_degenerate": counters["degenerate"],
        "pairs_tested": counters["tested"],
        "pairs_negative_rho": counters["negative_rho"],
        "edges_retained": counters["kept"],
        "nodes": n,
        "min_ops": min_ops,
        "shuffles": shuffles,
        "shuffles_used": counters["shuffles_used"],
        "level": level,
    }
    net = SyncNetwork(ticker=ticker, node_ids=node_ids, edges=edges,
                      diagnostics=diagnostics)
    net.diagnostics["isolated_nodes"] = len(net.isolated_nodes())
    return net


def write_edges(net: SyncNetwork, stream) -> None:
    stream.write("i\tj\trho\toverlap\tpvalue\n")
    for e in net.edges:
        stream.write(f"{e.i}\t{e.j}\t{e.rho!r}\t{e.overlap}\t{e.pvalue!r}\n")

