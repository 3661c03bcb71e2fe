"""Independent brute-force evaluators used as oracles by the test suite,
and the test-only helpers built on the library's kernels.

The evaluators are written as plain loops over the defining formulas, kept
deliberately separate from the library's vectorized implementations. The
reference implementations (the double-edge swap, the csv trades writer and
reader, the pair test's plan through an n x n matrix) are the plain forms
the program's versions must match exactly. The helpers at the end (a
full-length permutation p-value, the modularity of a given partition, a
planted-assortativity network) have no caller in the program.
"""

import csv
import datetime as dt
import io
import math
from array import array

import numpy as np

from conftest import fixture_network
from tradesync import syncnet
from tradesync.errors import ConfigError, DegenerateInputError, GenerationError
from tradesync.ingest import (_AUTO_TOKENS, TRADE_FIELDS, ParseResult, Reject,
                              TradeColumns, _header_positions)
from tradesync.netmetrics import _endpoint_r, _index_graph, _modularity_indexed
from tradesync.syncnet import SyncNetwork, _Bank, _shuffle_exceed_count


def bruteforce_pair_correlation(x, y):
    """Pairwise activity correlation over a shared window: population
    normalization (divide by the window length), means and sigmas over the
    window."""
    n = len(x)
    assert n == len(y) and n >= 2
    mx = sum(x) / n
    my = sum(y) / n
    sx = math.sqrt(sum((v - mx) ** 2 for v in x) / n)
    sy = math.sqrt(sum((v - my) ** 2 for v in y) / n)
    assert sx > 0 and sy > 0
    total = 0.0
    for xi, yi in zip(x, y):
        total += (xi - mx) * (yi - my) / (sx * sy)
    return total / n


def bruteforce_activity_vol_correlation(ops, nu):
    """Investor-level activity/volatility correlation over the investor's
    trading days (both inputs already restricted to those days)."""
    return bruteforce_pair_correlation(ops, nu)


def bruteforce_hill(values, k):
    """Hill tail-index estimate from first principles."""
    xs = sorted(values, reverse=True)
    assert 0 < k < len(xs)
    total = 0.0
    for j in range(k):
        total += math.log(xs[j] / xs[k])
    return k / total


def endpoint_assortativity(edges, score):
    """Assortativity as a direct covariance over the 2|E| ordered edge
    endpoints, in floating point with explicit means."""
    xs = []
    ys = []
    for i, j in edges:
        xs.append(score[i])
        ys.append(score[j])
        xs.append(score[j])
        ys.append(score[i])
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / n
    vx = sum((a - mx) ** 2 for a in xs) / n
    vy = sum((b - my) ** 2 for b in ys) / n
    assert vx > 0 and vy > 0
    return cov / math.sqrt(vx * vy)


def two_clique_modularity(clique_size):
    """Closed-form Q for two disjoint equal cliques under the correct split:
    each clique holds half the edge weight and half the total degree, so
    Q = 2 * (1/2 - (1/2)^2) = 1/2 for any size."""
    del clique_size
    return 0.5


def trailing_ma_residual(series, window):
    out = []
    for t in range(window - 1, len(series)):
        ma = sum(series[t - window + 1:t + 1]) / window
        out.append(series[t] - ma)
    return out


def least_squares_slope(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def reference_double_edge_swap(edges: list[tuple[int, int]], n_steps: int,
                                rng: np.random.Generator
                                ) -> tuple[list[tuple[int, int]], int]:
    """Degree-preserving double-edge-swap chain, `n_steps` steps.

    The straightforward loop over per-node neighbour sets. It draws the same
    proposals as `netmetrics.double_edge_swap`, which must return the same
    edge list and accepted count for the same RNG state.

    Each step picks two random edges (a,b),(c,d) and proposes (a,d),(c,b);
    a proposal that picks one edge twice or would create a self-loop or a
    duplicate edge is rejected, and the graph stays as it is for that step.
    """
    m = len(edges)
    edges = [tuple(e) for e in edges]
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        if a == b:
            raise ValueError("self-loop in input edges")
        adj.setdefault(a, set())
        adj.setdefault(b, set())
        if b in adj[a]:
            raise ValueError("duplicate edge in input")
        adj[a].add(b)
        adj[b].add(a)

    accepted = 0
    block = 1024
    buf_idx = np.empty((0, 2), dtype=np.int64)
    buf_coin = np.empty(0, dtype=np.int64)
    ptr = 0
    for step in range(n_steps):
        if ptr >= len(buf_coin):
            size = min(block, n_steps - step)
            buf_idx = rng.integers(0, m, size=(size, 2))
            buf_coin = rng.integers(0, 2, size=size)
            ptr = 0
        e1, e2 = int(buf_idx[ptr, 0]), int(buf_idx[ptr, 1])
        coin = int(buf_coin[ptr])
        ptr += 1
        if e1 == e2:
            continue
        a, b = edges[e1]
        c, d = edges[e2]
        if coin:
            c, d = d, c
        # propose (a,d) and (c,b)
        if a == d or c == b:
            continue
        if d in adj[a] or b in adj[c]:
            continue
        adj[a].remove(b)
        adj[b].remove(a)
        adj[c].remove(d)
        adj[d].remove(c)
        adj[a].add(d)
        adj[d].add(a)
        adj[c].add(b)
        adj[b].add(c)
        edges[e1] = (a, d)
        edges[e2] = (c, b)
        accepted += 1
    return edges, accepted


def write_trades(stream, investor_id, date, ticker, shares, price, side,
                 is_auto=None, delimiter: str = ",") -> None:
    """The reference trades writer, one `csv.writer` row per trade: equal-length
    trade columns in the canonical column order (ids, ISO date strings, int
    shares, float prices written by repr, 'buy' or 'sell'). An `is_auto`
    column of True, False or None adds the optional field, empty where None.
    `synth.write_synth` must write the bytes this writes."""
    columns = [investor_id, date, ticker, shares, price, side]
    if is_auto is not None:
        columns.append(["" if v is None else ("true" if v else "false")
                        for v in is_auto])
    writer = csv.writer(stream, delimiter=delimiter, lineterminator="\n")
    writer.writerow(TRADE_FIELDS[:len(columns)])
    writer.writerows(zip(*columns))


def reference_parse_trades(source, delimiter: str = ",") -> ParseResult:
    """The trades reader as one `csv` loop, one row at a time: the reference
    `ingest.parse_trades` must match exactly (same columns, id order and
    rejects) on any input."""
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError("trades file is empty") from None
    pos = _header_positions(header, TRADE_FIELDS, TRADE_FIELDS[:6], "trades")
    p_inv, p_date, p_tick, p_shares, p_price, p_side = (pos[f] for f in TRADE_FIELDS[:6])
    p_auto = pos.get("is_auto")

    investor, ticker, day, is_auto = array("i"), array("i"), array("i"), array("b")
    investor_ids: dict[str, int] = {}  # id -> code, in code order
    tickers: dict[str, int] = {}
    dates: dict[str, int] = {}  # raw field -> date.toordinal(), 0 if invalid
    rejects: list[Reject] = []
    needed = max(pos.values()) + 1
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < needed:
            rejects.append(Reject(lineno, "wrong field count"))
            continue
        text = row[p_date]
        ordinal = dates.get(text)
        if ordinal is None:
            try:
                ordinal = dt.date.fromisoformat(text.strip()).toordinal()
            except ValueError:
                ordinal = 0
            dates[text] = ordinal
        if not ordinal:
            rejects.append(Reject(lineno, "bad date"))
            continue
        try:
            shares = int(row[p_shares])
        except ValueError:
            rejects.append(Reject(lineno, "bad shares"))
            continue
        if shares <= 0:
            rejects.append(Reject(lineno, "non-positive shares"))
            continue
        try:
            price = float(row[p_price])
        except ValueError:
            price = math.nan
        if not 0.0 < price < math.inf:  # false for NaN too
            reason = "non-positive price" if -math.inf < price <= 0.0 else "bad price"
            rejects.append(Reject(lineno, reason))
            continue
        if row[p_side].strip().lower() not in ("buy", "sell"):
            rejects.append(Reject(lineno, "bad side"))
            continue
        auto = -1
        if p_auto is not None:
            auto = _AUTO_TOKENS.get(row[p_auto].strip().lower())
            if auto is None:
                rejects.append(Reject(lineno, "bad is_auto"))
                continue
        investor.append(investor_ids.setdefault(row[p_inv].strip(), len(investor_ids)))
        ticker.append(tickers.setdefault(row[p_tick].strip(), len(tickers)))
        day.append(ordinal)
        is_auto.append(auto)
    records = TradeColumns(  # array "i" holds C ints, as np.intc does
        investor=np.frombuffer(investor, dtype=np.intc),
        ticker=np.frombuffer(ticker, dtype=np.intc),
        day=np.frombuffer(day, dtype=np.intc),
        is_auto=np.frombuffer(is_auto, dtype=np.int8),
        investor_ids=list(investor_ids), tickers=list(tickers))
    return ParseResult(records, rejects)


def reference_plan(first: list[int], last: list[int]) -> tuple[list[tuple], int, int]:
    """The pair test's plan through an n x n `serves` matrix: `syncnet._owned`
    over every owner must return the same groups and counts. The pairs to
    test, grouped by the window they permute, and the counts of disjoint and
    short pairs.

    A pair's window is the overlap of its two nodes' active spans. A pair
    whose window holds at least 2 days joins the group (a, start, end) of one
    of its nodes a: the node whose (node, window) serves more pairs, the lower
    node index on a tie. A group holds at most syncnet._BLOCK_ELEMENTS // L partners
    (L the window length); a longer partner list splits into consecutive
    parts. Each entry is (a, start, end, part, partners), part None for an
    unsplit group, partners an increasing index array.
    """
    n = len(first)
    first = np.asarray(first, dtype=np.int64)
    last = np.asarray(last, dtype=np.int64)
    width = int(last.max()) + 1 if n else 1  # day indices are >= 0
    index = np.arange(n, dtype=np.int32)

    def windows(a):
        start, end = np.maximum(first[a], first), np.minimum(last[a], last)
        return start * width + end, (end > start) & (index != a)

    # serves[a, b]: the pairs of node a whose window equals that of (a, b)
    serves = np.zeros((n, n), dtype=np.min_scalar_type(n))
    disjoint = short = 0
    for a in range(n):
        key, ok = windows(a)
        _, inverse, count = np.unique(key[ok], return_inverse=True, return_counts=True)
        serves[a, ok] = count[inverse]
        start, end = divmod(key[a + 1:], width)
        disjoint += int(np.count_nonzero(end < start))
        short += int(np.count_nonzero(end == start))
    groups = []
    for a in range(n):
        key, ok = windows(a)
        mine, theirs = serves[a], serves[:, a]
        owned = ok & ((mine > theirs) | ((mine == theirs) & (index > a)))
        order = np.argsort(key[owned], kind="stable")
        partners, key = index[owned][order], key[owned][order]
        windows_owned, firsts = np.unique(key, return_index=True)
        for window, lo, hi in zip(windows_owned.tolist(), firsts.tolist(),
                                  [*firsts[1:].tolist(), key.size]):
            start, end = divmod(window, width)
            size = max(1, syncnet._BLOCK_ELEMENTS // (end - start + 1))
            parts = range(lo, hi, size)
            for part, p in enumerate(parts):
                groups.append((a, start, end, part if len(parts) > 1 else None,
                               partners[p:min(p + size, hi)]))
    return groups, disjoint, short


def permutation_pvalue(x: np.ndarray, y: np.ndarray, shuffles: int,
                       seed: int) -> float:
    """One-sided permutation p-value for the correlation of two windows.

    Each replica re-permutes the day sequence of x by the next row of a
    fresh shuffle bank for `seed`, and all shuffles are drawn (the pair
    test's kernel on a one-partner group, without its early stop);
    p = (1 + #{rho_shuffled >= rho}) / (shuffles + 1).
    """
    if shuffles < 99:
        raise ValueError("need at least 99 shuffles for a meaningful p-value")
    count, _ = _shuffle_exceed_count(np.asarray(x, float),
                                     np.asarray(y, float)[:, np.newaxis], shuffles,
                                     _Bank(seed, shuffles))
    return (1 + int(count[0])) / (shuffles + 1)


def modularity_of(net: SyncNetwork, communities: dict[str, int]) -> float:
    """Weighted modularity of an arbitrary partition covering every node,
    by the kernel that scores Louvain's partitions."""
    missing = [n for n in net.node_ids if n not in communities]
    if missing:
        raise ValueError(f"partition misses nodes: {missing[:5]}")
    node_ids, adj = _index_graph(net)
    return _modularity_indexed(adj, [communities[n] for n in node_ids])


def _edge_r(edges: list[tuple[int, int]], scores: np.ndarray) -> float | None:
    """Assortativity of an edge list, or None while it is undefined (all edge
    endpoints carrying one value, as can happen in a random start)."""
    try:
        return _endpoint_r(edges, scores)
    except DegenerateInputError:
        return None


def plant_assortative_network(n_nodes: int, target_r: float, attributes,
                              seed: int = 0, tolerance: float = 0.02,
                              mean_degree: float = 6.0,
                              max_steps: int = 40000) -> SyncNetwork:
    """Wire a network whose attribute assortativity lands within `tolerance`
    of target_r, by greedy edge rewiring from a random start.

    Targets of exactly +-1 are unreachable this way (use disjoint monochrome
    cliques or a complete bipartite fixture for those); raises when the
    target cannot be reached within max_steps."""
    scores = np.asarray(list(attributes), dtype=np.int64)
    if scores.size != n_nodes:
        raise GenerationError("need one attribute value per node")
    if np.unique(scores).size < 2:
        raise GenerationError("need at least 2 distinct attribute values")
    if not -1.0 < target_r < 1.0:
        raise GenerationError("target_r must lie strictly inside (-1, 1)")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    m = max(2, int(round(mean_degree * n_nodes / 2)))

    edge_list: list[tuple[int, int]] = []
    edge_set: set[tuple[int, int]] = set()
    while len(edge_list) < m:
        a, b = rng.integers(0, n_nodes, size=2)
        if a == b:
            continue
        e = (min(int(a), int(b)), max(int(a), int(b)))
        if e not in edge_set:
            edge_set.add(e)
            edge_list.append(e)

    by_value: dict[int, np.ndarray] = {
        int(v): np.flatnonzero(scores == v) for v in np.unique(scores)
    }
    values = sorted(by_value)
    r = _edge_r(edge_list, scores)
    for _ in range(max_steps):
        if r is not None and abs(r - target_r) <= tolerance:
            return fixture_network(n_nodes, edge_list)
        drop_idx = int(rng.integers(0, m))
        drop = edge_list[drop_idx]
        if r is None or r < target_r:
            # push upward: connect two nodes sharing an attribute value
            v = values[int(rng.integers(0, len(values)))]
            group = by_value[v]
            if group.size < 2:
                continue
            a, b = group[rng.integers(0, group.size, size=2)]
        else:
            a, b = rng.integers(0, n_nodes, size=2)
        a, b = int(a), int(b)
        if a == b:
            continue
        add = (min(a, b), max(a, b))
        if add in edge_set:
            continue
        edge_list[drop_idx] = add
        r_new = _edge_r(edge_list, scores)
        accept = r_new is not None and (
            r is None or abs(r_new - target_r) < abs(r - target_r))
        if accept:
            edge_set.discard(drop)
            edge_set.add(add)
            r = r_new
        else:
            edge_list[drop_idx] = drop
    raise GenerationError(
        f"could not reach assortativity {target_r} within {max_steps} steps "
        f"(last r = {r})")
