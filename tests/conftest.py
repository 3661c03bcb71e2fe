import datetime as dt

import numpy as np
import pytest

from tradesync.activity import ActivitySeries
from tradesync.ingest import QuoteSeries, TradeRecord, build_calendar
from tradesync.syncnet import SyncEdge, SyncNetwork


def make_quotes(n_days: int, ticker: str = "TST", start=dt.date(2003, 1, 6),
                open_=100.0, spread=0.02) -> QuoteSeries:
    """Flat synthetic quotes: constant open, fixed relative high-low range."""
    days = []
    d = start
    while len(days) < n_days:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return QuoteSeries(ticker=ticker, days=days,
                       open_=[open_] * n_days,
                       high=[open_ * (1 + spread)] * n_days,
                       low=[open_ * (1 - spread)] * n_days)


def make_trade(investor: str, day: dt.date, ticker: str = "TST",
               shares: int = 100, price: float = 10.0, side: str = "buy",
               is_auto=None) -> TradeRecord:
    return TradeRecord(investor_id=investor, date=day, ticker=ticker,
                       shares=shares, price=price, side=side, is_auto=is_auto)


def series_from_counts(counts, investor="I1", ticker="TST", first_day=0
                       ) -> ActivitySeries:
    """Activity series straight from a day-count vector (leading/trailing
    zeros trimmed as the span definition requires)."""
    counts = list(counts)
    lo = next(i for i, c in enumerate(counts) if c > 0)
    hi = max(i for i, c in enumerate(counts) if c > 0)
    day_counts = {first_day + i: c for i, c in enumerate(counts) if lo <= i <= hi and c > 0}
    return ActivitySeries.from_day_counts(investor, ticker, day_counts)


def fixture_network(n_nodes: int, edges, ticker="TST") -> SyncNetwork:
    """Network with given index edges."""
    ids = [f"N{i:03d}" for i in range(n_nodes)]
    edge_list = [SyncEdge(i=ids[a], j=ids[b], rho=1.0, overlap=1, pvalue=0.001)
                 for a, b in sorted(tuple(sorted(e)) for e in edges)]
    return SyncNetwork(ticker=ticker, node_ids=ids, edges=edge_list)


def two_cliques(k: int = 5) -> SyncNetwork:
    edges = [(a, b) for a in range(k) for b in range(a + 1, k)]
    edges += [(k + a, k + b) for a in range(k) for b in range(a + 1, k)]
    return fixture_network(2 * k, edges)


def complete_bipartite(k: int = 4) -> SyncNetwork:
    edges = [(a, k + b) for a in range(k) for b in range(k)]
    return fixture_network(2 * k, edges)


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)


@pytest.fixture
def quotes20():
    return make_quotes(20)


@pytest.fixture
def calendar20(quotes20):
    return build_calendar(quotes20)
