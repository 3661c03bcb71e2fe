import datetime as dt
import functools
import io
import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from report_schema import validate_report
from tradesync import parallel, report
from tradesync.activity import ActivityMatrix
from tradesync.ingest import QuoteSeries, TradeColumns, build_calendar, parse_trades
from tradesync.syncnet import SyncEdge, SyncNetwork
from tradesync.synth import agent_id

# `--hypothesis-profile=ci` draws the same examples on every run, so a CI
# failure replays locally
settings.register_profile("ci", derandomize=True)


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
               is_auto=None) -> tuple:
    """One trade as a row of the trades file's fields, in column order."""
    return (investor, day, ticker, shares, price, side, is_auto)


def columns(trades) -> TradeColumns:
    """Rows from `make_trade`, written as a trades file and parsed back."""
    from oracles import write_trades  # oracles imports this module
    buf = io.StringIO()
    inv, day, tick, shares, price, side, auto = (list(c) for c in zip(*trades)) \
        if trades else ([],) * 7
    write_trades(buf, inv, [d.isoformat() for d in day], tick, shares, price, side,
                 auto if any(v is not None for v in auto) else None)
    parsed = parse_trades(buf.getvalue())
    assert parsed.rejects == []
    return parsed.records


def synth_columns(res) -> TradeColumns:
    """A synth result's trades as `parse_trades` keeps them from its file."""
    n = res.agent.size
    day_numbers = np.array([d.toordinal() for d in res.quotes.days], dtype=np.int32)
    return TradeColumns(
        investor=res.agent.astype(np.int32), ticker=np.zeros(n, dtype=np.int32),
        day=day_numbers[res.day], is_auto=np.full(n, -1, dtype=np.int8),
        investor_ids=[agent_id(i) for i in range(res.truth.lambdas.size)],
        tickers=[res.quotes.ticker])


def rows_of(trades: TradeColumns) -> list[tuple]:
    """(investor, date, ticker, is_auto) of each trade, decoded from the codes."""
    auto = {-1: None, 0: False, 1: True}
    return [(trades.investor_ids[i], dt.date.fromordinal(d), trades.tickers[t], auto[a])
            for i, d, t, a in zip(trades.investor.tolist(), trades.day.tolist(),
                                  trades.ticker.tolist(), trades.is_auto.tolist())]


class Row(NamedTuple):
    """One investor's row of an activity matrix: their trading days
    (increasing) and the positive operation count on each."""

    investor_id: str
    day: np.ndarray
    count: np.ndarray


def series_from_counts(counts, investor="I1", first_day=0) -> Row:
    """An investor's row from a day-count vector: `counts[d]` operations on
    calendar day `first_day + d`, zero on days without trades."""
    counts = np.asarray(counts, dtype=np.int64)
    active = np.flatnonzero(counts > 0)
    return Row(investor, first_day + active, counts[active])


def matrix(rows, ticker="TST") -> ActivityMatrix:
    """The activity matrix of one asset's per-investor rows."""
    rows = sorted(rows, key=lambda r: r.investor_id)
    return ActivityMatrix(
        ticker=ticker,
        ids=[r.investor_id for r in rows],
        indptr=np.cumsum([0, *(r.day.size for r in rows)]),
        day=np.concatenate([[], *(r.day for r in rows)]).astype(np.int64),
        count=np.concatenate([[], *(r.count for r in rows)]).astype(np.int64))


def matrix_rows(m: ActivityMatrix) -> list[Row]:
    """The rows of an activity matrix, in row order."""
    return [Row(inv, *m.active(k)) for k, inv in enumerate(m.ids)]


def window(m: ActivityMatrix, k: int, start: int, end: int) -> np.ndarray:
    """Row k's operation counts on every calendar day of [start, end]."""
    day, count = m.active(k)
    out = np.zeros(end - start + 1, dtype=np.int64)
    inside = (day >= start) & (day <= end)
    out[day[inside] - start] = count[inside]
    return out


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


@pytest.fixture(autouse=True, scope="session")
def _validated_reports():
    """Check every report the tests build against the report schema, since
    the program does not validate its own output. `build_report` is replaced
    wherever a loaded module binds it: in `tradesync.report`, in the CLI and
    in the test modules."""
    original = report.build_report

    @functools.wraps(original)
    def checked(*args, **kwargs):
        result = original(*args, **kwargs)
        validate_report(result)
        return result

    with pytest.MonkeyPatch.context() as mp:
        for module in list(sys.modules.values()):
            for name, value in list(getattr(module, "__dict__", {}).items()):
                if value is original:
                    mp.setattr(module, name, checked)
        yield


@pytest.fixture(autouse=True)
def _close_pool():
    """Close the process pool after every test, so no test forks while one
    is open."""
    yield
    parallel.shutdown()


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)


@pytest.fixture
def quotes20():
    return make_quotes(20)


@pytest.fixture
def calendar20(quotes20):
    return build_calendar(quotes20)
