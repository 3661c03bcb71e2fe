import datetime as dt
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import columns, make_quotes, make_trade, rows_of
from tradesync.errors import ConfigError, DataError
from tradesync.ingest import (AutoFilterPolicy, QuoteSeries, build_calendar,
                              filter_automatic, parse_quotes, parse_trades,
                              split_off_calendar, write_trades)

TRADES_HEADER = "investor_id,date,ticker,shares,price,side\n"


def test_parse_single_row():
    result = parse_trades(TRADES_HEADER + "C001,2003-05-12,REP,100,14.25,buy\n")
    assert result.rejects == []
    assert rows_of(result.records) == [("C001", dt.date(2003, 5, 12), "REP", None)]


def test_parse_rejects_nonpositive_shares():
    result = parse_trades(TRADES_HEADER + "C001,2003-05-12,REP,0,14.25,buy\n")
    assert len(result.records) == 0
    assert len(result.rejects) == 1
    assert result.rejects[0].reason == "non-positive shares"
    assert result.rejects[0].line == 2


@pytest.mark.parametrize("row,reason", [
    ("C1,2003-13-40,REP,10,1.5,buy", "bad date"),
    ("C1,2003-05-12,REP,ten,1.5,buy", "bad shares"),
    ("C1,2003-05-12,REP,10,-3,buy", "non-positive price"),
    ("C1,2003-05-12,REP,10,inf,buy", "bad price"),
    ("C1,2003-05-12,REP,10,nan,buy", "bad price"),
    ("C1,2003-05-12,REP,10,1.5,hold", "bad side"),
])
def test_parse_reject_reasons(row, reason):
    result = parse_trades(TRADES_HEADER + row + "\n")
    assert [r.reason for r in result.rejects] == [reason]


def test_parse_count_conservation():
    rows = [f"C{i:03d},2003-05-12,REP,{i + 1},1.5,buy" for i in range(1000)]
    rows.insert(100, "BAD,not-a-date,REP,1,1.5,buy")
    rows.insert(500, "BAD,2003-05-12,REP,0,1.5,buy")
    rows.insert(900, "BAD,2003-05-12,REP,1,x,buy")
    result = parse_trades(TRADES_HEADER + "\n".join(rows) + "\n")
    assert len(result.records) == 1000
    assert len(result.rejects) == 3


def test_missing_mandatory_column_fatal():
    with pytest.raises(ConfigError):
        parse_trades("investor_id,date,ticker,shares,price\nC1,2003-05-12,REP,1,1\n")


def test_reject_report_format():
    result = parse_trades(TRADES_HEADER + "C1,xx,REP,1,1.5,buy\n")
    assert result.reject_report() == "line 2: bad date"


_record_strategy = st.tuples(
    st.text(alphabet="ABC123", min_size=1, max_size=6),
    st.dates(dt.date(2000, 1, 1), dt.date(2007, 12, 31)),
    st.sampled_from(["REP", "TEF", "SAN"]),
    st.integers(1, 10_000),
    st.floats(0.01, 1000, allow_nan=False, allow_infinity=False),
    st.sampled_from(["buy", "sell"]),
    st.sampled_from([None, True, False]),
)


def _write(records) -> str:
    inv, day, tick, shares, price, side, auto = (list(c) for c in zip(*records))
    buf = io.StringIO()
    write_trades(buf, inv, [d.isoformat() for d in day], tick, shares, price, side,
                 auto if any(v is not None for v in auto) else None)
    return buf.getvalue()


@settings(max_examples=50)
@given(st.lists(_record_strategy, min_size=1, max_size=30))
def test_write_parse_roundtrip_bit_exact(records):
    text = _write(records)
    reparsed = parse_trades(text)
    assert reparsed.rejects == []
    # investor, date, ticker and is_auto are kept; with any is_auto present
    # every row carries the column, empty where the flag is missing
    assert rows_of(reparsed.records) == [(r[0], r[1], r[2], r[6]) for r in records]
    # shares, price and side are only validated: the file holds them exactly
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [(int(f[3]), float(f[4]), f[5]) for f in rows] == \
        [(r[3], r[4], r[5]) for r in records]
    assert _write(records) == text


_FIELD_JUNK = {
    "date": st.sampled_from(["", "2003-13-01", "2003-02-30", "12/05/2003", "x"]),
    "shares": st.sampled_from(["", "ten", "1.5", "0", "-3"]),
    "price": st.sampled_from(["", "abc", "0", "-1.5", "inf", "nan", "-inf"]),
    "side": st.sampled_from(["", "hold", "b", "buyy"]),
    "is_auto": st.sampled_from(["maybe", "2", "t"]),
}
_REASONS = {"date": {"bad date"}, "shares": {"bad shares", "non-positive shares"},
            "price": {"bad price", "non-positive price"}, "side": {"bad side"},
            "is_auto": {"bad is_auto"}}
_FIELDS = ("investor_id", "date", "ticker", "shares", "price", "side", "is_auto")


@settings(max_examples=100, deadline=None)
@given(st.lists(_record_strategy, min_size=2, max_size=20), st.data())
def test_a_corrupted_row_is_a_line_numbered_reject(records, data):
    records = [r[:6] + (bool(r[6]),) for r in records]
    lines = _write(records).splitlines()
    k = data.draw(st.integers(0, len(records) - 1))
    field = data.draw(st.sampled_from(_FIELDS))
    cells = lines[k + 1].split(",")
    if field in _FIELD_JUNK and data.draw(st.booleans()):
        cells[_FIELDS.index(field)] = data.draw(_FIELD_JUNK[field])
        reasons = _REASONS[field]
    else:  # cut the row short at the field (a row of no field is blank)
        del cells[max(1, _FIELDS.index(field)):]
        reasons = {"wrong field count"}
    lines[k + 1] = ",".join(cells)
    result = parse_trades("\n".join(lines) + "\n")
    assert [r.line for r in result.rejects] == [k + 2]
    assert result.rejects[0].reason in reasons
    kept = [(r[0], r[1], r[2], r[6]) for i, r in enumerate(records) if i != k]
    assert rows_of(result.records) == kept


def test_population_malformations_keep_lines_and_reasons():
    rows = [f"A{i:05d},2000-01-04,AAA,100,10.0,buy" for i in range(40)]
    injected = [(2, "A00001,2000-13-45,AAA,100,10.0,buy", "bad date"),
                (11, "A00002,2000-01-04,AAA,100,10.0,hold", "bad side"),
                (17, "A00003,2000-01-04,AAA,0,10.0,sell", "non-positive shares"),
                (23, "A00004,2000-01-04,AAA,100,abc,buy", "bad price"),
                (31, "A00005,2000-01-04,BBB", "wrong field count"),
                (40, "A00006,2000-01-04,BBB,100,-1.5,sell", "non-positive price")]
    for line, row, _ in injected:
        rows.insert(line - 2, row)
    result = parse_trades(TRADES_HEADER + "\n".join(rows) + "\n")
    assert [(r.line, r.reason) for r in result.rejects] == \
        [(line, reason) for line, _, reason in injected]
    assert len(result.records) == 40


def test_parsed_trades_are_fixed_width_columns():
    n = 20_000
    rows = [f"C{i % 300:04d},2003-{1 + i % 12:02d}-{1 + i % 28:02d},"
            f"{('REP', 'TEF')[i % 2]},{1 + i % 97},{1.5 + i % 13},buy"
            for i in range(n)]
    text = TRADES_HEADER + "\n".join(rows) + "\n"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = parse_trades(text).records
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    arrays = (records.investor, records.ticker, records.day, records.is_auto)
    assert [a.dtype for a in arrays] == [np.int32, np.int32, np.int32, np.int8]
    assert all(a.size == n for a in arrays)
    assert sum(a.nbytes for a in arrays) <= 40 * n
    # no per-trade Python object survives the parse: what it keeps is the
    # columns' buffers plus the 300 ids, 2 tickers and the date cache
    assert kept <= 40 * n


def test_filter_none_is_identity():
    trades = columns([make_trade("A", dt.date(2003, 1, 6)) for _ in range(7)])
    out = filter_automatic(trades, AutoFilterPolicy("none"))
    assert rows_of(out.retained) == rows_of(trades)
    assert out.dropped == 0


def test_filter_flag_subset():
    day = dt.date(2003, 1, 6)
    trades = columns([make_trade(f"A{i}", day, is_auto=(i < 10)) for i in range(100)])
    out = filter_automatic(trades, AutoFilterPolicy("flag"))
    assert len(out.retained) == 90
    assert all(auto is False for *_, auto in rows_of(out.retained))
    assert out.retention_by_ticker == {"TST": 0.9}


def test_filter_flag_requires_column():
    trades = columns([make_trade("A", dt.date(2003, 1, 6))])
    with pytest.raises(ConfigError):
        filter_automatic(trades, AutoFilterPolicy("flag"))


def test_filter_threshold_drops_heavy_day():
    # one investor posts 500 ops on one day; 100 others trade once
    day = dt.date(2003, 1, 6)
    heavy = [make_trade("BOT", day) for _ in range(500)]
    humans = [make_trade(f"H{i}", day) for i in range(100)]
    out = filter_automatic(columns(heavy + humans),
                           AutoFilterPolicy("threshold", k=100))
    assert len(out.retained) == 100
    assert out.dropped == 500
    assert out.retention_by_ticker["TST"] == pytest.approx(100 / 600)


def test_filter_policy_parse():
    assert AutoFilterPolicy.parse("threshold:100") == AutoFilterPolicy("threshold", 100)
    assert AutoFilterPolicy.parse("none").kind == "none"
    with pytest.raises(ConfigError):
        AutoFilterPolicy.parse("bogus")


def test_quotes_validation():
    q = parse_quotes("date,open,high,low\n2003-01-06,100,105,95\n", "REP")
    assert q.days == [dt.date(2003, 1, 6)]
    with pytest.raises(DataError, match="line 2"):
        parse_quotes("date,open,high,low\n2003-01-06,100,95,105\n", "REP")
    with pytest.raises(DataError, match="duplicate"):
        parse_quotes("date,open,high,low\n"
                     "2003-01-06,100,105,95\n2003-01-06,100,105,95\n", "REP")
    with pytest.raises(DataError):
        QuoteSeries("REP", [], [], [], [])


@pytest.mark.parametrize("row", [
    "2003-01-07,inf,inf,95", "2003-01-07,100,inf,95", "2003-01-07,100,105,-inf",
    "2003-01-07,nan,105,95", "2003-01-07,100,nan,95", "2003-01-07,100,105,nan",
])
def test_quotes_reject_non_finite_prices(row):
    with pytest.raises(DataError, match="quotes line 3: non-finite price"):
        parse_quotes(f"date,open,high,low\n2003-01-06,100,105,95\n{row}\n", "REP")


def _positions(calendar, days) -> list[int]:
    return calendar.positions(np.array([d.toordinal() for d in days])).tolist()


def test_calendar_and_off_calendar_flagging():
    quotes = make_quotes(5)
    cal = build_calendar(quotes)
    assert len(cal) == 5
    assert _positions(cal, quotes.days) == [0, 1, 2, 3, 4]
    on_trade = make_trade("A", quotes.days[2])
    off_trade = make_trade("A", quotes.days[0] - dt.timedelta(days=2))
    kept, flagged = split_off_calendar(columns([on_trade, off_trade]), cal)
    assert rows_of(kept) == [("A", on_trade[1], "TST", None)]
    assert rows_of(flagged) == [("A", off_trade[1], "TST", None)]


def test_calendar_large_index():
    quotes = make_quotes(2000)
    cal = build_calendar(quotes)
    assert _positions(cal, quotes.days[-1:]) == [1999]


@settings(max_examples=30)
@given(st.lists(_record_strategy.map(lambda r: r), min_size=1, max_size=40))
def test_filter_flag_disjoint_property(records):
    flagged_input = [r[:6] + (bool(r[6]),) for r in records]
    out = filter_automatic(columns(flagged_input), AutoFilterPolicy("flag"))
    dropped = [r for r in flagged_input if r[6]]
    assert len(out.retained) + len(dropped) == len(flagged_input)
    assert all(auto is False for *_, auto in rows_of(out.retained))
