import datetime as dt
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_quotes, make_trade
from tradesync.errors import ConfigError, DataError
from tradesync.ingest import (AutoFilterPolicy, QuoteSeries, TradeRecord,
                              build_calendar, filter_automatic, parse_quotes,
                              parse_trades, split_off_calendar, write_trades)

TRADES_HEADER = "investor_id,date,ticker,shares,price,side\n"


def test_parse_single_row():
    result = parse_trades(TRADES_HEADER + "C001,2003-05-12,REP,100,14.25,buy\n")
    assert result.rejects == []
    assert result.records == [TradeRecord("C001", dt.date(2003, 5, 12), "REP",
                                          100, 14.25, "buy")]


def test_parse_rejects_nonpositive_shares():
    result = parse_trades(TRADES_HEADER + "C001,2003-05-12,REP,0,14.25,buy\n")
    assert result.records == []
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


_record_strategy = st.builds(
    TradeRecord,
    investor_id=st.text(alphabet="ABC123", min_size=1, max_size=6),
    date=st.dates(dt.date(2000, 1, 1), dt.date(2007, 12, 31)),
    ticker=st.sampled_from(["REP", "TEF", "SAN"]),
    shares=st.integers(1, 10_000),
    price=st.floats(0.01, 1000, allow_nan=False, allow_infinity=False),
    side=st.sampled_from(["buy", "sell"]),
    is_auto=st.sampled_from([None, True, False]),
)


@settings(max_examples=50)
@given(st.lists(_record_strategy, min_size=1, max_size=30))
def test_write_parse_roundtrip_bit_exact(records):
    # normalize: with any is_auto present, every row needs a value for 'flag'
    buf = io.StringIO()
    write_trades(records, buf)
    text = buf.getvalue()
    reparsed = parse_trades(text)
    assert reparsed.rejects == []
    assert reparsed.records == records
    buf2 = io.StringIO()
    write_trades(reparsed.records, buf2)
    assert buf2.getvalue() == text


def test_filter_none_is_identity():
    trades = [make_trade("A", dt.date(2003, 1, 6)) for _ in range(7)]
    out = filter_automatic(trades, AutoFilterPolicy("none"))
    assert out.retained == trades
    assert out.dropped == 0


def test_filter_flag_subset():
    day = dt.date(2003, 1, 6)
    trades = [make_trade(f"A{i}", day, is_auto=(i < 10)) for i in range(100)]
    out = filter_automatic(trades, AutoFilterPolicy("flag"))
    assert len(out.retained) == 90
    assert all(not t.is_auto for t in out.retained)
    assert out.retention_by_ticker == {"TST": 0.9}


def test_filter_flag_requires_column():
    trades = [make_trade("A", dt.date(2003, 1, 6))]
    with pytest.raises(ConfigError):
        filter_automatic(trades, AutoFilterPolicy("flag"))


def test_filter_threshold_drops_heavy_day():
    # one investor posts 500 ops on one day; 100 others trade once
    day = dt.date(2003, 1, 6)
    heavy = [make_trade("BOT", day) for _ in range(500)]
    humans = [make_trade(f"H{i}", day) for i in range(100)]
    out = filter_automatic(heavy + humans, AutoFilterPolicy("threshold", k=100))
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


def test_calendar_and_off_calendar_flagging():
    quotes = make_quotes(5)
    cal = build_calendar(quotes)
    assert len(cal) == 5
    assert [cal.ordinal(d) for d in quotes.days] == [0, 1, 2, 3, 4]
    on_trade = make_trade("A", quotes.days[2])
    off_trade = make_trade("A", quotes.days[0] - dt.timedelta(days=2))
    kept, flagged = split_off_calendar([on_trade, off_trade], cal)
    assert kept == [on_trade]
    assert flagged == [off_trade]


def test_calendar_large_index():
    quotes = make_quotes(2000)
    cal = build_calendar(quotes)
    assert cal.ordinal(quotes.days[-1]) == 1999


@settings(max_examples=30)
@given(st.lists(_record_strategy.map(lambda r: r), min_size=1, max_size=40))
def test_filter_flag_disjoint_property(records):
    flagged_input = [
        TradeRecord(r.investor_id, r.date, r.ticker, r.shares, r.price, r.side,
                    bool(r.is_auto)) for r in records
    ]
    out = filter_automatic(flagged_input, AutoFilterPolicy("flag"))
    dropped = [t for t in flagged_input if t.is_auto]
    assert len(out.retained) + len(dropped) == len(flagged_input)
    assert all(not t.is_auto for t in out.retained)
