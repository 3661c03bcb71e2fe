import datetime as dt
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import columns, make_quotes, make_trade, rows_of
from oracles import reference_parse_trades, write_trades
from tradesync import ingest
from tradesync.errors import ConfigError, DataError
from tradesync.ingest import (TRADE_FIELDS, AutoFilterPolicy, QuoteSeries,
                              build_calendar, filter_automatic, parse_quotes,
                              parse_trades, select_ticker, split_off_calendar)
from tradesync.synth import SynthConfig, generate, write_synth

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


def _outcome(parse, source, delimiter=","):
    """Everything a parse returns (columns with their dtypes, id tables,
    rejects), or the type and message of what it raised."""
    try:
        result = parse(source, delimiter)
    except Exception as err:  # the two readers must fail alike
        return type(err), str(err)
    r = result.records
    arrays = (r.investor, r.ticker, r.day, r.is_auto)
    return ([(a.dtype.str, a.tolist()) for a in arrays], r.investor_ids, r.tickers,
            result.rejects)


def _same_as_reference(text, delimiter=",", newline="\n"):
    """parse_trades and the reference loop agree on a str and on a text
    stream that reads `text` with the given newline mode."""
    assert _outcome(parse_trades, text, delimiter) == \
        _outcome(reference_parse_trades, text, delimiter)
    streams = [io.StringIO(text, newline=newline) for _ in range(2)]
    assert _outcome(parse_trades, streams[0], delimiter) == \
        _outcome(reference_parse_trades, streams[1], delimiter)


_ODD_FIELDS = {
    # fields longer than 32 bytes and fields with a NUL take the reader's
    # slower paths
    "investor_id": ["A1", " A1", "A1 ", "B2", "é", "идент", "　C3", "x y", "", "\x85",
                    "A1\0", "L" * 40, "L" * 40 + " ", "é" * 20, "\udc80x"],
    "date": ["2003-05-12", " 2003-05-13 ", "2003-13-01", "2003-02-30", "20030512",
             "2003-W01-1", "", "x", "12/05/2003", "٢٠٠٣-٠٥-١٢", " " * 30 + "2003-05-12",
             "2003-05-1\ud800"],
    "ticker": ["REP", " REP", "TEF", "ñ", "", "T" * 33, "REP\0"],
    "shares": ["1", "100", "1_000", " 7 ", "+5", "-3", "0", "1e3", "٣", "ten", "", "1.5",
               "00", "9" * 30, " " * 40 + "7"],
    "price": ["1.5", "10", "0", "-0.0", "inf", "nan", "-inf", "1e3", "+5", " 7 ", "٣",
              ".5", "5.", ".", "0.000", "00.010", "1_000", "1" * 400, "0." + "0" * 40 + "1",
              "1" * 33, "1.2.3", "abc", "", "-1.5", "1e400", "1e-400", "0x10"],
    "side": ["buy", "sell", " BUY ", "Sell", "hold", "", "b", " " * 40 + "sell"],
    "is_auto": ["true", "1", "yes", "false", "0", "no", "", " TRUE ", "maybe", "2"],
    "note": ["", "n", "free text"],
}


@st.composite
def _trades_file(draw):
    """A trades file as text, drawn to exercise the reader's splitting and
    checks: odd values in every column, quoted fields holding the delimiter,
    a quote or a newline, blank lines, rows with too few or too many fields,
    CRLF or LF line ends and an optional missing last newline."""
    delimiter = draw(st.sampled_from([",", ",", ";", "\t", "§"]))
    header = list(TRADE_FIELDS[:6]) + draw(st.sampled_from(
        [[], ["is_auto"], ["note"], ["is_auto", "note"]]))
    header = draw(st.permutations(header))
    quote = draw(st.sampled_from([0.0, 0.0, 0.05]))  # chance a field is quoted
    lines = [delimiter.join(header)]
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "short", "long"]))
        if kind == "blank":
            lines.append("")
            continue
        cells = [draw(st.sampled_from(_ODD_FIELDS[h])) if draw(st.booleans()) else
                 _ODD_FIELDS[h][0] for h in header]
        if kind == "short":
            cells = cells[:draw(st.integers(1, len(cells) - 1))]
        elif kind == "long":
            cells += ["extra"]
        for k, cell in enumerate(cells):
            if draw(st.floats(0, 1)) < quote:
                inner = cell + draw(st.sampled_from([delimiter, '"', "\n", ""]))
                cells[k] = '"' + inner.replace('"', '""') + '"'
        lines.append(delimiter.join(cells))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = end.join(lines)
    return (text + end if draw(st.booleans()) else text), delimiter


@settings(max_examples=150, deadline=None)
@given(_trades_file(), st.integers(1, 300), st.integers(1, 5))
def test_reader_equals_the_reference(file, block_chars, csv_rows):
    text, delimiter = file
    with pytest.MonkeyPatch.context() as mp:  # one file spans many blocks
        mp.setattr(ingest, "_BLOCK_CHARS", block_chars)
        mp.setattr(ingest, "_CSV_ROWS", csv_rows)
        _same_as_reference(text, delimiter)
        _same_as_reference(text, delimiter, newline=None)


def test_reader_equals_the_reference_past_a_late_quote(monkeypatch):
    rows = [f"A{i % 7},2003-05-{1 + i % 28:02d},REP,{1 + i},1.{i},buy" for i in range(300)]
    rows[250] = '"A,250",2003-05-12,REP,5,"1.5",sell'
    rows[260] = '"A\n260",2003-05-12,"REP",0,1.5,sell'
    rows[270] = "A9,2003-05-12,REP,5,1.5"
    text = TRADES_HEADER + "\n".join(rows) + "\n"
    for block_chars in (1, 64, 1000, 1 << 22):
        monkeypatch.setattr(ingest, "_BLOCK_CHARS", block_chars)
        _same_as_reference(text)
    result = parse_trades(text)
    assert [(r.line, r.reason) for r in result.rejects] == \
        [(262, "non-positive shares"), (272, "wrong field count")]
    assert result.records.investor_ids == [f"A{i}" for i in range(7)] + ["A,250"]


# the malformed rows of the benchmark's population market, at their lines
_POPULATION_REJECTS = (
    (2, "A00001,2000-13-45,AAA,100,10.0,buy", "bad date"),
    (1001, "A00002,2000-01-04,AAA,100,10.0,hold", "bad side"),
    (10001, "A00003,2000-01-04,AAA,0,10.0,sell", "non-positive shares"),
    (50001, "A00004,2000-01-04,AAA,100,abc,buy", "bad price"),
    (75001, "A00005,2000-01-04,BBB", "wrong field count"),
    (100001, "A00006,2000-01-04,BBB,100,-1.5,sell", "non-positive price"),
)


def test_population_fixture_equals_the_reference(tmp_path):
    """The population market at seed 1: two 30,000-agent assets merged under
    one header (about 126,000 rows, two blocks) with six malformed rows."""
    lines = []
    for ticker, seed in (("AAA", 2), ("BBB", 3)):
        res = generate(SynthConfig(n_agents=30_000, n_days=250, activity_tail_alpha=1.5,
                                   beta_mean=0.4, base_rate_scale=0.0029, ticker=ticker,
                                   seed=seed))
        paths = write_synth(res, str(tmp_path / ticker))
        with open(paths["trades"]) as f:
            lines += f.readlines()[1 if lines else 0:]
    for line, row, _ in _POPULATION_REJECTS:
        lines.insert(line - 1, row + "\n")
    text = "".join(lines)
    assert len(text) > ingest._BLOCK_CHARS
    result = parse_trades(text)
    assert [(r.line, r.reason) for r in result.rejects] == \
        [(line, reason) for line, _, reason in _POPULATION_REJECTS]
    assert len(result.records) == len(lines) - 7
    assert _outcome(parse_trades, text) == _outcome(reference_parse_trades, text)


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


def test_parse_holds_one_block_at_a_time(monkeypatch):
    block = 1 << 16
    monkeypatch.setattr(ingest, "_BLOCK_CHARS", block)
    rows = [f"C{i % 500:04d},2003-{1 + i % 12:02d}-{1 + i % 28:02d},REP,{1 + i % 97},"
            f"{1.5 + i % 13},buy" for i in range(200_000)]
    source = io.StringIO(TRADES_HEADER + "\n".join(rows) + "\n")  # about 8 MB
    tracemalloc.start()
    try:
        result = parse_trades(source)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.records) == 200_000
    # beyond the columns it keeps, the parse holds one block's text, bytes
    # and split arrays at a time (about 8 blocks' worth), never the file
    assert peak - kept <= 16 * block


def test_filter_none_is_identity():
    trades = columns([make_trade("A", dt.date(2003, 1, 6)) for _ in range(7)])
    out = filter_automatic(trades, AutoFilterPolicy("none"))
    assert rows_of(out.retained) == rows_of(trades)
    assert out.dropped == 0


def test_select_ticker_returns_a_one_ticker_input_itself():
    trades = columns([make_trade(f"A{i}", dt.date(2003, 1, 6 + i)) for i in range(5)])
    assert select_ticker(trades, "TST") is trades


def test_select_ticker_keeps_only_that_tickers_trades():
    day = dt.date(2003, 1, 6)
    trades = columns([make_trade(f"A{i}", day, ticker="XYZ" if i % 3 else "TST")
                      for i in range(9)])
    out = select_ticker(trades, "TST")
    assert out is not trades
    assert rows_of(out) == [(f"A{i}", day, "TST", None) for i in (0, 3, 6)]
    assert len(select_ticker(trades, "NONE")) == 0


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
