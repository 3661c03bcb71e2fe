"""Trade and quote ingestion: parsing, validation, the automatic-operation
filter and the per-asset trading calendar.

Input files are delimiter-separated text with a header row. Dates are
ISO-8601 in files; after calendar construction all time arithmetic uses
integer day ordinals on the asset's trading calendar.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import math
from array import array
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError

TRADE_FIELDS = ("investor_id", "date", "ticker", "shares", "price", "side", "is_auto")
QUOTE_FIELDS = ("date", "open", "high", "low")

_AUTO_TOKENS = {"true": 1, "1": 1, "yes": 1, "false": 0, "0": 0, "no": 0, "": -1}
_DAY_NUMBERS = dt.date.max.toordinal() + 1  # bound on any date.toordinal()


@dataclass(frozen=True)
class TradeColumns:
    """The fields of parsed trades that the analysis reads, one entry per
    trade in file order. Investor and ticker are codes into the two id tables;
    `day` is the date's proleptic Gregorian ordinal (`date.toordinal()`);
    `is_auto` is 1, 0, or -1 where the flag is missing."""

    investor: np.ndarray  # int32
    ticker: np.ndarray    # int32
    day: np.ndarray       # int32
    is_auto: np.ndarray   # int8
    investor_ids: list[str]
    tickers: list[str]

    def __len__(self) -> int:
        return self.day.size

    def take(self, mask: np.ndarray) -> "TradeColumns":
        return replace(self, investor=self.investor[mask], ticker=self.ticker[mask],
                       day=self.day[mask], is_auto=self.is_auto[mask])


@dataclass(frozen=True)
class Reject:
    line: int
    reason: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.reason}"


@dataclass
class ParseResult:
    records: TradeColumns
    rejects: list[Reject]

    def reject_report(self) -> str:
        return "\n".join(str(r) for r in self.rejects)


class QuoteSeries:
    """Daily open/high/low prices for one asset on strictly increasing days.
    `parse_quotes` checks each row (positive, finite, low <= open <= high) and
    the day order; `synth` builds valid quotes by construction."""

    def __init__(self, ticker: str, days: list[dt.date], open_: list[float],
                 high: list[float], low: list[float]):
        n = len(days)
        if n == 0:
            raise DataError("empty quote series")
        if not (len(open_) == len(high) == len(low) == n):
            raise DataError("quote columns have unequal lengths")
        self.ticker = ticker
        self.days = list(days)
        self.open = list(open_)
        self.high = list(high)
        self.low = list(low)

    def __len__(self) -> int:
        return len(self.days)


@dataclass
class TradingCalendar:
    """Ordered trading days of one asset, as `date.toordinal()` numbers; a
    day's calendar ordinal is its index."""

    ticker: str
    day_numbers: np.ndarray

    def positions(self, day_numbers: np.ndarray) -> np.ndarray:
        """Calendar ordinal of each `date.toordinal()` value, -1 off calendar."""
        pos = np.searchsorted(self.day_numbers, day_numbers)
        hit = self.day_numbers[np.minimum(pos, len(self) - 1)] == day_numbers
        return np.where(hit, pos, -1)

    def __len__(self) -> int:
        return self.day_numbers.size


@dataclass(frozen=True)
class AutoFilterPolicy:
    """How automatic operations are identified.

    kind='flag' uses the is_auto column, kind='threshold' drops every
    investor-asset-day with more than `k` operations, kind='none' keeps all.
    """

    kind: str = "none"
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("none", "flag", "threshold"):
            raise ConfigError(f"unknown auto-filter policy {self.kind!r}")
        if self.kind == "threshold" and (self.k is None or self.k < 1):
            raise ConfigError("threshold policy needs k >= 1")

    @classmethod
    def parse(cls, text: str) -> "AutoFilterPolicy":
        if text.startswith("threshold:"):
            k = text.split(":", 1)[1]
            try:
                return cls("threshold", int(k))
            except ValueError:
                raise ConfigError(f"threshold policy needs an integer k, got {k!r}") \
                    from None
        return cls(text)


@dataclass
class FilterResult:
    retained: TradeColumns
    dropped: int
    retention_by_ticker: dict[str, float]


def _header_positions(header: list[str], fields: tuple[str, ...],
                      mandatory: tuple[str, ...], what: str) -> dict[str, int]:
    pos = {f: header.index(f) for f in fields if f in header}
    missing = [f for f in mandatory if f not in pos]
    if missing:
        raise ConfigError(f"{what} file is missing mandatory columns: {', '.join(missing)}")
    return pos


def parse_trades(source, delimiter: str = ",") -> ParseResult:
    """Parse a trades stream (text file object or str content).

    Rows failing validation are reported with their 1-based line number and
    kept out of the result; a missing mandatory column is fatal. Shares, price
    and side are validated but not kept. A row's reject reason is its first
    failing check, in the order wrong field count, date, shares, price, side,
    is_auto.

    The stream is read in blocks of whole lines (`_BLOCK_CHARS` characters)
    and each block is cut at its delimiter and newline bytes with numpy,
    which splits a row exactly as `csv` does while the block holds no quote,
    CR or NUL and no line longer than csv's field size limit. From the first
    block that does (or with a delimiter other than one ASCII byte), the rest
    of the stream goes through `csv.reader`; either way the rows feed the same
    column checks. Lines are taken to end at "\n", as in a str or a text file
    opened in the default newline mode.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = _Reader(source, delimiter)
    pos = _header_positions(reader.header, TRADE_FIELDS, TRADE_FIELDS[:6], "trades")
    out = _Collector(has_auto="is_auto" in pos)
    for batch in reader.batches([pos[f] for f in TRADE_FIELDS if f in pos]):
        out.add(batch)
        del batch  # hold one block at a time
    return out.result()


_BLOCK_CHARS = 1 << 22  # characters read per block of whole lines (~4 MiB)
_CSV_ROWS = 1 << 14     # rows per batch once csv.reader splits the stream
_PAD = 32               # zero bytes after each buffer; the widest field numpy compares
_REASONS = ("", "wrong field count", "bad date", "bad shares", "non-positive shares",
            "bad price", "non-positive price", "bad side", "bad is_auto")
_CODE = {reason: k for k, reason in enumerate(_REASONS)}  # 0: the row is kept
_NO_TOKEN = 2  # is_auto value of a field that is no _AUTO_TOKENS key
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


class _Reader:
    """The rows of a trades stream: `header`, then `batches` of the rest.
    Blocks are split by `_Lines` while they can be; from the first one that
    cannot (or from the start, for a delimiter other than one ASCII byte
    that is no quote, CR, LF or NUL) a `csv.reader` reads the rest."""

    def __init__(self, source, delimiter: str):
        self.source, self.delimiter = source, delimiter
        self.csv = None
        if isinstance(delimiter, str) and len(delimiter) == 1 and delimiter.isascii() \
                and delimiter not in '"\r\n\0':
            self.lines = self._split(_read_block(source))  # the first block
        else:  # csv.reader rejects a delimiter it cannot use
            self.lines, self.csv = None, csv.reader(source, delimiter=delimiter)
        header = self.lines.row(0) if self.lines is not None else \
            next(self.csv, None) if self.csv is not None else None
        if header is None:
            raise ConfigError("trades file is empty")
        self.header = header

    def _split(self, text: str) -> "_Lines | None":
        """The block split by numpy; else, with text left, a csv reader from
        the block on."""
        lines = _Lines.split(text, ord(self.delimiter)) if text else None
        if lines is None and text:
            self.csv = csv.reader(itertools.chain(io.StringIO(text), self.source),
                                  delimiter=self.delimiter)
        return lines

    def batches(self, cols: list[int]):
        """The rows after the header, with the fields of columns `cols`."""
        line, skip = 1, 1  # line number of the block's first line; the header
        lines, self.lines = self.lines, None
        while lines is not None:
            yield lines.batch(cols, line, skip)
            line, skip = line + lines.count, 0
            lines = None  # freed before the next block is read
            lines = self._split(_read_block(self.source))
        if self.csv is not None:
            yield from _csv_batches(self.csv, cols, line + skip)


def _read_block(source) -> str:
    text = source.read(_BLOCK_CHARS)
    if text and not text.endswith("\n"):
        text += source.readline()
    return text


class _Batch(NamedTuple):
    """Trade rows as byte ranges of one buffer. `line` holds the line number
    of each row that has every needed field, `short` those of the nonblank
    rows that do not, and raw[start[c][k]:stop[c][k]] is needed column c of
    full row k. `raw` ends in _PAD zero bytes; `nul` says whether a field
    holds a NUL, which zero padding would then hide."""

    raw: bytes
    line: np.ndarray
    short: np.ndarray
    start: list
    stop: list
    nul: bool


class _Lines:
    """A block of whole lines as UTF-8 bytes, cut at every delimiter and
    newline byte: `seps` holds their offsets. Line k starts at byte
    begin[k], has fields[k] fields, and its separators are
    seps[first[k]:first[k] + fields[k]], the last one its newline."""

    def __init__(self, raw: bytes, sep: int):
        self.raw = raw
        buf = np.frombuffer(raw, np.uint8)[:-_PAD]
        is_sep = buf == sep
        is_sep |= buf == 10
        self.seps = np.flatnonzero(is_sep).astype(np.int32)
        del is_sep
        ends = np.flatnonzero(buf[self.seps] == 10).astype(np.int32)
        self.first = np.insert(ends[:-1] + 1, 0, 0)
        self.begin = np.insert(self.seps[ends[:-1]] + 1, 0, 0)
        self.fields = ends - self.first + 1
        self.length = self.seps[ends] - self.begin
        self.blank = self.length == 0
        self.count = ends.size

    @classmethod
    def split(cls, text: str, sep: int) -> "_Lines | None":
        """The block split at `sep`, or None where `csv` could split it
        differently: at a quote, CR or NUL, or on a line too long for it."""
        if '"' in text or "\r" in text or "\0" in text or len(text) >= 1 << 28:
            return None  # (the last test keeps byte offsets within int32)
        raw = text.encode("utf-8", "surrogatepass")
        end = b"" if raw.endswith(b"\n") else b"\n"  # on the stream's last line
        raw = b"".join((raw, end, bytes(_PAD)))
        lines = cls(raw, sep)
        return None if lines.length.max() > csv.field_size_limit() else lines

    def field(self, lines: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
        """Byte range of field p on lines that have more than p fields."""
        at = self.first[lines] + p
        return (self.seps[at - 1] + 1 if p else self.begin[lines]), self.seps[at]

    def row(self, k: int) -> list[str]:
        """Line k's fields, as csv reads them."""
        if self.blank[k]:
            return []
        stop = self.seps[self.first[k]:self.first[k] + self.fields[k]]
        return _texts(self.raw, np.concatenate(([self.begin[k]], stop[:-1] + 1)), stop)

    def batch(self, cols: list[int], line: int, skip: int) -> _Batch:
        """The rows from line `skip` on, numbered from `line` at line 0."""
        k = np.arange(skip, self.count)
        full = self.fields[k] > max(cols)
        rows = k[full]
        start, stop = zip(*(self.field(rows, p) for p in cols))
        return _Batch(self.raw, line + rows, line + k[~full & ~self.blank[k]],
                      list(start), list(stop), nul=False)


def _csv_batches(reader, cols: list[int], line: int):
    """The rows of a csv reader in batches of _CSV_ROWS, numbered from `line`,
    with each full row's needed fields encoded into one buffer."""
    while rows := list(itertools.islice(reader, _CSV_ROWS)):
        count = np.array([len(row) for row in rows])
        lines = np.arange(line, line + len(rows))
        line += len(rows)
        full = count > max(cols)
        fields = [row[p].encode("utf-8", "surrogatepass")
                  for row in itertools.compress(rows, full) for p in cols]
        length = np.array([len(f) for f in fields], dtype=np.int64)
        stop = np.cumsum(length).reshape(-1, len(cols)).T
        raw = b"".join(fields)
        yield _Batch(raw + bytes(_PAD), lines[full], lines[~full & (count > 0)],
                     list(stop - length.reshape(-1, len(cols)).T), list(stop),
                     nul=b"\0" in raw)


def _texts(raw: bytes, start: np.ndarray, stop: np.ndarray) -> list[str]:
    """The fields raw[start:stop], decoded: joined by newlines, decoded at
    once and split again, or one by one where a field holds a newline."""
    step = stop - start + 1
    offset = np.cumsum(step) - step  # of each field in the joined bytes
    joined = np.frombuffer(raw, np.uint8)[np.repeat(start - offset, step)
                                          + np.arange(step.sum())]
    joined[offset + step - 1] = 10
    texts = joined.tobytes().decode("utf-8", "surrogatepass").split("\n")[:-1]
    if len(texts) == start.size:
        return texts
    return [raw[s:e].decode("utf-8", "surrogatepass")
            for s, e in zip(start.tolist(), stop.tolist())]


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One integer per row that is equal exactly where both a and b are."""
    a = np.unique(a, return_inverse=True)[1]
    b = np.unique(b, return_inverse=True)[1]
    return a * (int(b.max(initial=0)) + 1) + b


def _distinct(batch: _Batch, start: np.ndarray, stop: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Group the fields raw[start:stop] by their bytes: each field's group,
    and the first field of each group. Up to _PAD bytes, fields compare as
    little-endian 64-bit words, eight bytes at a time, padded with zeros;
    the rare longer field is told apart by its bytes in a dict."""
    buf = np.frombuffer(batch.raw, np.uint8)
    words = np.ndarray((buf.size - 7,), "<u8", buf, strides=(1,))
    length = stop - start
    key = np.zeros(start.size, np.uint64)
    for off in range(0, min(int(length.max(initial=0)), _PAD), 8):
        word = words[np.minimum(start + off, words.size - 1)] \
            & _LOW_BYTES[np.clip(length - off, 0, 8)]
        key = _pair(key, word) if off else word
    if batch.nul:
        key = _pair(key, length)
    long = np.flatnonzero(length > _PAD)
    if long.size:
        seen: dict[bytes, int] = {}
        tail = np.zeros(start.size, np.int64)
        tail[long] = [seen.setdefault(batch.raw[s:e], len(seen) + 1)
                      for s, e in zip(start[long].tolist(), stop[long].tolist())]
        key = _pair(key, tail)
    group = np.unique(key, return_inverse=True)[1]
    first = np.full(int(group.max(initial=-1)) + 1, start.size)
    np.minimum.at(first, group, np.arange(start.size))
    return group, first


def _per_value(batch: _Batch, c: int, fn, dtype) -> np.ndarray:
    """fn of column c's text on each row, called once per distinct field."""
    start, stop = batch.start[c], batch.stop[c]
    group, first = _distinct(batch, start, stop)
    return np.array([fn(t) for t in _texts(batch.raw, start[first], stop[first])],
                    dtype=dtype)[group]


def _day_number(text: str) -> int:
    """date.toordinal() of an ISO date, 0 if the text is none."""
    try:
        return dt.date.fromisoformat(text.strip()).toordinal()
    except ValueError:
        return 0


def _shares_code(text: str) -> int:
    try:
        shares = int(text)
    except ValueError:
        return _CODE["bad shares"]
    return 0 if shares > 0 else _CODE["non-positive shares"]


def _side_code(text: str) -> int:
    return 0 if text.strip().lower() in ("buy", "sell") else _CODE["bad side"]


def _auto_value(text: str) -> int:
    return _AUTO_TOKENS.get(text.strip().lower(), _NO_TOKEN)


def _price_code(text: str) -> int:
    try:
        price = float(text)
    except ValueError:
        price = math.nan
    if 0.0 < price < math.inf:  # false for NaN too
        return 0
    return _CODE["non-positive price" if -math.inf < price <= 0.0 else "bad price"]


def _price_codes(batch: _Batch, c: int) -> np.ndarray:
    """_price_code of each row. A field of at most _PAD bytes that holds only
    ASCII digits, at most one '.' and a nonzero digit is a finite positive
    float without calling float(); every other field is passed to it."""
    start, stop = batch.start[c], batch.stop[c]
    length = stop - start
    width = max(min(int(length.max(initial=0)), _PAD), 1)
    g = sliding_window_view(np.frombuffer(batch.raw, np.uint8), width)[start]
    g[np.arange(width) >= length[:, None]] = 0
    digit = (g - 48) < 10  # uint8: the bytes below '0' wrap above 9
    dot = g == 46
    plain = (length <= width) & ((digit | dot).sum(axis=1) == length) \
        & (dot.sum(axis=1) <= 1) & (digit & (g != 48)).any(axis=1)
    codes = np.zeros(start.size, np.int8)
    slow = np.flatnonzero(~plain)
    codes[slow] = [_price_code(t) for t in _texts(batch.raw, start[slow], stop[slow])]
    return codes


class _Collector:
    """Checks batches of trade rows and gathers the kept rows' columns. The
    id tables carry across batches, so codes follow first appearance among
    the kept rows of the whole stream."""

    def __init__(self, has_auto: bool):
        self.has_auto = has_auto
        self.investor_ids: dict[str, int] = {}  # id -> code, in code order
        self.tickers: dict[str, int] = {}
        self.columns = (array("i"), array("i"), array("i"), array("b"))
        self.rejects = [(np.empty(0, np.int64), np.empty(0, np.int8))]

    def add(self, batch: _Batch) -> None:
        n = batch.line.size
        day = _per_value(batch, 1, _day_number, np.intc)
        is_auto = _per_value(batch, 6, _auto_value, np.int8) if self.has_auto \
            else np.full(n, -1, np.int8)
        checks = (  # in check order; a row's reason is its first nonzero code
            np.where(day == 0, _CODE["bad date"], 0),
            _per_value(batch, 3, _shares_code, np.int8),
            _price_codes(batch, 4),
            _per_value(batch, 5, _side_code, np.int8),
            np.where(is_auto == _NO_TOKEN, _CODE["bad is_auto"], 0))
        reason = np.zeros(n, np.int8)
        for code in reversed(checks):
            np.copyto(reason, code, where=code != 0)
        bad = reason != 0
        self.rejects.append((np.concatenate((batch.short, batch.line[bad])), np.concatenate(
            (np.full(batch.short.size, _CODE["wrong field count"], np.int8), reason[bad]))))
        kept = np.flatnonzero(~bad)
        for column, values in zip(self.columns, (
                self._codes(self.investor_ids, batch, 0, kept),
                self._codes(self.tickers, batch, 2, kept), day[kept], is_auto[kept])):
            column.frombytes(values.tobytes())

    @staticmethod
    def _codes(ids: dict[str, int], batch: _Batch, c: int, rows: np.ndarray) -> np.ndarray:
        """Codes of column c's stripped text on the given rows; a new text
        gets the next free code."""
        start, stop = batch.start[c][rows], batch.stop[c][rows]
        group, first = _distinct(batch, start, stop)
        order = first.argsort()
        texts = list(map(str.strip, _texts(batch.raw, start[first[order]],
                                           stop[first[order]])))
        fresh = [t for t in dict.fromkeys(texts) if t not in ids]
        ids.update(zip(fresh, range(len(ids), len(ids) + len(fresh))))
        codes = np.empty(first.size, np.intc)
        codes[order] = list(map(ids.__getitem__, texts))
        return codes[group]

    def result(self) -> ParseResult:
        investor, ticker, day, is_auto = (  # array "i" holds C ints, as np.intc does
            np.frombuffer(c, dtype=np.intc if c.typecode == "i" else np.int8)
            for c in self.columns)
        line, code = (np.concatenate(c) for c in zip(*self.rejects))
        order = line.argsort(kind="stable")
        rejects = [Reject(n, _REASONS[k])
                   for n, k in zip(line[order].tolist(), code[order].tolist())]
        return ParseResult(TradeColumns(investor, ticker, day, is_auto,
                                        list(self.investor_ids), list(self.tickers)),
                           rejects)


def parse_quotes(source, ticker: str, delimiter: str = ",") -> QuoteSeries:
    """Parse one asset's quotes stream. Any invalid row is fatal because a
    broken row would corrupt the trading calendar; the error names the line."""
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError("quotes file is empty") from None
    pos = _header_positions(header, QUOTE_FIELDS, QUOTE_FIELDS, "quotes")

    rows: list[tuple[dt.date, float, float, float]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            date = dt.date.fromisoformat(row[pos["date"]].strip())
            open_ = float(row[pos["open"]])
            high = float(row[pos["high"]])
            low = float(row[pos["low"]])
        except (ValueError, IndexError):
            raise DataError(f"quotes line {lineno}: malformed row") from None
        if not all(map(math.isfinite, (open_, high, low))):
            raise DataError(f"quotes line {lineno}: non-finite price")
        if open_ <= 0 or high <= 0 or low <= 0:
            raise DataError(f"quotes line {lineno}: non-positive price")
        if high < low:
            raise DataError(f"quotes line {lineno}: high < low")
        if not (low <= open_ <= high):
            raise DataError(f"quotes line {lineno}: open outside [low, high]")
        rows.append((date, open_, high, low))
    if not rows:
        raise DataError("quotes file has no data rows")
    rows.sort(key=lambda t: t[0])
    for a, b in zip(rows, rows[1:]):
        if a[0] == b[0]:
            raise DataError(f"duplicate quote day {a[0]}")
    return QuoteSeries(
        ticker=ticker,
        days=[r[0] for r in rows],
        open_=[r[1] for r in rows],
        high=[r[2] for r in rows],
        low=[r[3] for r in rows],
    )


def write_quotes(quotes: QuoteSeries, stream, delimiter: str = ",") -> None:
    writer = csv.writer(stream, delimiter=delimiter, lineterminator="\n")
    writer.writerow(list(QUOTE_FIELDS))
    for day, o, h, low in zip(quotes.days, quotes.open, quotes.high, quotes.low):
        writer.writerow([day.isoformat(), repr(o), repr(h), repr(low)])


def filter_automatic(trades: TradeColumns, policy: AutoFilterPolicy) -> FilterResult:
    """Apply the automatic-operation filter; reports retention per asset."""
    if policy.kind == "none":
        retained = trades
    elif policy.kind == "flag":
        if (trades.is_auto < 0).any():
            raise ConfigError("policy 'flag' requires an is_auto value on every trade")
        retained = trades.take(trades.is_auto == 0)
    else:  # threshold: operations per investor-asset-day
        _, pair = np.unique(trades.investor.astype(np.int64) * len(trades.tickers)
                            + trades.ticker, return_inverse=True)
        _, cell, ops = np.unique(pair * _DAY_NUMBERS + trades.day,
                                 return_inverse=True, return_counts=True)
        retained = trades.take(ops[cell] <= policy.k)

    total = np.bincount(trades.ticker, minlength=len(trades.tickers))
    kept = np.bincount(retained.ticker, minlength=len(trades.tickers))
    retention = {tick: int(kept[c]) / int(total[c])
                 for tick, c in sorted(zip(trades.tickers, range(total.size)))
                 if total[c]}
    return FilterResult(retained, len(trades) - len(retained), retention)


def build_calendar(quotes: QuoteSeries) -> TradingCalendar:
    """Calendar days are exactly the quote days (quote validation already
    guarantees a nonempty, strictly increasing day list)."""
    return TradingCalendar(quotes.ticker, np.array([d.toordinal() for d in quotes.days],
                                                  dtype=np.int32))


def split_off_calendar(trades: TradeColumns, calendar: TradingCalendar
                       ) -> tuple[TradeColumns, TradeColumns]:
    """Partition trades into (on-calendar, off-calendar). Off-calendar trades
    cannot be paired with same-day volatility and are excluded from analysis."""
    on = calendar.positions(trades.day) >= 0
    return trades.take(on), trades.take(~on)


def select_ticker(trades: TradeColumns, ticker: str) -> TradeColumns:
    code = trades.tickers.index(ticker) if ticker in trades.tickers else -1
    return trades.take(trades.ticker == code)
