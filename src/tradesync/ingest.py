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
import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

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
    and side are validated but not kept.
    """
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


def write_trades(stream, investor_id, date, ticker, shares, price, side,
                 is_auto=None, delimiter: str = ",") -> None:
    """Write equal-length trade columns in the canonical column order: ids,
    ISO date strings, int shares, float prices (written by repr), 'buy' or
    'sell'. An `is_auto` column of True, False or None adds the optional
    field, empty where None."""
    columns = [investor_id, date, ticker, shares, price, side]
    if is_auto is not None:
        columns.append(["" if v is None else ("true" if v else "false")
                        for v in is_auto])
    writer = csv.writer(stream, delimiter=delimiter, lineterminator="\n")
    writer.writerow(TRADE_FIELDS[:len(columns)])
    writer.writerows(zip(*columns))


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
