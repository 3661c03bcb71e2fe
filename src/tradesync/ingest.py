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
from collections import Counter
from dataclasses import dataclass

from .errors import ConfigError, DataError

TRADE_FIELDS = ("investor_id", "date", "ticker", "shares", "price", "side", "is_auto")
QUOTE_FIELDS = ("date", "open", "high", "low")

_BOOL_TOKENS = {
    "true": True, "1": True, "yes": True,
    "false": False, "0": False, "no": False,
}


@dataclass(frozen=True)
class TradeRecord:
    """One buy/sell operation by one investor on one day in one asset."""

    investor_id: str
    date: dt.date
    ticker: str
    shares: int
    price: float
    side: str
    is_auto: bool | None = None


@dataclass(frozen=True)
class Reject:
    line: int
    reason: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.reason}"


@dataclass
class ParseResult:
    records: list[TradeRecord]
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
    """Ordered trading days of one asset plus the day -> ordinal index."""

    ticker: str
    days: list[dt.date]
    index: dict[dt.date, int]

    def ordinal(self, day: dt.date) -> int:
        try:
            return self.index[day]
        except KeyError:
            raise DataError(f"{day} is not a trading day for {self.ticker}") from None

    def __len__(self) -> int:
        return len(self.days)


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
            return cls("threshold", int(text.split(":", 1)[1]))
        return cls(text)


@dataclass
class FilterResult:
    retained: list[TradeRecord]
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
    kept out of the result; a missing mandatory column is fatal.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError("trades file is empty") from None
    pos = _header_positions(header, TRADE_FIELDS, TRADE_FIELDS[:6], "trades")
    has_auto = "is_auto" in pos

    records: list[TradeRecord] = []
    rejects: list[Reject] = []
    needed = max(pos.values()) + 1
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < needed:
            rejects.append(Reject(lineno, "wrong field count"))
            continue
        try:
            date = dt.date.fromisoformat(row[pos["date"]].strip())
        except ValueError:
            rejects.append(Reject(lineno, "bad date"))
            continue
        try:
            shares = int(row[pos["shares"]])
        except ValueError:
            rejects.append(Reject(lineno, "bad shares"))
            continue
        if shares <= 0:
            rejects.append(Reject(lineno, "non-positive shares"))
            continue
        try:
            price = float(row[pos["price"]])
        except ValueError:
            rejects.append(Reject(lineno, "bad price"))
            continue
        if not math.isfinite(price):
            rejects.append(Reject(lineno, "bad price"))
            continue
        if not price > 0:
            rejects.append(Reject(lineno, "non-positive price"))
            continue
        side = row[pos["side"]].strip().lower()
        if side not in ("buy", "sell"):
            rejects.append(Reject(lineno, "bad side"))
            continue
        is_auto = None
        if has_auto:
            token = row[pos["is_auto"]].strip().lower()
            if token:
                if token not in _BOOL_TOKENS:
                    rejects.append(Reject(lineno, "bad is_auto"))
                    continue
                is_auto = _BOOL_TOKENS[token]
        records.append(TradeRecord(
            investor_id=row[pos["investor_id"]].strip(),
            date=date,
            ticker=row[pos["ticker"]].strip(),
            shares=shares,
            price=price,
            side=side,
            is_auto=is_auto,
        ))
    return ParseResult(records, rejects)


def write_trades(records: list[TradeRecord], stream, delimiter: str = ",",
                 include_auto: bool | None = None) -> None:
    """Serialize records in the canonical column order; parse(write(x)) == x."""
    if include_auto is None:
        include_auto = any(r.is_auto is not None for r in records)
    fields = list(TRADE_FIELDS) if include_auto else list(TRADE_FIELDS[:6])
    writer = csv.writer(stream, delimiter=delimiter, lineterminator="\n")
    writer.writerow(fields)
    for r in records:
        row = [r.investor_id, r.date.isoformat(), r.ticker, str(r.shares),
               repr(r.price), r.side]
        if include_auto:
            row.append("" if r.is_auto is None else ("true" if r.is_auto else "false"))
        writer.writerow(row)


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


def filter_automatic(trades: list[TradeRecord], policy: AutoFilterPolicy) -> FilterResult:
    """Apply the automatic-operation filter; reports retention per asset."""
    if policy.kind == "none":
        retained = list(trades)
    elif policy.kind == "flag":
        if any(t.is_auto is None for t in trades):
            raise ConfigError("policy 'flag' requires an is_auto value on every trade")
        retained = [t for t in trades if not t.is_auto]
    else:  # threshold
        per_day = Counter((t.investor_id, t.ticker, t.date) for t in trades)
        retained = [t for t in trades
                    if per_day[(t.investor_id, t.ticker, t.date)] <= policy.k]

    total = Counter(t.ticker for t in trades)
    kept = Counter(t.ticker for t in retained)
    retention = {tick: kept[tick] / n for tick, n in sorted(total.items())}
    return FilterResult(retained, len(trades) - len(retained), retention)


def build_calendar(quotes: QuoteSeries) -> TradingCalendar:
    """Calendar days are exactly the quote days (quote validation already
    guarantees a nonempty, strictly increasing day list)."""
    return TradingCalendar(
        ticker=quotes.ticker,
        days=list(quotes.days),
        index={d: i for i, d in enumerate(quotes.days)},
    )


def split_off_calendar(trades: list[TradeRecord], calendar: TradingCalendar
                       ) -> tuple[list[TradeRecord], list[TradeRecord]]:
    """Partition trades into (on-calendar, off-calendar). Off-calendar trades
    cannot be paired with same-day volatility and are excluded from analysis."""
    on: list[TradeRecord] = []
    off: list[TradeRecord] = []
    for t in trades:
        (on if t.date in calendar.index else off).append(t)
    return on, off


def select_ticker(trades: list[TradeRecord], ticker: str) -> list[TradeRecord]:
    return [t for t in trades if t.ticker == ticker]
