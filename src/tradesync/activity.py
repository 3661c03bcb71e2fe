"""Per-investor activity series and heterogeneity statistics.

An activity series counts operations per trading day between the investor's
first and last active day. Tail heaviness of total activity and of
operations-per-day is quantified with the Hill estimator.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateInputError
from .ingest import TradeRecord, TradingCalendar


@dataclass(frozen=True)
class ActivitySeries:
    """Day-indexed operation counts of one investor in one asset.

    `counts[d]` holds the operations on calendar ordinal `first_day + d`;
    the array spans exactly [first_day, last_day] and is positive at both ends.
    """

    investor_id: str
    ticker: str
    first_day: int
    last_day: int
    counts: np.ndarray
    total_ops: int
    n_active: int

    @property
    def span(self) -> int:
        """Trading days between first and last operation, inclusive."""
        return self.last_day - self.first_day + 1

    @property
    def opd(self) -> float:
        """Operations per active trading day."""
        return self.total_ops / self.n_active

    def window(self, start: int, end: int) -> np.ndarray:
        """Counts over calendar ordinals [start, end]; must lie inside the span."""
        if start < self.first_day or end > self.last_day:
            raise ValueError("window outside the active span")
        lo = start - self.first_day
        return self.counts[lo:lo + (end - start + 1)]

    @classmethod
    def from_day_counts(cls, investor_id: str, ticker: str,
                        day_counts: dict[int, int]) -> "ActivitySeries":
        if not day_counts:
            raise DataError(f"no operations for investor {investor_id}")
        first = min(day_counts)
        last = max(day_counts)
        counts = np.zeros(last - first + 1, dtype=np.int64)
        for day, c in day_counts.items():
            if c < 0:
                raise DataError("negative operation count")
            counts[day - first] = c
        if counts[0] <= 0 or counts[-1] <= 0:
            raise DataError("activity span must start and end on active days")
        return cls(
            investor_id=investor_id,
            ticker=ticker,
            first_day=first,
            last_day=last,
            counts=counts,
            total_ops=int(counts.sum()),
            n_active=int((counts > 0).sum()),
        )


@dataclass(frozen=True)
class TailFit:
    """Hill tail-index estimate from the k largest order statistics."""

    alpha: float
    stderr: float
    k: int
    n: int

    def as_dict(self) -> dict:
        return {"alpha": self.alpha, "stderr": self.stderr, "k": self.k, "n": self.n}


def build_activity(trades: list[TradeRecord], calendar: TradingCalendar
                   ) -> dict[str, ActivitySeries]:
    """Count each investor's operations per calendar day.

    All trades must be on-calendar and belong to the calendar's asset
    (run split_off_calendar first).
    """
    per_investor: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for t in trades:
        if t.ticker != calendar.ticker:
            raise DataError(f"trade ticker {t.ticker} does not match calendar "
                            f"{calendar.ticker}")
        per_investor[t.investor_id][calendar.ordinal(t.date)] += 1
    return {
        inv: ActivitySeries.from_day_counts(inv, calendar.ticker, days)
        for inv, days in sorted(per_investor.items())
    }


def ccdf(values) -> list[tuple[float, float]]:
    """Empirical survival function P(X >= v) at the distinct observed values.

    Evaluated at observed values rather than binned so that log-log tail
    slopes are not distorted.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DegenerateInputError("ccdf of empty sample")
    order = np.sort(arr)
    distinct = np.unique(order)
    ge = arr.size - np.searchsorted(order, distinct, side="left")
    return [(float(v), float(g) / arr.size) for v, g in zip(distinct, ge)]


def hill_fit(values, k: int | None = None) -> TailFit:
    """Hill estimator on the k upper order statistics.

    alpha = k / sum_{j<=k} ln(x_(j) / x_(k+1)) with x_(1) >= x_(2) >= ...;
    the asymptotic standard error is alpha / sqrt(k). Default k is
    ceil(0.1 * n); use hill_sweep to inspect sensitivity to k.
    """
    arr = np.sort(np.asarray(values, dtype=float))[::-1]
    n = arr.size
    if n < 2:
        raise DegenerateInputError("need at least 2 values for a tail fit")
    if np.any(arr <= 0):
        raise DataError("tail fit requires strictly positive values")
    if k is None:
        k = math.ceil(0.1 * n)
    if not 0 < k < n:
        raise DegenerateInputError(f"k must satisfy 0 < k < n, got k={k}, n={n}")
    threshold = arr[k]
    log_spacings = np.log(arr[:k] / threshold)
    total = float(log_spacings.sum())
    if total <= 0.0:
        raise DegenerateInputError("zero log-spacing: top k+1 values are all equal")
    alpha = k / total
    return TailFit(alpha=alpha, stderr=alpha / math.sqrt(k), k=k, n=n)


def hill_sweep(values, k_values=None) -> list[TailFit]:
    """Hill estimates across a range of k, for plateau inspection."""
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if k_values is None:
        top = max(2, math.ceil(0.25 * n))
        k_values = sorted(set(np.unique(np.linspace(1, top, num=min(top, 50), dtype=int))))
    fits = []
    for k in k_values:
        try:
            fits.append(hill_fit(arr, int(k)))
        except DegenerateInputError:
            continue
    return fits


def ops_vs_days(series: dict[str, ActivitySeries]) -> list[tuple[int, int]]:
    """(active days, total operations) per investor, in investor-id order."""
    return [(series[inv].n_active, series[inv].total_ops) for inv in sorted(series)]


def write_nodes(series: dict[str, ActivitySeries], node_ids, stream) -> None:
    """Per-investor activity row of each of `node_ids`, in the given order."""
    stream.write("investor\ttotal_ops\tN\tT\topd\n")
    for inv in node_ids:
        s = series[inv]
        stream.write(f"{inv}\t{s.total_ops}\t{s.n_active}\t{s.span}\t{s.opd!r}\n")
