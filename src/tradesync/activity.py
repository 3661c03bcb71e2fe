"""Per-investor activity and heterogeneity statistics.

An investor's activity counts their operations on each trading day. A
population's activity lives in one sparse matrix of investors x calendar
days. Tail heaviness of total activity and of operations-per-day is
quantified with the Hill estimator.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateInputError
from .ingest import TradeColumns, TradingCalendar


class ActivityMatrix:
    """One asset's operation counts as a CSR matrix of investors x calendar
    days: row k is investor `ids[k]` (ids sorted), active on the calendar
    ordinals `day[indptr[k]:indptr[k + 1]]` (increasing) with the positive
    counts `count[...]`. Per-row statistics are arrays."""

    def __init__(self, ticker: str, ids: list[str], indptr: np.ndarray,
                 day: np.ndarray, count: np.ndarray):
        self.ticker = ticker
        self.ids = ids
        self._rows = {inv: k for k, inv in enumerate(ids)}
        self.indptr, self.day, self.count = indptr, day, count
        starts, ends = indptr[:-1], indptr[1:]
        self.n_active = ends - starts
        self.first_day = day[starts]
        self.last_day = day[ends - 1]
        cum = np.concatenate(([0], np.cumsum(count)))
        self.total_ops = cum[ends] - cum[starts]

    @property
    def opd(self) -> np.ndarray:
        """Operations per active trading day of each row."""
        return self.total_ops / self.n_active

    def __len__(self) -> int:
        return len(self.ids)

    def rows_of(self, investor_ids) -> np.ndarray:
        """Row index of each of `investor_ids`; KeyError for an absent id."""
        return np.array([self._rows[inv] for inv in investor_ids], dtype=np.int64)

    def active(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(calendar ordinals, operation counts) of row k's trading days."""
        lo, hi = self.indptr[k], self.indptr[k + 1]
        return self.day[lo:hi], self.count[lo:hi]


@dataclass(frozen=True)
class TailFit:
    """Hill tail-index estimate from the k largest order statistics."""

    alpha: float
    stderr: float
    k: int
    n: int

    def as_dict(self) -> dict:
        return {"alpha": self.alpha, "stderr": self.stderr, "k": self.k, "n": self.n}


def build_activity(trades: TradeColumns, calendar: TradingCalendar) -> ActivityMatrix:
    """Count each investor's operations per calendar day.

    All trades must be on-calendar and belong to the calendar's asset
    (run split_off_calendar first).
    """
    # the codes present, by bincount: a plain np.unique imports numpy.ma
    for code in np.flatnonzero(np.bincount(trades.ticker)).tolist():
        if trades.tickers[code] != calendar.ticker:
            raise DataError(f"trade ticker {trades.tickers[code]} does not match "
                            f"calendar {calendar.ticker}")
    pos = calendar.positions(trades.day)
    if (pos < 0).any():
        day = dt.date.fromordinal(int(trades.day[np.argmax(pos < 0)]))
        raise DataError(f"{day} is not a trading day for {calendar.ticker}")
    # rows in investor-id order
    codes = np.flatnonzero(np.bincount(trades.investor))
    names = [trades.investor_ids[c] for c in codes.tolist()]
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(trades.investor_ids), dtype=np.int64)
    rank[codes[order]] = np.arange(len(order))
    cells, count = np.unique(rank[trades.investor] * len(calendar) + pos,
                             return_counts=True)
    row, day = np.divmod(cells, len(calendar))
    return ActivityMatrix(calendar.ticker, [names[i] for i in order],
                          np.searchsorted(row, np.arange(len(order) + 1)), day, count)


def ccdf(values) -> list[tuple[float, float]]:
    """Empirical survival function P(X >= v) at the distinct observed values.

    Evaluated at observed values rather than binned so that log-log tail
    slopes are not distorted.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DegenerateInputError("ccdf of empty sample")
    order = np.sort(arr)
    distinct = order[np.r_[True, order[1:] != order[:-1]]]  # np.unique, without numpy.ma
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
        k_values = sorted(set(np.linspace(1, top, num=min(top, 50), dtype=int).tolist()))
    fits = []
    for k in k_values:
        try:
            fits.append(hill_fit(arr, int(k)))
        except DegenerateInputError:
            continue
    return fits


def ops_vs_days(series: ActivityMatrix) -> list[tuple[int, int]]:
    """(active days, total operations) per investor, in investor-id order."""
    return list(zip(series.n_active.tolist(), series.total_ops.tolist()))


def write_nodes(series: ActivityMatrix, node_ids, stream) -> None:
    """Per-investor activity row of each of `node_ids`, in the given order."""
    rows = series.rows_of(node_ids)
    stream.write("investor\ttotal_ops\tN\tT\topd\n")
    stream.writelines(
        f"{inv}\t{ops}\t{n}\t{span}\t{opd!r}\n" for inv, ops, n, span, opd in zip(
            node_ids, series.total_ops[rows].tolist(), series.n_active[rows].tolist(),
            (series.last_day - series.first_day + 1)[rows].tolist(),
            series.opd[rows].tolist()))
