"""Daily High-Low volatility and mesoscopic activity-volatility correlations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .activity import ActivityMatrix
from .ingest import QuoteSeries, TradingCalendar


@dataclass(frozen=True)
class VolatilitySeries:
    """nu[t] = (high - low) / open on calendar ordinal t."""

    ticker: str
    nu: np.ndarray

    def __len__(self) -> int:
        return len(self.nu)


@dataclass(frozen=True)
class MesoSeries:
    """Total operations per calendar day over all studied investors."""

    ticker: str
    ops: np.ndarray

    def __len__(self) -> int:
        return len(self.ops)


def high_low_volatility(quotes: QuoteSeries) -> VolatilitySeries:
    open_ = np.asarray(quotes.open, dtype=float)
    high = np.asarray(quotes.high, dtype=float)
    low = np.asarray(quotes.low, dtype=float)
    return VolatilitySeries(ticker=quotes.ticker, nu=(high - low) / open_)


def meso_series(series: ActivityMatrix, calendar: TradingCalendar) -> MesoSeries:
    ops = np.zeros(len(calendar), dtype=np.int64)
    np.add.at(ops, series.day, series.count)
    return MesoSeries(ticker=calendar.ticker, ops=ops)


def population_correlation(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Product-moment correlation with population (1/T) normalization: the
    meso correlations here and each pair's rho in the synchronization network.

    `y` may also be a C-contiguous matrix with one partner series per row: the
    result is then one correlation per row, NaN where x or that row is
    constant. Every reduction runs along a row, so each value is bit-identical
    to the 1-D call on that row.
    """
    if x.size != y.shape[-1]:
        raise ValueError("series lengths differ")
    if x.size < 2:
        raise DegenerateInputError("correlation needs at least 2 points")
    xc = x - x.mean()
    yc = y - y.mean(axis=-1, keepdims=True)
    vx = np.mean(xc * xc)
    vy = np.mean(yc * yc, axis=-1)
    defined = (vx != 0.0) & (vy != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.mean(xc * yc, axis=-1) / np.sqrt(vx * vy)
    # guard against ulp-level overshoot so |r| <= 1 holds exactly
    r = np.where(defined, np.clip(r, -1.0, 1.0), np.nan)
    if y.ndim > 1:
        return r
    if not defined:
        raise DegenerateInputError("correlation undefined for a constant series")
    return float(r)


def meso_long_correlation(meso: MesoSeries, vol: VolatilitySeries) -> float:
    """Correlation of total operations with same-day volatility over the whole
    calendar (the mean is subtracted, so slow level shifts do not bias it)."""
    return population_correlation(np.asarray(meso.ops, dtype=float), vol.nu)


def moving_average_residual(x: np.ndarray, window: int) -> np.ndarray:
    """x minus its trailing `window`-day moving average (days t-window+1 .. t),
    over the days where the average is defined."""
    x = np.asarray(x, dtype=float)
    if window < 2:
        raise ValueError("window must be >= 2")
    if window > x.size:
        raise DegenerateInputError("window longer than the series")
    kernel = np.full(window, 1.0 / window)
    return x[window - 1:] - np.convolve(x, kernel, mode="valid")


def meso_short_correlation(meso: MesoSeries, vol: VolatilitySeries,
                           window: int = 5) -> float:
    """Correlation of the two series after removing each one's local mean,
    capturing the short-horizon co-movement."""
    ro = moving_average_residual(np.asarray(meso.ops, dtype=float), window)
    rv = moving_average_residual(vol.nu, window)
    return population_correlation(ro, rv)
