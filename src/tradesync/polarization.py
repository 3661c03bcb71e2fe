"""Per-investor volatility-polarization scores: the correlation between an
investor's activity on their trading days and same-day volatility, plus the
population distribution and a shuffled decorrelation baseline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .activity import ActivityMatrix
from .errors import DegenerateInputError
from .parallel import task_rng
from .volatility import VolatilitySeries

_BLOCK_ELEMENTS = 2_000_000

EXCLUDE_FEW_DAYS = "too-few-trading-days"
EXCLUDE_CONST_OPS = "constant-activity"
EXCLUDE_CONST_NU = "constant-volatility"


@dataclass(frozen=True)
class PolarizationScore:
    investor_id: str
    rho_ov: float
    trading_days_used: int


@dataclass(frozen=True)
class Exclusion:
    investor_id: str
    reason: str


@dataclass(frozen=True)
class Histogram:
    bin_centers: np.ndarray
    density: np.ndarray
    mean: float
    variance: float
    mode_bin: float


@dataclass(frozen=True)
class ShuffledBaseline:
    """Population statistics of the scores after permuting each investor's
    volatility values over their own trading days."""

    replica_variances: np.ndarray
    replica_means: np.ndarray
    shuffled_variance: float


@dataclass(frozen=True)
class PolarizationSummary:
    mean: float
    variance: float
    mode_bin: float
    shuffled_variance: float
    variance_ratio: float


def _moments(series: ActivityMatrix, k: int, vol: VolatilitySeries, min_days: int
             ) -> tuple[np.ndarray, np.ndarray, float] | str:
    """(centered activity, centered volatility, sigma) over the trading days
    of row k, or the reason the investor is excluded.

    Means and population sigmas of both series are taken over exactly those
    days, so rho_ov = mean(oc * nc) / sigma with sigma = sqrt(var_O * var_nu).
    """
    day, count = series.active(k)
    if day[-1] >= len(vol.nu):
        raise ValueError("activity span extends past the volatility series")
    ops = count.astype(float)
    if ops.size < min_days:
        return EXCLUDE_FEW_DAYS
    oc = ops - ops.mean()
    vo = float(np.mean(oc * oc))
    if vo == 0.0:
        return EXCLUDE_CONST_OPS
    nu = vol.nu[day]
    nc = nu - nu.mean()
    spread = float(np.mean(nc * nc))
    if spread == 0.0:
        return EXCLUDE_CONST_NU
    return oc, nc, float(np.sqrt(vo * spread))


def polarization_score(series: ActivityMatrix, k: int, vol: VolatilitySeries,
                       min_days: int = 20) -> PolarizationScore | Exclusion:
    """Correlation of O(t) with nu(t) over row k's trading days only,
    clipped to [-1, 1] against ulp-level overshoot."""
    m = _moments(series, k, vol, min_days)
    if isinstance(m, str):
        return Exclusion(series.ids[k], m)
    oc, nc, sigma = m
    rho = float(np.mean(oc * nc)) / sigma
    return PolarizationScore(series.ids[k], min(1.0, max(-1.0, rho)), oc.size)


def score_population(series: ActivityMatrix, vol: VolatilitySeries,
                     min_days: int = 20) -> tuple[list[PolarizationScore], Counter]:
    """Scores in investor-id order, and the number of exclusions by reason."""
    rows = np.flatnonzero(series.n_active >= min_days)
    scores: list[PolarizationScore] = []
    excluded = Counter({EXCLUDE_FEW_DAYS: len(series) - rows.size})
    for k in rows.tolist():
        out = polarization_score(series, k, vol, min_days)
        if isinstance(out, PolarizationScore):
            scores.append(out)
        else:
            excluded[out.reason] += 1
    return scores, +excluded


def population_distribution(scores: list[PolarizationScore], bins: int = 50) -> Histogram:
    """Normalized histogram of the scores over [-1, 1]."""
    if not scores:
        raise DegenerateInputError("no polarization scores to histogram")
    vals = np.array([s.rho_ov for s in scores])
    density, edges = np.histogram(vals, bins=bins, range=(-1.0, 1.0), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return Histogram(
        bin_centers=centers,
        density=density,
        mean=float(vals.mean()),
        variance=float(vals.var()),
        mode_bin=float(centers[int(np.argmax(density))]),
    )


def shuffled_baseline(series: ActivityMatrix, vol: VolatilitySeries,
                      replicas: int = 1000, seed: int = 0, min_days: int = 20
                      ) -> ShuffledBaseline:
    """Decorrelation baseline: permute nu over each investor's trading days,
    recompute every score, and record the population variance per replica.

    Scores use the moments of `polarization_score` and its clip to [-1, 1].
    Each eligible investor consumes an RNG stream derived from (seed, its
    index in sorted id order), so results do not depend on evaluation order.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    eligible: list[tuple[np.ndarray, np.ndarray]] = []
    for k in np.flatnonzero(series.n_active >= min_days).tolist():
        m = _moments(series, k, vol, min_days)
        if isinstance(m, str):
            continue
        oc, nc, sigma = m
        # correlation with permuted nu reduces to a dot product because
        # permutation leaves both sets of moments unchanged
        eligible.append((oc / (oc.size * sigma), nc))
    if not eligible:
        raise DegenerateInputError("no eligible investors for the shuffled baseline")

    shuf = np.empty((replicas, len(eligible)))
    for idx, (weight, nc) in enumerate(eligible):
        rng = task_rng(seed, idx)
        n = nc.size
        block = max(1, min(replicas, _BLOCK_ELEMENTS // max(n, 1)))
        done = 0
        while done < replicas:
            rows = min(block, replicas - done)
            mat = np.tile(nc, (rows, 1))
            rng.permuted(mat, axis=1, out=mat)
            shuf[done:done + rows, idx] = np.clip(mat @ weight, -1.0, 1.0)
            done += rows
    replica_vars = shuf.var(axis=1)
    return ShuffledBaseline(
        replica_variances=replica_vars,
        replica_means=shuf.mean(axis=1),
        shuffled_variance=float(replica_vars.mean()),
    )


def summarize(hist: Histogram, baseline: ShuffledBaseline) -> PolarizationSummary:
    if baseline.shuffled_variance <= 0.0:
        raise DegenerateInputError("shuffled variance is zero; ratio undefined")
    return PolarizationSummary(
        mean=hist.mean,
        variance=hist.variance,
        mode_bin=hist.mode_bin,
        shuffled_variance=baseline.shuffled_variance,
        variance_ratio=hist.variance / baseline.shuffled_variance,
    )


def write_scores(scores: list[PolarizationScore], stream) -> None:
    stream.write("investor\trho_ov\tdays_used\n")
    for s in scores:
        stream.write(f"{s.investor_id}\t{s.rho_ov!r}\t{s.trading_days_used}\n")


def write_histogram(hist: Histogram, stream) -> None:
    stream.write("bin_center\tdensity\n")
    for c, d in zip(hist.bin_centers, hist.density):
        stream.write(f"{float(c)!r}\t{float(d)!r}\n")
