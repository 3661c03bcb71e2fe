"""Per-investor volatility-polarization scores: the correlation between an
investor's activity on their trading days and same-day volatility, plus the
population distribution and a shuffled decorrelation baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activity import ActivitySeries
from .errors import DegenerateInputError
from .parallel import task_rng
from .syncnet import SyncNetwork, with_node_scores
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


def _trading_day_values(a: ActivitySeries, vol: VolatilitySeries
                        ) -> tuple[np.ndarray, np.ndarray]:
    if a.last_day >= len(vol.nu):
        raise ValueError("activity span extends past the volatility series")
    counts = a.counts
    active = counts > 0
    ops = counts[active].astype(float)
    nu = vol.nu[a.first_day:a.last_day + 1][active]
    return ops, nu


def polarization_score(a: ActivitySeries, vol: VolatilitySeries,
                       min_days: int = 20, nu_moments: str = "trading"
                       ) -> PolarizationScore | Exclusion:
    """Correlation of O(t) with nu(t) over the investor's trading days only.

    Means and population sigmas of both series are taken over exactly those
    days (nu_moments='global' instead uses whole-calendar volatility moments;
    that variant is not bounded by [-1, 1] and exists for sensitivity checks).
    """
    ops, nu = _trading_day_values(a, vol)
    n = ops.size
    if n < min_days:
        return Exclusion(a.investor_id, EXCLUDE_FEW_DAYS)
    oc = ops - ops.mean()
    vo = float(np.mean(oc * oc))
    if vo == 0.0:
        return Exclusion(a.investor_id, EXCLUDE_CONST_OPS)
    if nu_moments == "trading":
        nc = nu - nu.mean()
        vn = float(np.mean(nc * nc))
        if vn == 0.0:
            return Exclusion(a.investor_id, EXCLUDE_CONST_NU)
        rho = float(np.mean(oc * nc)) / float(np.sqrt(vo * vn))
        rho = min(1.0, max(-1.0, rho))
    elif nu_moments == "global":
        nc = nu - vol.nu.mean()
        sd_n = float(vol.nu.std())
        if sd_n == 0.0:
            return Exclusion(a.investor_id, EXCLUDE_CONST_NU)
        rho = float(np.mean(oc * nc)) / (float(np.sqrt(vo)) * sd_n)
    else:
        raise ValueError(f"unknown nu_moments mode {nu_moments!r}")
    return PolarizationScore(a.investor_id, rho, n)


def score_population(series: dict[str, ActivitySeries], vol: VolatilitySeries,
                     min_days: int = 20, nu_moments: str = "trading"
                     ) -> tuple[list[PolarizationScore], list[Exclusion]]:
    scores: list[PolarizationScore] = []
    excluded: list[Exclusion] = []
    for inv in sorted(series):
        out = polarization_score(series[inv], vol, min_days, nu_moments)
        if isinstance(out, PolarizationScore):
            scores.append(out)
        else:
            excluded.append(out)
    return scores, excluded


def scores_as_dict(scores: list[PolarizationScore]) -> dict[str, float]:
    return {s.investor_id: s.rho_ov for s in scores}


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


def shuffled_baseline(series: dict[str, ActivitySeries], vol: VolatilitySeries,
                      replicas: int = 100, seed: int = 0, min_days: int = 20,
                      nu_moments: str = "trading") -> ShuffledBaseline:
    """Decorrelation baseline: permute nu over each investor's trading days,
    recompute every score, and record the population variance per replica.

    Scores use the same volatility moments as `polarization_score` with the
    same `nu_moments`, so a 'global' baseline is not clipped to [-1, 1].
    Each eligible investor consumes an RNG stream derived from (seed, its
    index in sorted id order), so results do not depend on evaluation order.
    """
    if nu_moments not in ("trading", "global"):
        raise ValueError(f"unknown nu_moments mode {nu_moments!r}")
    eligible: list[tuple[np.ndarray, np.ndarray]] = []
    for inv in sorted(series):
        a = series[inv]
        ops, nu = _trading_day_values(a, vol)
        if ops.size < min_days:
            continue
        oc = ops - ops.mean()
        vo = float(np.mean(oc * oc))
        # correlation with permuted nu reduces to a dot product because
        # permutation leaves both sets of moments unchanged
        if nu_moments == "trading":
            nc = nu - nu.mean()
            vn = float(np.mean(nc * nc))
            if vo == 0.0 or vn == 0.0:
                continue
            weight = oc / (ops.size * np.sqrt(vo * vn))
        else:
            nc = nu - vol.nu.mean()
            sd_n = float(vol.nu.std())
            if vo == 0.0 or sd_n == 0.0:
                continue
            weight = oc / (ops.size * np.sqrt(vo) * sd_n)
        eligible.append((weight, nc))
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
            shuf[done:done + rows, idx] = mat @ weight
            done += rows
    if nu_moments == "trading":
        np.clip(shuf, -1.0, 1.0, out=shuf)
    replica_vars = shuf.var(axis=1)
    return ShuffledBaseline(
        replica_variances=replica_vars,
        replica_means=shuf.mean(axis=1),
        shuffled_variance=float(replica_vars.mean()),
    )


def summarize(scores: list[PolarizationScore], baseline: ShuffledBaseline,
              bins: int = 50) -> PolarizationSummary:
    hist = population_distribution(scores, bins=bins)
    if baseline.shuffled_variance <= 0.0:
        raise DegenerateInputError("shuffled variance is zero; ratio undefined")
    return PolarizationSummary(
        mean=hist.mean,
        variance=hist.variance,
        mode_bin=hist.mode_bin,
        shuffled_variance=baseline.shuffled_variance,
        variance_ratio=hist.variance / baseline.shuffled_variance,
    )


def attach_scores(net: SyncNetwork, scores: list[PolarizationScore]
                  ) -> tuple[SyncNetwork, list[str]]:
    """Set rho_ov on the network's scored nodes; returns the new network and
    the nodes left without a score."""
    mapping = scores_as_dict(scores)
    scored_net = with_node_scores(net, mapping)
    flagged = [n for n in net.node_ids if n not in mapping]
    return scored_net, flagged


def write_scores(scores: list[PolarizationScore], stream) -> None:
    stream.write("investor\trho_ov\tdays_used\n")
    for s in scores:
        stream.write(f"{s.investor_id}\t{s.rho_ov!r}\t{s.trading_days_used}\n")


def write_histogram(hist: Histogram, stream) -> None:
    stream.write("bin_center\tdensity\n")
    for c, d in zip(hist.bin_centers, hist.density):
        stream.write(f"{float(c)!r}\t{float(d)!r}\n")
