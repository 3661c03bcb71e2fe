"""Full-chain analysis of one or more assets as a chain of stages, the
per-asset tables and the consolidated JSON report.

Every randomized step consumes a seed derived from the one root seed recorded
in the report, and all serialization is key-sorted, so identical inputs and
seed produce byte-identical output for any worker count.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from . import activity as act
from . import netmetrics as nm
from . import polarization as pol
from . import volatility as vola
from .errors import ConfigError, DegenerateInputError, TradesyncError
from .ingest import (AutoFilterPolicy, QuoteSeries, TradeColumns, build_calendar,
                     filter_automatic, split_off_calendar)
from .syncnet import SyncNetwork, build_sync_network, write_edges

REPORT_VERSION = "5"
MAX_BINS = 10_000


@dataclass(frozen=True)
class PipelineParams:
    """All tunable defaults of the analysis chain; serialized into the report."""

    min_ops: int = 20
    min_days: int = 20
    shuffles: int = 999
    p_level: float = 0.01
    replicas: int = 1000
    ma_window: int = 5
    ma_mode: str = "trailing"
    nu_moments: str = "trading"
    hill_k: int | None = None
    bins: int = 50
    swap_factor: int = 10
    opd_cap: int = 100
    auto_filter: str = "none"

    def __post_init__(self):
        if self.replicas < 1:
            raise ConfigError(f"replicas must be at least 1, got {self.replicas}")
        if not 0.0 < self.p_level < 1.0:
            raise ConfigError(f"p_level must lie in (0, 1), got {self.p_level}")
        # the smallest p-value a pair can get is 1 / (shuffles + 1)
        if self.shuffles < 0 or 1 / (self.shuffles + 1) >= self.p_level:
            raise ConfigError(f"{self.shuffles} shuffles cannot give a p-value "
                              f"below p_level {self.p_level}")
        for name in ("min_ops", "min_days", "swap_factor", "bins", "opd_cap",
                     "hill_k"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
        if self.bins > MAX_BINS:
            raise ConfigError(f"bins must be at most {MAX_BINS}, got {self.bins}")
        if self.ma_window < 2:
            raise ConfigError(f"ma_window must be at least 2, got {self.ma_window}")
        for name, choices in (("ma_mode", ("trailing", "centered")),
                              ("nu_moments", ("trading", "global"))):
            value = getattr(self, name)
            if value not in choices:
                raise ConfigError(f"{name} must be one of {', '.join(choices)}, "
                                  f"got {value!r}")
        AutoFilterPolicy.parse(self.auto_filter)
        if self.ma_mode == "centered" and self.ma_window % 2 == 0:
            raise ConfigError(f"centered moving average needs an odd ma_window, "
                              f"got {self.ma_window}")

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def derive_seeds(root_seed: int, asset_index: int) -> dict[str, int]:
    """One seed per randomized step of one asset, derived from the root seed.
    Appending a name leaves the earlier seeds unchanged."""
    names = ("syncnet", "louvain", "rho_ov_rewire", "shuffle_baseline",
             "rho_ov_shuffle", "opd_rewire", "opd_shuffle")
    state = np.random.SeedSequence([int(root_seed), int(asset_index)]
                                   ).generate_state(len(names))
    return {name: int(v) for name, v in zip(names, state)}


@dataclass
class AssetAnalysis:
    """All artifacts produced for one asset. `front_stage` creates it and each
    later stage fills its own fields; to_section() flattens the numbers that
    belong in the JSON report once every stage has run."""

    ticker: str
    series: act.ActivityMatrix
    vol: vola.VolatilitySeries
    meso: vola.MesoSeries
    tail_fit: act.TailFit | None
    opd_tail_fit: act.TailFit | None
    meso_long: float | None
    meso_short: float | None
    population: dict
    notes: dict
    net: SyncNetwork | None = None
    partition: nm.Partition | None = None
    scores: list[pol.PolarizationScore] = field(default_factory=list)
    exclusions: Counter = field(default_factory=Counter)  # reason -> investors
    histogram: pol.Histogram | None = None
    summary: pol.PolarizationSummary | None = None
    # attribute name -> result, None where the note says why
    assortativity: dict[str, nm.AssortativityResult | None] = field(
        default_factory=dict)

    @property
    def polarization(self) -> dict | None:
        """The report's polarization section; None when the stage noted why not."""
        s = self.summary
        if s is None:
            return None
        return {"mean": s.mean, "variance": s.variance, "mode_bin": s.mode_bin,
                "shuffled_variance": s.shuffled_variance,
                "variance_ratio": s.variance_ratio,
                "scored": len(self.scores), "excluded": self.exclusions.total()}

    def to_section(self) -> dict:
        def tail(f):
            return f.as_dict() if f is not None else None

        return {
            "tail_fit": tail(self.tail_fit),
            "opd_tail_fit": tail(self.opd_tail_fit),
            "meso": {"long": self.meso_long, "short": self.meso_short},
            "network": {
                "nodes": len(self.net.node_ids),
                "edges": len(self.net.edges),
                "isolated": self.net.diagnostics["isolated_nodes"],
                "modularity": None if self.partition is None else self.partition.q,
                "diagnostics": _plain(self.net.diagnostics),
            },
            "assortativity": {
                name: None if res is None else {"attribute": name, **res.as_dict()}
                for name, res in self.assortativity.items()},
            "polarization": self.polarization,
            "population": _plain(self.population),
            "notes": _plain(self.notes),
        }


def _plain(obj):
    """Recursively convert numpy scalars so json sees plain Python types."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _noted(notes: dict, key: str, errors, fn, *args, **kwargs):
    """fn(*args, **kwargs), or None with the error recorded as notes[key]."""
    try:
        return fn(*args, **kwargs)
    except errors as err:
        notes[key] = str(err)
        return None


# The stages of the per-asset chain. `analyze_asset` runs them all, in order;
# each single-asset subcommand runs the front and the stages it reports on.
# Degenerate sub-steps (no scores, constant series, too few edges) are
# recorded under `notes` instead of aborting the asset.

def front_stage(trades: TradeColumns, quotes: QuoteSeries,
                params: PipelineParams) -> AssetAnalysis:
    """Filter, calendar, activity, volatility, meso correlations, tail fits."""
    notes: dict = {}
    filtered = filter_automatic(trades, AutoFilterPolicy.parse(params.auto_filter))
    calendar = build_calendar(quotes)
    kept, off = split_off_calendar(filtered.retained, calendar)
    series = act.build_activity(kept, calendar)
    vol = vola.high_low_volatility(quotes)
    meso = vola.meso_series(series, calendar)
    totals, opds = series.total_ops, series.opd
    population = {
        "trades_input": len(trades),
        "trades_after_auto_filter": len(filtered.retained),
        "auto_filter_retention": filtered.retention_by_ticker.get(quotes.ticker),
        "off_calendar_trades": len(off),
        "investors": len(series),
        "operations": int(totals.sum()),
    }
    return AssetAnalysis(
        ticker=quotes.ticker, series=series, vol=vol, meso=meso,
        tail_fit=_noted(notes, "tail_fit", TradesyncError,
                        act.hill_fit, totals, params.hill_k),
        opd_tail_fit=_noted(notes, "opd_tail_fit", TradesyncError,
                            act.hill_fit, opds, params.hill_k),
        meso_long=_noted(notes, "meso_long", DegenerateInputError,
                         vola.meso_long_correlation, meso, vol),
        meso_short=_noted(notes, "meso_short", DegenerateInputError,
                          vola.meso_short_correlation, meso, vol,
                          params.ma_window, params.ma_mode),
        population=population, notes=notes,
    )


def network_stage(a: AssetAnalysis, params: PipelineParams, seeds: dict[str, int],
                  workers: int | None = None) -> None:
    """Synchronization network and its Louvain partition."""
    a.net = build_sync_network(a.series, min_ops=params.min_ops,
                               shuffles=params.shuffles, level=params.p_level,
                               seed=seeds["syncnet"], workers=workers)
    a.partition = _noted(a.notes, "modularity", (DegenerateInputError, ValueError),
                         nm.louvain, a.net, seeds["louvain"])
    a.population.update({
        "network_investors": len(a.net.node_ids),
        "network_operations": int(
            a.series.total_ops[a.series.rows_of(a.net.node_ids)].sum()),
        "connected_investors": len(a.net.node_ids) - a.net.diagnostics["isolated_nodes"],
    })


def score_stage(a: AssetAnalysis, params: PipelineParams) -> None:
    """Per-investor volatility-polarization scores."""
    a.scores, a.exclusions = pol.score_population(a.series, a.vol, params.min_days,
                                                  params.nu_moments)


def polarization_stage(a: AssetAnalysis, params: PipelineParams,
                       seeds: dict[str, int]) -> None:
    """Score histogram, shuffled baseline and their summary (after scores)."""
    try:
        a.histogram = pol.population_distribution(a.scores, params.bins)
        baseline = pol.shuffled_baseline(a.series, a.vol, replicas=params.replicas,
                                         seed=seeds["shuffle_baseline"],
                                         min_days=params.min_days,
                                         nu_moments=params.nu_moments)
        a.summary = pol.summarize(a.histogram, baseline)
    except DegenerateInputError as err:
        a.notes["polarization"] = str(err)


def assortativity_stage(a: AssetAnalysis, params: PipelineParams,
                        seeds: dict[str, int], workers: int | None = None) -> None:
    """Assortativity by rho_ov and by opd, each with its rewire and shuffle
    nulls (after the network and the scores)."""
    rho = {s.investor_id: s.rho_ov for s in a.scores}
    nodes = a.net.node_ids
    unscored = sum(inv not in rho for inv in nodes)
    if unscored:
        a.notes["unscored_nodes"] = unscored
    attributes = {
        "rho_ov": lambda: nm.discretize_attribute(
            {inv: rho[inv] for inv in nodes if inv in rho}),
        "opd": lambda: nm.discretize_opd(
            dict(zip(nodes, a.series.opd[a.series.rows_of(nodes)].tolist())),
            params.opd_cap),
    }
    for name, attribute in attributes.items():
        key = f"assortativity_{name}"
        a.assortativity[name] = None
        try:
            scores = attribute()
            r = nm.assortativity(a.net, scores)
        except (DegenerateInputError, ValueError) as err:
            a.notes[key] = str(err)
            continue
        # once r is defined the rewire null is too; the shuffle null fails alone
        a.assortativity[name] = nm.AssortativityResult(
            r=r,
            null_rewire=nm.null_rewire(a.net, scores, replicas=params.replicas,
                                       seed=seeds[f"{name}_rewire"],
                                       swap_factor=params.swap_factor,
                                       workers=workers),
            null_shuffle=_noted(a.notes, f"{key}_null_shuffle", DegenerateInputError,
                                nm.null_shuffle, a.net, scores,
                                replicas=params.replicas,
                                seed=seeds[f"{name}_shuffle"], workers=workers))


def analyze_asset(trades: TradeColumns, quotes: QuoteSeries,
                  params: PipelineParams, root_seed: int = 0,
                  asset_index: int = 0, workers: int | None = None
                  ) -> AssetAnalysis:
    """Run every stage of the chain for one asset."""
    seeds = derive_seeds(root_seed, asset_index)
    a = front_stage(trades, quotes, params)
    network_stage(a, params, seeds, workers)
    score_stage(a, params)
    polarization_stage(a, params, seeds)
    assortativity_stage(a, params, seeds, workers)
    return a


# Per-asset tables, written by `report` and by the subcommands alike.

def _write_table(path: str, writer, obj) -> None:
    with open(path, "w") as f:
        writer(obj, f)


def _write_pairs(path: str, header: str, rows) -> None:
    with open(path, "w") as f:
        f.write(header + "\n")
        f.writelines(f"{a}\t{b}\n" for a, b in rows)


def write_activity_tables(series: act.ActivityMatrix, out: str) -> None:
    _write_pairs(os.path.join(out, "activity_ccdf.tsv"), "value\tfraction",
                 act.ccdf(series.total_ops))
    _write_pairs(os.path.join(out, "opd_ccdf.tsv"), "value\tfraction",
                 act.ccdf(series.opd))
    _write_pairs(os.path.join(out, "ops_vs_days.tsv"), "trading_days\ttotal_ops",
                 act.ops_vs_days(series))


def write_network_tables(a: AssetAnalysis, out: str) -> None:
    _write_table(os.path.join(out, "edges.tsv"), write_edges, a.net)
    with open(os.path.join(out, "nodes.tsv"), "w") as f:
        act.write_nodes(a.series, a.net.node_ids, f)


def write_partition_table(partition: nm.Partition | None, out: str) -> None:
    if partition is not None:
        _write_table(os.path.join(out, "partition.tsv"), nm.write_partition, partition)


def write_polarization_tables(a: AssetAnalysis, out: str) -> None:
    _write_table(os.path.join(out, "scores.tsv"), pol.write_scores, a.scores)
    if a.histogram is not None:
        _write_table(os.path.join(out, "rho_histogram.tsv"), pol.write_histogram,
                     a.histogram)


def build_report(sections: dict[str, dict], params: PipelineParams,
                 root_seed: int, trade_rejects: int) -> dict:
    report = _plain({
        "version": REPORT_VERSION,
        "run": {
            "seed": int(root_seed),
            "config_digest": params.digest(),
            "defaults": asdict(params),
            "trade_rejects": int(trade_rejects),
        },
        "assets": sections,
    })
    _report_validator().validate(report)
    return report


@functools.cache
def _report_validator():
    """A validator for REPORT_SCHEMA, built on first use: checking the schema
    itself on every report would cost far more than validating the report,
    and importing jsonschema is left to the commands that write one."""
    from jsonschema import validators
    return validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)


def dump_report(report: dict, stream) -> None:
    json.dump(_plain(report), stream, sort_keys=True, indent=2, allow_nan=False)
    stream.write("\n")


_number_or_null = {"type": ["number", "null"]}

_tail_fit_schema = {
    "type": ["object", "null"],
    "properties": {
        "alpha": {"type": "number"},
        "stderr": {"type": "number"},
        "k": {"type": "integer"},
        "n": {"type": "integer"},
    },
    "required": ["alpha", "stderr", "k", "n"],
}

def _null_stats_schema(nullable: bool = False, **counters: dict) -> dict:
    return {
        "type": ["object", "null"] if nullable else "object",
        "properties": {
            "mean": {"type": "number"},
            "ci95_low": {"type": "number"},
            "ci95_high": {"type": "number"},
            "replicas": {"type": "integer"},
            **counters,
        },
        "required": ["mean", "ci95_low", "ci95_high", "replicas", *counters],
    }


_assort_schema = {
    "type": ["object", "null"],
    "properties": {
        "attribute": {"type": "string"},
        "r": {"type": "number"},
        "null_rewire": _null_stats_schema(acceptance={"type": "number"},
                                          lag1=_number_or_null),
        "null_shuffle": _null_stats_schema(nullable=True,
                                           undefined={"type": "integer"}),
    },
    "required": ["attribute", "r", "null_rewire", "null_shuffle"],
}

_asset_schema = {
    "type": "object",
    "properties": {
        "error": {"type": "string"},
        "tail_fit": _tail_fit_schema,
        "opd_tail_fit": _tail_fit_schema,
        "meso": {
            "type": "object",
            "properties": {"long": _number_or_null, "short": _number_or_null},
            "required": ["long", "short"],
        },
        "network": {
            "type": "object",
            "properties": {
                "nodes": {"type": "integer"},
                "edges": {"type": "integer"},
                "isolated": {"type": "integer"},
                "modularity": _number_or_null,
                "diagnostics": {"type": "object"},
            },
            "required": ["nodes", "edges", "isolated", "modularity"],
        },
        "assortativity": {
            "type": "object",
            "properties": {"rho_ov": _assort_schema, "opd": _assort_schema},
            "required": ["rho_ov", "opd"],
        },
        "polarization": {
            "type": ["object", "null"],
            "properties": {
                "mean": {"type": "number"},
                "variance": {"type": "number"},
                "mode_bin": {"type": "number"},
                "shuffled_variance": {"type": "number"},
                "variance_ratio": {"type": "number"},
                "scored": {"type": "integer"},
                "excluded": {"type": "integer"},
            },
            "required": ["mean", "variance", "variance_ratio"],
        },
        "population": {"type": "object"},
        "notes": {"type": "object"},
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "version": {"type": "string"},
        "run": {
            "type": "object",
            "properties": {
                "seed": {"type": "integer"},
                "config_digest": {"type": "string"},
                "defaults": {"type": "object"},
                "trade_rejects": {"type": "integer"},
            },
            "required": ["seed", "config_digest", "defaults", "trade_rejects"],
        },
        "assets": {
            "type": "object",
            "additionalProperties": _asset_schema,
        },
    },
    "required": ["version", "run", "assets"],
}
