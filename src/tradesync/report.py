"""Full-chain analysis of one or more assets and the consolidated JSON report.

Every randomized step consumes a seed derived from the one root seed recorded
in the report, and all serialization is key-sorted, so identical inputs and
seed produce byte-identical output for any worker count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np
from jsonschema import validate as _validate_schema

from . import activity as act
from . import netmetrics as nm
from . import polarization as pol
from . import volatility as vola
from .errors import DegenerateInputError, TradesyncError
from .ingest import (AutoFilterPolicy, QuoteSeries, TradeRecord, build_calendar,
                     filter_automatic, split_off_calendar)
from .syncnet import SyncNetwork, build_sync_network

REPORT_VERSION = "2"


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
    """All artifacts produced for one asset; to_section() flattens the numbers
    that belong in the JSON report."""

    ticker: str
    series: dict
    vol: vola.VolatilitySeries
    meso: vola.MesoSeries
    net: SyncNetwork
    tail_fit: act.TailFit | None
    opd_tail_fit: act.TailFit | None
    meso_long: float | None
    meso_short: float | None
    partition: nm.Partition | None
    scores: list[pol.PolarizationScore]
    exclusions: list[pol.Exclusion]
    histogram: pol.Histogram | None
    summary: pol.PolarizationSummary | None
    assort_rho: nm.AssortativityResult | None
    assort_opd: nm.AssortativityResult | None
    population: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def to_section(self) -> dict:
        def tail(f):
            return f.as_dict() if f is not None else None

        def assort(res, attribute):
            if res is None:
                return None
            return {
                "attribute": attribute,
                "r": res.r,
                "null_rewire": res.null_rewire.as_dict(),
                "null_shuffle": res.null_shuffle.as_dict(),
            }

        polar = None
        if self.summary is not None:
            polar = {
                "mean": self.summary.mean,
                "variance": self.summary.variance,
                "mode_bin": self.summary.mode_bin,
                "shuffled_variance": self.summary.shuffled_variance,
                "variance_ratio": self.summary.variance_ratio,
                "scored": len(self.scores),
                "excluded": len(self.exclusions),
            }
        return {
            "tail_fit": tail(self.tail_fit),
            "opd_tail_fit": tail(self.opd_tail_fit),
            "meso": {"long": self.meso_long, "short": self.meso_short},
            "network": {
                "nodes": len(self.net.node_ids),
                "edges": len(self.net.edges),
                "isolated": len(self.net.isolated_nodes()),
                "modularity": None if self.partition is None else self.partition.q,
                "diagnostics": _plain(self.net.diagnostics),
            },
            "assortativity": {
                "rho_ov": assort(self.assort_rho, "rho_ov"),
                "opd": assort(self.assort_opd, "opd"),
            },
            "polarization": polar,
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


def analyze_asset(trades: list[TradeRecord], quotes: QuoteSeries,
                  params: PipelineParams, root_seed: int = 0,
                  asset_index: int = 0, workers: int | None = None
                  ) -> AssetAnalysis:
    """Run the full chain for one asset.

    Degenerate sub-steps (no scores, constant series, too few edges) are
    recorded under `notes` instead of aborting the asset.
    """
    seeds = derive_seeds(root_seed, asset_index)
    notes: dict = {}

    policy = AutoFilterPolicy.parse(params.auto_filter)
    filtered = filter_automatic(trades, policy)
    calendar = build_calendar(quotes)
    kept, off = split_off_calendar(filtered.retained, calendar)

    series = act.build_activity(kept, calendar)
    vol = vola.high_low_volatility(quotes)
    meso = vola.meso_series(series, calendar)

    tail_fit = opd_fit = None
    totals = [s.total_ops for s in series.values()]
    opds = [s.opd for s in series.values()]
    try:
        tail_fit = act.hill_fit(totals, params.hill_k)
    except TradesyncError as err:
        notes["tail_fit"] = str(err)
    try:
        opd_fit = act.hill_fit(opds, params.hill_k)
    except TradesyncError as err:
        notes["opd_tail_fit"] = str(err)

    meso_long = meso_short = None
    try:
        meso_long = vola.meso_long_correlation(meso, vol)
    except DegenerateInputError as err:
        notes["meso_long"] = str(err)
    try:
        meso_short = vola.meso_short_correlation(meso, vol, params.ma_window,
                                                 params.ma_mode)
    except DegenerateInputError as err:
        notes["meso_short"] = str(err)

    net = build_sync_network(series, min_ops=params.min_ops,
                             shuffles=params.shuffles, level=params.p_level,
                             seed=seeds["syncnet"], workers=workers)

    partition = None
    try:
        partition = nm.louvain(net, seed=seeds["louvain"])
    except DegenerateInputError as err:
        notes["modularity"] = str(err)

    scores, exclusions = pol.score_population(series, vol, params.min_days,
                                              params.nu_moments)
    net, unscored = pol.attach_scores(net, scores)
    if unscored:
        notes["unscored_nodes"] = len(unscored)

    histogram = summary = None
    try:
        histogram = pol.population_distribution(scores, params.bins)
        baseline = pol.shuffled_baseline(series, vol, replicas=params.replicas,
                                         seed=seeds["shuffle_baseline"],
                                         min_days=params.min_days,
                                         nu_moments=params.nu_moments)
        summary = pol.summarize(scores, baseline, params.bins)
    except DegenerateInputError as err:
        notes["polarization"] = str(err)

    assort_rho = assort_opd = None
    try:
        attr = nm.discretize_attribute(
            {s.investor_id: s.rho_ov for s in scores
             if s.investor_id in net.node_attrs})
        assort_rho = nm.assortativity_with_nulls(
            net, attr, replicas=params.replicas, rewire_seed=seeds["rho_ov_rewire"],
            shuffle_seed=seeds["rho_ov_shuffle"], swap_factor=params.swap_factor,
            workers=workers)
    except (DegenerateInputError, ValueError) as err:
        notes["assortativity_rho_ov"] = str(err)
    try:
        attr = nm.discretize_opd(
            {inv: a.opd for inv, a in net.node_attrs.items()}, params.opd_cap)
        assort_opd = nm.assortativity_with_nulls(
            net, attr, replicas=params.replicas, rewire_seed=seeds["opd_rewire"],
            shuffle_seed=seeds["opd_shuffle"], swap_factor=params.swap_factor,
            workers=workers)
    except (DegenerateInputError, ValueError) as err:
        notes["assortativity_opd"] = str(err)

    population = {
        "trades_input": len(trades),
        "trades_after_auto_filter": len(filtered.retained),
        "auto_filter_retention": filtered.retention_by_ticker.get(quotes.ticker),
        "off_calendar_trades": len(off),
        "investors": len(series),
        "operations": int(sum(totals)),
        "network_investors": len(net.node_ids),
        "network_operations": int(sum(
            series[n].total_ops for n in net.node_ids)),
        "connected_investors": len(net.node_ids) - len(net.isolated_nodes()),
    }
    return AssetAnalysis(
        ticker=quotes.ticker, series=series, vol=vol, meso=meso, net=net,
        tail_fit=tail_fit, opd_tail_fit=opd_fit, meso_long=meso_long,
        meso_short=meso_short, partition=partition, scores=scores,
        exclusions=exclusions, histogram=histogram, summary=summary,
        assort_rho=assort_rho, assort_opd=assort_opd,
        population=population, notes=notes,
    )


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
    _validate_schema(report, REPORT_SCHEMA)
    return report


def dump_report(report: dict, stream) -> None:
    json.dump(_plain(report), stream, sort_keys=True, indent=2)
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

_null_stats_schema = {
    "type": "object",
    "properties": {
        "mean": {"type": "number"},
        "ci95_low": {"type": "number"},
        "ci95_high": {"type": "number"},
        "replicas": {"type": "integer"},
    },
    "required": ["mean", "ci95_low", "ci95_high", "replicas"],
}

_assort_schema = {
    "type": ["object", "null"],
    "properties": {
        "attribute": {"type": "string"},
        "r": {"type": "number"},
        "null_rewire": _null_stats_schema,
        "null_shuffle": _null_stats_schema,
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
