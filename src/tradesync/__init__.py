"""Investor activity, synchronization-network and volatility-polarization
analytics from per-trade records and daily open/high/low quotes."""

__version__ = "0.1.0"

from .activity import ActivityMatrix, TailFit, build_activity, ccdf, hill_fit
from .ingest import (AutoFilterPolicy, QuoteSeries, TradeColumns, TradingCalendar,
                     build_calendar, filter_automatic, parse_quotes, parse_trades,
                     split_off_calendar)
from .netmetrics import (Partition, assortativity, discretize_attribute, louvain,
                         modularity_of, null_rewire, null_shuffle)
from .polarization import (PolarizationScore, population_distribution,
                           polarization_score, score_population,
                           shuffled_baseline)
from .report import PipelineParams, analyze_asset, build_report
from .syncnet import SyncEdge, SyncNetwork, build_sync_network
from .synth import SynthConfig, generate, plant_assortative_network
from .volatility import (MesoSeries, VolatilitySeries, high_low_volatility,
                         meso_long_correlation, meso_series,
                         meso_short_correlation)

__all__ = [
    "ActivityMatrix", "AutoFilterPolicy", "MesoSeries", "Partition",
    "PipelineParams", "PolarizationScore", "QuoteSeries",
    "SyncEdge", "SyncNetwork", "SynthConfig", "TailFit", "TradeColumns",
    "TradingCalendar", "VolatilitySeries", "analyze_asset", "assortativity",
    "build_activity", "build_calendar", "build_report",
    "build_sync_network", "ccdf", "discretize_attribute",
    "filter_automatic", "generate", "high_low_volatility", "hill_fit",
    "louvain", "meso_long_correlation", "meso_series", "meso_short_correlation",
    "modularity_of", "null_rewire", "null_shuffle", "parse_quotes", "parse_trades",
    "plant_assortative_network", "polarization_score", "population_distribution",
    "score_population", "shuffled_baseline", "split_off_calendar",
]
