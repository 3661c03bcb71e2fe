"""Per-layer metrics derived from the spans that bench/tracer.py records."""

from __future__ import annotations

from collections import defaultdict

# name -> unit of every per-layer metric, in report order
UNITS = {
    "ingest.parse_s": "s", "ingest.us_per_trade": "us",
    "ingest.bytes_per_trade": "B", "ingest.filter_s": "s",
    "ingest.trades": "count", "ingest.rejects": "count",
    "activity.build_s": "s", "activity.investors": "count",
    "volatility.meso_s": "s",
    "syncnet.build_s": "s", "syncnet.ms_per_pair": "ms", "syncnet.cpu_s": "s",
    "syncnet.shuffles_per_pair": "count", "syncnet.pairs_tested": "count",
    "syncnet.edges": "count", "syncnet.kept_ratio": "ratio",
    "netmetrics.rewire_s": "s", "netmetrics.rewire_ms_per_replica": "ms",
    "netmetrics.shuffle_s": "s", "netmetrics.shuffle_ms_per_replica": "ms",
    "netmetrics.louvain_s": "s", "netmetrics.assortativity_s": "s",
    "netmetrics.cpu_s": "s", "netmetrics.edges_scored": "count",
    "polarization.score_s": "s", "polarization.baseline_s": "s",
    "polarization.baseline_ms_per_replica": "ms", "polarization.scored": "count",
    "report.analyze_self_s": "s", "cli.write_s": "s", "cli.output_bytes": "B",
    "synth.generate_s": "s", "synth.write_s": "s", "trace.overhead_s": "s",
}


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.
    Spans come from one thread, so children never overlap each other."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Sum self time, CPU, resident-memory growth, call count and work counts per
    span name, then form the per-layer metrics (all but cli.output_bytes and
    trace.overhead_s, which need the output directory and an untraced run)."""
    time_s: dict[str, float] = defaultdict(float)
    cpu_s: dict[str, float] = defaultdict(float)
    rss: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        name = s["name"]
        time_s[name] += own
        cpu_s[name] += s["cpu_self"] + s["cpu_children"]
        rss[name] += s["rss_growth"]
        calls[name] += 1
        for k, v in s.get("counts", {}).items():
            counts[f"{name}.{k}"] += v
    # shuffles_per_pair: shuffles weighted by the pairs each network tested
    weighted_shuffles = sum(s["counts"]["shuffles"] * s["counts"]["pairs_tested"]
                            for s in spans if s["name"] == "syncnet.build")
    pairs = counts["syncnet.build.pairs_tested"]
    trades = counts["ingest.parse.trades"]
    nm = ("netmetrics.louvain", "netmetrics.assortativity",
          "netmetrics.rewire", "netmetrics.shuffle")
    return {
        "ingest.parse_s": time_s["ingest.parse"],
        "ingest.us_per_trade": 1e6 * _ratio(time_s["ingest.parse"], trades),
        "ingest.bytes_per_trade": _ratio(rss["ingest.parse"], trades),
        "ingest.filter_s": time_s["ingest.filter"],
        "ingest.trades": trades,
        "ingest.rejects": counts["ingest.parse.rejects"],
        "activity.build_s": time_s["activity.build"],
        "activity.investors": counts["activity.build.investors"],
        "volatility.meso_s": time_s["volatility.meso"],
        "syncnet.build_s": time_s["syncnet.build"],
        "syncnet.ms_per_pair": 1e3 * _ratio(time_s["syncnet.build"], pairs),
        "syncnet.cpu_s": cpu_s["syncnet.build"],
        "syncnet.shuffles_per_pair": _ratio(weighted_shuffles, pairs),
        "syncnet.pairs_tested": pairs,
        "syncnet.edges": counts["syncnet.build.edges"],
        "syncnet.kept_ratio": _ratio(counts["syncnet.build.edges"], pairs),
        "netmetrics.rewire_s": time_s["netmetrics.rewire"],
        "netmetrics.rewire_ms_per_replica": 1e3 * _ratio(
            time_s["netmetrics.rewire"], counts["netmetrics.rewire.replicas"]),
        "netmetrics.shuffle_s": time_s["netmetrics.shuffle"],
        "netmetrics.shuffle_ms_per_replica": 1e3 * _ratio(
            time_s["netmetrics.shuffle"], counts["netmetrics.shuffle.replicas"]),
        "netmetrics.louvain_s": time_s["netmetrics.louvain"],
        "netmetrics.assortativity_s": time_s["netmetrics.assortativity"],
        "netmetrics.cpu_s": sum(cpu_s[n] for n in nm),
        "netmetrics.edges_scored": _ratio(counts["netmetrics.rewire.edges_scored"],
                                          calls["netmetrics.rewire"]),
        "polarization.score_s": time_s["polarization.score"],
        "polarization.baseline_s": time_s["polarization.baseline"],
        "polarization.baseline_ms_per_replica": 1e3 * _ratio(
            time_s["polarization.baseline"], counts["polarization.baseline.replicas"]),
        "polarization.scored": counts["polarization.score.scored"],
        "report.analyze_self_s": time_s["report.analyze"],
        "cli.write_s": time_s["cli.write"],
        "synth.generate_s": time_s["synth.generate"],
        "synth.write_s": time_s["synth.write"],
    }
