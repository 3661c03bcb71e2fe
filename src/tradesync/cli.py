"""Batch command-line front end.

Subcommands read declared inputs and write plot-ready tab-separated tables
plus JSON summaries under --out-dir; `report` chains the whole analysis into
one consolidated report.json. Worker count comes from the TRADESYNC_WORKERS
environment variable (all cores when unset).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import activity as act
from . import netmetrics as nm
from . import polarization as pol
from . import volatility as vola
from .errors import TradesyncError
from .ingest import (AutoFilterPolicy, QuotesFormat, TradesFormat,
                     build_calendar, filter_automatic, parse_quotes,
                     parse_trades, select_ticker, split_off_calendar)
from .report import (PipelineParams, analyze_asset, build_report, derive_seeds,
                     dump_report)
from .syncnet import build_sync_network, write_edges, write_nodes
from .synth import Ar1Config, CommunitySpec, SynthConfig, generate, write_synth

SUBCOMMANDS = ("validate", "activity", "volatility", "meso", "syncnet",
               "metrics", "polarization", "synth", "report")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trades", help="trades CSV path")
    p.add_argument("--quotes", action="append", default=[],
                   help="quotes CSV path (repeat with --ticker for multi-asset runs)")
    p.add_argument("--ticker", action="append", default=[],
                   help="asset symbol matching a --quotes file")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--auto-filter", default="none",
                   help="automatic-operation policy: none | flag | threshold:K")
    p.add_argument("--min-ops", type=int, default=20)
    p.add_argument("--min-days", type=int, default=20)
    p.add_argument("--shuffles", type=int, default=999)
    p.add_argument("--p-level", type=float, default=0.01)
    p.add_argument("--replicas", type=int, default=1000)
    p.add_argument("--ma-window", type=int, default=5)
    p.add_argument("--ma-mode", default="trailing", choices=("trailing", "centered"))
    p.add_argument("--nu-moments", default="trading", choices=("trading", "global"))
    p.add_argument("--hill-k", type=int, default=None)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--swap-factor", type=int, default=10)
    p.add_argument("--opd-cap", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tradesync",
        description="Investor activity, synchronization-network and "
                    "volatility-polarization analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        if name == "synth":
            p = sub.add_parser(name, help="generate a synthetic market dataset")
            p.add_argument("--agents", type=int, required=True)
            p.add_argument("--days", type=int, required=True)
            p.add_argument("--alpha", type=float, default=1.0,
                           help="planted activity tail index")
            p.add_argument("--beta-mean", type=float, default=0.0)
            p.add_argument("--beta-sd", type=float, default=0.2)
            p.add_argument("--vol-mean-log", type=float, default=None,
                           help="mean of log volatility (default ln 0.02)")
            p.add_argument("--vol-phi", type=float, default=0.7)
            p.add_argument("--vol-sigma", type=float, default=0.3)
            p.add_argument("--community", action="append", default=[],
                           metavar="SIZE:COUPLING",
                           help="plant a community, e.g. 20:1.0 (repeatable)")
            p.add_argument("--base-rate-scale", type=float, default=0.02)
            p.add_argument("--rate-cap", type=float, default=50.0)
            p.add_argument("--ticker", default="SYN")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--out-dir", default="out")
        else:
            p = sub.add_parser(name)
            _add_common(p)
    return parser


def _params(args) -> PipelineParams:
    return PipelineParams(
        min_ops=args.min_ops, min_days=args.min_days, shuffles=args.shuffles,
        p_level=args.p_level, replicas=args.replicas, ma_window=args.ma_window,
        ma_mode=args.ma_mode, nu_moments=args.nu_moments,
        hill_k=args.hill_k, bins=args.bins, swap_factor=args.swap_factor,
        opd_cap=args.opd_cap, auto_filter=args.auto_filter,
    )


def _assets(args) -> list[tuple[str, str]]:
    if not args.quotes:
        raise TradesyncError("--quotes is required")
    tickers = args.ticker
    if not tickers:
        raise TradesyncError("--ticker is required")
    if len(tickers) != len(args.quotes):
        raise TradesyncError("--ticker and --quotes must be paired")
    return list(zip(tickers, args.quotes))


def _single_asset(args) -> tuple[str, str]:
    assets = _assets(args)
    if len(assets) != 1:
        raise TradesyncError("this subcommand takes exactly one --ticker/--quotes pair")
    return assets[0]


def _read_trades(args):
    if not args.trades:
        raise TradesyncError("--trades is required")
    fmt = TradesFormat(delimiter=args.delimiter)
    with open(args.trades) as f:
        return parse_trades(f, fmt)


def _read_quotes(path: str, ticker: str, args):
    fmt = QuotesFormat(delimiter=args.delimiter)
    with open(path) as f:
        return parse_quotes(f, ticker, fmt)


def _load_asset(args, ticker: str, quotes_path: str):
    """Shared front of all single-asset subcommands: parse, filter, calendar."""
    parsed = _read_trades(args)
    for rej in parsed.rejects:
        print(rej, file=sys.stderr)
    quotes = _read_quotes(quotes_path, ticker, args)
    policy = AutoFilterPolicy.parse(args.auto_filter)
    retained = filter_automatic(select_ticker(parsed.records, ticker), policy).retained
    calendar = build_calendar(quotes)
    kept, off = split_off_calendar(retained, calendar)
    if off:
        print(f"{len(off)} off-calendar trades excluded", file=sys.stderr)
    series = act.build_activity(kept, calendar)
    return quotes, calendar, series


def _outdir(args) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _write_pairs_tsv(path: str, header: str, rows) -> None:
    with open(path, "w") as f:
        f.write(header + "\n")
        for a, b in rows:
            fa = repr(a) if isinstance(a, float) else str(a)
            fb = repr(b) if isinstance(b, float) else str(b)
            f.write(f"{fa}\t{fb}\n")


def cmd_validate(args) -> int:
    status = 0
    try:
        parsed = _read_trades(args)
    except (TradesyncError, OSError) as err:
        print(f"trades: {err}", file=sys.stderr)
        return 2
    print(f"trades: {len(parsed.records)} records, {len(parsed.rejects)} rejects")
    for rej in parsed.rejects:
        print(rej)
    for ticker, path in _assets(args):
        try:
            quotes = _read_quotes(path, ticker, args)
            print(f"quotes {ticker}: {len(quotes)} days")
        except (TradesyncError, OSError) as err:
            print(f"quotes {ticker}: {err}", file=sys.stderr)
            status = 2
    return status


def cmd_activity(args) -> int:
    ticker, qpath = _single_asset(args)
    _, _, series = _load_asset(args, ticker, qpath)
    out = _outdir(args)
    with open(os.path.join(out, "activity_nodes.tsv"), "w") as f:
        f.write("investor\ttotal_ops\tN\tT\topd\n")
        for inv in sorted(series):
            s = series[inv]
            f.write(f"{inv}\t{s.total_ops}\t{s.n_active}\t{s.span}\t{s.opd!r}\n")
    totals = [s.total_ops for s in series.values()]
    opds = [s.opd for s in series.values()]
    _write_pairs_tsv(os.path.join(out, "activity_ccdf.tsv"),
                     "value\tfraction", act.ccdf(totals))
    _write_pairs_tsv(os.path.join(out, "opd_ccdf.tsv"),
                     "value\tfraction", act.ccdf(opds))
    _write_pairs_tsv(os.path.join(out, "ops_vs_days.tsv"),
                     "trading_days\ttotal_ops", act.ops_vs_days(series))
    fits = {}
    for name, vals in (("activity", totals), ("opd", opds)):
        fit = act.hill_fit(vals, args.hill_k)
        fits[name] = {"fit": fit.as_dict(),
                      "sweep": [f.as_dict() for f in act.hill_sweep(vals)]}
        print(f"{name} tail index: {fit.alpha:.4f} +- {fit.stderr:.4f} "
              f"(k={fit.k}, n={fit.n})")
    _write_json(os.path.join(out, "tail_fits.json"), fits)
    return 0


def cmd_volatility(args) -> int:
    ticker, qpath = _single_asset(args)
    quotes = _read_quotes(qpath, ticker, args)
    vol = vola.high_low_volatility(quotes)
    out = _outdir(args)
    with open(os.path.join(out, "volatility.tsv"), "w") as f:
        f.write("date\tnu\n")
        for day, nu in zip(quotes.days, vol.nu):
            f.write(f"{day.isoformat()}\t{float(nu)!r}\n")
    return 0


def cmd_meso(args) -> int:
    ticker, qpath = _single_asset(args)
    quotes, calendar, series = _load_asset(args, ticker, qpath)
    vol = vola.high_low_volatility(quotes)
    meso = vola.meso_series(series, calendar)
    result = {
        "ticker": ticker,
        "long": vola.meso_long_correlation(meso, vol),
        "short": vola.meso_short_correlation(meso, vol, args.ma_window, args.ma_mode),
        "ma_window": args.ma_window,
        "ma_mode": args.ma_mode,
    }
    _write_json(os.path.join(_outdir(args), "meso.json"), result)
    print(f"meso correlation {ticker}: long={result['long']:.4f} "
          f"short={result['short']:.4f}")
    return 0


def _network(args, ticker: str, qpath: str):
    quotes, calendar, series = _load_asset(args, ticker, qpath)
    # single-asset subcommands take the seeds `report` gives its first asset
    seed = derive_seeds(args.seed, 0)["syncnet"]
    net = build_sync_network(series, min_ops=args.min_ops, shuffles=args.shuffles,
                             level=args.p_level, seed=seed)
    return quotes, calendar, series, net


def cmd_syncnet(args) -> int:
    ticker, qpath = _single_asset(args)
    _, _, _, net = _network(args, ticker, qpath)
    out = _outdir(args)
    with open(os.path.join(out, "edges.tsv"), "w") as f:
        write_edges(net, f)
    with open(os.path.join(out, "nodes.tsv"), "w") as f:
        write_nodes(net, f)
    _write_json(os.path.join(out, "syncnet_diagnostics.json"), net.diagnostics)
    d = net.diagnostics
    print(f"network {ticker}: {d['nodes']} nodes, {d['edges_retained']} edges "
          f"({d['pairs_tested']} pairs tested)")
    return 0


def cmd_metrics(args) -> int:
    ticker, qpath = _single_asset(args)
    quotes, calendar, series, net = _network(args, ticker, qpath)
    vol = vola.high_low_volatility(quotes)
    seeds = derive_seeds(args.seed, 0)
    out = _outdir(args)
    metrics: dict = {"ticker": ticker, "modularity": None, "assortativity": {}}
    try:
        partition = nm.louvain(net, seed=seeds["louvain"])
        metrics["modularity"] = partition.q
        with open(os.path.join(out, "partition.tsv"), "w") as f:
            nm.write_partition(partition, f)
        print(f"modularity {ticker}: {partition.q:.4f}")
    except TradesyncError as err:
        metrics["modularity_error"] = str(err)
    scores, _ = pol.score_population(series, vol, args.min_days, args.nu_moments)
    net, _ = pol.attach_scores(net, scores)
    attrs = {
        "rho_ov": nm.discretize_attribute(
            {s.investor_id: s.rho_ov for s in scores
             if s.investor_id in net.node_attrs}),
        "opd": nm.discretize_opd(
            {inv: a.opd for inv, a in net.node_attrs.items()}, args.opd_cap),
    }
    for name, attr in attrs.items():
        try:
            res = nm.assortativity_with_nulls(
                net, attr, replicas=args.replicas,
                rewire_seed=seeds[f"{name}_rewire"],
                shuffle_seed=seeds[f"{name}_shuffle"], swap_factor=args.swap_factor)
            metrics["assortativity"][name] = {
                "r": res.r, "null_rewire": res.null_rewire.as_dict(),
                "null_shuffle": res.null_shuffle.as_dict()}
        except TradesyncError as err:
            metrics["assortativity"][name] = {"error": str(err)}
    _write_json(os.path.join(out, "metrics.json"), metrics)
    return 0


def cmd_polarization(args) -> int:
    ticker, qpath = _single_asset(args)
    quotes, calendar, series = _load_asset(args, ticker, qpath)
    vol = vola.high_low_volatility(quotes)
    scores, excluded = pol.score_population(series, vol, args.min_days,
                                            args.nu_moments)
    out = _outdir(args)
    with open(os.path.join(out, "scores.tsv"), "w") as f:
        pol.write_scores(scores, f)
    hist = pol.population_distribution(scores, args.bins)
    with open(os.path.join(out, "rho_histogram.tsv"), "w") as f:
        pol.write_histogram(hist, f)
    baseline = pol.shuffled_baseline(series, vol, replicas=args.replicas,
                                     seed=derive_seeds(args.seed, 0)["shuffle_baseline"],
                                     min_days=args.min_days, nu_moments=args.nu_moments)
    summary = pol.summarize(scores, baseline, args.bins)
    _write_json(os.path.join(out, "polarization.json"), {
        "ticker": ticker,
        "mean": summary.mean,
        "variance": summary.variance,
        "mode_bin": summary.mode_bin,
        "shuffled_variance": summary.shuffled_variance,
        "variance_ratio": summary.variance_ratio,
        "scored": len(scores),
        "excluded": len(excluded),
    })
    print(f"polarization {ticker}: mean={summary.mean:.4f} "
          f"variance_ratio={summary.variance_ratio:.3f}")
    return 0


def cmd_synth(args) -> int:
    communities = []
    for spec in args.community:
        size, _, coupling = spec.partition(":")
        communities.append(CommunitySpec(size=int(size),
                                         coupling=float(coupling or 1.0)))
    vol_kwargs = {"phi": args.vol_phi, "sigma": args.vol_sigma}
    if args.vol_mean_log is not None:
        vol_kwargs["mean"] = args.vol_mean_log
    vol = Ar1Config(**vol_kwargs)
    config = SynthConfig(
        n_agents=args.agents, n_days=args.days,
        activity_tail_alpha=args.alpha, beta_mean=args.beta_mean,
        beta_sd=args.beta_sd, vol=vol, communities=tuple(communities),
        seed=args.seed, ticker=args.ticker,
        base_rate_scale=args.base_rate_scale, rate_cap=args.rate_cap,
    )
    result = generate(config)
    paths = write_synth(result, args.out_dir)
    print(f"synth: {len(result.trades)} trades over {args.days} days "
          f"-> {paths['trades']}")
    return 0


def _write_asset_tables(analysis, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "edges.tsv"), "w") as f:
        write_edges(analysis.net, f)
    with open(os.path.join(out, "nodes.tsv"), "w") as f:
        write_nodes(analysis.net, f)
    if analysis.partition is not None:
        with open(os.path.join(out, "partition.tsv"), "w") as f:
            nm.write_partition(analysis.partition, f)
    with open(os.path.join(out, "scores.tsv"), "w") as f:
        pol.write_scores(analysis.scores, f)
    if analysis.histogram is not None:
        with open(os.path.join(out, "rho_histogram.tsv"), "w") as f:
            pol.write_histogram(analysis.histogram, f)
    totals = [s.total_ops for s in analysis.series.values()]
    opds = [s.opd for s in analysis.series.values()]
    _write_pairs_tsv(os.path.join(out, "activity_ccdf.tsv"),
                     "value\tfraction", act.ccdf(totals))
    _write_pairs_tsv(os.path.join(out, "opd_ccdf.tsv"),
                     "value\tfraction", act.ccdf(opds))
    _write_pairs_tsv(os.path.join(out, "ops_vs_days.tsv"),
                     "trading_days\ttotal_ops", act.ops_vs_days(analysis.series))


def cmd_report(args) -> int:
    params = _params(args)
    parsed = _read_trades(args)
    for rej in parsed.rejects:
        print(rej, file=sys.stderr)
    out = _outdir(args)
    sections: dict[str, dict] = {}
    failed = []
    for idx, (ticker, qpath) in enumerate(_assets(args)):
        try:
            quotes = _read_quotes(qpath, ticker, args)
            trades = select_ticker(parsed.records, ticker)
            analysis = analyze_asset(trades, quotes, params,
                                     root_seed=args.seed, asset_index=idx)
            sections[ticker] = analysis.to_section()
            _write_asset_tables(analysis, os.path.join(out, ticker))
            print(f"{ticker}: ok ({sections[ticker]['network']['edges']} edges)")
        except (TradesyncError, OSError) as err:
            sections[ticker] = {"error": str(err)}
            failed.append(ticker)
            print(f"{ticker}: FAILED ({err})", file=sys.stderr)
    report = build_report(sections, params, args.seed, len(parsed.rejects))
    with open(os.path.join(out, "report.json"), "w") as f:
        dump_report(report, f)
    if failed:
        print(f"{len(failed)} asset(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


_HANDLERS = {
    "validate": cmd_validate,
    "activity": cmd_activity,
    "volatility": cmd_volatility,
    "meso": cmd_meso,
    "syncnet": cmd_syncnet,
    "metrics": cmd_metrics,
    "polarization": cmd_polarization,
    "synth": cmd_synth,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (TradesyncError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
