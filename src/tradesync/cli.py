"""Batch command-line front end.

Subcommands read declared inputs and write plot-ready tab-separated tables
plus JSON summaries under --out-dir. `report` runs every stage of the chain
(report.analyze_asset) for each asset into one report.json; the analysis
subcommands run the stages they need, seeded like `report`'s first asset.
Worker count comes from TRADESYNC_WORKERS (all cores when unset).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from . import activity as act
from . import parallel
from . import volatility as vola
from .errors import TradesyncError
from .ingest import parse_quotes, parse_trades, select_ticker
from .report import (PipelineParams, analyze_asset, assortativity_stage,
                     build_report, derive_seeds, dump_report, front_stage,
                     network_stage, polarization_stage, score_stage,
                     write_activity_tables, write_network_tables,
                     write_partition_table, write_polarization_tables)
from .synth import Ar1Config, CommunitySpec, SynthConfig, generate, write_synth


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
    for name in _HANDLERS:
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
    return PipelineParams(**{f.name: getattr(args, f.name)
                             for f in fields(PipelineParams)})


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
    with open(args.trades) as f:
        return parse_trades(f, args.delimiter)


def _print_rejects(parsed, stream) -> None:
    if parsed.rejects:
        print(parsed.reject_report(), file=stream)


def _read_quotes(path: str, ticker: str, args):
    with open(path) as f:
        return parse_quotes(f, ticker, args.delimiter)


def _front(args):
    """`report`'s front stage on the one --ticker/--quotes pair, plus the
    params and the seeds `report` gives its first asset. Trade rejects and
    off-calendar trades are listed on stderr."""
    params = _params(args)
    ticker, qpath = _single_asset(args)
    parsed = _read_trades(args)
    _print_rejects(parsed, sys.stderr)
    quotes = _read_quotes(qpath, ticker, args)
    analysis = front_stage(select_ticker(parsed.records, ticker), quotes, params)
    off = analysis.population["off_calendar_trades"]
    if off:
        print(f"{off} off-calendar trades excluded", file=sys.stderr)
    return analysis, params, derive_seeds(args.seed, 0)


def _outdir(args) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _required(analysis, key: str):
    """A stage output, or its note raised as the error when it is missing."""
    value = getattr(analysis, key)
    if value is None:
        raise TradesyncError(analysis.notes[key])
    return value


def _write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        dump_report(obj, f)


def _write_asset_tables(analysis, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    write_network_tables(analysis, out)
    write_partition_table(analysis.partition, out)
    write_polarization_tables(analysis, out)
    write_activity_tables(analysis.series, out)


def cmd_validate(args) -> int:
    status = 0
    try:
        parsed = _read_trades(args)
    except (TradesyncError, OSError) as err:
        print(f"trades: {err}", file=sys.stderr)
        return 2
    print(f"trades: {len(parsed.records)} records, {len(parsed.rejects)} rejects")
    _print_rejects(parsed, sys.stdout)
    for ticker, path in _assets(args):
        try:
            quotes = _read_quotes(path, ticker, args)
            print(f"quotes {ticker}: {len(quotes)} days")
        except (TradesyncError, OSError) as err:
            print(f"quotes {ticker}: {err}", file=sys.stderr)
            status = 2
    return status


def cmd_activity(args) -> int:
    analysis, _, _ = _front(args)
    series = analysis.series
    tails = [(name, _required(analysis, key), attr) for name, key, attr in
             (("activity", "tail_fit", "total_ops"), ("opd", "opd_tail_fit", "opd"))]
    out = _outdir(args)
    with open(os.path.join(out, "activity_nodes.tsv"), "w") as f:
        act.write_nodes(series, series.ids, f)
    write_activity_tables(series, out)
    fits = {}
    for name, fit, attr in tails:
        sweep = act.hill_sweep(getattr(series, attr))
        fits[name] = {"fit": fit.as_dict(), "sweep": [f.as_dict() for f in sweep]}
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
    analysis, params, _ = _front(args)
    result = {"ticker": analysis.ticker, "long": _required(analysis, "meso_long"),
              "short": _required(analysis, "meso_short"),
              "ma_window": params.ma_window, "ma_mode": params.ma_mode}
    _write_json(os.path.join(_outdir(args), "meso.json"), result)
    print(f"meso correlation {analysis.ticker}: long={result['long']:.4f} "
          f"short={result['short']:.4f}")
    return 0


def cmd_syncnet(args) -> int:
    analysis, params, seeds = _front(args)
    network_stage(analysis, params, seeds)
    out = _outdir(args)
    write_network_tables(analysis, out)
    d = analysis.net.diagnostics
    _write_json(os.path.join(out, "syncnet_diagnostics.json"), d)
    print(f"network {analysis.ticker}: {d['nodes']} nodes, {d['edges_retained']} "
          f"edges ({d['pairs_tested']} pairs tested)")
    return 0


def cmd_metrics(args) -> int:
    analysis, params, seeds = _front(args)
    network_stage(analysis, params, seeds)
    score_stage(analysis, params)
    assortativity_stage(analysis, params, seeds)
    out = _outdir(args)
    metrics: dict = {"ticker": analysis.ticker, "modularity": None, "assortativity": {
        name: {"error": analysis.notes[f"assortativity_{name}"]} if res is None
        else res.as_dict() for name, res in analysis.assortativity.items()}}
    if analysis.partition is None:
        metrics["modularity_error"] = analysis.notes["modularity"]
    else:
        metrics["modularity"] = analysis.partition.q
        write_partition_table(analysis.partition, out)
        print(f"modularity {analysis.ticker}: {analysis.partition.q:.4f}")
    _write_json(os.path.join(out, "metrics.json"), metrics)
    return 0


def cmd_polarization(args) -> int:
    analysis, params, seeds = _front(args)
    score_stage(analysis, params)
    polarization_stage(analysis, params, seeds)
    section = _required(analysis, "polarization")
    write_polarization_tables(analysis, _outdir(args))
    _write_json(os.path.join(args.out_dir, "polarization.json"),
                {"ticker": analysis.ticker, **section})
    print(f"polarization {analysis.ticker}: mean={section['mean']:.4f} "
          f"variance_ratio={section['variance_ratio']:.3f}")
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
    print(f"synth: {result.agent.size} trades over {args.days} days "
          f"-> {paths['trades']}")
    return 0


def cmd_report(args) -> int:
    params = _params(args)
    parsed = _read_trades(args)
    _print_rejects(parsed, sys.stderr)
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
    _write_json(os.path.join(out, "report.json"), report)
    if failed:
        print(f"{len(failed)} asset(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


_HANDLERS = {f.__name__.removeprefix("cmd_"): f for f in (
    cmd_validate, cmd_activity, cmd_volatility, cmd_meso, cmd_syncnet,
    cmd_metrics, cmd_polarization, cmd_synth, cmd_report)}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (TradesyncError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        # join the pool's workers: none outlives the command, and their CPU
        # time is counted with this process's
        parallel.shutdown()


if __name__ == "__main__":
    sys.exit(main())
