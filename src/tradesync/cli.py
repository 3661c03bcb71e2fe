"""Batch command-line front end.

Subcommands read declared inputs and write plot-ready tab-separated tables
plus JSON summaries under --out-dir. `report` runs every stage of the chain
(report.analyze_asset) for each asset into one report.json; each analysis view
runs the stages it needs, seeded like `report`'s first asset, and writes its
keys of that report section to <view>.json.
Each pipeline flag is the PipelineParams field of the same name, and an unset
`synth` flag takes the SynthConfig or Ar1Config default.
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
from .errors import ConfigError, TradesyncError
from .ingest import parse_quotes, parse_trades, select_ticker
from .report import (PipelineParams, analyze_asset, assortativity_stage,
                     build_report, dump_report, network_stage, polarization_stage,
                     score_stage, write_activity_tables, write_file,
                     write_network_tables, write_pairs, write_partition_table,
                     write_polarization_tables)
from .synth import Ar1Config, CommunitySpec, SynthConfig, generate, write_synth


# a PipelineParams annotation (a string: annotations are postponed) -> flag type
_FLAG_TYPES = {"int": int, "int | None": int, "float": float, "str": str}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trades", help="trades CSV path")
    p.add_argument("--quotes", action="append", default=[],
                   help="quotes CSV path (repeat with --ticker for multi-asset runs)")
    p.add_argument("--ticker", action="append", default=[],
                   help="asset symbol matching a --quotes file")
    p.add_argument("--delimiter", default=",")
    for f in fields(PipelineParams):
        p.add_argument("--" + f.name.replace("_", "-"), type=_FLAG_TYPES[f.type],
                       default=f.default, **f.metadata)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tradesync",
        description="Investor activity, synchronization-network and "
                    "volatility-polarization analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        if name != "synth":
            _add_common(sub.add_parser(name))
            continue
        # a flag's dest is the SynthConfig field it sets, or "vol_" plus the
        # Ar1Config field; an unset flag keeps that field's default
        p = sub.add_parser(name, help="generate a synthetic market dataset",
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--agents", dest="n_agents", metavar="AGENTS", type=int,
                       required=True)
        p.add_argument("--days", dest="n_days", metavar="DAYS", type=int,
                       required=True)
        p.add_argument("--alpha", dest="activity_tail_alpha", metavar="ALPHA",
                       type=float, help="planted activity tail index")
        p.add_argument("--beta-mean", type=float)
        p.add_argument("--beta-sd", type=float)
        p.add_argument("--vol-mean-log", dest="vol_mean", metavar="VOL_MEAN_LOG",
                       type=float, help="mean of log volatility (default ln 0.02)")
        p.add_argument("--vol-phi", type=float)
        p.add_argument("--vol-sigma", type=float)
        p.add_argument("--community", action="append", default=[],
                       metavar="SIZE:COUPLING",
                       help="plant a community, e.g. 20:1.0 (repeatable)")
        p.add_argument("--base-rate-scale", type=float)
        p.add_argument("--rate-cap", type=float)
        p.add_argument("--ticker")
        p.add_argument("--seed", type=int)
        p.add_argument("--out-dir", default="out")
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
    repeated = sorted({t for t in tickers if tickers.count(t) > 1})
    if repeated:
        raise TradesyncError(f"--ticker given more than once: {', '.join(repeated)}")
    return list(zip(tickers, args.quotes))


def _single_asset(args) -> tuple[str, str]:
    assets = _assets(args)
    if len(assets) != 1:
        raise TradesyncError("this subcommand takes exactly one --ticker/--quotes pair")
    return assets[0]


def _read_trades(args):
    if not args.trades:
        raise TradesyncError("--trades is required")
    with open(args.trades, encoding="utf-8-sig") as f:
        return parse_trades(f, args.delimiter)


def _print_rejects(parsed, stream) -> None:
    if parsed.rejects:
        print(parsed.reject_report(), file=stream)


def _read_quotes(path: str, ticker: str, args):
    with open(path, encoding="utf-8-sig") as f:
        return parse_quotes(f, ticker, args.delimiter)


def _print_off_calendar(analysis) -> None:
    off = analysis.population["off_calendar_trades"]
    if off:
        print(f"{analysis.ticker}: {off} off-calendar trades excluded", file=sys.stderr)


def _outdir(args) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _write_asset_tables(analysis, out: str) -> None:
    """The per-asset tables of the stages that ran."""
    os.makedirs(out, exist_ok=True)
    if analysis.net is not None:
        write_network_tables(analysis, out)
    write_partition_table(analysis.partition, out)
    if analysis.scores is not None:
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


def cmd_volatility(args) -> int:
    ticker, qpath = _single_asset(args)
    quotes = _read_quotes(qpath, ticker, args)
    vol = vola.high_low_volatility(quotes)
    write_pairs(os.path.join(_outdir(args), "volatility.tsv"), "date\tnu",
                zip(quotes.days, vol.nu.tolist()))
    return 0


# view -> (the stages it runs after the front, the report-section keys it reports)
_VIEWS = {
    "activity": ((), ("tail_fit", "opd_tail_fit")),
    "meso": ((), ("meso",)),
    "syncnet": ((network_stage,), ("network",)),
    "metrics": ((network_stage, score_stage, assortativity_stage),
                ("network", "assortativity")),
    "polarization": ((score_stage, polarization_stage), ("polarization",)),
}


def cmd_view(args) -> int:
    """An analysis view: `report`'s chain on the one --ticker/--quotes pair,
    seeded like `report`'s first asset. Trade rejects and off-calendar trades
    are listed on stderr; a reported key that is null exits with its note."""
    stages, keys = _VIEWS[args.command]
    params = _params(args)
    workers = parallel.resolve_workers()
    ticker, qpath = _single_asset(args)
    parsed = _read_trades(args)
    _print_rejects(parsed, sys.stderr)
    quotes = _read_quotes(qpath, ticker, args)
    analysis = analyze_asset(select_ticker(parsed.records, ticker), quotes, params,
                             root_seed=args.seed, workers=workers, stages=stages)
    _print_off_calendar(analysis)
    section = analysis.to_section()
    for key in keys:
        if section[key] is None:
            raise TradesyncError(section["notes"][key])
    view = {"ticker": ticker, **{key: section[key] for key in keys},
            "notes": section["notes"]}
    out = _outdir(args)
    _write_asset_tables(analysis, out)
    if args.command == "activity":
        series = analysis.series
        with open(os.path.join(out, "activity_nodes.tsv"), "w") as f:
            act.write_nodes(series, series.ids, f)
        view["hill_sweep"] = {name: [fit.as_dict() for fit in act.hill_sweep(values)]
                              for name, values in (("activity", series.total_ops),
                                                   ("opd", series.opd))}
    path = os.path.join(out, f"{args.command}.json")
    write_file(path, dump_report, view)
    print(f"{ticker}: ok -> {path}")
    return 0


def cmd_synth(args) -> int:
    given = vars(args)
    communities = []
    for spec in args.community:
        size, _, coupling = spec.partition(":")
        try:
            kwargs = {"coupling": float(coupling)} if coupling else {}
            communities.append(CommunitySpec(size=int(size), **kwargs))
        except ValueError:
            raise ConfigError(f"--community must be SIZE or SIZE:COUPLING, "
                              f"got {spec!r}") from None
    vol = Ar1Config(**{k.removeprefix("vol_"): v for k, v in given.items()
                       if k.startswith("vol_")})
    config = SynthConfig(vol=vol, communities=tuple(communities),
                         **{f.name: given[f.name] for f in fields(SynthConfig)
                            if f.name in given})
    result = generate(config)
    paths = write_synth(result, args.out_dir)
    print(f"synth: {result.agent.size} trades over {config.n_days} days "
          f"-> {paths['trades']}")
    return 0


def cmd_report(args) -> int:
    params = _params(args)
    workers = parallel.resolve_workers()
    assets = _assets(args)
    parsed = _read_trades(args)
    _print_rejects(parsed, sys.stderr)
    out = _outdir(args)
    sections: dict[str, dict] = {}
    failed = []
    for idx, (ticker, qpath) in enumerate(assets):
        try:
            quotes = _read_quotes(qpath, ticker, args)
            trades = select_ticker(parsed.records, ticker)
            analysis = analyze_asset(trades, quotes, params, root_seed=args.seed,
                                     asset_index=idx, workers=workers)
            _print_off_calendar(analysis)
            sections[ticker] = analysis.to_section()
            _write_asset_tables(analysis, os.path.join(out, ticker))
            print(f"{ticker}: ok ({sections[ticker]['network']['edges']} edges)")
        except (TradesyncError, OSError) as err:
            sections[ticker] = {"error": str(err)}
            failed.append(ticker)
            print(f"{ticker}: FAILED ({err})", file=sys.stderr)
    report = build_report(sections, params, args.seed, parsed.rejects)
    write_file(os.path.join(out, "report.json"), dump_report, report)
    if failed:
        print(f"{len(failed)} asset(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


_HANDLERS = {"validate": cmd_validate, "activity": cmd_view,
             "volatility": cmd_volatility, "meso": cmd_view, "syncnet": cmd_view,
             "metrics": cmd_view, "polarization": cmd_view, "synth": cmd_synth,
             "report": cmd_report}


def _check_delimiter(args) -> None:
    """A delimiter csv can split on: one character that is no quote or line end."""
    d = getattr(args, "delimiter", ",")
    if len(d) != 1 or d in '"\n\r':
        raise ConfigError(f"--delimiter must be one character other than a quote, "
                          f"CR or LF, got {d!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_delimiter(args)
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
