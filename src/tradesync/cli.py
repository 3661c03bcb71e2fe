"""Batch command-line front end.

Subcommands read declared inputs and write plot-ready tab-separated tables
plus JSON summaries under --out-dir. `report` runs every stage of the chain
(report.analyze_asset) for each asset into one report.json; each analysis view
runs the stages it needs, seeded like `report`'s first asset, and writes its
keys of that report section to <view>.json.
Each pipeline flag is the PipelineParams field of the same name, and each
`synth` flag a SynthConfig or Ar1Config field, whose default an unset flag keeps.
Worker count comes from TRADESYNC_WORKERS (all CPUs this process may run on
when unset).
"""

from __future__ import annotations

import os

# One BLAS thread per process unless the user sets more: numpy's BLAS reads
# these once, when numpy loads, so they are set before the imports below.
# More threads changed no output byte and about doubled the pair test's CPU.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import sys
from dataclasses import MISSING, fields

from . import activity as act
from . import parallel
from . import volatility as vola
from .errors import ConfigError, TradesyncError
from .ingest import parse_quotes, parse_trades, select_ticker
from .report import (STAGES, PipelineParams, analyze_asset, assortativity_stage,
                     build_report, dump_report, network_stage, polarization_stage,
                     score_stage, write_activity_tables, write_file,
                     write_network_tables, write_pairs, write_partition_table,
                     write_polarization_tables)
from .synth import Ar1Config, CommunitySpec, SynthConfig, generate, write_synth


# a field annotation (a string: annotations are postponed) -> flag type
_FLAG_TYPES = {"int": int, "int | None": int, "float": float, "str": str}


def _add_flags(p: argparse.ArgumentParser, cls, prefix: str = "") -> None:
    """A flag per field of `cls` of a flag type, with dest <prefix><field>,
    named by the field's metadata (`flag`, None for none) or after the dest;
    the rest of the metadata (metavar, help) goes to add_argument as it is."""
    for f in fields(cls):
        kwargs = {"dest": prefix + f.name, "type": _FLAG_TYPES.get(f.type),
                  "required": f.default is MISSING, **f.metadata}
        flag = kwargs.pop("flag", "--" + kwargs["dest"].replace("_", "-"))
        if p.argument_default is None:  # synth's SUPPRESS leaves unset flags out
            kwargs["default"] = f.default
        if flag is not None and kwargs["type"] is not None:
            p.add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tradesync",
        description="Investor activity, synchronization-network and "
                    "volatility-polarization analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        if name == "synth":
            p = sub.add_parser(name, help="generate a synthetic market dataset",
                               argument_default=argparse.SUPPRESS)
            _add_flags(p, SynthConfig)
            _add_flags(p, Ar1Config, "vol_")
            p.add_argument("--community", action="append", default=[],
                           metavar="SIZE:COUPLING",
                           help="plant a community, e.g. 20:1.0 (repeatable)")
        else:
            p = sub.add_parser(name)
            p.add_argument("--trades", help="trades CSV path")
            p.add_argument("--quotes", action="append", default=[], help=(
                "quotes CSV path (repeat with --ticker for multi-asset runs)"))
            p.add_argument("--ticker", action="append", default=[],
                           help="asset symbol matching a --quotes file")
            p.add_argument("--delimiter", default=",")
            _add_flags(p, PipelineParams)
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default="out")
    return parser


def _from_flags(cls, args, prefix: str = "", **given):
    """`cls` from the flags `_add_flags` made for it, and the `given` fields;
    a field whose flag is not in the namespace keeps its default."""
    flags = vars(args)
    return cls(**given, **{f.name: flags[prefix + f.name] for f in fields(cls)
                           if prefix + f.name in flags})


def _assets(args, single: bool = False) -> list[tuple[str, str]]:
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
    if single and len(tickers) != 1:
        raise TradesyncError("this subcommand takes exactly one --ticker/--quotes pair")
    return list(zip(tickers, args.quotes))


def _read_trades(args):
    if not args.trades:
        raise TradesyncError("--trades is required")
    with open(args.trades, encoding="utf-8-sig") as f:
        return parse_trades(f, args.delimiter)


def _read_quotes(path: str, ticker: str, args):
    with open(path, encoding="utf-8-sig") as f:
        return parse_quotes(f, ticker, args.delimiter)


def _write_asset_tables(analysis, out: str) -> None:
    """The per-asset tables of the stages that ran."""
    os.makedirs(out, exist_ok=True)
    if analysis.net is not None:
        write_network_tables(analysis, out)
    write_partition_table(analysis.partition, out)
    if analysis.scores is not None:
        write_polarization_tables(analysis, out)
    write_activity_tables(analysis.series, out)


def _inputs(args, single: bool):
    """The parameters, worker count and pairs of `report` or a view, each
    checked before any file is read, then the trades, rejects on stderr."""
    params = _from_flags(PipelineParams, args)
    workers = parallel.resolve_workers()
    assets = _assets(args, single)
    parsed = _read_trades(args)
    if parsed.rejects:
        print(parsed.reject_report(), file=sys.stderr)
    return params, workers, assets, parsed


def _run_asset(args, inputs, idx: int, out: str, stages=STAGES, keys=()):
    """`report`'s chain, with `stages` after the front stage, on asset `idx`:
    off-calendar trades are listed on stderr and the tables written to `out`,
    unless a key of `keys` is null in the section, which raises its note."""
    params, workers, assets, parsed = inputs
    ticker, qpath = assets[idx]
    quotes = _read_quotes(qpath, ticker, args)
    analysis = analyze_asset(select_ticker(parsed.records, ticker), quotes, params,
                             root_seed=args.seed, asset_index=idx, workers=workers,
                             stages=stages)
    off = analysis.population["off_calendar_trades"]
    if off:
        print(f"{ticker}: {off} off-calendar trades excluded", file=sys.stderr)
    section = analysis.to_section()
    for key in keys:
        if section[key] is None:
            raise TradesyncError(section["notes"][key])
    _write_asset_tables(analysis, out)
    return analysis, section


def cmd_validate(args) -> int:
    status = 0
    assets = _assets(args)
    try:
        parsed = _read_trades(args)
    except (TradesyncError, OSError) as err:
        print(f"trades: {err}", file=sys.stderr)
        return 2
    print(f"trades: {len(parsed.records)} records, {len(parsed.rejects)} rejects")
    if parsed.rejects:
        print(parsed.reject_report())
    for ticker, path in assets:
        try:
            quotes = _read_quotes(path, ticker, args)
            print(f"quotes {ticker}: {len(quotes)} days")
        except (TradesyncError, OSError) as err:
            print(f"quotes {ticker}: {err}", file=sys.stderr)
            status = 2
    return status


def cmd_volatility(args) -> int:
    _from_flags(PipelineParams, args)  # checks the flags, as every view does
    [(ticker, qpath)] = _assets(args, single=True)
    quotes = _read_quotes(qpath, ticker, args)
    vol = vola.high_low_volatility(quotes)
    os.makedirs(args.out_dir, exist_ok=True)
    write_pairs(os.path.join(args.out_dir, "volatility.tsv"), "date\tnu",
                zip(quotes.days, vol.nu.tolist()))
    return 0


def _activity_extras(analysis, out: str) -> dict:
    """The activity view's node table and Hill sweeps of both tails."""
    series = analysis.series
    with open(os.path.join(out, "activity_nodes.tsv"), "w") as f:
        act.write_nodes(series, series.ids, f)
    return {"hill_sweep": {name: [fit.as_dict() for fit in act.hill_sweep(values)]
                           for name, values in (("activity", series.total_ops),
                                                ("opd", series.opd))}}


# view -> (stages after the front, report-section keys, extra outputs or None)
_VIEWS = {
    "activity": ((), ("tail_fit", "opd_tail_fit"), _activity_extras),
    "meso": ((), ("meso",), None),
    "syncnet": ((network_stage,), ("network",), None),
    "metrics": ((network_stage, score_stage, assortativity_stage),
                ("network", "assortativity"), None),
    "polarization": ((score_stage, polarization_stage), ("polarization",), None),
}


def cmd_view(args) -> int:
    """An analysis view: `report`'s chain on the one --ticker/--quotes pair,
    seeded like `report`'s first asset; a reported key that is null exits
    with its note."""
    stages, keys, extras = _VIEWS[args.command]
    analysis, section = _run_asset(args, _inputs(args, single=True), 0,
                                   args.out_dir, stages, keys)
    view = {"ticker": analysis.ticker, **{key: section[key] for key in keys},
            "notes": section["notes"]}
    if extras is not None:
        view.update(extras(analysis, args.out_dir))
    path = os.path.join(args.out_dir, f"{args.command}.json")
    write_file(path, dump_report, view)
    print(f"{analysis.ticker}: ok -> {path}")
    return 0


def cmd_synth(args) -> int:
    communities = []
    for spec in args.community:
        size, _, coupling = spec.partition(":")
        try:
            kwargs = {"coupling": float(coupling)} if coupling else {}
            communities.append(CommunitySpec(size=int(size), **kwargs))
        except ValueError:
            raise ConfigError(f"--community must be SIZE or SIZE:COUPLING, "
                              f"got {spec!r}") from None
    config = _from_flags(SynthConfig, args, vol=_from_flags(Ar1Config, args, "vol_"),
                         communities=tuple(communities))
    result = generate(config)
    paths = write_synth(result, args.out_dir)
    print(f"synth: {result.agent.size} trades over {config.n_days} days "
          f"-> {paths['trades']}")
    return 0


def cmd_report(args) -> int:
    inputs = _inputs(args, single=False)
    params, _, assets, parsed = inputs
    os.makedirs(args.out_dir, exist_ok=True)
    sections: dict[str, dict] = {}
    failed = []
    for idx, (ticker, _) in enumerate(assets):
        try:
            _, sections[ticker] = _run_asset(args, inputs, idx,
                                             os.path.join(args.out_dir, ticker))
            print(f"{ticker}: ok ({sections[ticker]['network']['edges']} edges)")
        except (TradesyncError, OSError) as err:
            sections[ticker] = {"error": str(err)}
            failed.append(ticker)
            print(f"{ticker}: FAILED ({err})", file=sys.stderr)
    report = build_report(sections, params, args.seed, parsed.rejects)
    write_file(os.path.join(args.out_dir, "report.json"), dump_report, report)
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


if __name__ == "__main__":
    sys.exit(main())
