"""Run one `tradesync` command in this process with timing wrappers around the
public functions of each module, and write the recorded spans to a JSON file.

    python3 bench/tracer.py --spans SPANS.json -- report --trades ... --out-dir OUT

The wrappers live here, not in the program: each replaces a module-level
function in every `tradesync` module that imported it. Spans are kept in
memory and written once the command has returned. The spans file must lie
outside the command's --out-dir, so the traced output stays byte-identical to
an untraced run.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time

# (module, function, span name). A span name is the layer metric it feeds.
TARGETS = (
    ("ingest", "parse_trades", "ingest.parse"),
    ("ingest", "select_ticker", "ingest.filter"),
    ("ingest", "filter_automatic", "ingest.filter"),
    ("ingest", "split_off_calendar", "ingest.filter"),
    ("activity", "build_activity", "activity.build"),
    ("volatility", "high_low_volatility", "volatility.meso"),
    ("volatility", "meso_series", "volatility.meso"),
    ("volatility", "meso_long_correlation", "volatility.meso"),
    ("volatility", "meso_short_correlation", "volatility.meso"),
    ("syncnet", "build_sync_network", "syncnet.build"),
    ("netmetrics", "louvain", "netmetrics.louvain"),
    ("netmetrics", "assortativity", "netmetrics.assortativity"),
    ("netmetrics", "null_rewire", "netmetrics.rewire"),
    ("netmetrics", "null_shuffle", "netmetrics.shuffle"),
    ("polarization", "score_population", "polarization.score"),
    ("polarization", "shuffled_baseline", "polarization.baseline"),
    ("report", "analyze_asset", "report.analyze"),
    ("report", "build_report", "cli.write"),
    ("report", "dump_report", "cli.write"),
    ("cli", "_write_asset_tables", "cli.write"),
    ("synth", "generate", "synth.generate"),
    ("synth", "write_synth", "synth.write"),
)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _rss_bytes() -> int:
    """Current resident set size of this process, 0 where /proc is absent."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * resource.getpagesize()
    except OSError:
        return 0


def _counts(name: str, args, kwargs, result) -> dict:
    """Work counts read off a call's arguments and result."""
    if name == "ingest.parse":
        return {"trades": len(result.records), "rejects": len(result.rejects)}
    if name == "activity.build":
        return {"investors": len(result)}
    if name == "syncnet.build":
        d = result.diagnostics
        return {"pairs_tested": d["pairs_tested"], "edges": d["edges_retained"],
                "shuffles": d["shuffles"]}
    if name in ("netmetrics.rewire", "netmetrics.shuffle"):
        net, attribute = args[0], args[1]
        replicas = kwargs.get("replicas", args[2] if len(args) > 2 else 1000)
        scored = sum(1 for e in net.edges if e.i in attribute and e.j in attribute)
        return {"replicas": replicas, "edges_scored": scored}
    if name == "polarization.score":
        return {"scored": len(result[0])}
    if name == "polarization.baseline":
        return {"replicas": len(result.replica_variances)}
    return {}


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span, the
    process's own CPU and its reaped children's CPU over the call, and the
    growth of resident memory from its start to its end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter()}
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            cpu0, child0, rss0 = time.process_time(), _children_cpu(), _rss_bytes()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu_self"] = time.process_time() - cpu0
                span["cpu_children"] = _children_cpu() - child0
                span["rss_growth"] = _rss_bytes() - rss0
                self._stack.pop()
            span["counts"] = _counts(name, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Replace each target function in every loaded tradesync module that
        holds it, so calls through any import path are recorded."""
        import tradesync.cli  # noqa: F401  loads every module the CLI uses
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tradesync" or n.startswith("tradesync.")]
        for mod_name, fn_name, span in TARGETS:
            original = getattr(sys.modules[f"tradesync.{mod_name}"], fn_name)
            wrapped = self.wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="output JSON file of spans")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- followed by tradesync arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    tracer = Tracer()
    tracer.install()
    from tradesync.cli import main as cli_main
    start = time.perf_counter()
    rc = cli_main(command)
    wall = time.perf_counter() - start
    with open(args.spans, "w") as f:
        json.dump({"command": command, "exit": rc, "wall_s": wall,
                   "spans": tracer.spans}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
