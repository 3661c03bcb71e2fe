"""The benchmark's synthetic markets: how each workload's input files are
generated with `tradesync synth`, and the `tradesync report` flags used on them.

Every market is a fixed function of the workload seed. The program only ever
sees the generated files and the command-line flags built here.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

# Malformed trade rows injected into the `population` trades file at fixed line
# numbers. They never depend on the seed; the program must reject each one and
# `report` is expected to name it as `line <n>: <reason>`.
INJECTED_ROWS = (
    (2, "A00001,2000-13-45,AAA,100,10.0,buy"),        # bad date
    (1001, "A00002,2000-01-04,AAA,100,10.0,hold"),    # bad side
    (10001, "A00003,2000-01-04,AAA,0,10.0,sell"),     # non-positive shares
    (50001, "A00004,2000-01-04,AAA,100,abc,buy"),     # bad price
    (75001, "A00005,2000-01-04,BBB"),                 # wrong field count
    (100001, "A00006,2000-01-04,BBB,100,-1.5,sell"),  # non-positive price
)


@dataclass(frozen=True)
class Asset:
    ticker: str
    synth_args: tuple[str, ...]  # `tradesync synth` flags besides --seed/--out-dir
    seed_offset: int             # synth seed = 2 * workload seed + offset


@dataclass(frozen=True)
class Workload:
    name: str
    assets: tuple[Asset, ...]
    node_target: int    # --min-ops is set so every asset has >= this many nodes
    shuffles: int
    replicas: int
    planted: bool       # planted communities: 90% of their pairs must be kept
    beta_spread: bool   # planted beta spread: variance_ratio must exceed 1
    auto_filter_k: int | None = None
    inject: tuple[tuple[int, str], ...] = ()  # (line, row) put into the trades file
    omit: tuple[str, ...] = ()  # checks left out, see OMIT_OPD_ASSORTATIVITY


# `report` drops the opd assortativity (r and both nulls) whenever one
# shuffle-null replica puts a single opd value on every edge endpoint. Where
# most nodes share one opd value, as on sparse_sync and population, that
# happens on some seeds only, so the check cannot count as a fixed share of
# operations and is left out there.
OMIT_OPD_ASSORTATIVITY = ("assortativity_opd",)

# The sparse_sync network is mostly the planted 8-clique. On some seeds (11 of
# 1 to 20) the rewire null finds no valid swap, and `report` then drops the
# rho_ov assortativity too, so neither assortativity is checked there.
OMIT_SPARSE_ASSORTATIVITY = OMIT_OPD_ASSORTATIVITY + ("assortativity_rho_ov",)

WORKLOADS = {
    # No mean volatility coupling and one planted community: almost every
    # tested pair is null, so the pair kernel at 999 shuffles does the work.
    # The rate cap keeps the trade count, and so peak memory, steady.
    "sparse_sync": Workload(
        "sparse_sync",
        (Asset("SYN", ("--agents", "300", "--days", "500", "--rate-cap", "1",
                       "--community", "8:1.0"), 0),),
        node_target=30, shuffles=999, replicas=20,
        planted=True, beta_spread=False, omit=OMIT_SPARSE_ASSORTATIVITY),
    # Volatility-coupled agents and two planted communities of 28: about 30%
    # of the pairs are kept (~770 edges), so the rewire null is the largest
    # stage. The rate cap keeps every planted member among the nodes.
    "dense_sync": Workload(
        "dense_sync",
        (Asset("SYN", ("--agents", "400", "--days", "250", "--rate-cap", "0.5",
                       "--beta-mean", "0.1", "--beta-sd", "0.3",
                       "--community", "28:1.0", "--community", "28:1.0"), 0),),
        node_target=72, shuffles=199, replicas=80,
        planted=True, beta_spread=True),
    # ~30,000 investors in two assets in one trades file, ~130k rows: ingest,
    # activity, the threshold filter and polarization dominate.
    "population": Workload(
        "population",
        tuple(Asset(t, ("--agents", "30000", "--days", "250", "--alpha", "1.5",
                        "--beta-mean", "0.4", "--base-rate-scale", "0.0029",
                        "--ticker", t), off)
              for t, off in (("AAA", 0), ("BBB", 1))),
        node_target=30, shuffles=199, replicas=20,
        planted=False, beta_spread=False, auto_filter_k=10, inject=INJECTED_ROWS,
        omit=OMIT_OPD_ASSORTATIVITY),
}


def synth_command(asset: Asset, seed: int, out_dir: str) -> list[str]:
    return ["synth", *asset.synth_args, "--seed", str(2 * seed + asset.seed_offset),
            "--out-dir", out_dir]


def merge_trades(workload: Workload, asset_dirs: list[str], path: str) -> None:
    """Concatenate the assets' trades files under one header, then put the
    injected rows at their fixed line numbers."""
    with open(path, "w") as out:
        for k, d in enumerate(asset_dirs):
            with open(os.path.join(d, "trades.csv")) as f:
                if k:
                    f.readline()
                shutil.copyfileobj(f, out)
    if not workload.inject:
        return
    with open(path) as f:
        lines = f.readlines()
    for lineno, row in workload.inject:
        if lineno > len(lines) + 1:
            raise RuntimeError(f"trades file too short to inject line {lineno}")
        lines.insert(lineno - 1, row + "\n")
    with open(path, "w") as f:
        f.writelines(lines)


def report_command(workload: Workload, trades: str, quotes: list[str],
                   min_ops: int, seed: int, out_dir: str) -> list[str]:
    cmd = ["report", "--trades", trades]
    for asset, q in zip(workload.assets, quotes):
        cmd += ["--ticker", asset.ticker, "--quotes", q]
    cmd += ["--shuffles", str(workload.shuffles), "--replicas", str(workload.replicas),
            "--min-ops", str(min_ops), "--seed", str(seed), "--out-dir", out_dir]
    if workload.auto_filter_k is not None:
        cmd += ["--auto-filter", f"threshold:{workload.auto_filter_k}"]
    return cmd
