"""Correctness checks of a `tradesync report` output directory.

The expected values are computed from the input files alone, with plain
numpy, csv and networkx code written from the method's definitions; nothing
here imports the program. Each check is one benchmark operation, and every
workload runs the same fixed list of checks, whatever the seed.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import os
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import networkx as nx
import numpy as np

from markets import Workload

TOL = 1e-9
PLANTED_KEPT = 0.9
# `report` defaults the benchmark leaves in place: --min-days, --opd-cap, --p-level
MIN_DAYS = 20
OPD_CAP = 100
P_LEVEL = 0.01


@dataclass(frozen=True)
class Series:
    """Operations per calendar day of one investor over [first, last]."""

    first: int
    counts: np.ndarray

    @property
    def last(self) -> int:
        return self.first + self.counts.size - 1

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self.counts))


@dataclass
class AssetModel:
    """Everything the checks expect of one asset, recounted from the inputs."""

    ticker: str
    nu: np.ndarray
    trades_input: int
    trades_retained: int
    off_calendar: int
    series: dict[str, Series]
    communities: list[list[str]]

    def nodes(self, min_ops: int) -> list[str]:
        return sorted(inv for inv, s in self.series.items() if s.total >= min_ops)

    def min_ops_for(self, n_nodes: int) -> int:
        """Smallest --min-ops cut that keeps at least n_nodes investors."""
        ranked = sorted((s.total for s in self.series.values()), reverse=True)
        if len(ranked) < n_nodes:
            raise ValueError("market has fewer investors than the node target")
        return ranked[n_nodes - 1]


@dataclass(frozen=True)
class Result:
    name: str
    ok: bool
    detail: str = ""
    known_fault: bool = False  # fails because of a fault the benchmark documents


def _row_key(row: list[str], pos: dict[str, int], needed: int,
             dates: dict[str, str | None]) -> tuple[str, str, str] | None:
    """(investor, ISO date, ticker) of a well-formed trade row, else None.

    A row is well-formed when it has every column, an ISO date, a positive
    integer share count, a positive finite price and a buy/sell side."""
    if len(row) < needed:
        return None
    raw = row[pos["date"]].strip()
    if raw not in dates:
        try:
            dates[raw] = dt.date.fromisoformat(raw).isoformat()
        except ValueError:
            dates[raw] = None
    if dates[raw] is None:
        return None
    try:
        shares = int(row[pos["shares"]])
        price = float(row[pos["price"]])
    except ValueError:
        return None
    if shares <= 0 or not math.isfinite(price) or price <= 0:
        return None
    if row[pos["side"]].strip().lower() not in ("buy", "sell"):
        return None
    return row[pos["investor_id"]].strip(), dates[raw], row[pos["ticker"]].strip()


def _read_quotes(path: str) -> tuple[list[str], np.ndarray]:
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for r in reader:
            rows.append((dt.date.fromisoformat(r["date"].strip()).isoformat(),
                         float(r["open"]), float(r["high"]), float(r["low"])))
    rows.sort()
    days = [r[0] for r in rows]
    nu = np.array([(h - lo) / o for _, o, h, lo in rows])
    return days, nu


def _communities(truth_path: str) -> list[list[str]]:
    with open(truth_path) as f:
        labels = json.load(f)["community"]
    groups: dict[int, list[str]] = defaultdict(list)
    for i, c in enumerate(labels):
        if c >= 0:
            groups[c].append(f"A{i:05d}")
    return [groups[c] for c in sorted(groups)]


def load_market(workload: Workload, trades: str, quotes: list[str],
                truths: list[str]) -> dict[str, AssetModel]:
    """Recount every asset of a market from its trades, quotes and truth files."""
    per_day: dict[str, Counter] = {a.ticker: Counter() for a in workload.assets}
    dates: dict[str, str | None] = {}
    with open(trades, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        pos = {c: header.index(c) for c in
               ("investor_id", "date", "ticker", "shares", "price", "side")}
        needed = max(pos.values()) + 1
        for row in reader:
            if not row:
                continue
            key = _row_key(row, pos, needed, dates)
            if key is not None and key[2] in per_day:
                per_day[key[2]][key[:2]] += 1

    k = workload.auto_filter_k
    models = {}
    for asset, qpath, tpath in zip(workload.assets, quotes, truths):
        days, nu = _read_quotes(qpath)
        ordinal = {d: i for i, d in enumerate(days)}
        counts = per_day[asset.ticker]
        by_investor: dict[str, dict[int, int]] = defaultdict(dict)
        retained = off = 0
        for (inv, day), n in counts.items():
            if k is not None and n > k:
                continue
            retained += n
            if day not in ordinal:
                off += n
                continue
            by_investor[inv][ordinal[day]] = n
        series = {}
        for inv, dc in by_investor.items():
            first, last = min(dc), max(dc)
            arr = np.zeros(last - first + 1, dtype=np.int64)
            for d, n in dc.items():
                arr[d - first] = n
            series[inv] = Series(first, arr)
        models[asset.ticker] = AssetModel(
            ticker=asset.ticker, nu=nu, trades_input=sum(counts.values()),
            trades_retained=retained, off_calendar=off, series=series,
            communities=_communities(tpath) if workload.planted else [])
    return models


# ---------------------------------------------------------------------------
# independent computations

def pop_corr(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation with 1/n moments."""
    xc = x - x.mean()
    yc = y - y.mean()
    return float(np.mean(xc * yc) / math.sqrt(np.mean(xc * xc) * np.mean(yc * yc)))


def hill_alpha(values) -> tuple[float, int, int]:
    xs = sorted((float(v) for v in values), reverse=True)
    k = math.ceil(0.1 * len(xs))
    return k / sum(math.log(xs[j] / xs[k]) for j in range(k)), k, len(xs)


def polarization_scores(model: AssetModel, min_days: int) -> dict[str, tuple[float, int]]:
    """rho_ov and days used per investor: correlation of the investor's
    operations with same-day volatility over their own trading days."""
    out = {}
    for inv, s in model.series.items():
        active = s.counts > 0
        ops = s.counts[active].astype(float)
        nu = model.nu[s.first:s.last + 1][active]
        if ops.size < min_days or ops.min() == ops.max() or nu.min() == nu.max():
            continue
        out[inv] = (min(1.0, max(-1.0, pop_corr(ops, nu))), int(ops.size))
    return out


def endpoint_assortativity(edges: list[tuple[str, str]], score: dict[str, int]
                           ) -> float | None:
    """Newman's (2003) scalar assortativity as the Pearson correlation of the
    attribute over both orientations of every edge with two scored ends."""
    xs, ys = [], []
    for i, j in edges:
        if i in score and j in score:
            xs += [score[i], score[j]]
            ys += [score[j], score[i]]
    if not xs or min(xs) == max(xs):
        return None
    return pop_corr(np.array(xs, float), np.array(ys, float))


# ---------------------------------------------------------------------------
# output tables

def _read_tsv(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f, delimiter="\t"))


@dataclass
class Tables:
    section: dict
    nodes: list[dict[str, str]]
    edges: list[dict[str, str]]
    partition: list[dict[str, str]]
    scores: list[dict[str, str]]

    @classmethod
    def load(cls, report: dict, out_dir: str, ticker: str) -> "Tables":
        section = report["assets"][ticker]
        if "error" in section:
            raise ValueError(f"asset failed: {section['error']}")
        d = os.path.join(out_dir, ticker)
        part = os.path.join(d, "partition.tsv")
        return cls(section=section,
                   nodes=_read_tsv(os.path.join(d, "nodes.tsv")),
                   edges=_read_tsv(os.path.join(d, "edges.tsv")),
                   partition=_read_tsv(part) if os.path.exists(part) else [],
                   scores=_read_tsv(os.path.join(d, "scores.tsv")))

    def edge_pairs(self) -> list[tuple[str, str]]:
        return [(e["i"], e["j"]) for e in self.edges]


def _close(a, b, tol: float = TOL) -> bool:
    return a is not None and b is not None and abs(float(a) - float(b)) <= tol


# ---------------------------------------------------------------------------
# the checks; each returns a failure detail, or "" when it passes

def check_network_size(m: AssetModel, t: Tables, min_ops: int) -> str:
    nodes = m.nodes(min_ops)
    n = len(nodes)
    if [r["investor"] for r in t.nodes] != nodes:
        return f"nodes.tsv lists other investors than the {n} with >= {min_ops} operations"
    for r in t.nodes:
        s = m.series[r["investor"]]
        if (int(r["total_ops"]), int(r["N"]), int(r["T"])) != (s.total, s.n_active, s.counts.size):
            return f"node {r['investor']}: counts differ from the trades file"
    net = t.section["network"]
    d = net["diagnostics"]
    categories = (d["pairs_disjoint"] + d["pairs_short_overlap"]
                  + d["pairs_degenerate"] + d["pairs_tested"])
    if not net["nodes"] == d["nodes"] == n:
        return f"report says {net['nodes']} nodes, expected {n}"
    if not d["pairs_total"] == n * (n - 1) // 2 == categories:
        return f"pairs_total {d['pairs_total']}, categories {categories}, n(n-1)/2 {n * (n - 1) // 2}"
    if not net["edges"] == d["edges_retained"] == len(t.edges):
        return "edge counts of report.json and edges.tsv differ"
    return ""


def check_edge_rho(m: AssetModel, t: Tables) -> str:
    seen = set()
    for e in t.edges:
        i, j = e["i"], e["j"]
        if not i < j or (i, j) in seen:
            return f"edge {i}-{j} out of order or repeated"
        seen.add((i, j))
        a, b = m.series[i], m.series[j]
        start, end = max(a.first, b.first), min(a.last, b.last)
        if int(e["overlap"]) != end - start + 1:
            return f"edge {i}-{j}: overlap {e['overlap']}, expected {end - start + 1}"
        x = a.counts[start - a.first:end - a.first + 1].astype(float)
        y = b.counts[start - b.first:end - b.first + 1].astype(float)
        rho = pop_corr(x, y)
        if not _close(e["rho"], rho):
            return f"edge {i}-{j}: rho {e['rho']}, recomputed {rho!r}"
    return ""


def check_edge_pvalues(t: Tables, w: Workload) -> str:
    for e in t.edges:
        p = float(e["pvalue"])
        hits = p * (w.shuffles + 1)
        if not p < P_LEVEL:
            return f"edge {e['i']}-{e['j']}: p {p} not below {P_LEVEL}"
        if abs(hits - round(hits)) > 1e-6 or round(hits) < 1:
            return f"edge {e['i']}-{e['j']}: p*(shuffles+1) = {hits} is not a positive integer"
    return ""


def check_planted_pairs(m: AssetModel, t: Tables, min_ops: int) -> str:
    """Every planted member is a node and at least PLANTED_KEPT of each
    community's pairs are edges (the program's own recovery criterion)."""
    nodes = set(m.nodes(min_ops))
    edges = set(t.edge_pairs())
    for members in m.communities:
        if not set(members) <= nodes:
            return "a planted community member is not a network node"
        pairs = [(a, b) for k, a in enumerate(members) for b in members[k + 1:]]
        kept = sum(p in edges for p in pairs) / len(pairs)
        if kept < PLANTED_KEPT:
            return f"only {kept:.3f} of a planted community's pairs were kept"
    return ""


def check_modularity(t: Tables) -> str:
    g = nx.Graph()
    g.add_nodes_from(r["investor"] for r in t.nodes)
    g.add_weighted_edges_from((e["i"], e["j"], float(e["rho"])) for e in t.edges)
    groups: dict[str, set] = defaultdict(set)
    for r in t.partition:
        groups[r["community"]].add(r["investor"])
    if sorted(r["investor"] for r in t.partition) != sorted(g.nodes):
        return "partition.tsv does not cover exactly the network nodes"
    q = nx.community.modularity(g, list(groups.values()), weight="weight")
    if not _close(t.section["network"]["modularity"], q):
        return f"modularity {t.section['network']['modularity']}, networkx {q!r}"
    return ""


def check_assortativity(t: Tables, name: str, score: dict[str, int], w: Workload) -> str:
    expected = endpoint_assortativity(t.edge_pairs(), score)
    got = t.section["assortativity"][name]
    if expected is None or got is None:
        return "" if expected is got else f"r is {got and got['r']}, expected {expected}"
    if not _close(got["r"], expected):
        return f"r {got['r']}, endpoint correlation {expected!r}"
    for null in ("null_rewire", "null_shuffle"):
        s = got[null]
        # The mean need not lie inside the 2.5-97.5 percentile interval: when
        # nearly every replica gives one r, a few outliers pull it outside.
        if not -1.0 <= s["ci95_low"] <= s["ci95_high"] <= 1.0 or abs(s["mean"]) > 1.0:
            return f"{null}: interval {s['ci95_low']}..{s['ci95_high']} or mean {s['mean']} out of order"
        if s["replicas"] != w.replicas:
            return f"{null}: {s['replicas']} replicas, requested {w.replicas}"
    return ""


def rho_ov_attribute(t: Tables) -> dict[str, int]:
    """Integer rho_ov score (truncated hundredths) of each scored node."""
    nodes = {r["investor"] for r in t.nodes}
    return {r["investor"]: int(float(r["rho_ov"]) * 100)
            for r in t.scores if r["investor"] in nodes}


def opd_attribute(m: AssetModel, t: Tables) -> dict[str, int]:
    """Integer operations-per-day score of each node, capped."""
    out = {}
    for r in t.nodes:
        s = m.series[r["investor"]]
        out[r["investor"]] = min(int(s.total / s.n_active), OPD_CAP)
    return out


def check_polarization(m: AssetModel, t: Tables) -> str:
    expected = polarization_scores(m, MIN_DAYS)
    got = {r["investor"]: (float(r["rho_ov"]), int(r["days_used"])) for r in t.scores}
    if set(got) != set(expected):
        return f"{len(got)} scored investors, expected {len(expected)}"
    for inv, (rho, days) in expected.items():
        if days != got[inv][1] or not _close(got[inv][0], rho):
            return f"{inv}: rho_ov {got[inv][0]}, recomputed {rho!r}"
    vals = np.array([expected[inv][0] for inv in sorted(expected)])
    pol = t.section["polarization"]
    if pol is None:
        return "polarization section is null"
    if pol["scored"] != vals.size:
        return f"scored {pol['scored']}, expected {vals.size}"
    if not (_close(pol["mean"], vals.mean()) and _close(pol["variance"], vals.var())):
        return f"mean/variance {pol['mean']}/{pol['variance']}, recomputed {vals.mean()}/{vals.var()}"
    return ""


def check_variance_ratio(t: Tables) -> str:
    pol = t.section["polarization"]
    if pol is None:
        return "polarization section is null"
    ratio = pol["variance"] / pol["shuffled_variance"]
    if not _close(pol["variance_ratio"], ratio, TOL * max(1.0, ratio)):
        return f"variance_ratio {pol['variance_ratio']} != variance / shuffled_variance"
    if not pol["variance_ratio"] > 1.0:
        return f"variance_ratio {pol['variance_ratio']} <= 1 despite planted beta spread"
    return ""


def check_meso_long(m: AssetModel, t: Tables) -> str:
    ops = np.zeros(m.nu.size)
    for s in m.series.values():
        ops[s.first:s.last + 1] += s.counts
    expected = pop_corr(ops, m.nu)
    if not _close(t.section["meso"]["long"], expected):
        return f"meso long {t.section['meso']['long']}, recomputed {expected!r}"
    return ""


def check_hill(m: AssetModel, t: Tables) -> str:
    totals = [s.total for s in m.series.values()]
    opds = [s.total / s.n_active for s in m.series.values()]
    for key, vals in (("tail_fit", totals), ("opd_tail_fit", opds)):
        alpha, k, n = hill_alpha(vals)
        fit = t.section[key]
        if fit is None or (fit["k"], fit["n"]) != (k, n) \
                or not _close(fit["alpha"], alpha, TOL * alpha):
            return f"{key} {fit}, recomputed alpha {alpha!r} (k={k}, n={n})"
    return ""


def check_population(m: AssetModel, t: Tables) -> str:
    pop = t.section["population"]
    expected = {
        "trades_input": m.trades_input,
        "trades_after_auto_filter": m.trades_retained,
        "off_calendar_trades": m.off_calendar,
        "investors": len(m.series),
        "operations": sum(s.total for s in m.series.values()),
    }
    wrong = {k: (pop.get(k), v) for k, v in expected.items() if pop.get(k) != v}
    return f"(reported, recounted): {wrong}" if wrong else ""


def asset_checks(w: Workload) -> dict[str, Callable[[AssetModel, Tables, int], str]]:
    """The checks run on every asset of the workload, by name; each takes
    the recounted asset, the output tables and --min-ops."""
    checks = {
        "analysed": lambda m, t, min_ops: "",
        "network_size": lambda m, t, min_ops: check_network_size(m, t, min_ops),
        "edge_rho": lambda m, t, min_ops: check_edge_rho(m, t),
        "edge_pvalues": lambda m, t, min_ops: check_edge_pvalues(t, w),
        "planted_pairs": lambda m, t, min_ops: check_planted_pairs(m, t, min_ops),
        "modularity": lambda m, t, min_ops: check_modularity(t),
        "assortativity_rho_ov": lambda m, t, min_ops: check_assortativity(
            t, "rho_ov", rho_ov_attribute(t), w),
        "assortativity_opd": lambda m, t, min_ops: check_assortativity(
            t, "opd", opd_attribute(m, t), w),
        "polarization": lambda m, t, min_ops: check_polarization(m, t),
        "variance_ratio": lambda m, t, min_ops: check_variance_ratio(t),
        "meso_long": lambda m, t, min_ops: check_meso_long(m, t),
        "hill_alpha": lambda m, t, min_ops: check_hill(m, t),
        "population_counts": lambda m, t, min_ops: check_population(m, t),
    }
    skip = set(w.omit)
    if not w.planted:
        skip.add("planted_pairs")
    if not w.beta_spread:
        skip.add("variance_ratio")
    return {name: fn for name, fn in checks.items() if name not in skip}


def check_report(w: Workload, models: dict[str, AssetModel], min_ops: int,
                 out_dir: str, stderr_text: str) -> list[Result]:
    """Run every check of the workload on one report output directory.

    The list has the same length for every run of a workload: a missing or
    unreadable output fails the checks that need it instead of dropping them.
    """
    results: list[Result] = []
    report_text = ""
    try:
        with open(os.path.join(out_dir, "report.json")) as f:
            report_text = f.read()
        report = json.loads(report_text)
    except (OSError, ValueError) as err:
        report = None
        load_error = f"report.json unreadable: {err}"
    for ticker, m in models.items():
        tables = None
        if report is not None:
            try:
                tables = Tables.load(report, out_dir, ticker)
            except (KeyError, OSError, ValueError) as err:
                load_error = str(err)
        for name, check in asset_checks(w).items():
            if tables is None:
                results.append(Result(f"{ticker}.{name}", False, load_error))
                continue
            try:
                detail = check(m, tables, min_ops)
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
                detail = f"{type(err).__name__}: {err}"
            results.append(Result(f"{ticker}.{name}", not detail, detail))
    for lineno, _ in w.inject:
        pattern = re.compile(rf"\bline {lineno}\b")
        ok = bool(pattern.search(stderr_text) or pattern.search(report_text))
        results.append(Result(f"reject_line_{lineno}", ok,
                              "" if ok else "report did not name this malformed row",
                              known_fault=True))
    return results
