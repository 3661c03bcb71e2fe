"""Tests of the benchmark itself: every check passes on a tiny market made by
the program, and each check fails once its output is corrupted.

    python3 -m pytest bench/test_bench.py -q

Run from the repository root; the tiny markets take a few seconds each.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import pytest

import run
from checks import check_report, load_market
from layers import layer_metrics, self_times
from markets import OMIT_OPD_ASSORTATIVITY, Asset, Workload

ROOT = Path(__file__).resolve().parent.parent
TINY_REJECTS = ((2, "A00001,2000-13-45,AAA,100,10.0,buy"),
                (40, "A00002,2000-01-04,BBB,100,10.0,hold"))

TINY = Workload(
    "tiny",
    (Asset("SYN", ("--agents", "60", "--days", "120", "--beta-mean", "0.4",
                   "--community", "8:1.0", "--base-rate-scale", "0.1"), 0),),
    node_target=20, shuffles=199, replicas=20, planted=True, beta_spread=True)

TINY_PAIR = Workload(
    "tiny_pair",
    tuple(Asset(t, ("--agents", "80", "--days", "150", "--base-rate-scale", "0.2",
                    "--rate-cap", "0.5", "--beta-mean", "0.3", "--community", "6:1.0",
                    "--community", "6:1.0",
                    "--ticker", t), off)
          for t, off in (("AAA", 0), ("BBB", 1))),
    node_target=16, shuffles=199, replicas=20, planted=False, beta_spread=False,
    auto_filter_k=5, inject=TINY_REJECTS, omit=OMIT_OPD_ASSORTATIVITY)


def make_run(w: Workload, seed: int, base: Path) -> dict:
    """Build the market, run `tradesync report` once, and return what the
    checks need."""
    env = run.child_env(ROOT, "1")
    logs = base / "logs"
    logs.mkdir(parents=True)
    market = run.build_market(w, seed, base / "market", logs, env)
    models = load_market(w, market.trades, market.quotes, market.truths)
    min_ops = min(m.min_ops_for(w.node_target) for m in models.values())
    out = base / "out"
    args = run.report_command(w, market.trades, market.quotes, min_ops, seed, str(out))
    proc = run.run_measured(run.tradesync(*args), env, logs / "report.log")
    assert proc.rc == 0, proc.stderr
    return {"w": w, "models": models, "min_ops": min_ops, "out": out,
            "stderr": proc.stderr}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    return make_run(TINY, 3, tmp_path_factory.mktemp("tiny"))


def failing(r: dict, out: Path | None = None, stderr: str | None = None) -> set[str]:
    results = check_report(r["w"], r["models"], r["min_ops"], str(out or r["out"]),
                           r["stderr"] if stderr is None else stderr)
    return {x.name for x in results if not x.ok}


@pytest.mark.parametrize("w, seed", [(TINY, 3), (TINY, 11), (TINY_PAIR, 5)],
                         ids=["tiny-3", "tiny-11", "tiny_pair-5"])
def test_every_check_passes_on_a_tiny_market(w, seed, tmp_path):
    r = make_run(w, seed, tmp_path)
    stderr = "".join(f"line {n}: malformed\n" for n, _ in w.inject)
    assert failing(r, stderr=stderr) == set()


def test_reject_checks_fail_while_report_hides_rejects(tmp_path):
    w = Workload("tiny_rejects", TINY.assets, node_target=20, shuffles=199,
                 replicas=20, planted=True, beta_spread=True, inject=TINY_REJECTS)
    r = make_run(w, 3, tmp_path)
    results = check_report(w, r["models"], r["min_ops"], str(r["out"]), "")
    rejects = [x for x in results if x.name.startswith("reject_line_")]
    assert len(rejects) == len(TINY_REJECTS)
    assert all(not x.ok and x.known_fault for x in rejects)


def _corrupt_copy(r: dict, tmp_path: Path) -> Path:
    out = tmp_path / "corrupt"
    shutil.copytree(r["out"], out)
    return out


def _edit_tsv(path: Path, edit) -> None:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f, delimiter="\t"))
        fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fields, delimiter="\t", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _edit_report(out: Path, edit) -> None:
    path = out / "report.json"
    report = json.loads(path.read_text())
    edit(report["assets"]["SYN"])
    path.write_text(json.dumps(report))


def _nudge_rho(rows):
    rows[0]["rho"] = repr(float(rows[0]["rho"]) + 1e-6)


def _pvalue_off_grid(rows):
    rows[0]["pvalue"] = repr(float(rows[0]["pvalue"]) + 1e-4)


def _drop_planted_edges(rows):
    planted = {f"A{i:05d}" for i in range(8)}
    inside = [k for k, e in enumerate(rows) if e["i"] in planted and e["j"] in planted]
    for k in reversed(inside[:4]):
        del rows[k]


def _nudge_score(rows):
    rows[0]["rho_ov"] = repr(float(rows[0]["rho_ov"]) + 1e-6)


def _drop_node(rows):
    del rows[-1]


TSV_CORRUPTIONS = [
    ("edges.tsv", _nudge_rho, "SYN.edge_rho"),
    ("edges.tsv", _pvalue_off_grid, "SYN.edge_pvalues"),
    ("edges.tsv", _drop_planted_edges, "SYN.planted_pairs"),
    ("scores.tsv", _nudge_score, "SYN.polarization"),
    ("nodes.tsv", _drop_node, "SYN.network_size"),
]


@pytest.mark.parametrize("table, edit, check", TSV_CORRUPTIONS,
                         ids=[c[2] for c in TSV_CORRUPTIONS])
def test_corrupted_table_fails_its_check(tiny, tmp_path, table, edit, check):
    out = _corrupt_copy(tiny, tmp_path)
    _edit_tsv(out / "SYN" / table, edit)
    assert check in failing(tiny, out)


def test_swapped_partition_label_fails_modularity(tiny, tmp_path):
    out = _corrupt_copy(tiny, tmp_path)
    with open(out / "SYN" / "edges.tsv") as f:
        connected = next(csv.DictReader(f, delimiter="\t"))["i"]

    def swap(rows):
        labels = sorted({r["community"] for r in rows})
        row = next(r for r in rows if r["investor"] == connected)
        row["community"] = next(c for c in labels if c != row["community"])
    _edit_tsv(out / "SYN" / "partition.tsv", swap)
    assert "SYN.modularity" in failing(tiny, out)


def _scale(path: tuple, factor: float):
    def edit(section):
        node = section
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] *= factor
    return edit


REPORT_CORRUPTIONS = [
    (("assortativity", "rho_ov", "r"), "SYN.assortativity_rho_ov"),
    (("assortativity", "opd", "r"), "SYN.assortativity_opd"),
    (("polarization", "variance"), "SYN.polarization"),
    (("polarization", "variance_ratio"), "SYN.variance_ratio"),
    (("meso", "long"), "SYN.meso_long"),
    (("tail_fit", "alpha"), "SYN.hill_alpha"),
    (("network", "modularity"), "SYN.modularity"),
]


@pytest.mark.parametrize("path, check", REPORT_CORRUPTIONS, ids=[c[1] for c in REPORT_CORRUPTIONS])
def test_corrupted_report_value_fails_its_check(tiny, tmp_path, path, check):
    out = _corrupt_copy(tiny, tmp_path)
    _edit_report(out, _scale(path, 1 + 1e-6))
    assert check in failing(tiny, out)


def test_wrong_null_stats_and_trade_count_fail(tiny, tmp_path):
    out = _corrupt_copy(tiny, tmp_path)

    def edit(section):
        section["assortativity"]["opd"]["null_shuffle"]["replicas"] += 1
        rewire = section["assortativity"]["rho_ov"]["null_rewire"]
        rewire["ci95_low"] = rewire["ci95_high"] + 0.01
        section["population"]["trades_input"] += 1
    _edit_report(out, edit)
    assert {"SYN.assortativity_opd", "SYN.assortativity_rho_ov",
            "SYN.population_counts"} <= failing(tiny, out)


def test_missing_report_fails_every_check_and_keeps_the_count(tiny, tmp_path):
    out = _corrupt_copy(tiny, tmp_path)
    (out / "report.json").unlink()
    results = check_report(TINY, tiny["models"], tiny["min_ops"], str(out), "")
    passing = check_report(TINY, tiny["models"], tiny["min_ops"], str(tiny["out"]), "")
    assert len(results) == len(passing)
    assert not any(x.ok for x in results)


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "report.analyze", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "syncnet.build", "parent": 0, "start": 1.0, "end": 5.0},
        {"name": "netmetrics.rewire", "parent": 0, "start": 5.0, "end": 8.0},
    ]
    assert self_times(spans) == [3.0, 4.0, 3.0]


def test_merged_spans_keep_their_parents(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    span = {"name": "x", "start": 0.0, "end": 1.0}
    a.write_text(json.dumps({"spans": [{**span, "parent": None}]}))
    b.write_text(json.dumps({"spans": [{**span, "parent": None}, {**span, "parent": 0}]}))
    assert [s["parent"] for s in run.merge_spans([a, b])] == [None, None, 1]


def test_traced_run_matches_untraced_output(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    res = run.run_workload("tiny", 3, 0.0, True, ROOT, workers="1")
    shutil.rmtree(run.HERE / "_work" / "tiny")
    assert res["correct"] and res["failed"] == 0
    layers = res["per_layer"]
    assert layers["syncnet.pairs_tested"] > 0 and layers["ingest.trades"] > 0
    assert layers["syncnet.shuffles_per_pair"] == TINY.shuffles
    assert layers["synth.generate_s"] > 0 and layers["report.analyze_self_s"] > 0
    assert set(layers) == set(layer_metrics([])) | {"cli.output_bytes", "trace.overhead_s"}


def test_calibrator_measures_and_stops_its_processes():
    with run.Calibrator(run.child_env(ROOT, "1")) as calibrator:
        first, second = calibrator.measure(), calibrator.measure()
        procs = calibrator.procs
    assert len(procs) == run.CALIBRATION_PROCS
    assert all(p.returncode == 0 for p in procs)
    assert min(first.wall_s, first.cpu_s, second.wall_s, second.cpu_s) > 0
