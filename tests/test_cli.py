import json
import multiprocessing
import os
import re

import pytest

from tradesync import netmetrics, parallel
from tradesync.cli import main


@pytest.fixture(autouse=True)
def _single_worker(monkeypatch):
    monkeypatch.setenv("TRADESYNC_WORKERS", "1")


@pytest.fixture()
def synth_data(tmp_path):
    data = tmp_path / "data"
    rc = main(["synth", "--agents", "60", "--days", "120", "--beta-mean", "0.4",
               "--community", "8:1.0", "--base-rate-scale", "0.1",
               "--seed", "3", "--out-dir", str(data)])
    assert rc == 0
    return data


def _common(synth_data, out, extra=()):
    return ["--trades", str(synth_data / "trades.csv"),
            "--quotes", str(synth_data / "quotes.csv"),
            "--ticker", "SYN", "--shuffles", "199", "--replicas", "50",
            "--seed", "5", "--out-dir", str(out), *extra]


def test_validate_ok(synth_data, tmp_path, capsys):
    rc = main(["validate"] + _common(synth_data, tmp_path / "v"))
    assert rc == 0
    assert "records, 0 rejects" in capsys.readouterr().out


def test_validate_bad_quotes_names_row(tmp_path, capsys):
    trades = tmp_path / "t.csv"
    trades.write_text("investor_id,date,ticker,shares,price,side\n"
                      "A,2003-01-06,SYN,1,1.5,buy\n")
    quotes = tmp_path / "q.csv"
    quotes.write_text("date,open,high,low\n"
                      "2003-01-06,100,105,95\n"
                      "2003-01-07,100,95,105\n")
    rc = main(["validate", "--trades", str(trades), "--quotes", str(quotes),
               "--ticker", "SYN"])
    assert rc != 0
    assert "line 3" in capsys.readouterr().err


def test_missing_input_file(tmp_path, capsys):
    rc = main(["activity", "--trades", str(tmp_path / "nope.csv"),
               "--quotes", str(tmp_path / "nope2.csv"), "--ticker", "X",
               "--out-dir", str(tmp_path / "o")])
    assert rc != 0
    assert capsys.readouterr().err


def test_unknown_flag_exits_nonzero(synth_data, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--bogus-flag", "1"])
    assert exc.value.code != 0


def test_permute_flag_removed(synth_data, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["syncnet", "--permute", "single"] + _common(synth_data, tmp_path / "p"))
    assert exc.value.code != 0


def test_activity_outputs(synth_data, tmp_path):
    out = tmp_path / "act"
    rc = main(["activity"] + _common(synth_data, out))
    assert rc == 0
    for name in ("activity_nodes.tsv", "activity_ccdf.tsv", "opd_ccdf.tsv",
                 "ops_vs_days.tsv", "tail_fits.json"):
        assert (out / name).exists()
    fits = json.loads((out / "tail_fits.json").read_text())
    assert set(fits) == {"activity", "opd"}
    assert fits["activity"]["fit"]["alpha"] > 0


def test_volatility_output(synth_data, tmp_path):
    out = tmp_path / "vol"
    rc = main(["volatility"] + _common(synth_data, out))
    assert rc == 0
    lines = (out / "volatility.tsv").read_text().splitlines()
    assert lines[0] == "date\tnu"
    assert len(lines) == 121


def test_meso_output(synth_data, tmp_path):
    out = tmp_path / "meso"
    rc = main(["meso"] + _common(synth_data, out))
    assert rc == 0
    meso = json.loads((out / "meso.json").read_text())
    assert set(meso) >= {"ticker", "long", "short"}
    assert -1 <= meso["long"] <= 1


def test_syncnet_outputs(synth_data, tmp_path):
    out = tmp_path / "net"
    rc = main(["syncnet"] + _common(synth_data, out))
    assert rc == 0
    edges = (out / "edges.tsv").read_text().splitlines()
    assert edges[0] == "i\tj\trho\toverlap\tpvalue"
    diag = json.loads((out / "syncnet_diagnostics.json").read_text())
    assert diag["edges_retained"] == len(edges) - 1
    assert (out / "nodes.tsv").exists()


def test_nodes_table_is_the_network_rows_of_the_activity_table(synth_data, tmp_path):
    assert main(["activity"] + _common(synth_data, tmp_path / "act")) == 0
    assert main(["syncnet"] + _common(synth_data, tmp_path / "net")) == 0
    header, *rows = (tmp_path / "act" / "activity_nodes.tsv").read_text().splitlines()
    nodes = (tmp_path / "net" / "nodes.tsv").read_text().splitlines()
    diag = json.loads((tmp_path / "net" / "syncnet_diagnostics.json").read_text())
    # network nodes are the investors with at least --min-ops (20) operations
    network_rows = [r for r in rows if int(r.split("\t")[1]) >= 20]
    assert len(network_rows) == diag["nodes"] < len(rows)
    assert nodes == [header] + network_rows


def test_metrics_outputs(synth_data, tmp_path):
    out = tmp_path / "met"
    rc = main(["metrics"] + _common(synth_data, out))
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert "assortativity" in metrics
    assert metrics["modularity"] is None or -1 <= metrics["modularity"] <= 1


def test_polarization_outputs(synth_data, tmp_path):
    out = tmp_path / "pol"
    rc = main(["polarization"] + _common(synth_data, out))
    assert rc == 0
    summary = json.loads((out / "polarization.json").read_text())
    assert summary["variance_ratio"] > 0
    assert (out / "scores.tsv").exists()
    assert (out / "rho_histogram.tsv").exists()


@pytest.mark.parametrize("cmd,extra,message", [
    ("polarization", ("--min-days", "500", "--min-ops", "5"), "no polarization scores"),
    ("activity", ("--hill-k", "100000"), "k must satisfy"),
])
def test_failing_subcommand_writes_no_table(synth_data, tmp_path, capsys, cmd,
                                            extra, message):
    out = tmp_path / cmd
    assert main([cmd] + _common(synth_data, out, extra)) == 2
    assert message in capsys.readouterr().err
    assert not any(out.glob("*"))


def test_report_end_to_end_and_determinism(synth_data, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    before = (synth_data / "trades.csv").read_bytes()
    assert main(["report"] + _common(synth_data, out1)) == 0
    assert main(["report"] + _common(synth_data, out2)) == 0
    assert (synth_data / "trades.csv").read_bytes() == before  # inputs untouched
    r1 = (out1 / "report.json").read_bytes()
    r2 = (out2 / "report.json").read_bytes()
    assert r1 == r2
    report = json.loads(r1)
    assert report["version"] == "5"
    assert report["run"]["seed"] == 5
    assert report["run"]["trade_rejects"] == 0
    assert "permute" not in report["run"]["defaults"]
    section = report["assets"]["SYN"]
    assert section["network"]["nodes"] >= 8
    assert section["meso"]["long"] is not None
    for name in ("edges.tsv", "nodes.tsv", "scores.tsv"):
        assert (out1 / "SYN" / name).exists()


@pytest.mark.parametrize("shuffles", ["199", "99"])
def test_report_rejects_zero_replicas(synth_data, tmp_path, capsys, shuffles):
    out = tmp_path / "zero"
    args = _common(synth_data, out)
    args[args.index("--replicas") + 1] = "0"
    args[args.index("--shuffles") + 1] = shuffles
    assert main(["report"] + args) == 2
    assert "replicas must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--shuffles", "0", "0 shuffles cannot give a p-value below p_level 0.01"),
    ("--shuffles", "10", "10 shuffles cannot give a p-value below p_level 0.01"),
    ("--p-level", "2", "p_level must lie in (0, 1), got 2.0"),
    ("--p-level", "0", "p_level must lie in (0, 1), got 0.0"),
    ("--swap-factor", "-3", "swap_factor must be at least 1, got -3"),
    ("--bins", "0", "bins must be at least 1, got 0"),
    ("--min-ops", "0", "min_ops must be at least 1, got 0"),
    ("--min-days", "-1", "min_days must be at least 1, got -1"),
    ("--hill-k", "0", "hill_k must be at least 1, got 0"),
    ("--opd-cap", "-1", "opd_cap must be at least 1, got -1"),
    ("--ma-window", "0", "ma_window must be at least 2, got 0"),
    ("--ma-window", "1", "ma_window must be at least 2, got 1"),
    ("--ma-mode", "centered --ma-window 4",
     "centered moving average needs an odd ma_window, got 4"),
    ("--auto-filter", "bogus", "unknown auto-filter policy 'bogus'"),
    ("--auto-filter", "threshold:0", "threshold policy needs k >= 1"),
    ("--auto-filter", "threshold:x", "threshold policy needs an integer k, got 'x'"),
])
def test_report_rejects_out_of_range_parameters(synth_data, tmp_path, capsys, flag,
                                                value, message):
    out = tmp_path / "bad"
    assert main(["report"] + _common(synth_data, out, (flag, *value.split()))) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_report_rejects_non_finite_quotes(synth_data, tmp_path, capsys, value):
    lines = (synth_data / "quotes.csv").read_text().splitlines(keepends=True)
    date, open_, _, low = lines[5].rstrip("\n").split(",")
    lines[5] = f"{date},{open_},{value},{low}\n"
    quotes = tmp_path / "quotes.csv"
    quotes.write_text("".join(lines))
    args = _common(synth_data, tmp_path / "nf")
    args[args.index("--quotes") + 1] = str(quotes)
    assert main(["report"] + args) == 1
    report = json.loads((tmp_path / "nf" / "report.json").read_text())
    assert report["assets"]["SYN"] == {"error": "quotes line 6: non-finite price"}
    assert "quotes line 6" in capsys.readouterr().err


def test_report_partial_failure(synth_data, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,open,high,low\n2003-01-06,100,95,105\n")
    out = tmp_path / "pf"
    rc = main(["report", "--trades", str(synth_data / "trades.csv"),
               "--quotes", str(synth_data / "quotes.csv"), "--ticker", "SYN",
               "--quotes", str(bad), "--ticker", "BAD",
               "--shuffles", "199", "--replicas", "50",
               "--seed", "5", "--out-dir", str(out)])
    assert rc == 1
    report = json.loads((out / "report.json").read_text())
    assert "error" in report["assets"]["BAD"]
    assert report["assets"]["SYN"]["network"]["nodes"] > 0


def test_subcommands_seed_like_report(synth_data, tmp_path):
    assert main(["report"] + _common(synth_data, tmp_path / "r")) == 0
    for cmd in ("activity", "meso", "syncnet", "metrics", "polarization"):
        assert main([cmd] + _common(synth_data, tmp_path / cmd)) == 0
    section = json.loads((tmp_path / "r" / "report.json").read_text())["assets"]["SYN"]
    for name in ("activity_ccdf.tsv", "opd_ccdf.tsv", "ops_vs_days.tsv"):
        table = (tmp_path / "activity" / name).read_text()
        assert table.count("\n") > 1
        assert table == (tmp_path / "r" / "SYN" / name).read_text()
    meso = json.loads((tmp_path / "meso" / "meso.json").read_text())
    assert section["meso"]["long"] is not None and section["meso"]["short"] is not None
    assert {k: meso[k] for k in ("long", "short")} == section["meso"]
    edges = (tmp_path / "syncnet" / "edges.tsv").read_text()
    assert edges.count("\n") > 1
    assert edges == (tmp_path / "r" / "SYN" / "edges.tsv").read_text()
    metrics = json.loads((tmp_path / "metrics" / "metrics.json").read_text())
    assert metrics["modularity"] == section["network"]["modularity"]
    for name in ("rho_ov", "opd"):
        got = metrics["assortativity"][name]
        want = section["assortativity"][name]
        if want is None:
            assert "error" in got
        else:
            assert {k: got[k] for k in ("r", "null_rewire", "null_shuffle")} == \
                {k: want[k] for k in ("r", "null_rewire", "null_shuffle")}
    polar = json.loads((tmp_path / "polarization" / "polarization.json").read_text())
    assert polar["variance_ratio"] == section["polarization"]["variance_ratio"]


def test_metrics_nulls_follow_the_worker_count(synth_data, tmp_path, monkeypatch):
    assert main(["metrics"] + _common(synth_data, tmp_path / "w1")) == 0
    seen = []

    def recording(fn, payload, tasks, workers):
        seen.append(workers)
        return parallel.map_tasks(fn, payload, tasks, workers)

    monkeypatch.setattr(netmetrics, "map_tasks", recording)
    monkeypatch.setenv("TRADESYNC_WORKERS", "2")
    assert main(["metrics"] + _common(synth_data, tmp_path / "w2")) == 0
    # a rewire and a shuffle null for each of rho_ov and opd
    assert seen == [2, 2, 2, 2]
    assert (tmp_path / "w2" / "metrics.json").read_bytes() == \
        (tmp_path / "w1" / "metrics.json").read_bytes()


def test_report_leaves_no_worker_running(synth_data, tmp_path, monkeypatch):
    opened = []
    pool = parallel._pool
    monkeypatch.setattr(parallel, "_pool", lambda workers: opened.append(workers)
                        or pool(workers))
    monkeypatch.setenv("TRADESYNC_WORKERS", "2")
    assert main(["report"] + _common(synth_data, tmp_path / "r")) == 0
    # every parallel stage ran on the pool, which report closed on its way out
    assert opened and set(opened) == {2}
    assert multiprocessing.active_children() == []


def test_global_nu_moments_reach_the_baseline(synth_data, tmp_path):
    glob = ("--nu-moments", "global")
    assert main(["report"] + _common(synth_data, tmp_path / "r", glob)) == 0
    for name, extra in (("global", glob), ("trading", ())):
        assert main(["polarization"] + _common(synth_data, tmp_path / name, extra)) == 0
    section = json.loads((tmp_path / "r" / "report.json").read_text())["assets"]["SYN"]
    polar = {name: json.loads((tmp_path / name / "polarization.json").read_text())
             for name in ("global", "trading")}
    assert polar["global"]["shuffled_variance"] == \
        section["polarization"]["shuffled_variance"]
    assert polar["global"]["shuffled_variance"] != polar["trading"]["shuffled_variance"]


def _malformed_trades(synth_data, tmp_path):
    """The synth trades file with lines 4 and 8 made malformed."""
    trades = tmp_path / "trades.csv"
    lines = (synth_data / "trades.csv").read_text().splitlines(keepends=True)
    lines[3] = "X,2003-13-01,SYN,1,1.5,buy\n"
    lines[7] = "X,2003-01-06,SYN,-4,1.5,buy\n"
    trades.write_text("".join(lines))
    return trades


def test_report_lists_rejects(synth_data, tmp_path, capsys):
    trades = _malformed_trades(synth_data, tmp_path)
    rc = main(["report", "--trades", str(trades),
               "--quotes", str(synth_data / "quotes.csv"), "--ticker", "SYN",
               "--shuffles", "199", "--replicas", "50", "--seed", "5",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    err = capsys.readouterr().err
    assert "line 4: bad date" in err and "line 8: non-positive shares" in err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["run"]["trade_rejects"] == 2


def test_subcommand_checks_parameters_before_reading_trades(synth_data, tmp_path,
                                                            capsys):
    args = _common(synth_data, tmp_path / "act", ("--ma-window", "0"))
    args[args.index("--trades") + 1] = str(_malformed_trades(synth_data, tmp_path))
    assert main(["activity"] + args) == 2
    err = capsys.readouterr().err
    assert "ma_window must be at least 2, got 0" in err
    assert not re.search(r"line \d+:", err)
