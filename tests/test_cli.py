import argparse
import json
import multiprocessing
import os
import re

import pytest

from dataclasses import fields

from jsonschema.validators import validator_for

from report_schema import _asset_schema
from tradesync import cli, netmetrics, parallel, synth
from tradesync.cli import _from_flags, build_parser, main
from tradesync.report import PipelineParams
from tradesync.synth import Ar1Config, CommunitySpec, SynthConfig


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


def test_validate_checks_the_pairs_before_reading_trades(synth_data, capsys):
    rc = main(["validate", "--trades", str(synth_data / "trades.csv"),
               "--quotes", str(synth_data / "quotes.csv")])
    assert rc == 2
    assert capsys.readouterr() == ("", "error: --ticker is required\n")


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


@pytest.mark.parametrize("flag,value", [
    ("--permute", "single"), ("--nu-moments", "global"), ("--ma-mode", "centered"),
    ("--swap-factor", "3"),
])
def test_permute_flag_removed(synth_data, tmp_path, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["syncnet", flag, value] + _common(synth_data, tmp_path / "p"))
    assert exc.value.code != 0


def test_activity_outputs(synth_data, tmp_path):
    out = tmp_path / "act"
    rc = main(["activity"] + _common(synth_data, out))
    assert rc == 0
    for name in ("activity_nodes.tsv", "activity_ccdf.tsv", "opd_ccdf.tsv",
                 "ops_vs_days.tsv", "activity.json"):
        assert (out / name).exists()
    view = json.loads((out / "activity.json").read_text())
    assert set(view) == {"ticker", "tail_fit", "opd_tail_fit", "hill_sweep", "notes"}
    assert view["tail_fit"]["alpha"] > 0
    assert set(view["hill_sweep"]) == {"activity", "opd"}
    assert all(fit["alpha"] > 0 for fit in view["hill_sweep"]["activity"])


def test_volatility_output(synth_data, tmp_path):
    out = tmp_path / "vol"
    rc = main(["volatility"] + _common(synth_data, out))
    assert rc == 0
    lines = (out / "volatility.tsv").read_text().splitlines()
    assert lines[0] == "date\tnu"
    assert len(lines) == 121


@pytest.mark.parametrize("flag,value,message", [
    ("--ma-window", "0", "ma_window must be at least 2, got 0"),
    ("--auto-filter", "bogus", "unknown auto-filter policy 'bogus'"),
])
def test_volatility_checks_the_pipeline_flags(synth_data, tmp_path, capsys, flag,
                                              value, message):
    out = tmp_path / "vol"
    assert main(["volatility"] + _common(synth_data, out, (flag, value))) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_meso_output(synth_data, tmp_path):
    out = tmp_path / "meso"
    rc = main(["meso"] + _common(synth_data, out))
    assert rc == 0
    view = json.loads((out / "meso.json").read_text())
    assert set(view) == {"ticker", "meso", "notes"}
    assert -1 <= view["meso"]["long"] <= 1


def test_meso_notes_an_undefined_correlation(synth_data, tmp_path):
    # constant volatility: both correlations are undefined, and the view
    # records them as report does, null with a note, instead of failing
    lines = (synth_data / "quotes.csv").read_text().splitlines()
    quotes = tmp_path / "flat.csv"
    quotes.write_text("\n".join([lines[0]] + [row.split(",")[0] + ",100,101,99"
                                              for row in lines[1:]]) + "\n")
    args = _common(synth_data, tmp_path / "meso")
    args[args.index("--quotes") + 1] = str(quotes)
    assert main(["meso"] + args) == 0
    view = json.loads((tmp_path / "meso" / "meso.json").read_text())
    assert view["meso"] == {"long": None, "short": None}
    assert view["notes"]["meso_long"] == "correlation undefined for a constant series"
    assert "meso_short" in view["notes"]


def test_syncnet_outputs(synth_data, tmp_path):
    out = tmp_path / "net"
    rc = main(["syncnet"] + _common(synth_data, out))
    assert rc == 0
    edges = (out / "edges.tsv").read_text().splitlines()
    assert edges[0] == "i\tj\trho\toverlap\tpvalue"
    network = json.loads((out / "syncnet.json").read_text())["network"]
    assert network["diagnostics"]["edges_retained"] == network["edges"] == len(edges) - 1
    assert (out / "nodes.tsv").exists()


def test_nodes_table_is_the_network_rows_of_the_activity_table(synth_data, tmp_path):
    assert main(["activity"] + _common(synth_data, tmp_path / "act")) == 0
    assert main(["syncnet"] + _common(synth_data, tmp_path / "net")) == 0
    header, *rows = (tmp_path / "act" / "activity_nodes.tsv").read_text().splitlines()
    nodes = (tmp_path / "net" / "nodes.tsv").read_text().splitlines()
    network = json.loads((tmp_path / "net" / "syncnet.json").read_text())["network"]
    # network nodes are the investors with at least --min-ops (20) operations
    network_rows = [r for r in rows if int(r.split("\t")[1]) >= 20]
    assert len(network_rows) == network["nodes"] < len(rows)
    assert nodes == [header] + network_rows


def test_metrics_outputs(synth_data, tmp_path):
    out = tmp_path / "met"
    rc = main(["metrics"] + _common(synth_data, out))
    assert rc == 0
    view = json.loads((out / "metrics.json").read_text())
    assert set(view) == {"ticker", "network", "assortativity", "notes"}
    assert set(view["assortativity"]) == {"rho_ov", "opd"}
    modularity = view["network"]["modularity"]
    assert modularity is None or -1 <= modularity <= 1


def test_polarization_outputs(synth_data, tmp_path):
    out = tmp_path / "pol"
    rc = main(["polarization"] + _common(synth_data, out))
    assert rc == 0
    view = json.loads((out / "polarization.json").read_text())
    assert set(view) == {"ticker", "polarization", "notes"}
    assert view["polarization"]["variance_ratio"] > 0
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
    assert report["version"] == "10"
    assert report["run"]["seed"] == 5
    assert report["run"]["trade_rejects"] == 0
    assert report["run"]["trade_rejects_by_reason"] == {}
    assert list(report["run"]["defaults"]) == sorted(
        f.name for f in fields(PipelineParams))
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
    ("--bins", "0", "bins must be at least 1, got 0"),
    ("--min-ops", "0", "min_ops must be at least 1, got 0"),
    ("--min-days", "-1", "min_days must be at least 1, got -1"),
    ("--hill-k", "0", "hill_k must be at least 1, got 0"),
    ("--opd-cap", "-1", "opd_cap must be at least 1, got -1"),
    ("--ma-window", "0", "ma_window must be at least 2, got 0"),
    ("--ma-window", "1", "ma_window must be at least 2, got 1"),
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


def test_report_rejects_a_repeated_ticker(synth_data, tmp_path, capsys):
    # analysed twice, the ticker would get two seeds and keep only the second
    out = tmp_path / "twice"
    quotes = str(synth_data / "quotes.csv")
    args = _common(synth_data, out, ("--ticker", "SYN", "--quotes", quotes))
    assert main(["report"] + args) == 2
    captured = capsys.readouterr()
    assert "--ticker given more than once: SYN" in captured.err
    assert captured.out == ""
    assert not out.exists()


# view -> the report-section keys its <view>.json holds
_VIEW_KEYS = {"activity": ("tail_fit", "opd_tail_fit"), "meso": ("meso",),
              "syncnet": ("network",), "metrics": ("network", "assortativity"),
              "polarization": ("polarization",)}


def test_subcommands_seed_like_report(synth_data, tmp_path):
    assert main(["report"] + _common(synth_data, tmp_path / "r")) == 0
    section = json.loads((tmp_path / "r" / "report.json").read_text())["assets"]["SYN"]
    for view, keys in _VIEW_KEYS.items():
        out = tmp_path / view
        assert main([view] + _common(synth_data, out)) == 0
        got = json.loads((out / f"{view}.json").read_text())
        assert set(got) - {"hill_sweep"} == {"ticker", "notes", *keys}
        assert got["ticker"] == "SYN"
        assert got["notes"].items() <= section["notes"].items()
        for key in keys:
            assert got[key] is not None and got[key] == section[key]
            schema = _asset_schema["properties"][key]
            validator_for(schema)(schema).validate(got[key])
        tables = {p.name for p in out.glob("*.tsv")} - {"activity_nodes.tsv"}
        assert {"activity_ccdf.tsv", "opd_ccdf.tsv", "ops_vs_days.tsv"} <= tables
        for name in tables:
            table = (out / name).read_text()
            assert table.count("\n") > 1
            assert table == (tmp_path / "r" / "SYN" / name).read_text()
    assert section["meso"]["long"] is not None and section["meso"]["short"] is not None
    assert {"edges.tsv", "nodes.tsv", "partition.tsv"} <= {
        p.name for p in (tmp_path / "syncnet").glob("*.tsv")}
    assert {"scores.tsv", "rho_histogram.tsv"} <= {
        p.name for p in (tmp_path / "polarization").glob("*.tsv")}


def test_metrics_nulls_follow_the_worker_count(synth_data, tmp_path, monkeypatch):
    assert main(["metrics"] + _common(synth_data, tmp_path / "w1")) == 0
    seen = []

    def recording(fn, payload, tasks, workers, *, cpu_s):
        seen.append(workers)
        return parallel.map_tasks(fn, payload, tasks, workers, cpu_s=cpu_s)

    monkeypatch.setattr(netmetrics, "map_tasks", recording)
    monkeypatch.setattr(parallel, "POOL_MIN_CPU_S", 0.0)  # pool even this small run
    monkeypatch.setenv("TRADESYNC_WORKERS", "2")
    assert main(["metrics"] + _common(synth_data, tmp_path / "w2")) == 0
    # rho_ov and opd score the same edges here, so one rewire null serves
    # both; the shuffle nulls run in this process
    assert seen == [2]
    assert (tmp_path / "w2" / "metrics.json").read_bytes() == \
        (tmp_path / "w1" / "metrics.json").read_bytes()


@pytest.mark.parametrize("command", ["report", "polarization"])
@pytest.mark.parametrize("workers", ["abc", "0"])
def test_bad_worker_count_is_rejected_before_any_read(synth_data, tmp_path, capsys,
                                                      monkeypatch, command, workers):
    monkeypatch.setenv("TRADESYNC_WORKERS", workers)
    out = tmp_path / "w"
    assert main([command] + _common(synth_data, out)) == 2
    assert capsys.readouterr().err == (
        f"error: TRADESYNC_WORKERS must be an integer >= 1, got {workers!r}\n")
    assert not out.exists()


def test_report_leaves_no_worker_running(synth_data, tmp_path, monkeypatch, pools):
    monkeypatch.setattr(parallel, "POOL_MIN_CPU_S", 0.0)  # pool even this small run
    monkeypatch.setenv("TRADESYNC_WORKERS", "2")
    assert main(["report"] + _common(synth_data, tmp_path / "r")) == 0
    # every parallel stage ran on a pool of its own, joined before it returned
    assert pools and set(pools) == {2}
    assert multiprocessing.active_children() == []


def test_default_worker_count_follows_the_cpu_affinity(synth_data, tmp_path,
                                                      monkeypatch, pools):
    # pinned to one of eight CPUs with TRADESYNC_WORKERS unset, a run uses
    # one worker and opens no pool
    monkeypatch.delenv("TRADESYNC_WORKERS")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert parallel.resolve_workers() == 1
    monkeypatch.setattr(parallel, "POOL_MIN_CPU_S", 0.0)  # not even a pooled call
    assert main(["report"] + _common(synth_data, tmp_path / "r")) == 0
    assert pools == []


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
    assert report["run"]["trade_rejects_by_reason"] == {"bad date": 1,
                                                        "non-positive shares": 1}


def test_subcommand_checks_parameters_before_reading_trades(synth_data, tmp_path,
                                                            capsys):
    args = _common(synth_data, tmp_path / "act", ("--ma-window", "0"))
    args[args.index("--trades") + 1] = str(_malformed_trades(synth_data, tmp_path))
    assert main(["activity"] + args) == 2
    err = capsys.readouterr().err
    assert "ma_window must be at least 2, got 0" in err
    assert not re.search(r"line \d+:", err)


@pytest.mark.parametrize("delimiter", [";;", "", '"', "\n", "\r"])
def test_unusable_delimiter_is_a_config_error(tmp_path, capsys, delimiter):
    # the trades path does not exist: the delimiter is checked before any read
    rc = main(["validate", "--trades", str(tmp_path / "nope.csv"),
               "--quotes", str(tmp_path / "nope.csv"), "--ticker", "X",
               "--delimiter", delimiter])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --delimiter must be one character")
    assert "Traceback" not in err


def test_byte_order_mark_is_ignored(synth_data, tmp_path, capsys):
    bom = tmp_path / "bom"
    bom.mkdir()
    for name in ("trades.csv", "quotes.csv"):
        (bom / name).write_bytes(b"\xef\xbb\xbf" + (synth_data / name).read_bytes())
    outputs = []
    for data, out in ((synth_data, "plain"), (bom, "bom")):
        assert main(["validate"] + _common(data, tmp_path / out)) == 0
        assert main(["report"] + _common(data, tmp_path / out)) == 0
        outputs.append((capsys.readouterr().out,
                        (tmp_path / out / "report.json").read_bytes()))
    assert outputs[0] == outputs[1]
    assert "0 rejects" in outputs[0][0]


_ANALYSIS_COMMANDS = ("validate", "activity", "volatility", "meso", "syncnet",
                      "metrics", "polarization", "report")


@pytest.mark.parametrize("command", _ANALYSIS_COMMANDS)
def test_cli_defaults_are_the_pipeline_defaults(command):
    args = build_parser().parse_args([command])
    assert _from_flags(PipelineParams, args) == PipelineParams()


@pytest.mark.parametrize("command", _ANALYSIS_COMMANDS)
def test_every_pipeline_field_has_its_flag(command):
    parser = build_parser()
    for f in fields(PipelineParams):
        flag = "--" + f.name.replace("_", "-")
        assert getattr(parser.parse_args([command, flag, "7"]), f.name) != f.default


_SUPPRESS = argparse.SUPPRESS
_HELP = ("help", _SUPPRESS, "str", None, False, "show this help message and exit")
# option strings -> (dest, default, type, metavar, required, help) of each
# flag of a subcommand. The README, CI and the benchmark call these flags,
# so any change here is a change to the interface.
_ANALYSIS_SURFACE = {
    ("-h", "--help"): _HELP,
    ("--trades",): ("trades", None, "str", None, False, "trades CSV path"),
    ("--quotes",): ("quotes", [], "str", None, False,
                    "quotes CSV path (repeat with --ticker for multi-asset runs)"),
    ("--ticker",): ("ticker", [], "str", None, False,
                    "asset symbol matching a --quotes file"),
    ("--delimiter",): ("delimiter", ",", "str", None, False, None),
    ("--auto-filter",): ("auto_filter", "none", "str", None, False,
                         "automatic-operation policy: none | flag | threshold:K"),
    ("--min-ops",): ("min_ops", 20, "int", None, False, None),
    ("--min-days",): ("min_days", 20, "int", None, False, None),
    ("--shuffles",): ("shuffles", 999, "int", None, False, None),
    ("--p-level",): ("p_level", 0.01, "float", None, False, None),
    ("--replicas",): ("replicas", 1000, "int", None, False, None),
    ("--ma-window",): ("ma_window", 5, "int", None, False, None),
    ("--hill-k",): ("hill_k", None, "int", None, False, None),
    ("--bins",): ("bins", 50, "int", None, False, None),
    ("--opd-cap",): ("opd_cap", 100, "int", None, False, None),
    ("--seed",): ("seed", 0, "int", None, False, None),
    ("--out-dir",): ("out_dir", "out", "str", None, False, None),
}
_SYNTH_SURFACE = {
    ("-h", "--help"): _HELP,
    ("--agents",): ("n_agents", _SUPPRESS, "int", "AGENTS", True, None),
    ("--days",): ("n_days", _SUPPRESS, "int", "DAYS", True, None),
    ("--alpha",): ("activity_tail_alpha", _SUPPRESS, "float", "ALPHA", False,
                   "planted activity tail index"),
    ("--beta-mean",): ("beta_mean", _SUPPRESS, "float", None, False, None),
    ("--beta-sd",): ("beta_sd", _SUPPRESS, "float", None, False, None),
    ("--vol-mean-log",): ("vol_mean", _SUPPRESS, "float", "VOL_MEAN_LOG", False,
                          "mean of log volatility (default ln 0.02)"),
    ("--vol-phi",): ("vol_phi", _SUPPRESS, "float", None, False, None),
    ("--vol-sigma",): ("vol_sigma", _SUPPRESS, "float", None, False, None),
    ("--community",): ("community", [], "str", "SIZE:COUPLING", False,
                       "plant a community, e.g. 20:1.0 (repeatable)"),
    ("--base-rate-scale",): ("base_rate_scale", _SUPPRESS, "float", None, False, None),
    ("--rate-cap",): ("rate_cap", _SUPPRESS, "float", None, False, None),
    ("--ticker",): ("ticker", _SUPPRESS, "str", None, False, None),
    ("--seed",): ("seed", _SUPPRESS, "int", None, False, None),
    ("--out-dir",): ("out_dir", "out", "str", None, False, None),
}


def _subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", _ANALYSIS_COMMANDS + ("synth",))
def test_the_flags_of_each_subcommand_are_pinned(command):
    parser = _subparsers(build_parser())[command]
    # argparse keeps a value without a type as the string given, so an
    # untyped flag and a `str` one parse alike
    surface = {tuple(a.option_strings): (
        a.dest, a.default, "str" if a.type in (None, str) else a.type.__name__,
        a.metavar, a.required, a.help) for a in parser._actions}
    assert surface == (_SYNTH_SURFACE if command == "synth" else _ANALYSIS_SURFACE)


def test_there_are_nine_subcommands():
    assert set(_subparsers(build_parser())) == {*_ANALYSIS_COMMANDS, "synth"}


def _synth_configs(monkeypatch, tmp_path, *flags):
    """The SynthConfig that `synth` with these flags generates from."""
    seen = []
    monkeypatch.setattr(cli, "generate",
                        lambda config: seen.append(config) or synth.generate(config))
    assert main(["synth", "--out-dir", str(tmp_path / "syn"), *flags]) == 0
    return seen


def test_unset_synth_flags_take_the_config_defaults(monkeypatch, tmp_path):
    assert _synth_configs(monkeypatch, tmp_path, "--agents", "40", "--days", "60") == [
        SynthConfig(n_agents=40, n_days=60)]


def test_every_synth_flag_reaches_its_field(monkeypatch, tmp_path):
    flags = ("--agents", "40", "--days", "60", "--alpha", "1.5", "--beta-mean", "0.1",
             "--beta-sd", "0.3", "--vol-mean-log", "-3.5", "--vol-phi", "0.5",
             "--vol-sigma", "0.2", "--community", "6", "--community", "5:0.5",
             "--base-rate-scale", "0.05", "--rate-cap", "20", "--ticker", "XYZ",
             "--seed", "9")
    assert _synth_configs(monkeypatch, tmp_path, *flags) == [SynthConfig(
        n_agents=40, n_days=60, activity_tail_alpha=1.5, beta_mean=0.1, beta_sd=0.3,
        vol=Ar1Config(mean=-3.5, phi=0.5, sigma=0.2),
        communities=(CommunitySpec(6), CommunitySpec(5, 0.5)),
        base_rate_scale=0.05, rate_cap=20.0, ticker="XYZ", seed=9)]


@pytest.mark.parametrize("flag,field", [
    ("--alpha", "activity_tail_alpha"), ("--beta-mean", "beta_mean"),
    ("--beta-sd", "beta_sd"), ("--vol-mean-log", "vol.mean"), ("--vol-phi", "vol.phi"),
    ("--vol-sigma", "vol.sigma"), ("--base-rate-scale", "base_rate_scale"),
    ("--rate-cap", "rate_cap"),
])
def test_synth_rejects_nan_naming_the_field(tmp_path, capsys, flag, field):
    out = tmp_path / "syn"
    assert main(["synth", "--agents", "40", "--days", "60", flag, "nan",
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {field} must not be NaN\n"
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--rate-cap", "0", "rate_cap must be positive"),
    ("--beta-sd", "-1", "beta_sd must not be negative"),
])
def test_synth_rejects_out_of_range_naming_the_field(tmp_path, capsys, flag, value,
                                                     message):
    out = tmp_path / "syn"
    assert main(["synth", "--agents", "40", "--days", "60", flag, value,
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("spec", ["abc", "5:x", ":1.0"])
def test_synth_rejects_a_malformed_community(tmp_path, capsys, spec):
    out = tmp_path / "syn"
    assert main(["synth", "--agents", "40", "--days", "60", "--community", spec,
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --community must be SIZE or SIZE:COUPLING, got {spec!r}\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flag,value", [("--vol-sigma", "1e10"), ("--vol-mean-log", "800")])
def test_synth_names_the_volatility_flags_when_volatility_overflows(tmp_path, capsys,
                                                                    flag, value):
    out = tmp_path / "syn"
    assert main(["synth", "--agents", "50", "--days", "40", flag, value,
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: volatility overflows; lower --vol-mean-log or --vol-sigma\n")
    assert not out.exists()


def test_synth_names_the_rate_flags_when_an_intensity_passes_the_poisson_limit(
        tmp_path, capsys):
    out = tmp_path / "syn"
    assert main(["synth", "--agents", "50", "--days", "40", "--base-rate-scale", "1e300",
                 "--rate-cap", "inf", "--out-dir", str(out)]) == 2
    assert re.fullmatch(
        r"error: an intensity of \S+ is above the Poisson draw's limit \(9\.22e\+18\); "
        r"lower --base-rate-scale, --rate-cap or --beta-mean/--beta-sd\n",
        capsys.readouterr().err)
    assert not out.exists()


def test_synth_allows_an_infinite_rate_cap(tmp_path):
    assert main(["synth", "--agents", "40", "--days", "60", "--rate-cap", "inf",
                 "--out-dir", str(tmp_path / "syn")]) == 0


def test_report_lists_off_calendar_trades(synth_data, tmp_path, capsys):
    lines = (synth_data / "quotes.csv").read_text().splitlines(keepends=True)
    dropped = lines.pop(10).split(",")[0]
    quotes = tmp_path / "quotes.csv"
    quotes.write_text("".join(lines))
    trades = (synth_data / "trades.csv").read_text().splitlines()[1:]
    off = sum(row.split(",")[1] == dropped for row in trades)
    assert off > 0
    args = _common(synth_data, tmp_path / "out")
    args[args.index("--quotes") + 1] = str(quotes)
    assert main(["report"] + args) == 0
    assert f"SYN: {off} off-calendar trades excluded" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["assets"]["SYN"]["population"]["off_calendar_trades"] == off
