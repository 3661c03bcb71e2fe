import io

import pytest
from jsonschema.validators import validator_for

from conftest import synth_columns
from tradesync import netmetrics
from tradesync.errors import ConfigError, DegenerateInputError
from tradesync.ingest import select_ticker
from tradesync.report import (REPORT_SCHEMA, PipelineParams, analyze_asset, assortativity_stage,
                              build_report, derive_seeds, dump_report, front_stage,
                              network_stage, score_stage)
from tradesync.synth import CommunitySpec, SynthConfig, generate

NULLS = ("rho_ov_rewire", "rho_ov_shuffle", "opd_rewire", "opd_shuffle")


def test_every_step_has_its_own_seed():
    for root in (0, 7, 2**31):
        for asset in (0, 1, 5):
            seeds = derive_seeds(root, asset)
            assert set(NULLS) <= set(seeds)
            assert len(set(seeds.values())) == len(seeds)


def test_each_null_draws_its_own_stream(monkeypatch):
    drawn = []

    def recording(kind, fn):
        def wrapper(*args, **kwargs):
            drawn.append((kind, kwargs["seed"]))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(netmetrics, "null_rewire",
                        recording("rewire", netmetrics.null_rewire))
    monkeypatch.setattr(netmetrics, "null_shuffle",
                        recording("shuffle", netmetrics.null_shuffle))
    res = generate(SynthConfig(n_agents=60, n_days=120, beta_mean=0.4,
                               base_rate_scale=0.1,
                               communities=(CommunitySpec(8, 1.0),), seed=3))
    params = PipelineParams(shuffles=199, replicas=20)
    trades = select_ticker(synth_columns(res), res.quotes.ticker)
    analysis = analyze_asset(trades, res.quotes, params, root_seed=5, workers=1)
    assert None not in (analysis.assortativity["rho_ov"], analysis.assortativity["opd"])
    seeds = derive_seeds(5, 0)
    assert drawn == [("rewire", seeds["rho_ov_rewire"]),
                     ("shuffle", seeds["rho_ov_shuffle"]),
                     ("rewire", seeds["opd_rewire"]),
                     ("shuffle", seeds["opd_shuffle"])]


def test_a_failing_shuffle_null_keeps_r_and_the_rewire_null(monkeypatch):
    seeds = derive_seeds(5, 0)
    shuffle = netmetrics.null_shuffle

    def failing_for_opd(*args, **kwargs):
        if kwargs["seed"] == seeds["opd_shuffle"]:
            raise DegenerateInputError("every replica undefined")
        return shuffle(*args, **kwargs)

    monkeypatch.setattr(netmetrics, "null_shuffle", failing_for_opd)
    res = generate(SynthConfig(n_agents=60, n_days=120, beta_mean=0.4,
                               base_rate_scale=0.1,
                               communities=(CommunitySpec(8, 1.0),), seed=3))
    params = PipelineParams(shuffles=199, replicas=20)
    trades = select_ticker(synth_columns(res), res.quotes.ticker)
    analysis = analyze_asset(trades, res.quotes, params, root_seed=5, workers=1)
    opd = analysis.assortativity["opd"]
    assert opd.null_shuffle is None and opd.null_rewire.replicas == 20
    assert analysis.notes["assortativity_opd_null_shuffle"] == "every replica undefined"
    assert "assortativity_opd" not in analysis.notes
    assert analysis.assortativity["rho_ov"].null_shuffle.undefined == 0
    section = build_report({"SYN": analysis.to_section()}, params, 5, 0)["assets"]["SYN"]
    assert section["assortativity"]["opd"]["null_shuffle"] is None
    assert section["assortativity"]["opd"]["r"] == opd.r


def test_negative_edge_weights_become_a_modularity_note():
    res = generate(SynthConfig(n_agents=30, n_days=80, base_rate_scale=0.1, seed=3))
    params = PipelineParams(min_ops=5, shuffles=99, p_level=0.9)
    trades = select_ticker(synth_columns(res), res.quotes.ticker)
    analysis = front_stage(trades, res.quotes, params)
    network_stage(analysis, params, derive_seeds(5, 0), workers=1)
    # a level this lax keeps negatively correlated pairs, which Louvain refuses
    assert any(e.rho < 0 for e in analysis.net.edges)
    assert analysis.partition is None
    assert "non-negative" in analysis.notes["modularity"]


def _scored_network(params):
    res = generate(SynthConfig(n_agents=60, n_days=120, beta_mean=0.4,
                               base_rate_scale=0.1,
                               communities=(CommunitySpec(8, 1.0),), seed=3))
    seeds = derive_seeds(5, 0)
    trades = select_ticker(synth_columns(res), res.quotes.ticker)
    analysis = front_stage(trades, res.quotes, params)
    network_stage(analysis, params, seeds, workers=1)
    score_stage(analysis, params)
    return analysis, seeds


def test_unscored_network_nodes_are_noted_and_left_out_of_rho_ov(monkeypatch):
    params = PipelineParams(shuffles=199, replicas=20)
    analysis, seeds = _scored_network(params)
    nodes = analysis.net.node_ids
    dropped = next(s.investor_id for s in analysis.scores if s.investor_id in nodes)
    analysis.scores = [s for s in analysis.scores if s.investor_id != dropped]
    rho = {s.investor_id: s.rho_ov for s in analysis.scores}
    unscored = [n for n in nodes if n not in rho]
    assert dropped in unscored

    seen = []
    discretize = netmetrics.discretize_attribute
    monkeypatch.setattr(netmetrics, "discretize_attribute",
                        lambda values: seen.append(values) or discretize(values))
    assortativity_stage(analysis, params, seeds, workers=1)
    assert analysis.notes["unscored_nodes"] == len(unscored)
    assert seen == [{n: rho[n] for n in nodes if n in rho}]
    assert analysis.assortativity["rho_ov"] is not None


def test_a_network_without_scores_notes_every_node():
    params = PipelineParams(shuffles=199, replicas=20)
    analysis, seeds = _scored_network(params)
    analysis.scores = []
    assortativity_stage(analysis, params, seeds, workers=1)
    assert analysis.notes["unscored_nodes"] == len(analysis.net.node_ids)
    assert analysis.assortativity["rho_ov"] is None
    assert "assortativity_rho_ov" in analysis.notes
    assert analysis.assortativity["opd"] is not None


@pytest.mark.parametrize("replicas", [0, -1])
def test_replicas_below_one_rejected(replicas):
    with pytest.raises(ConfigError, match="replicas"):
        PipelineParams(replicas=replicas)


@pytest.mark.parametrize("name,message", [
    ("ma_mode", "ma_mode must be one of trailing, centered, got 'foo'"),
    ("nu_moments", "nu_moments must be one of trading, global, got 'foo'"),
])
def test_unknown_mode_rejected(name, message):
    with pytest.raises(ConfigError, match=message):
        PipelineParams(**{name: "foo"})


def test_bins_above_the_limit_rejected():
    assert PipelineParams(bins=10_000).bins == 10_000
    with pytest.raises(ConfigError, match="bins must be at most 10000, got 10001"):
        PipelineParams(bins=10_001)


def test_report_schema_is_a_valid_schema_and_is_enforced():
    validator_for(REPORT_SCHEMA).check_schema(REPORT_SCHEMA)
    params = PipelineParams()
    assert build_report({}, params, 1, 0)["assets"] == {}
    with pytest.raises(Exception, match="'nodes' is a required property"):
        build_report({"X": {"network": {}}}, params, 1, 0)


def test_report_json_refuses_non_finite_numbers():
    with pytest.raises(ValueError):
        dump_report({"variance_ratio": float("nan")}, io.StringIO())
