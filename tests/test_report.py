from tradesync import netmetrics
from tradesync.errors import DegenerateInputError
from tradesync.ingest import select_ticker
from tradesync.report import (PipelineParams, analyze_asset, build_report,
                              derive_seeds, front_stage, network_stage)
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
    analysis = analyze_asset(select_ticker(res.trades, res.quotes.ticker), res.quotes,
                             params, root_seed=5, workers=1)
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
    analysis = analyze_asset(select_ticker(res.trades, res.quotes.ticker), res.quotes,
                             params, root_seed=5, workers=1)
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
    analysis = front_stage(select_ticker(res.trades, res.quotes.ticker), res.quotes,
                           params)
    network_stage(analysis, params, derive_seeds(5, 0), workers=1)
    # a level this lax keeps negatively correlated pairs, which Louvain refuses
    assert any(e.rho < 0 for e in analysis.net.edges)
    assert analysis.partition is None
    assert "non-negative" in analysis.notes["modularity"]
