import hashlib
import io
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from conftest import rows_of, synth_columns, window
from oracles import plant_assortative_network, write_trades
from tradesync import synth
from tradesync.errors import GenerationError
from tradesync.ingest import build_calendar, parse_quotes, parse_trades
from tradesync.activity import build_activity
from tradesync.netmetrics import assortativity
from tradesync.polarization import score_population
from tradesync.synth import (Ar1Config, CommunitySpec, SynthConfig, agent_id, generate,
                             write_synth)
from tradesync.volatility import high_low_volatility


def _cfg(**kw):
    base = dict(n_agents=60, n_days=100, seed=42)
    base.update(kw)
    return SynthConfig(**base)


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"n_agents": 1},
        {"n_days": 10},
        {"vol": Ar1Config(phi=1.0)},
        {"vol": Ar1Config(sigma=0.0)},
        {"activity_tail_alpha": 0.0},
        {"communities": (CommunitySpec(4, 0.0),)},
        {"communities": (CommunitySpec(1, 1.0),)},
        {"communities": (CommunitySpec(500, 1.0),)},
    ])
    def test_invalid_configs(self, kw):
        with pytest.raises(GenerationError):
            _cfg(**kw)

    @pytest.mark.parametrize("name", [
        f.name for f in fields(SynthConfig) if f.type == "float"] + [
        f"vol.{f.name}" for f in fields(Ar1Config)])
    def test_nan_is_rejected_by_name(self, name):
        if name.startswith("vol."):
            kw = {"vol": Ar1Config(**{name.removeprefix("vol."): math.nan})}
        else:
            kw = {name: math.nan}
        with pytest.raises(GenerationError, match=rf"^{re.escape(name)} must not be NaN$"):
            _cfg(**kw)

    @pytest.mark.parametrize("name,value,message", [
        ("rate_cap", 0.0, "rate_cap must be positive"),
        ("rate_cap", -5.0, "rate_cap must be positive"),
        ("beta_sd", -1.0, "beta_sd must not be negative"),
        ("start_price", 0.0, "start_price must be positive"),
        ("start_price", -1.0, "start_price must be positive"),
    ])
    def test_out_of_range_is_rejected_by_name(self, name, value, message):
        with pytest.raises(GenerationError, match=rf"^{message}$"):
            _cfg(**{name: value})

    def test_infinite_rate_cap_means_no_cap(self):
        assert _cfg(rate_cap=math.inf).rate_cap == math.inf


def _files(res, out) -> dict[str, bytes]:
    paths = write_synth(res, str(out))
    return {name: open(path, "rb").read() for name, path in paths.items()}


class TestGenerate:
    def test_same_seed_byte_identical(self, tmp_path):
        outs = [_files(generate(_cfg()), tmp_path / f"run{k}") for k in range(2)]
        assert outs[0] == outs[1]
        other = _files(generate(_cfg(seed=43)), tmp_path / "other")
        assert other["trades"] != outs[0]["trades"]

    def test_files_are_pinned(self, tmp_path):
        # a fixed small config: any change to the draws or the file format shows
        cfg = _cfg(beta_mean=0.3, communities=(CommunitySpec(6, 0.8),))
        digests = {name: hashlib.sha256(blob).hexdigest()
                   for name, blob in _files(generate(cfg), tmp_path).items()}
        assert digests == {
            "trades": "3fc06093238b53d39448c6a492e8b653b949fd009c865c4a9b1f97b70827d8ad",
            "quotes": "29acad3e09ff65a13c57395a675a909d3ee1203817e4930a29aa0ab76c5b1532",
            "truth": "d8d592c184571288bf86c7c0787f5dc2a9432c0af818abe1ff38e6070a61eb3d",
        }

    @pytest.mark.parametrize("agents_per_block", [1, 3])
    def test_block_sizes_change_no_byte(self, tmp_path, monkeypatch, agents_per_block):
        # both communities straddle a 3-agent block boundary, and the ticker
        # needs csv quoting and holds braces
        cfg = _cfg(n_agents=20, n_days=40, beta_mean=0.3, ticker='A,"B{x}',
                   communities=(CommunitySpec(4, 1.0), CommunitySpec(5, 0.6)))
        default = _files(generate(cfg), tmp_path / "default")
        monkeypatch.setattr(synth, "_BLOCK_CELLS", agents_per_block * cfg.n_days)
        monkeypatch.setattr(synth, "_WRITE_ROWS", 7)
        res = generate(cfg)
        assert res.agent.size > 10 * 7
        assert _files(res, tmp_path / "blocked") == default
        # the file is what the csv reference writer makes of the trades
        buf = io.StringIO()
        write_trades(buf, [agent_id(i) for i in res.agent.tolist()],
                     [res.quotes.days[d].isoformat() for d in res.day.tolist()],
                     [cfg.ticker] * res.agent.size, res.shares.tolist(),
                     res.price.tolist(), [("sell", "buy")[b] for b in res.side.tolist()])
        assert default["trades"] == buf.getvalue().encode()

    def test_quotes_reproduce_planted_volatility(self):
        res = generate(_cfg())
        vol = high_low_volatility(res.quotes)
        assert np.allclose(vol.nu, res.truth.nu, rtol=0, atol=1e-12)

    def test_emitted_files_reingest_cleanly(self, tmp_path):
        res = generate(_cfg())
        files = _files(res, tmp_path)
        parsed = parse_trades(files["trades"].decode())
        assert parsed.rejects == []
        assert rows_of(parsed.records) == rows_of(synth_columns(res))
        # shares, price and side are only validated on parse: the file holds
        # the generated values exactly
        fields = [line.split(",") for line in files["trades"].decode().splitlines()[1:]]
        assert [(int(f[3]), float(f[4]), f[5]) for f in fields] == list(zip(
            res.shares.tolist(), res.price.tolist(),
            [("sell", "buy")[b] for b in res.side.tolist()]))
        reparsed = parse_quotes(files["quotes"].decode(), res.quotes.ticker)
        assert reparsed.days == res.quotes.days

    def test_truth_shapes_and_labels(self):
        cfg = _cfg(communities=(CommunitySpec(5, 1.0), CommunitySpec(4, 0.5)))
        res = generate(cfg)
        assert res.truth.lambdas.shape == (60,)
        assert res.truth.betas.shape == (60,)
        assert list(res.truth.community[:5]) == [0] * 5
        assert list(res.truth.community[5:9]) == [1] * 4
        assert set(res.truth.community[9:]) == {-1}
        # floored base rate keeps members active
        assert np.all(res.truth.lambdas[:9] >= cfg.community_min_rate)

    def test_zero_beta_population_mean_within_three_se(self):
        cfg = _cfg(n_agents=400, n_days=250, beta_mean=0.0, beta_sd=0.0,
                   base_rate_scale=0.5, seed=11)
        res = generate(cfg)
        cal = build_calendar(res.quotes)
        series = build_activity(synth_columns(res), cal)
        vol = high_low_volatility(res.quotes)
        scores, _ = score_population(series, vol, min_days=20)
        vals = np.array([s.rho_ov for s in scores])
        assert vals.size > 100
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean()) <= 3 * se

    def test_positive_beta_shifts_scores_positive(self):
        cfg = _cfg(n_agents=300, n_days=250, beta_mean=0.5, beta_sd=0.2,
                   base_rate_scale=0.5, seed=12)
        res = generate(cfg)
        cal = build_calendar(res.quotes)
        series = build_activity(synth_columns(res), cal)
        vol = high_low_volatility(res.quotes)
        scores, _ = score_population(series, vol, min_days=20)
        vals = np.array([s.rho_ov for s in scores])
        assert vals.mean() > 0

    def test_community_members_share_gate_pattern(self):
        cfg = _cfg(n_agents=40, n_days=200, communities=(CommunitySpec(6, 1.0),),
                   seed=9)
        res = generate(cfg)
        cal = build_calendar(res.quotes)
        series = build_activity(synth_columns(res), cal)
        a, b = series.rows_of(["A00000", "A00001"])
        start = max(series.first_day[a], series.first_day[b])
        end = min(series.last_day[a], series.last_day[b])
        xa = window(series, a, start, end) > 0
        xb = window(series, b, start, end) > 0
        agree = (xa == xb).mean()
        assert agree > 0.8  # both follow the same on/off gate


class TestPlantAssortativeNetwork:
    def test_exact_one_rejected(self):
        with pytest.raises(GenerationError):
            plant_assortative_network(20, 1.0, [1, 2] * 10, seed=0)

    def test_target_015(self):
        scores = [(i * 7) % 5 * 10 for i in range(100)]
        net = plant_assortative_network(100, 0.15, scores, seed=3)
        attr = {n: scores[int(n[1:])] for n in net.node_ids}
        assert assortativity(net, attr) == pytest.approx(0.15, abs=0.02)

    def test_target_zero(self):
        scores = [(i * 7) % 5 * 10 for i in range(100)]
        net = plant_assortative_network(100, 0.0, scores, seed=4)
        attr = {n: scores[int(n[1:])] for n in net.node_ids}
        assert abs(assortativity(net, attr)) <= 0.02

    def test_deterministic(self):
        scores = [i % 3 for i in range(60)]
        n1 = plant_assortative_network(60, 0.2, scores, seed=8)
        n2 = plant_assortative_network(60, 0.2, scores, seed=8)
        assert n1.edges == n2.edges

    def test_unreachable_target_fails_explicitly(self):
        # one lonely distinct value cannot support high assortativity
        scores = [1] * 59 + [2]
        with pytest.raises(GenerationError):
            plant_assortative_network(60, 0.9, scores, seed=1, max_steps=3000)
