"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured values (run with -s to see them live).

The pairwise-correlation and polarization formulas are checked against
independent brute-force oracles; the statistical criteria run the synthetic
generator at desk scale with fixed seeds.
"""

import json
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from conftest import (complete_bipartite, matrix, series_from_counts, synth_columns,
                      two_cliques)
from oracles import (bruteforce_activity_vol_correlation,
                     bruteforce_pair_correlation, endpoint_assortativity,
                     modularity_of, plant_assortative_network)
from tradesync import parallel
from tradesync.activity import build_activity, hill_fit
from tradesync.cli import main as cli_main
from tradesync.ingest import build_calendar
from tradesync.netmetrics import assortativity, louvain, null_rewire, null_shuffle
from tradesync.polarization import (polarization_score, population_distribution,
                                    score_population, shuffled_baseline,
                                    summarize)
from tradesync.syncnet import build_sync_network
from tradesync.synth import CommunitySpec, SynthConfig, generate
from tradesync.volatility import (VolatilitySeries, high_low_volatility,
                                  population_correlation)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_pair_correlation_oracle():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 1000:
        n = int(rng.integers(10, 501))
        x = rng.poisson(rng.uniform(0.2, 3.0), n).astype(float)
        y = rng.poisson(rng.uniform(0.2, 3.0), n).astype(float)
        if x.std() == 0 or y.std() == 0:
            continue
        # a partner matrix of one row, as the pair test scores a group
        lib = float(population_correlation(x, y[np.newaxis, :])[0])
        ref = bruteforce_pair_correlation(x.tolist(), y.tolist())
        worst = max(worst, abs(lib - ref))
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _verdict(1, "pair-correlation oracle equivalence", ok,
             f"max |diff| = {worst:.2e} over 1000 pairs in {elapsed:.1f}s")


def test_criterion_2_polarization_oracle():
    rng = np.random.default_rng(22)
    t0 = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 1000:
        n = int(rng.integers(10, 501))
        counts = rng.integers(0, 5, size=n)
        counts[0] = max(counts[0], 1)
        counts[-1] = max(counts[-1], 1)
        active = counts > 0
        if active.sum() < 10 or counts[active].std() == 0:
            continue
        nu = rng.lognormal(-3.9, 0.4, n)
        series = matrix([series_from_counts(counts, investor="X")])
        score = polarization_score(series, 0, VolatilitySeries("TST", nu), min_days=10)
        ref = bruteforce_activity_vol_correlation(
            counts[active].astype(float).tolist(), nu[active].tolist())
        worst = max(worst, abs(score.rho_ov - ref))
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _verdict(2, "polarization-score oracle equivalence", ok,
             f"max |diff| = {worst:.2e} over 1000 pairs in {elapsed:.1f}s")


def test_criterion_3_zipf_recovery():
    t0 = time.perf_counter()
    cfg = SynthConfig(n_agents=5000, n_days=2000, activity_tail_alpha=1.0, seed=101)
    res = generate(cfg)
    series = build_activity(synth_columns(res), build_calendar(res.quotes))
    fit = hill_fit(series.total_ops)
    elapsed = time.perf_counter() - t0
    ok = abs(fit.alpha - 1.0) <= 0.1 and elapsed < 60.0
    _verdict(3, "planted Zipf tail recovery", ok,
             f"hill alpha = {fit.alpha:.4f} (k={fit.k}, n={fit.n}) in {elapsed:.1f}s")


def test_criterion_4_permutation_false_positive_rate():
    n_pairs = 10_000
    n_days = 100
    rng = np.random.default_rng(44)
    t0 = time.perf_counter()
    slist = []
    for i in range(2 * n_pairs):
        counts = rng.poisson(1.0, n_days)
        counts[0] = max(counts[0], 1)
        counts[-1] = max(counts[-1], 1)
        slist.append(series_from_counts(counts, investor=f"S{i:05d}"))
    # each null pair is its own two-node network with its own seed
    tested = retained = 0
    for k in range(n_pairs):
        pair = (slist[k], slist[n_pairs + k])
        net = build_sync_network(matrix(pair), min_ops=1,
                                 shuffles=999, level=0.01, seed=4040 + k, workers=1)
        tested += net.diagnostics["pairs_tested"]
        retained += len(net.edges)
    rate = retained / tested
    elapsed = time.perf_counter() - t0
    ok = rate <= 0.015 and tested == n_pairs and elapsed < 300.0
    _verdict(4, "permutation-filter false-positive rate", ok,
             f"retention {retained}/{tested} = {rate:.4f} "
             f"in {elapsed:.0f}s")


def test_criterion_5_planted_synchronization():
    t0 = time.perf_counter()
    retentions = []
    cohesions = []
    for seed in range(10):
        cfg = SynthConfig(n_agents=500, n_days=150, activity_tail_alpha=1.0,
                          beta_mean=0.0, beta_sd=0.0, base_rate_scale=0.04,
                          communities=(CommunitySpec(20, 1.0),), seed=seed)
        res = generate(cfg)
        series = build_activity(synth_columns(res), build_calendar(res.quotes))
        net = build_sync_network(series, min_ops=20, shuffles=499, level=0.01,
                                 seed=seed + 5000, workers=None)
        planted = {f"A{i:05d}" for i in range(20)}
        intra = sum(1 for e in net.edges if e.i in planted and e.j in planted)
        retentions.append(intra / 190)
        part = louvain(net, seed=seed)
        top = Counter(part.communities[p] for p in planted
                      if p in part.communities)
        cohesions.append(top.most_common(1)[0][1] / 20 if top else 0.0)
    elapsed = time.perf_counter() - t0
    ok = min(retentions) >= 0.9 and min(cohesions) >= 0.9
    _verdict(5, "planted community detected", ok,
             f"min pair retention {min(retentions):.2f}, "
             f"min louvain cohesion {min(cohesions):.2f} over 10 seeds "
             f"in {elapsed:.0f}s")


def test_criterion_6_modularity_exactness():
    net = two_cliques(5)
    split = {n: (0 if int(n[1:]) < 5 else 1) for n in net.node_ids}
    q_split = modularity_of(net, split)
    q_louvain = [louvain(net, seed=s).q for s in range(20)]
    ok = abs(q_split - 0.5) <= 1e-9 and min(q_louvain) >= 0.5 - 1e-9
    _verdict(6, "modularity exactness on two cliques", ok,
             f"Q(correct split) = {q_split!r}, min louvain Q over 20 seeds = "
             f"{min(q_louvain)!r}")


_PLANT_SCORES = [(i * 7) % 5 * 10 for i in range(100)]


def _null_cover_run(seed: int) -> tuple[bool, bool]:
    net = plant_assortative_network(100, 0.15, _PLANT_SCORES, seed=3)
    attr = {n: _PLANT_SCORES[int(n[1:])] for n in net.node_ids}
    rew = null_rewire(net, attr, replicas=200, seed=seed, workers=1)
    shu = null_shuffle(net, attr, replicas=200, seed=seed + 10_000)
    return (rew.ci_low <= 0.0 <= rew.ci_high, shu.ci_low <= 0.0 <= shu.ci_high)


def test_criterion_7_assortativity_and_nulls():
    t0 = time.perf_counter()
    cliq = two_cliques(5)
    attr_c = {n: (10 if int(n[1:]) < 5 else 20) for n in cliq.node_ids}
    r_cliq = assortativity(cliq, attr_c)
    bip = complete_bipartite(4)
    attr_b = {n: (10 if int(n[1:]) < 4 else 20) for n in bip.node_ids}
    r_bip = assortativity(bip, attr_b)

    planted = plant_assortative_network(100, 0.15, _PLANT_SCORES, seed=3)
    attr_p = {n: _PLANT_SCORES[int(n[1:])] for n in planted.node_ids}
    r_planted = assortativity(planted, attr_p)
    # cross-check with the endpoint-covariance oracle
    r_oracle = endpoint_assortativity([(e.i, e.j) for e in planted.edges], attr_p)

    with ProcessPoolExecutor(max_workers=2) as pool:
        covers = list(pool.map(_null_cover_run, range(100)))
    both_cover = sum(1 for a, b in covers if a and b)
    elapsed = time.perf_counter() - t0

    ok = (abs(r_cliq - 1.0) <= 1e-12 and abs(r_bip + 1.0) <= 1e-12
          and abs(r_planted - 0.15) <= 0.05
          and abs(r_planted - r_oracle) <= 1e-12
          and both_cover >= 93)
    _verdict(7, "assortativity exactness and null coverage", ok,
             f"r(cliques)={r_cliq!r}, r(bipartite)={r_bip!r}, "
             f"r(planted)={r_planted:.3f}, CIs cover 0 in {both_cover}/100 runs "
             f"in {elapsed:.0f}s")


def _polarization_run(seed: int, beta_mean: float, beta_sd: float):
    cfg = SynthConfig(n_agents=400, n_days=250, beta_mean=beta_mean,
                      beta_sd=beta_sd, base_rate_scale=0.5, seed=seed)
    res = generate(cfg)
    series = build_activity(synth_columns(res), build_calendar(res.quotes))
    vol = high_low_volatility(res.quotes)
    scores, _ = score_population(series, vol, min_days=20)
    baseline = shuffled_baseline(series, vol, replicas=40, seed=seed + 900,
                                 min_days=20)
    return summarize(population_distribution(scores), baseline)


def test_criterion_8_polarization_sign_and_variance_ratio():
    t0 = time.perf_counter()
    coupled = [_polarization_run(seed, 0.5, 0.2) for seed in range(20)]
    null = [_polarization_run(seed, 0.0, 0.0) for seed in range(20)]
    elapsed = time.perf_counter() - t0
    pos_means = sum(1 for s in coupled if s.mean > 0)
    min_ratio = min(s.variance_ratio for s in coupled)
    null_ratio = float(np.mean([s.variance_ratio for s in null]))
    ok = pos_means == 20 and min_ratio > 1.2 and 0.9 <= null_ratio <= 1.1
    _verdict(8, "polarization sign and variance ratio", ok,
             f"mean>0 in {pos_means}/20 seeds, min ratio {min_ratio:.2f}, "
             f"null ratio (mean of 20 seeds) {null_ratio:.3f} in {elapsed:.0f}s")


def test_criterion_9_report_determinism(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    data = tmp_path / "data"
    monkeypatch.setenv("TRADESYNC_WORKERS", "1")
    # pool every parallel call of this small report, so the runs with more
    # than one worker compare the pool with the calling process
    monkeypatch.setattr(parallel, "POOL_MIN_CPU_S", 0.0)
    assert cli_main(["synth", "--agents", "150", "--days", "100",
                     "--beta-mean", "0.4", "--community", "10:1.0",
                     "--base-rate-scale", "0.1", "--seed", "6",
                     "--out-dir", str(data)]) == 0

    def run(tag: str, workers: str) -> dict:
        out = tmp_path / tag
        monkeypatch.setenv("TRADESYNC_WORKERS", workers)
        rc = cli_main(["report", "--trades", str(data / "trades.csv"),
                       "--quotes", str(data / "quotes.csv"), "--ticker", "SYN",
                       "--shuffles", "199", "--replicas", "60", "--seed", "17",
                       "--out-dir", str(out)])
        assert rc == 0
        blobs = {}
        for root, _, files in os.walk(out):
            for fname in files:
                path = os.path.join(root, fname)
                blobs[os.path.relpath(path, out)] = open(path, "rb").read()
        return blobs

    runs = {tag: run(tag, w) for tag, w in
            [("w1", "1"), ("w4", "4"), ("w8", "8"), ("w8b", "8")]}
    names = set(runs["w1"])
    identical = all(set(b) == names for b in runs.values()) and all(
        runs["w1"][n] == runs[tag][n] for tag in ("w4", "w8", "w8b") for n in names)
    report = json.loads(runs["w1"]["report.json"])
    elapsed = time.perf_counter() - t0
    ok = identical and report["run"]["seed"] == 17
    _verdict(9, "byte-identical report across worker counts", ok,
             f"{len(names)} files compared over worker counts 1/4/8 "
             f"and a repeat run in {elapsed:.0f}s")
