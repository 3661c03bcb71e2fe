"""Synthetic market generator with planted, known parameters.

Agents draw a Pareto base rate (heavy-tailed activity), volatility follows an
exponential AR(1) process, and each agent's daily operation count is Poisson
with intensity lambda_i * max(0, 1 + beta_i * z(t)) where z is standardized
volatility. Optional communities share a binary on/off activity gate. The
emitted trades and quotes use exactly the file formats the ingest module
consumes, and a truth record keeps every planted quantity for recovery tests.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import GenerationError
from .ingest import QuoteSeries, write_quotes, write_trades


@dataclass(frozen=True)
class Ar1Config:
    """AR(1) process for log-volatility: x_t = mean + phi*(x_{t-1} - mean) + sigma*eps."""

    mean: float = field(default=math.log(0.02), metadata={
        "flag": "--vol-mean-log", "metavar": "VOL_MEAN_LOG",
        "help": "mean of log volatility (default ln 0.02)"})
    phi: float = 0.7
    sigma: float = 0.3


@dataclass(frozen=True)
class CommunitySpec:
    size: int
    coupling: float = 1.0


@dataclass(frozen=True)
class SynthConfig:
    """Each scalar field is a `synth` flag, renamed by its metadata (None: none)."""

    n_agents: int = field(metadata={"flag": "--agents", "metavar": "AGENTS"})
    n_days: int = field(metadata={"flag": "--days", "metavar": "DAYS"})
    activity_tail_alpha: float = field(default=1.0, metadata={
        "flag": "--alpha", "metavar": "ALPHA", "help": "planted activity tail index"})
    beta_mean: float = 0.0
    beta_sd: float = 0.2
    vol: Ar1Config = field(default_factory=Ar1Config)
    communities: tuple[CommunitySpec, ...] = ()
    seed: int = 0
    ticker: str = "SYN"
    base_rate_scale: float = 0.02
    rate_cap: float = 50.0
    gate_on_prob: float = field(default=0.5, metadata={"flag": None})
    community_min_rate: float = field(default=1.0, metadata={"flag": None})
    start_price: float = field(default=100.0, metadata={"flag": None})

    def __post_init__(self):
        for prefix, config in (("", self), ("vol.", self.vol)):
            for f in fields(config):
                value = getattr(config, f.name)
                if isinstance(value, float) and math.isnan(value):
                    raise GenerationError(f"{prefix}{f.name} must not be NaN")
        if self.n_agents < 2:
            raise GenerationError("need at least 2 agents")
        if self.n_days < 30:
            raise GenerationError("need at least 30 days")
        if not 0.0 <= self.vol.phi < 1.0:
            raise GenerationError("phi must lie in [0, 1)")
        if self.vol.sigma <= 0:
            raise GenerationError("sigma must be positive")
        if self.activity_tail_alpha <= 0:
            raise GenerationError("activity_tail_alpha must be positive")
        if self.base_rate_scale <= 0:
            raise GenerationError("base_rate_scale must be positive")
        if self.beta_sd < 0:
            raise GenerationError("beta_sd must not be negative")
        if self.rate_cap <= 0:  # inf means no cap
            raise GenerationError("rate_cap must be positive")
        if self.start_price <= 0:
            raise GenerationError("start_price must be positive")
        if not 0.0 < self.gate_on_prob < 1.0:
            raise GenerationError("gate_on_prob must lie in (0, 1)")
        if sum(c.size for c in self.communities) > self.n_agents:
            raise GenerationError("community sizes exceed the agent count")
        for c in self.communities:
            if c.size < 2:
                raise GenerationError("a community needs at least 2 members")
            if not 0.0 < c.coupling <= 1.0:
                raise GenerationError("coupling must lie in (0, 1]")


@dataclass(frozen=True)
class SynthTruth:
    """Planted quantities; emitted next to the data, never consumed by the
    analysis pipeline."""

    lambdas: np.ndarray
    betas: np.ndarray
    community: np.ndarray  # label per agent, -1 for none
    nu: np.ndarray

    def as_dict(self) -> dict:
        return {
            "lambda": [float(v) for v in self.lambdas],
            "beta": [float(v) for v in self.betas],
            "community": [int(v) for v in self.community],
            "nu": [float(v) for v in self.nu],
        }


@dataclass
class SynthResult:
    # one entry per trade, ordered by agent, then day: agent index, calendar
    # day index, shares, price, and side (1 buy, 0 sell)
    agent: np.ndarray
    day: np.ndarray
    shares: np.ndarray
    price: np.ndarray
    side: np.ndarray
    quotes: QuoteSeries
    truth: SynthTruth


def agent_id(i: int) -> str:
    return f"A{i:05d}"


def _weekday_calendar(n_days: int, start: dt.date = dt.date(2000, 1, 3)) -> list[dt.date]:
    days = []
    d = start
    while len(days) < n_days:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


def generate(config: SynthConfig) -> SynthResult:
    """Generate one asset's trades, quotes and truth. Deterministic: the whole
    output is a fixed function of the config (single RNG stream, fixed draw
    order)."""
    rng = np.random.default_rng(np.random.SeedSequence([int(config.seed)]))
    n, t = config.n_agents, config.n_days

    lambdas = config.base_rate_scale * (1.0 + rng.pareto(config.activity_tail_alpha, n))
    np.minimum(lambdas, config.rate_cap, out=lambdas)
    betas = rng.normal(config.beta_mean, config.beta_sd, n)

    labels = np.full(n, -1, dtype=np.int64)
    next_agent = 0
    for ci, spec in enumerate(config.communities):
        labels[next_agent:next_agent + spec.size] = ci
        # guarantee members are active enough to pass downstream filters
        lambdas[next_agent:next_agent + spec.size] = np.maximum(
            lambdas[next_agent:next_agent + spec.size], config.community_min_rate)
        next_agent += spec.size

    eps = rng.standard_normal(t)
    x = np.empty(t)
    stat_sd = config.vol.sigma / math.sqrt(1.0 - config.vol.phi ** 2)
    x[0] = config.vol.mean + stat_sd * eps[0]
    for k in range(1, t):
        x[k] = config.vol.mean + config.vol.phi * (x[k - 1] - config.vol.mean) \
            + config.vol.sigma * eps[k]
    nu = np.exp(x)
    sd_nu = nu.std()
    if sd_nu == 0.0:
        raise GenerationError("volatility process is constant")
    z = (nu - nu.mean()) / sd_nu

    intensity = lambdas[:, None] * np.clip(1.0 + betas[:, None] * z[None, :], 0.0, None)
    for ci, spec in enumerate(config.communities):
        gate = rng.random(t) < config.gate_on_prob
        factor = (1.0 - spec.coupling) + spec.coupling * gate / config.gate_on_prob
        members = labels == ci
        intensity[members] *= factor[None, :]
    if not np.any(intensity > 0):
        raise GenerationError("all intensities are zero; adjust beta or coupling")

    counts = rng.poisson(intensity)

    days = _weekday_calendar(t)
    rets = rng.normal(0.0, 0.005, t - 1)
    open_ = config.start_price * np.exp(np.concatenate([[0.0], np.cumsum(rets)]))
    u = rng.uniform(0.02, 0.98, t)
    high = open_ * (1.0 + nu * u)
    low = high - open_ * nu
    if np.any(low <= 0):
        raise GenerationError("volatility too large for positive low prices")
    quotes = QuoteSeries(ticker=config.ticker, days=days,
                         open_=open_.tolist(), high=high.tolist(), low=low.tolist())

    agent_rows, day_rows = np.nonzero(counts)
    reps = counts[agent_rows, day_rows]
    trade_agents = np.repeat(agent_rows, reps)
    trade_days = np.repeat(day_rows, reps)
    n_trades = trade_agents.size
    shares = rng.integers(1, 1000, size=n_trades)
    price_frac = rng.random(n_trades)
    sides = rng.integers(0, 2, size=n_trades)

    lo = low[trade_days]
    prices = lo + (high[trade_days] - lo) * price_frac
    truth = SynthTruth(lambdas=lambdas, betas=betas, community=labels, nu=nu)
    return SynthResult(agent=trade_agents, day=trade_days, shares=shares,
                       price=prices, side=sides, quotes=quotes, truth=truth)


def write_synth(result: SynthResult, out_dir: str) -> dict[str, str]:
    """Write trades.csv, quotes.csv and truth.json; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "trades": os.path.join(out_dir, "trades.csv"),
        "quotes": os.path.join(out_dir, "quotes.csv"),
        "truth": os.path.join(out_dir, "truth.json"),
    }
    ids = np.array([agent_id(i) for i in range(result.truth.lambdas.size)], dtype=object)
    dates = np.array([d.isoformat() for d in result.quotes.days], dtype=object)
    sides = np.array(["sell", "buy"], dtype=object)
    with open(paths["trades"], "w") as f:
        write_trades(f, ids[result.agent].tolist(), dates[result.day].tolist(),
                     itertools.repeat(result.quotes.ticker), result.shares.tolist(),
                     result.price.tolist(), sides[result.side].tolist())
    with open(paths["quotes"], "w") as f:
        write_quotes(result.quotes, f)
    with open(paths["truth"], "w") as f:
        # dumps runs the C encoder; dump would encode in Python
        f.write(json.dumps(result.truth.as_dict(), sort_keys=True) + "\n")
    return paths
