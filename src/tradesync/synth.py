"""Synthetic market generator with planted, known parameters.

Agents draw a Pareto base rate (heavy-tailed activity), volatility follows an
exponential AR(1) process, and each agent's daily operation count is Poisson
with intensity lambda_i * max(0, 1 + beta_i * z(t)) where z is standardized
volatility. Optional communities share a binary on/off activity gate. The
emitted trades and quotes use exactly the file formats the ingest module
consumes, and a truth record keeps every planted quantity for recovery tests.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import GenerationError
from .ingest import TRADE_FIELDS, QuoteSeries, write_quotes

# The agent x day intensity grid is built and drawn one block of whole agents
# at a time, in one buffer of at most _BLOCK_CELLS cells (one agent's row if
# that is longer). `rng.poisson` consumes the stream cell by cell in C order,
# so the block size never changes the draws; memory is O(block + trades).
_BLOCK_CELLS = 1 << 20
# trades.csv is formatted this many rows at a time
_WRITE_ROWS = 1 << 14
# the largest intensity numpy's Poisson sampler accepts
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10


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
            "lambda": self.lambdas.tolist(),
            "beta": self.betas.tolist(),
            "community": self.community.tolist(),
            "nu": self.nu.tolist(),
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
    with np.errstate(over="ignore", invalid="ignore"):
        x[0] = config.vol.mean + stat_sd * eps[0]
        for k in range(1, t):
            x[k] = config.vol.mean + config.vol.phi * (x[k - 1] - config.vol.mean) \
                + config.vol.sigma * eps[k]
        nu = np.exp(x)
        sd_nu = nu.std()
    if not (np.isfinite(nu).all() and math.isfinite(sd_nu)):
        raise GenerationError("volatility overflows; lower --vol-mean-log or --vol-sigma")
    if sd_nu == 0.0:
        raise GenerationError("volatility process is constant")
    z = (nu - nu.mean()) / sd_nu

    gated = []  # (first member, end of members, per-day factor) per community
    next_agent = 0
    for spec in config.communities:
        gate = rng.random(t) < config.gate_on_prob
        factor = (1.0 - spec.coupling) + spec.coupling * gate / config.gate_on_prob
        gated.append((next_agent, next_agent + spec.size, factor))
        next_agent += spec.size
    trade_agents, trade_days = _draw_trades(rng, lambdas, betas, z, gated)

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

    n_trades = trade_agents.size
    shares = rng.integers(1, 1000, size=n_trades)
    price_frac = rng.random(n_trades)
    sides = rng.integers(0, 2, size=n_trades)

    # low + (high - low) * frac, in place
    prices = high[trade_days]
    lo = low[trade_days]
    prices -= lo
    prices *= price_frac
    prices += lo
    truth = SynthTruth(lambdas=lambdas, betas=betas, community=labels, nu=nu)
    return SynthResult(agent=trade_agents, day=trade_days, shares=shares,
                       price=prices, side=sides, quotes=quotes, truth=truth)


def _draw_trades(rng: np.random.Generator, lambdas: np.ndarray, betas: np.ndarray,
                 z: np.ndarray, gated: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Each agent's Poisson operation count on each day, with intensity
    lambda * max(0, 1 + beta * z) times its community's gate factor, as one
    (agent, day) entry per trade, ordered by agent, then day."""
    n, t = lambdas.size, z.size
    rows = max(1, _BLOCK_CELLS // t)
    buf = np.empty((min(rows, n), t))
    agents, days = [], []
    top = 0.0
    for lo in range(0, n, rows):
        block = buf[:min(rows, n - lo)]
        hi = lo + block.shape[0]
        np.multiply(betas[lo:hi, None], z, out=block)
        block += 1.0
        np.clip(block, 0.0, None, out=block)
        block *= lambdas[lo:hi, None]
        for start, end, factor in gated:
            block[max(start - lo, 0):max(end - lo, 0)] *= factor
        peak = block.max()
        if not peak <= _POISSON_LAM_MAX:  # NaN too
            raise GenerationError(
                f"an intensity of {peak:.3g} is above the Poisson draw's limit "
                f"({_POISSON_LAM_MAX:.3g}); lower --base-rate-scale, --rate-cap "
                "or --beta-mean/--beta-sd")
        top = max(top, peak)
        counts = rng.poisson(block)
        cells = np.flatnonzero(counts)
        reps = counts.ravel()[cells]
        agent_rows, day_rows = np.divmod(cells, t)
        agent_rows += lo
        agents.append(np.repeat(agent_rows, reps))
        days.append(np.repeat(day_rows, reps))
    if not top > 0:
        raise GenerationError("all intensities are zero; adjust beta or coupling")
    return np.concatenate(agents), np.concatenate(days)


def _csv_field(text: str) -> str:
    """`text` as `csv.writer` writes it as one field of a longer row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


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
    ticker = _csv_field(result.quotes.ticker)
    with open(paths["trades"], "w") as f:
        f.write(",".join(TRADE_FIELDS[:6]) + "\n")
        for lo in range(0, result.agent.size, _WRITE_ROWS):
            part = slice(lo, lo + _WRITE_ROWS)
            # each field as csv.writer writes it; a float's str is its repr
            f.write("".join([f"{i},{d},{ticker},{n},{p!r},{s}\n" for i, d, n, p, s in zip(
                ids[result.agent[part]].tolist(), dates[result.day[part]].tolist(),
                result.shares[part].tolist(), result.price[part].tolist(),
                sides[result.side[part]].tolist())]))
    with open(paths["quotes"], "w") as f:
        write_quotes(result.quotes, f)
    with open(paths["truth"], "w") as f:
        # dumps runs the C encoder; dump would encode in Python
        f.write(json.dumps(result.truth.as_dict(), sort_keys=True) + "\n")
    return paths
