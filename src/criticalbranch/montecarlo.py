"""Exact-event simulation of branching systems with and without immigration.

Every path is simulated event by event: a single exponential clock with the
total rate picks the next event time and a second uniform selects the event
(offspring count or immigration batch) by exact inverse-CDF lookup, so the
jump-chain law is sampled without any tail approximation.  No leaping of any
kind is applied; bias would contaminate the asymptotic-rate checks downstream.

Paths are advanced in vectorized rounds across fixed-size chunks.  Each chunk
draws from its own stream spawned from (seed, chunk index), so results are
bit-for-bit reproducible for a given (config, seed) and chunks can run on any
number of workers with a deterministic merge by index.  Once a chunk is down
to a handful of straggler paths the engine advances them one at a time, which
keeps rare high-population excursions from stalling the vectorized rounds.
Without immigration a straggler's jump chain is a random walk stopped at 0
(the Lamperti representation), so it advances in numpy blocks of events that
consume the stream exactly as the per-event loop would: same uniforms, same
order, same arithmetic, hence the same paths.  With immigration stragglers
run the per-event loop.

The jump samplers' tables grow on demand but never past cap + 2 entries: a
larger jump caps the path whatever its exact size, so every uncapped path is
sampled exactly with memory bounded by the cap.

Capped paths (population above the safety cap) are frozen, counted, and
excluded by the estimators; the count is always reported, never dropped.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .laws import ImmigrationLaw, OffspringLaw

__all__ = [
    "SimConfig",
    "Estimate",
    "PathObservations",
    "InsufficientEventsError",
    "sample_offspring",
    "simulate",
    "estimate",
]

CHUNK = 8192
_SCALAR_SWITCH = 4
_CDF_BOUND = 10_000_000
_CDF_START = 1024
# a straggler walk draws blocks of this many events, doubling up to the max
_WALK_START = 32
_WALK_MAX = 4096


class InsufficientEventsError(RuntimeError):
    """Denominator event count too small for a stable ratio estimate."""


@dataclass(frozen=True)
class SimConfig:
    """One simulation experiment: laws, observation grid, replica budget."""

    offspring: OffspringLaw
    immigration: ImmigrationLaw | None
    grid: tuple[float, ...]
    replicas: int
    seed: int
    start: int | None = None
    cap: int = 10**6

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        if self.cap < 1:
            raise ValueError("population cap must be positive")
        if self.cap > _CDF_BOUND:
            # a uniform past the sampler table jumps by the bound; only a cap within the bound
            # turns that jump into a capped path
            raise ValueError(f"population cap must not exceed the sampler table bound {_CDF_BOUND}")
        g = tuple(float(t) for t in self.grid)
        if any(t < 0 for t in g) or list(g) != sorted(g):
            raise ValueError("grid must be sorted and nonnegative")
        object.__setattr__(self, "grid", g)
        if self.start is None:
            object.__setattr__(self, "start", 0 if self.immigration is not None else 1)
        if self.start < 0:
            raise ValueError("start population must be nonnegative")


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its standard error and exclusion accounting."""

    value: float
    se: float
    replicas: int
    capped: int


@dataclass(frozen=True)
class PathObservations:
    """Recorded populations, one row per path, one column per grid time.

    ``events`` counts every jump, ``straggler_events`` those made after a
    chunk left its vectorized rounds, and ``table_size`` is the largest
    sampler table built, in entries.
    """

    grid: tuple[float, ...]
    states: np.ndarray
    capped: np.ndarray
    events: int
    straggler_events: int
    table_size: int


class _Sampler:
    """Inverse-CDF sampler over a jump-size pmf with a growing prefix table.

    The table covers jump sizes 0..horizon and doubles on demand while the
    horizon stays below ``limit``; a uniform falling beyond the table maps to
    horizon + 1.  Table entries do not depend on the horizon, so every jump
    within the table is exact.  Simulation sets limit = cap + 1 (at most the
    memory bound): any jump past it caps the path, so an overflowing draw only
    ever marks a path capped.
    """

    def __init__(self, pmf_up_to, limit: int = _CDF_BOUND):
        self._pmf_up_to = pmf_up_to
        self._limit = limit
        self._horizon = min(_CDF_START, limit)
        self._cdf = np.cumsum(pmf_up_to(self._horizon))
        self._cdf_list = None

    @property
    def table_size(self) -> int:
        return self._cdf.size

    def _extend_for(self, vmax: float) -> None:
        while self._cdf[-1] <= vmax and self._horizon < self._limit:
            self._horizon = min(2 * self._horizon, self._limit)
            self._cdf = np.cumsum(self._pmf_up_to(self._horizon))
            self._cdf_list = None

    def draw(self, v: np.ndarray) -> np.ndarray:
        if v.size == 0:
            return np.zeros(0, dtype=np.int64)
        self._extend_for(float(v.max()))
        return np.searchsorted(self._cdf, v, side="right").astype(np.int64)

    def draw_one(self, v: float) -> int:
        self._extend_for(v)
        if self._cdf_list is None:
            self._cdf_list = self._cdf.tolist()
        return bisect_right(self._cdf_list, v)


def _offspring_pmf(law: OffspringLaw):
    lam = law.lifetime_mean

    def pmf(K: int) -> np.ndarray:
        p = lam * law.rates_up_to(K)
        p[1] = 0.0
        return p

    return pmf


def _immigration_pmf(law: ImmigrationLaw):
    total = -law.b0

    def pmf(K: int) -> np.ndarray:
        p = law.rates_up_to(K) / total
        p[0] = 0.0
        return p

    return pmf


def sample_offspring(f_law: OffspringLaw, u: float) -> int:
    """Offspring count for a single uniform variate in [0, 1)."""
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    return _Sampler(_offspring_pmf(f_law)).draw_one(u)


def _run_chunk(cfg: SimConfig, seed_seq, n_paths: int) -> tuple[np.ndarray, np.ndarray, int, int, int]:
    rng = np.random.default_rng(seed_seq)
    limit = min(cfg.cap + 1, _CDF_BOUND)
    off = _Sampler(_offspring_pmf(cfg.offspring), limit)
    imm = _Sampler(_immigration_pmf(cfg.immigration), limit) if cfg.immigration is not None else None
    rb = -cfg.offspring.a1
    ri = -cfg.immigration.b0 if cfg.immigration is not None else 0.0
    cap = cfg.cap

    n = np.full(n_paths, cfg.start, dtype=np.int64)
    t = np.zeros(n_paths)
    capped = np.zeros(n_paths, dtype=bool)
    out = np.empty((n_paths, len(cfg.grid)), dtype=np.int64)

    random = rng.random
    bits = rng.bit_generator
    log1p = math.log1p

    def advance_scalar(lane: int, horizon: float) -> int:
        ni, ti = int(n[lane]), float(t[lane])
        events = 0
        while True:
            rate = ni * rb + ri
            if rate <= 0.0 or ti >= horizon:
                break
            ti += -log1p(-random()) / rate
            if ti > horizon:
                ti = horizon
                break
            u2 = random()
            events += 1
            pb = ni * rb / rate
            if u2 < pb:
                ni += off.draw_one(u2 / pb) - 1
            else:
                ni += imm.draw_one((u2 - pb) / (1.0 - pb))
            if ni > cap:
                capped[lane] = True
                break
        n[lane], t[lane] = ni, ti
        return events

    def advance_walk(lane: int, horizon: float) -> int:
        """advance_scalar without immigration, a block of events per numpy pass.

        There every event is a branching (pb = 1) and the jump chain is the walk
        n_k = n_{k-1} + X_k - 1 with times t_k = t_{k-1} + E_k / (rb n_{k-1}).
        A block draws the uniforms in the loop's order (clock, jump, clock, ...),
        redoes its arithmetic with sequential cumsums, finds the event where the
        loop stops, and rewinds the stream to just past the last uniform the
        loop would have consumed.
        """
        ni, ti = int(n[lane]), float(t[lane])
        events, size = 0, _WALK_START
        while ni > 0 and ti < horizon:
            state = bits.state
            u = random(2 * size)
            # math.log1p as in the loop: np.log1p differs from it in the last ulp
            clock = np.array([-log1p(-v) for v in u[0::2].tolist()])
            n_after = ni + np.cumsum(off.draw(u[1::2]) - 1)
            n_before = np.concatenate(([ni], n_after[:-1]))
            # an infinite rate past extinction keeps division by zero out of the unused tail
            rate = np.where(n_before > 0, n_before * rb, math.inf)
            t_after = np.cumsum(np.concatenate(([ti], clock / rate)))[1:]
            stop = (t_after >= horizon) | (n_after <= 0) | (n_after > cap)
            k = int(stop.argmax())
            if not stop[k]:
                events += size
                ni, ti = int(n_after[-1]), float(t_after[-1])
                size = min(2 * size, _WALK_MAX)
                continue
            if t_after[k] > horizon:
                # the clock overshoots: the loop stops before drawing this jump
                used, ti = 2 * k + 1, horizon
                ni = int(n_after[k - 1]) if k else ni
                events += k
            else:
                used, ni, ti = 2 * k + 2, int(n_after[k]), float(t_after[k])
                events += k + 1
                capped[lane] = ni > cap
            bits.state = state
            bits.advance(used)
            break
        n[lane], t[lane] = ni, ti
        return events

    straggler = advance_walk if ri == 0.0 else advance_scalar
    events = straggler_events = 0
    for gi, g in enumerate(cfg.grid):
        # working set of lane indices still needing events before g
        rate = n * rb + ri
        work = np.nonzero(~capped & (t < g) & (rate > 0.0))[0]
        while work.size > _SCALAR_SWITCH:
            nw = n[work]
            rate_w = nw * rb + ri
            u1 = rng.random(work.size)
            t_next = t[work] - np.log1p(-u1) / rate_w
            fired = t_next <= g
            t[work] = np.where(fired, t_next, g)
            fi = work[fired]
            events += fi.size
            if fi.size:
                u2 = rng.random(fi.size)
                pb = n[fi] * rb / rate_w[fired]
                branch = u2 < pb
                bi = fi[branch]
                if bi.size:
                    n[bi] += off.draw(u2[branch] / pb[branch]) - 1
                ii = fi[~branch]
                if ii.size:
                    n[ii] += imm.draw((u2[~branch] - pb[~branch]) / (1.0 - pb[~branch]))
                capped[fi[n[fi] > cap]] = True
                still = ~capped[fi] & (n[fi] * rb + ri > 0.0)
                work = fi[still]
            else:
                work = fi
        for lane in work:
            straggler_events += straggler(int(lane), g)
        out[:, gi] = n
    table_size = max(off.table_size, imm.table_size if imm is not None else 0)
    return out, capped, events + straggler_events, straggler_events, table_size


def simulate(cfg: SimConfig, threads: int = 1) -> PathObservations:
    """Run all replicas; identical (config, seed) gives identical output."""
    n_chunks = (cfg.replicas + CHUNK - 1) // CHUNK
    seqs = np.random.SeedSequence(cfg.seed).spawn(n_chunks)
    sizes = [min(CHUNK, cfg.replicas - c * CHUNK) for c in range(n_chunks)]
    if threads == 0:
        threads = os.cpu_count() or 1
    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda a: _run_chunk(cfg, a[0], a[1]), zip(seqs, sizes)))
    else:
        parts = [_run_chunk(cfg, sq, sz) for sq, sz in zip(seqs, sizes)]
    return PathObservations(
        grid=cfg.grid,
        states=np.concatenate([p[0] for p in parts], axis=0),
        capped=np.concatenate([p[1] for p in parts]),
        events=sum(p[2] for p in parts),
        straggler_events=sum(p[3] for p in parts),
        table_size=max(p[4] for p in parts),
    )


def _grid_index(cfg: SimConfig, t: float) -> int:
    try:
        return cfg.grid.index(float(t))
    except ValueError:
        raise ValueError(f"t={t} is not a grid point of the configuration") from None


def estimate(
    cfg: SimConfig,
    kind: str,
    t: float,
    j: int | None = None,
    threads: int = 1,
    obs: PathObservations | None = None,
) -> Estimate:
    """Plug-in estimator over uncapped paths.

    Kinds: ``survival`` (population positive at t), ``p`` (population equals
    j at t), ``mean`` (average population at t), ``ratio`` (count at j over
    count at 0, delta-method standard error).
    """
    if obs is None:
        obs = simulate(cfg, threads=threads)
    col = obs.states[~obs.capped, _grid_index(cfg, t)]
    n_used = col.size
    n_capped = int(obs.capped.sum())
    if n_used == 0:
        raise InsufficientEventsError("all paths were capped")
    if kind == "survival":
        p = float(np.mean(col > 0))
        return Estimate(p, math.sqrt(p * (1.0 - p) / n_used), n_used, n_capped)
    if kind == "p":
        if j is None:
            raise ValueError("p estimator needs a level j")
        p = float(np.mean(col == j))
        return Estimate(p, math.sqrt(p * (1.0 - p) / n_used), n_used, n_capped)
    if kind == "mean":
        m = float(col.mean())
        sd = float(col.std(ddof=1)) if n_used > 1 else 0.0
        return Estimate(m, sd / math.sqrt(n_used), n_used, n_capped)
    if kind == "ratio":
        if j is None:
            raise ValueError("ratio estimator needs a level j")
        c0 = int(np.sum(col == 0))
        cj = int(np.sum(col == j))
        if c0 < 100:
            raise InsufficientEventsError(f"denominator count {c0} below 100")
        p0, pj = c0 / n_used, cj / n_used
        r = pj / p0
        # delta method for a multinomial count ratio, stable at cj = 0
        var = (
            pj * (1.0 - pj) / (n_used * p0**2)
            + pj**2 * (1.0 - p0) / (n_used * p0**3)
            + 2.0 * pj**2 / (n_used * p0**2)
        )
        return Estimate(r, math.sqrt(max(var, 0.0)), n_used, n_capped)
    raise ValueError(f"unknown estimator kind {kind!r}")
