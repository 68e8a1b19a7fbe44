"""Exact-event simulation of branching systems with and without immigration.

Every path is simulated event by event: a single exponential clock with the
total rate picks the next event time and a second uniform selects the event
(offspring count or immigration batch) by exact inverse-CDF lookup, so the
jump-chain law is sampled without any tail approximation.  A guide table finds
most indices with one gather and every index as a binary search would.  No
leaping of any kind is applied; bias would contaminate the asymptotic-rate
checks downstream.

Paths are advanced in vectorized rounds across fixed-size chunks.  Each chunk
draws from its own stream spawned from (seed, chunk index) and reads it exactly
as it would alone, so results are bit-for-bit reproducible for a given
(config, seed) and no chunk's paths depend on the others.  A round works on a
compact working set (lane ids with their populations and times) that one mask
shrinks each round; populations are written back for the paths that fired.
Every reader of a chunk's stream (a round or a block of rounds) goes through
one cursor over a buffered block of its uniforms, so the chunk consumes them
in one sequence, as successive random() calls would return them.  A round
takes one uniform for every lane's clock followed by one for each fired
lane's jump; a block of rounds peeks ahead and moves the cursor just past the
uniforms it uses.  Without immigration every event is a branching, so a round
looks each jump up from its uniform directly.  With immigration one routine,
_split, serves rounds and blocks alike: a lane branches when its uniform u
falls below the branching share pb and then reads u / pb in the offspring
table, else (u - pb) / (1 - pb) in the immigration table, and one read of a
guide over both tables looks up every lane's jump.
Clocks come from np.log1p, which can differ from the per-event loop's
math.log1p in the last ulp: an event time can move by an ulp or so, which
changes a path only if the event lands that close to a grid time.
At each grid time the rounds run in two phases of one round routine.  In the
first phase each chunk runs alone until it has at most _JOIN live lanes, so
only one chunk's full working set is held at a time and the joint phase starts
from at most _JOIN lanes per chunk.  In the joint phase the chunks still in the
rounds run together: their working sets are concatenated in lane order and
each chunk's segment is found by searching for its first lane, so the many
rounds with few lanes that end every chunk share their numpy calls; the
earlier the chunks join, the fewer rounds each one pays for alone.  One chunk
is the joint phase with one segment.

Once a chunk is down to a handful of straggler paths, each of them runs its
rounds alone, in lane order, as a working set of one lane, which keeps rare
high-population excursions from stalling the vectorized rounds.  Few-lane
rounds run in blocks.  A round in which every lane fires and stays reads m
clock uniforms and then m jump uniforms, so R such rounds read an (R, 2, m)
slice of the stream.  Once a working set is down to _BLOCK_LANES lanes
without immigration, or to one lane with it, and no lane left it in its last
round (or it has just been formed), its rounds run in blocks of R: each lane
moves through the block, the rounds before the first one in which some lane
would stop (die without immigration, cap, pass the grid time or need a larger
table) are committed at once, and that round runs as an ordinary round, which
grows the table or lets the lane leave.  So a block never grows a table, and
the table sizes are those of the rounds it replaces.  R doubles while blocks
run clean and halves on an early stop, with at most _BLOCK_SIZE rounds x
lanes.  It starts at _BLOCK_START for a working set of many lanes, and for a
straggler where the last straggler's blocks ended (at least _BLOCK_START), so
a long straggler need not climb from _BLOCK_START again.  No block length
changes a path.  An event's jump reads the population only through the
branching share n rb / (n rb + ri), so a block is the fixed point of redrawing
its jumps from the path they make: the first pass guesses each lane's first n
on every row, each later pass redraws from the path the last one made up to
its first stop, and the passes stop when the share agrees there.  Without
immigration the share is 1 and the first pass is the fixed point.  With
immigration the passes pay off on a long straggler but not on every few-lane
round: blocks at every immigration round of up to _BLOCK_LANES lanes made a
run of the canonical pair at cap 200, which spends its events in such rounds,
slower in 10 of 11 alternating runs.
A straggler is a round like any other, so an event that lands exactly on the
grid time keeps its lane, which reads one more clock uniform before it leaves;
the per-event loop stops there without that read.  Only an exact float tie
makes the two differ.

Each law's jump sampler returns population changes, and a table grows only to
cover the largest uniform drawn from it, whether that law's sampler reads it
alone (rounds without immigration) or the two-law read does (rounds with it),
so the tables grow where the per-event loop grows them.  Each sampler holds
its grow edge, the least uniform whose draw grows its table, and both reads
test against it.  The tables grow on
demand but never past cap + 2 entries: a larger jump caps the path whatever
its exact size, so every uncapped path is sampled exactly with memory bounded
by the cap.  Table entries do not depend on the table's length, so all chunks
share one sampler per law.

Capped paths (population above the safety cap) are frozen, counted, and
excluded by the estimators; the count is always reported, never dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laws import _CDF_BOUND, ImmigrationLaw, OffspringLaw, _check

__all__ = [
    "SimConfig",
    "Estimate",
    "PathObservations",
    "InsufficientEventsError",
    "simulate",
    "estimate",
]

CHUNK = 8192
DEFAULT_CAP = 10**6
_SCALAR_SWITCH = 4
_CDF_START = 1024
# buckets of a sampler's guide; a power of two, so v * _GUIDE and the edges b / _GUIDE are exact
_GUIDE = 4096
# a uniform block that runs short is refilled with twice the uniforms asked for plus this many
_ROUND_BLOCK = 1024
# a chunk runs its rounds alone until it has this many live lanes or fewer; 1024-4096 ran
# faster than 512, and at 2048 runs of 10^6 paths peaked at most about 20 MB above 512
_JOIN = 2048
# without immigration, rounds with this many lanes or fewer (with it, one lane) run in
# blocks of whole rounds, at most _BLOCK_SIZE rounds x lanes; a working set of many lanes
# starts at _BLOCK_START rounds, and a straggler where the last one's blocks ended (_carried)
_BLOCK_LANES = 512
_BLOCK_SIZE = 4096
_BLOCK_START = 8


class InsufficientEventsError(ValueError):
    """Denominator event count too small for a stable ratio estimate."""


@dataclass(frozen=True)
class SimConfig:
    """One simulation experiment: laws, observation grid, replica budget.

    replicas, cap, grid, start and seed are checked against the ``laws``
    leaves that configs use; the grid must also be sorted, start must not
    exceed cap (a path above the cap counts as capped only once it jumps),
    and the largest event rate of an uncapped path, max(start, cap) * -a1 - b0,
    finite.
    """

    offspring: OffspringLaw
    immigration: ImmigrationLaw | None
    grid: tuple[float, ...]
    replicas: int
    seed: int
    start: int | None = None
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        if self.start is None:
            object.__setattr__(self, "start", 0 if self.immigration is not None else 1)
        _check(replicas=self.replicas, cap=self.cap, grid=self.grid, start=self.start, seed=self.seed)
        g = tuple(float(t) for t in self.grid)
        if list(g) != sorted(g):
            raise ValueError("grid must be sorted")
        object.__setattr__(self, "grid", g)
        if self.start > self.cap:
            raise ValueError(f"start must not exceed cap={self.cap}, got {self.start}")
        # an infinite rate turns the branching share of an event into NaN
        ri = -self.immigration.b0 if self.immigration is not None else 0.0
        rate = float(max(self.start, self.cap)) * -self.offspring.a1 + ri
        if not math.isfinite(rate):
            raise ValueError(f"cap must keep the largest event rate max(start, cap) * -a1 - b0 finite, got {rate!r}")


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

    ``events`` counts every jump, ``straggler_events`` those made by the
    one-lane rounds a chunk runs after its vectorized rounds, and
    ``table_size`` is the largest sampler table built, in entries.
    """

    states: np.ndarray
    capped: np.ndarray
    events: int
    straggler_events: int
    table_size: int


class _Sampler:
    """Inverse-CDF sampler of a law's jumps as population changes, with a growing prefix table.

    The table is the cumulative pmf of indices 0..horizon: the rates divided
    by the total rate (not multiplied by its inverse, which overflows once a_1
    is subnormal), with no mass at the index that changes nothing.  Offspring
    index j changes the population by j - 1, immigration index k by k, and a
    uniform beyond the table falls at index horizon + 1.  The table doubles
    while the horizon stays below ``limit``, and only to cover the largest
    uniform drawn from it: ``lookup`` reads the table as it is and flags the
    uniforms whose draw would grow it, ``draw`` grows it to cover them first.
    Immigration rounds read both laws' tables at once through
    ``_PairSampler``, which grows each one by that same rule.  Table entries
    do not depend on the horizon, so every jump within the table is exact.
    Simulation sets limit = cap + 1 (at most the memory bound): any jump past
    it caps the path, so an overflowing draw only ever marks a path capped.

    Each table has a guide of K = _GUIDE buckets (indexed search: Chen & Asau,
    AIIE Trans. 6, 1974; Devroye, Non-Uniform Random Variate Generation, 1986,
    III.2.4).  Bucket b holds the uniforms in [b / K, (b + 1) / K), the last one
    also every value from 1 up.  It is settled when no table entry lies inside
    it, #(cdf <= b / K) = #(cdf < (b + 1) / K), and then that count is the
    searchsorted index of each of its uniforms.  A uniform v reads the bucket
    that the cast truncates v * K to (exact, K being a power of two), clipped
    to the guide; only those in unsettled buckets go on to searchsorted.  So
    the index is searchsorted's for every float64: a value that the cast or
    the clip moves out of its bucket (a negative, -0.0, NaN, an infinity, or a
    value whose cast overflows) lands in bucket 0, which is never settled, or
    in the last bucket, whose upper edge is inf.
    """

    def __init__(self, law: OffspringLaw | ImmigrationLaw, limit: int = _CDF_BOUND):
        # the index that changes nothing: one offspring, or no arrival
        self._law, self._still = law, 1 if isinstance(law, OffspringLaw) else 0
        self._rate = -law.a1 if self._still else -law.b0
        self._limit, self._horizon = limit, min(_CDF_START, limit)
        self._table()

    def _table(self) -> None:
        """The table at the current horizon, its guide, and its grow edge: the last entry, inf at the limit."""
        p = self._law.rates_up_to(self._horizon) / self._rate
        p[self._still] = 0.0
        cdf = np.cumsum(p)
        edges = np.arange(_GUIDE + 1) / _GUIDE
        edges[-1] = math.inf
        lo, hi = cdf.searchsorted(edges[:-1], side="right"), cdf.searchsorted(edges[1:], side="left")
        # a settled change is at least -1, so -2 marks an unsettled bucket
        guide = np.where(lo == hi, lo - self._still, -2)
        # bucket 0 stays unsettled: negatives, NaN and -inf land there and fall back
        guide[0] = -2
        self._cdf, self._guide = cdf, guide
        self._edge = cdf[-1] if self._horizon < self._limit else math.inf

    @property
    def table_size(self) -> int:
        return self._cdf.size

    def _extend_for(self, vmax: float) -> None:
        # the horizon test stops an infinite vmax, which reaches the inf edge at the limit
        while self._edge <= vmax and self._horizon < self._limit:
            self._horizon = min(2 * self._horizon, self._limit)
            self._table()

    def _changes(self, v: np.ndarray) -> np.ndarray:
        # the cast truncates v * _GUIDE to v's bucket, and the clip keeps it on the guide
        changes = self._guide.take((v * _GUIDE).astype(np.intp), mode="clip")
        fall = changes < -1
        if np.count_nonzero(fall):
            changes[fall] = self._cdf.searchsorted(v[fall], side="right") - self._still
        return changes

    def lookup(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Changes for the uniforms v from the table as it is, and where their draw would grow it."""
        return self._changes(v), v >= self._edge

    def draw(self, v: np.ndarray) -> np.ndarray:
        """Changes for a non-empty array of uniforms, the table first grown to cover them."""
        vmax = v.max()
        if vmax >= self._edge:
            self._extend_for(float(vmax))
        return self._changes(v)


class _PairSampler:
    """The offspring and immigration samplers of one system, read through one guide.

    Each lane's uniform is already its own law's, as ``_split`` makes it.

    The guide holds the offspring guide's K = _GUIDE buckets, its last bucket
    once more at K (where an offspring uniform of exactly 1.0 lands), and then
    the immigration guide's K buckets, so a lane that immigrates reads its
    bucket at the offset K + 1 and its 1.0 clips to its own last bucket.  In a
    table that can still grow, the buckets from the one that holds its
    sampler's grow edge up are unsettled in this guide, so every uniform whose
    draw would grow a table falls back.  The fallback searches each law's
    uniforms in its own table; ``draw`` first grows each table to cover the
    largest of them, which is the largest of all its law's uniforms whenever
    the table grows, so each table grows exactly where its own sampler's
    ``draw`` would grow it.  Once both tables are at their limit no uniform
    grows one, so the fallback skips that test, and when no immigrating lane
    falls back it searches the offspring table alone.  The guide is rebuilt
    after either table has grown.
    """

    def __init__(self, off: _Sampler, imm: _Sampler):
        self._laws, self._tables = (off, imm), (None, None)

    def _read(self, v: np.ndarray, ii: np.ndarray, grow: bool) -> tuple[np.ndarray, np.ndarray]:
        """Changes for the 1-D uniforms v, the lanes ii immigrating, and the lanes whose draw grows a table.

        With grow, each table first grows to cover its law's uniforms.
        """
        off, imm = self._laws
        if self._tables[0] is not off._cdf or self._tables[1] is not imm._cdf:
            self._tables = off._cdf, imm._cdf
            self._guide = np.concatenate((off._guide, off._guide[-1:], imm._guide))
            for s, lo, hi in ((off, 0, _GUIDE + 1), (imm, _GUIDE + 1, self._guide.size)):
                if s._edge < math.inf:
                    self._guide[lo + min(int(s._edge * _GUIDE), _GUIDE - 1) : hi] = -2
        # each uniform's bucket, moved to the immigration buckets for the lanes ii
        at = (v * _GUIDE).astype(np.intp)
        if ii.size:
            at[ii] += _GUIDE + 1
        changes = self._guide.take(at, mode="clip")
        fall = (changes < -1).nonzero()[0]
        if not fall.size:
            return changes, fall
        # the uniforms in unsettled buckets, each searched in its own law's table
        vf, moved = v.take(fall), at.take(fall) > _GUIDE
        if off._edge == imm._edge == math.inf:
            # both tables at their limit: no draw grows one
            wide = fall[:0]
        else:
            wide = fall[vf >= np.where(moved, imm._edge, off._edge)]
            if grow and wide.size:
                for s, lanes in ((off, ~moved), (imm, moved)):
                    s._extend_for(float(vf.max(where=lanes, initial=-math.inf)))
        if ii.size and moved.any():
            changes[fall] = np.where(
                moved, imm._cdf.searchsorted(vf, side="right"), off._cdf.searchsorted(vf, side="right") - 1
            )
        else:
            changes[fall] = off._cdf.searchsorted(vf, side="right") - 1
        return changes, wide

    def lookup(self, v: np.ndarray, ii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Changes for the uniforms v, the flat lanes ii immigrating, and where a draw would grow a table."""
        changes, wide = self._read(v.ravel(), ii, False)
        grow = np.zeros(v.shape, dtype=bool)
        grow.put(wide, True)
        return changes.reshape(v.shape), grow

    def draw(self, v: np.ndarray, ii: np.ndarray) -> np.ndarray:
        """Changes for the 1-D uniforms v, the lanes ii immigrating, the tables first grown to cover them."""
        return self._read(v, ii, True)[0]


class _Stream:
    """One chunk's uniforms, read through one cursor, and its working set while its rounds run.

    ``buf[pos:]`` are the stream's next uniforms: a refill appends a block drawn
    from the generator, so every reader sees the uniforms in the order that
    ``random()`` calls would return them.  A round ``take``s u1 for every lane,
    then u2 for each lane that fired; a block of rounds ``peek``s ahead and
    moves ``pos`` past the uniforms it uses.  ``lo`` is the chunk's
    first lane.
    """

    __slots__ = ("random", "lo", "buf", "pos", "lanes", "nw", "tw")

    def __init__(self, seed_seq, lo: int):
        self.random, self.lo = np.random.default_rng(seed_seq).random, lo
        self.buf, self.pos = np.empty(0), 0

    def peek(self, size: int) -> np.ndarray:
        """The next size uniforms, without consuming them; the block is refilled if it runs short."""
        if self.pos + size > self.buf.size:
            self.buf, self.pos = np.concatenate((self.buf[self.pos :], self.random(2 * size + _ROUND_BLOCK))), 0
        return self.buf[self.pos : self.pos + size]

    def take(self, size: int) -> np.ndarray:
        """The next size uniforms, consumed."""
        u = self.peek(size)
        self.pos += size
        return u


def _walk_rows(n0, t0, clock: np.ndarray, jumps: np.ndarray, rb: float, ri: float):
    """Populations and times after each row of events, the rows taken in order.

    Row k moves every column by n += jumps[k] and t += clock[k] / (n rb + ri),
    n before it, one event per column.  The cumsums add row after row, so from
    the same clocks each sum is the one the per-event loop or a round makes,
    bit for bit.  A rate <= 0 is taken as infinite, which keeps division by
    zero out of the rows past a column's stop.  Clobbers clock.
    """
    n_after = n0 + np.cumsum(jumps, axis=0)
    rate = (n_after - jumps) * rb + ri
    clock /= np.where(rate > 0.0, rate, math.inf)
    clock[0] += t0
    return n_after, np.cumsum(clock, axis=0, out=clock)


def _split(u2: np.ndarray, pb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each fired lane's uniform in its own law's table, and the flat indices of the lanes that immigrate.

    A lane branches when u2 < pb and reads u2 / pb, else it immigrates and
    reads (u2 - pb) / (1 - pb), as in the per-event loop; pb has u2's shape
    or broadcasts down a block's rows.  The u2 / pb of a lane that immigrates
    is never read, so its division by zero (pb = 0 at n = 0) or overflow (a
    tiny pb) is ignored.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = u2 / pb
    ii = (u2 >= pb).ravel().nonzero()[0]
    if ii.size:
        # a flat index's column is its remainder when pb broadcasts down the rows; v is
        # a new contiguous array, so its ravel is a view
        p = pb.take(ii if pb.size == v.size else ii % pb.size)
        v.ravel()[ii] = (u2.take(ii) - p) / (1.0 - p)
    return v, ii


def _segment_sizes(lanes: np.ndarray, starts: np.ndarray) -> list:
    """Lane counts of consecutive chunks in sorted ``lanes``; ``starts`` are the first lanes of all but the first."""
    b = lanes.searchsorted(starts).tolist()
    return [hi - lo for lo, hi in zip([0] + b, b + [lanes.size])]


def _carried(rows: int) -> int:
    """The block length the next straggler starts at, once a straggler's blocks reached rows.

    Never below _BLOCK_START: a straggler's last block stops early and halves
    R, and short immigration stragglers that started at 2 or 4 rows ran more
    blocks, each paying its fixed-point passes.
    """
    return max(rows, _BLOCK_START)


def _cat(parts: list, axis: int = 0) -> np.ndarray:
    """``np.concatenate(parts, axis)``, but a lone part comes back as it is, uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


# a rate so small that the waiting time overflows to inf correctly never fires
@np.errstate(over="ignore")
def simulate(cfg: SimConfig, threads: int = 1) -> PathObservations:
    """Run all replicas; identical (config, seed) gives identical output.

    Chunk c (replicas c*CHUNK onwards) draws from ``SeedSequence(seed).spawn(n)[c]``
    and reads it exactly as it would alone.  At each grid time every chunk
    runs its rounds alone down to _JOIN live lanes, the chunks still in the
    rounds then run theirs together, and each chunk's stragglers go last, one
    lane at a time.
    ``threads`` is accepted and ignored.
    """
    n_chunks = (cfg.replicas + CHUNK - 1) // CHUNK
    chunks = [_Stream(sq, c * CHUNK) for c, sq in enumerate(np.random.SeedSequence(cfg.seed).spawn(n_chunks))]
    # table entries do not depend on the horizon, so the chunks share the samplers
    limit = min(cfg.cap + 1, _CDF_BOUND)
    off = _Sampler(cfg.offspring, limit)
    imm = _Sampler(cfg.immigration, limit) if cfg.immigration is not None else None
    rb = -cfg.offspring.a1
    ri = -cfg.immigration.b0 if cfg.immigration is not None else 0.0
    cap = cfg.cap

    n = np.full(cfg.replicas, cfg.start, dtype=np.int64)
    capped = np.zeros(cfg.replicas, dtype=bool)
    out = np.empty((cfg.replicas, len(cfg.grid)), dtype=np.int64)

    # Without immigration every event is a branching: the rate x + 0.0 is x and
    # the branching share x / (x + 0.0) is exactly 1, so those rounds skip both.
    pure = ri == 0.0
    pair = None if pure else _PairSampler(off, imm)
    # a block stops at a row below this n: death without immigration; with it n = 0 goes on
    lowest = 1 if pure else 0
    # where the next straggler's blocks start: the length the last one's reached
    carry = _BLOCK_START

    def rounds(group: list, g: float, leave_at: int) -> int:
        """Vectorized rounds to grid time g over the chunks of group, run together.

        Their working sets are concatenated in lane order.  A chunk leaves,
        keeping its working set, once it has leave_at lanes or fewer.  Each
        chunk reads only its own stream, in the order it would alone, so
        running chunks together changes none of their paths.  A straggler's
        call (leave_at = 0) starts its blocks at carry and leaves carry where
        they ended; no block length changes a path.  Returns the number of
        events.
        """
        nonlocal carry
        events = 0
        group = [c for c in group if c.lanes.size > leave_at]
        while group:
            # every chunk of group has more than leave_at lanes here
            lanes, nw, tw = (_cat(w) for w in zip(*((c.lanes, c.nw, c.tw) for c in group)))
            starts = np.array([c.lo for c in group[1:]], dtype=np.int64)
            sizes = [c.lanes.size for c in group]
            rows, steady = _BLOCK_START if leave_at else carry, True
            while True:
                m = lanes.size
                if steady and m <= (_BLOCK_LANES if pure else 1):
                    # A block of R rounds.  While no lane leaves, a round reads m clock
                    # uniforms and then m jump uniforms, so R of them read an (R, 2, m)
                    # slice of each stream.  np.log1p as in a round, whose
                    # t - log1p(-u) / rate is t + (-log1p(-u)) / rate exactly.
                    R = min(rows, _BLOCK_SIZE // m)
                    u = _cat([c.peek(2 * s * R).reshape(R, 2, s) for c, s in zip(group, sizes)], axis=2)
                    # one contiguous copy of the jump uniforms, which every pass reads
                    logs, u2 = np.log1p(-u[:, 0]), u[:, 1].copy()
                    if not pure:
                        # the first pass reads each lane's first n: one row, broadcast down the block
                        x = nw * rb
                        pb = (x / (x + ri))[None]
                    while True:
                        # the round's draws at pb from the tables as they are; a jump that
                        # would grow a table stops the block, which never grows one; past a
                        # table at its limit the change is limit = min(cap + 1, _CDF_BOUND)
                        # >= cap, so nb > cap stops that row
                        jumps, grow = off.lookup(u2) if pure else pair.lookup(*_split(u2, pb))
                        nb, tb = _walk_rows(nw, tw, -logs, jumps, rb, ri)
                        hit = ((nb < lowest) | (nb > cap) | ~(tb <= g) | grow).any(axis=1)
                        r = int(hit.argmax())
                        if not hit[r]:
                            r = hit.size
                        if pure:
                            break  # every event branches (pb = 1): the first pass is the fixed point
                        # redraw from the path this pass made until pb agrees through the stop;
                        # each of those rows starts from n >= 0, so x + ri > 0
                        x = (nb[: r + 1] - jumps[: r + 1]) * rb
                        guess, pb = pb[: r + 1], x / (x + ri)
                        if (pb == guess).all():
                            break
                        logs, u2 = logs[: r + 1], u2[: r + 1]
                    if r:
                        # commit the rounds before the first one where a lane stops
                        events += r * m
                        nw, tw = nb[r - 1], tb[r - 1]
                        n[lanes] = nw
                        for c, s in zip(group, sizes):
                            c.pos += 2 * s * r
                    if r == R:
                        rows = min(2 * R, _BLOCK_SIZE)
                        continue
                    rows = max(R // 2, 2)
                u1 = _cat([c.take(s) for c, s in zip(group, sizes)])
                x = nw * rb
                tw = tw - np.log1p(-u1) / (x if pure else x + ri)
                fired = tw <= g
                if np.count_nonzero(fired) < m:
                    lanes, nw, tw, x = lanes[fired], nw[fired], tw[fired], x[fired]
                    sizes = _segment_sizes(lanes, starts)
                k = lanes.size
                events += k
                u2 = _cat([c.take(s) for c, s in zip(group, sizes)])
                if not k:
                    break
                # in place: nw is this round's array, a block's row or (_cat returns a lone
                # part uncopied) its chunk's c.nw, which nothing reads before it is replaced
                nw += off.draw(u2) if pure else pair.draw(*_split(u2, x / (x + ri)))
                n[lanes] = nw
                gone = nw > cap
                leave = np.count_nonzero(gone)
                if leave:
                    capped[lanes[gone]] = True
                # n = 0 is absorbing without immigration; with it the rate stays positive
                if pure:
                    gone |= nw <= 0
                    leave = np.count_nonzero(gone)
                if leave:
                    keep = ~gone
                    lanes, nw, tw = lanes[keep], nw[keep], tw[keep]
                    sizes = _segment_sizes(lanes, starts)
                steady = lanes.size == m
                if min(sizes) <= leave_at:
                    break
            lo, stay = 0, []
            for c, m in zip(group, sizes):
                c.lanes, c.nw, c.tw = lanes[lo : lo + m], nw[lo : lo + m], tw[lo : lo + m]
                lo += m
                if m > leave_at:
                    stay.append(c)
            group = stay
            if not leave_at:
                carry = _carried(rows)
        return events

    events = straggler_events = 0
    t_prev = 0.0
    for gi, g in enumerate(cfg.grid):
        for c in chunks:
            # Every live, uncapped lane stands at t_prev: the rounds and the
            # stragglers leave it at the grid time it was advanced to.  The
            # working set is compact: lane ids with their n and t.
            part = slice(c.lo, c.lo + CHUNK)
            c.lanes = np.flatnonzero(~capped[part] & (n[part] * rb + ri > 0.0) & (t_prev < g)) + c.lo
            c.nw, c.tw = n[c.lanes], np.full(c.lanes.size, t_prev)
            events += rounds([c], g, _JOIN)
        events += rounds(chunks, g, _SCALAR_SWITCH)
        for c in chunks:
            # each straggler in lane order, as a working set of one lane
            lanes, nw, tw = c.lanes, c.nw, c.tw
            for i in range(lanes.size):
                c.lanes, c.nw, c.tw = lanes[i : i + 1], nw[i : i + 1], tw[i : i + 1]
                straggler_events += rounds([c], g, 0)
        out[:, gi] = n
        t_prev = g
    return PathObservations(
        states=out,
        capped=capped,
        events=events + straggler_events,
        straggler_events=straggler_events,
        table_size=max(off.table_size, imm.table_size if imm is not None else 0),
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
    obs: PathObservations | None = None,
) -> Estimate:
    """Plug-in estimator over uncapped paths.

    Kinds: ``survival`` (population positive at t), ``p`` (population equals
    j at t), ``mean`` (average population at t), ``ratio`` (count at j over
    count at 0, delta-method standard error).
    """
    if obs is None:
        obs = simulate(cfg)
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
