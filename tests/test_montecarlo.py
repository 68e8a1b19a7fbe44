import math
import types
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from criticalbranch import (
    make_finite_immigration,
    make_finite_offspring,
    make_perturbed_offspring,
    make_stable_immigration,
    make_stable_offspring,
)
from criticalbranch import montecarlo as mc
from criticalbranch.oracle import build_generator, uniformized_transition

BINARY = make_finite_offspring([1.0, -2.0, 1.0])
HALF = make_stable_offspring(0.5, 1.0)
ARRIVALS = make_finite_immigration([-1.0, 1.0])
HEAVY_IMM = make_stable_immigration(0.4, 0.1)
KAPPA_IMM = make_stable_immigration(0.4, 0.1, 0.25)
FINITE = make_finite_offspring([2.0, -3.0, 0.5, 0.5])
FINITE_IMM = make_finite_immigration([-1.0, 0.5, 0.25, 0.25])
# from 0 at the default cap, the immigration stragglers make most of the events
IMM_STRAGGLERS = mc.SimConfig(make_perturbed_offspring(0.5, 1.0, 0.3, 0.5), HEAVY_IMM, (10.0,), 100, 48)


def loop_draw(sampler):
    """The per-event loop's draw from sampler: grow the table to cover v, then bisect_right in it."""
    table = [None, None]  # the cdf array the list was made from, and the list

    def draw(v):
        sampler._extend_for(v)
        if table[0] is not sampler._cdf:
            table[:] = sampler._cdf, sampler._cdf.tolist()
        return bisect_right(table[1], v)

    return draw


def loop_split(u2, pb):
    """The per-event loop's law for one event, and its uniform in that law's table: (branches, v)."""
    return (True, u2 / pb) if u2 < pb else (False, (u2 - pb) / (1.0 - pb))


def draw_offspring(law, u):
    return loop_draw(mc._Sampler(law))(u)


class TestSampleOffspring:
    def test_binary_inverse_cdf(self):
        # pmf: {0: 1/2, 2: 1/2}
        assert draw_offspring(BINARY, 0.3) == 0
        assert draw_offspring(BINARY, 0.7) == 2

    def test_half_index_prefix(self):
        # lifetime mean 1/(-a_1) = 2/3; p0 = 2/3, p2 = 1/4, so u = 0.9 falls at k >= 2
        assert 1.0 / -HALF.a1 == pytest.approx(2.0 / 3.0)
        assert draw_offspring(HALF, 0.5) == 0
        assert draw_offspring(HALF, 0.9) >= 2

    def test_pmf_of_subnormal_rate_law(self):
        # 1/(-a_1) overflows here; inverting it first filled the table with inf * 0 = NaN
        cdf = mc._Sampler(make_stable_offspring(0.5, 5e-324), 8)._cdf
        assert np.isfinite(cdf).all() and 0.0 < cdf[-1] <= 1.0

    def test_empirical_pmf_matches_rates(self):
        rng = np.random.default_rng(7)
        sampler = mc._Sampler(HALF)
        draws = sampler.draw(rng.random(1_000_000)) + 1  # offspring counts from population changes
        lam = 1.0 / -HALF.a1  # lifetime mean
        pmf = lam * HALF.rates_up_to(10)
        pmf[1] = 0.0
        n = draws.size
        for k in range(11):
            observed = np.mean(draws == k)
            se = math.sqrt(max(pmf[k] * (1.0 - pmf[k]), 1e-12) / n)
            assert abs(observed - pmf[k]) <= 4.0 * se


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from([HALF, BINARY, FINITE, HEAVY_IMM, KAPPA_IMM, FINITE_IMM]),
    st.sampled_from([51, mc._CDF_START, 5000]),
    # the tails of HALF and HEAVY_IMM reach past a table of 5001 entries above about 0.99
    st.lists(st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.99, 1.0, exclude_max=True)),
             min_size=1, max_size=20),
)
def test_sampler_lookup_and_draw(law, limit, uniforms):
    # lookup reads the table as it is and flags exactly the uniforms whose draw
    # grows it; draw's changes are the per-event loop's index minus 1 for
    # offspring and the index itself for immigration
    sampler = mc._Sampler(law, limit)
    # the table's last entry, the least uniform whose draw can grow it, unless it is 1
    v = np.array(uniforms + [x for x in sampler._cdf[-1:].tolist() if x < 1.0])
    size = sampler.table_size
    changes, grow = sampler.lookup(v)
    for x, flagged in zip(v, grow):
        alone = mc._Sampler(law, limit)
        alone.draw(np.array([x]))
        assert (alone.table_size > size) == flagged
    drawn = sampler.draw(v)
    assert np.array_equal(changes[~grow], drawn[~grow])
    still = 1 if law in (HALF, BINARY, FINITE) else 0
    loop = loop_draw(mc._Sampler(law, limit))
    assert drawn.tolist() == [loop(x) - still for x in v.tolist()]
    # once the table is at its limit, no uniform grows it
    sampler.draw(np.array([np.nextafter(1.0, 0.0)]))
    if sampler.table_size == limit + 1:
        assert not sampler.lookup(v)[1].any()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from([HALF, BINARY, FINITE]),
    st.sampled_from([HEAVY_IMM, KAPPA_IMM, FINITE_IMM, ARRIVALS]),
    st.sampled_from([51, mc._CDF_START, 5000]),
    st.sampled_from(["mixed", "offspring", "immigration"]),
    st.data(),
)
def test_pair_read_agrees_with_each_laws_draw(offspring, immigration, limit, lanes, data):
    # one guide for both laws: each lane's change and grow flag are its own
    # law's, and each table grows exactly where that law's draw grows it; the
    # second read comes after any growth, from a rebuilt guide
    off, imm = mc._Sampler(offspring, limit), mc._Sampler(immigration, limit)
    # bucket edges, both tables' last entries and 1.0, each with its float neighbours
    special = np.concatenate([np.arange(mc._GUIDE + 1) / mc._GUIDE, [off._cdf[-1], imm._cdf[-1], 1.0]])
    special = np.concatenate([special, np.nextafter(special, -1.0), np.nextafter(special, 2.0)])
    special = special[(special >= 0.0) & (special <= 1.0)].tolist()
    uniform = st.one_of(st.floats(0.0, 1.0), st.floats(0.99, 1.0), st.sampled_from(special))
    moves = {"mixed": st.booleans(), "offspring": st.just(False), "immigration": st.just(True)}[lanes]
    rows = data.draw(st.lists(st.tuples(moves, uniform), min_size=1, max_size=24))
    moved, v = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
    ii = np.flatnonzero(moved)
    pair, alone = mc._PairSampler(off, imm), [mc._Sampler(offspring, limit), mc._Sampler(immigration, limit)]
    with np.errstate(all="raise"):
        for _ in range(2):
            changes, grow = pair.lookup(v, ii)
            for sampler, law in zip(alone, (~moved, moved)):
                if law.any():
                    want, flagged = sampler.lookup(v[law])
                    assert changes[law].tolist() == want.tolist() and grow[law].tolist() == flagged.tolist()
            drawn = pair.draw(v, ii)
            for sampler, law in zip(alone, (~moved, moved)):
                if law.any():
                    assert drawn[law].tolist() == sampler.draw(v[law]).tolist()
            assert (off.table_size, imm.table_size) == (alone[0].table_size, alone[1].table_size)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from([(HALF, imm, "offspring") for imm in (HEAVY_IMM, KAPPA_IMM, FINITE_IMM, ARRIVALS)]
                    + [(off, imm, "immigration") for off in (HALF, BINARY, FINITE) for imm in (HEAVY_IMM, KAPPA_IMM)]),
    st.data(),
)
def test_pair_read_with_one_table_at_its_limit(laws, data):
    # the limits of test_pair_read_agrees_with_each_laws_draw leave both tables
    # at their limit or neither; here one is, and the other still flags and
    # grows exactly where its own law's draw does
    offspring, immigration, full = laws
    limit = 5000
    off, imm = mc._Sampler(offspring, limit), mc._Sampler(immigration, limit)
    alone = [mc._Sampler(offspring, limit), mc._Sampler(immigration, limit)]
    for sampler in (off, alone[0]) if full == "offspring" else (imm, alone[1]):
        sampler.draw(np.array([np.nextafter(1.0, 0.0)]))
        assert sampler._edge == math.inf
    growing = imm if full == "offspring" else off
    edge = float(growing._edge)
    uniform = st.one_of(st.floats(0.0, 1.0), st.floats(0.99, 1.0),
                        st.sampled_from([edge, float(np.nextafter(edge, 0.0)), float(np.nextafter(edge, 2.0))]))
    rows = data.draw(st.lists(st.tuples(st.booleans(), uniform), min_size=1, max_size=24))
    moved, v = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
    ii = np.flatnonzero(moved)
    pair = mc._PairSampler(off, imm)
    with np.errstate(all="raise"):
        for _ in range(2):
            changes, grow = pair.lookup(v, ii)
            drawn = pair.draw(v, ii)
            for sampler, law in zip(alone, (~moved, moved)):
                if law.any():
                    want, flagged = sampler.lookup(v[law])
                    assert changes[law].tolist() == want.tolist() and grow[law].tolist() == flagged.tolist()
                    assert drawn[law].tolist() == sampler.draw(v[law]).tolist()
            assert (off.table_size, imm.table_size) == (alone[0].table_size, alone[1].table_size)


# a branching share: at n = 0, anywhere, or near 1, where n rb is far above ri
SHARES = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0 - 1e-12, 1.0))


def jump_uniform(pb):
    """A jump uniform in [0, 1): one the generator can return (a multiple of 2**-53), or pb and its neighbours."""
    near = [x for x in (pb, float(np.nextafter(pb, 0.0)), float(np.nextafter(pb, 1.0))) if x < 1.0]
    return st.one_of(st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53), st.sampled_from(near))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["round", "block", "first-pass", "later-pass"]), st.data())
def test_split_is_the_per_event_loops(case, data):
    # a round's 1-D split, a block's (R, m) split with an (m,) pb broadcast down
    # its rows (or a (1, m) pb, as a block's first pass holds it) and a later
    # pass's with one pb per entry: each lane's law and uniform are the per-event
    # loop's, bit for bit, and the split raises nothing of its own at pb = 0
    rows = 1 if case == "round" else data.draw(st.integers(1, 5))
    lanes = data.draw(st.integers(1, 8))
    pb = np.array([[data.draw(SHARES) for _ in range(lanes)] for _ in range(rows if case == "later-pass" else 1)])
    full = np.broadcast_to(pb, (rows, lanes))
    u2 = np.array([[data.draw(jump_uniform(p)) for p in row] for row in full.tolist()])
    if case == "round":
        u2, pb = u2[0], pb[0]
    elif case == "block":
        pb = pb[0]
    with np.errstate(all="raise"):
        v, ii = mc._split(u2, pb)
    want = [loop_split(x, p) for x, p in zip(u2.ravel().tolist(), full.ravel().tolist())]
    assert ii.tolist() == [i for i, (branch, _) in enumerate(want) if not branch]
    assert v.shape == u2.shape
    assert v.ravel().view(np.int64).tolist() == np.array([w for _, w in want]).view(np.int64).tolist()


# the six laws of test_sampler_lookup_and_draw
SAMPLER_LAWS = [pytest.param(law, id=name) for law, name in [
    (HALF, "half"), (BINARY, "binary"), (FINITE, "finite"),
    (HEAVY_IMM, "heavy-imm"), (KAPPA_IMM, "kappa-imm"), (FINITE_IMM, "finite-imm"),
]]
# the largest limit's tables grow past 1 - 1e-9, to more entries than the guide has buckets
GUIDE_LIMITS = [51, mc._CDF_START, 5000, 10**6 + 1]


def grown_sampler(law, limit):
    sampler = mc._Sampler(law, limit)
    if limit > 5000:
        sampler.draw(np.array([1.0 - 1e-9]))
    return sampler


@pytest.mark.parametrize("limit", GUIDE_LIMITS)
@pytest.mark.parametrize("law", SAMPLER_LAWS)
def test_guide_lookup_is_searchsorted(law, limit):
    # the guide gives cdf.searchsorted(v, "right") - still for every float64 v
    sampler = grown_sampler(law, limit)
    cdf, still = sampler._cdf, 1 if law in (HALF, BINARY, FINITE) else 0
    edges = np.arange(mc._GUIDE + 1) / mc._GUIDE
    finite = np.concatenate([
        edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
        cdf, np.nextafter(cdf, -1.0), np.nextafter(cdf, 2.0), [0.0, 1.0],
    ])
    finite = finite[(finite >= 0.0) & (finite <= 1.0)]
    # past 1, NaN and infinities, and negatives arrive only in a round block's rows past its stop
    wild = np.array([np.nextafter(1.0, 2.0), 1.5, 2.0, 2.0**51 - 1.0, 2.0**51, 2.0**52, 2.0**63, 2.0**70,
                     np.nan, np.inf, -np.inf, -0.0, -5e-324, -1e-300, -0.5 / mc._GUIDE, -0.5, -1.0, -(2.0**70)])
    m = 64  # the lanes of a round block, whose jump uniforms are the (R, m) slice u[:, 1] of an (R, 2, m) block
    block = np.zeros((finite.size // m, 2, m))
    block[:, 1] = finite[: block.shape[0] * m].reshape(-1, m)
    with np.errstate(all="raise"):
        for v in (finite, block[:, 1]):
            want = np.searchsorted(cdf, v, side="right") - still
            assert np.array_equal(sampler._changes(v), want)
            assert np.array_equal(sampler.lookup(v)[0], want)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        want = np.searchsorted(cdf, wild, side="right") - still
        assert np.array_equal(sampler._changes(wild), want)
        assert np.array_equal(sampler.lookup(wild)[0], want)


class _CountingTable(np.ndarray):
    """A table that counts the uniforms looked up in it by searchsorted."""

    def searchsorted(self, v, side="left", sorter=None):
        self.searched = getattr(self, "searched", 0) + np.size(v)
        return super().searchsorted(v, side, sorter)


@pytest.mark.parametrize("limit", GUIDE_LIMITS)
@pytest.mark.parametrize("law", SAMPLER_LAWS)
def test_guide_settles_every_bucket_without_a_table_entry(law, limit):
    # only bucket 0 and the buckets that hold a table entry send their uniforms
    # to searchsorted; one uniform per bucket counts them
    sampler = grown_sampler(law, limit)
    held = np.unique(np.minimum((sampler._cdf * mc._GUIDE).astype(np.intp), mc._GUIDE - 1)).size
    sampler._cdf = sampler._cdf.view(_CountingTable)
    sampler._changes((np.arange(mc._GUIDE) + 0.5) / mc._GUIDE)
    assert getattr(sampler._cdf, "searched", 0) <= 1 + held
    if law is BINARY:
        # the table is 0.5, 0.5, 1.0, ...: bucket 0 and the last bucket
        assert sampler._cdf.searched == 2


# a read is ("peek", size, moved): peek at size uniforms, then move the cursor
# past moved <= size of them, as a block or a straggler does; or ("take", size)
_READS = st.one_of(
    st.tuples(st.just("take"), st.integers(0, 3000)),
    st.integers(0, 3000).flatmap(lambda k: st.tuples(st.just("peek"), st.just(k), st.integers(0, k))),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_READS, max_size=30))
def test_stream_reads_one_sequence(reads):
    # every reader sees the uniforms that one random(total) call returns, at its
    # cursor's position, across refills; arrays handed out earlier stay intact
    sq = np.random.SeedSequence(49)
    want = np.random.default_rng(sq).random(sum(r[1] for r in reads))
    stream, pos, seen = mc._Stream(sq, 0), 0, []
    for read in reads:
        if read[0] == "take":
            u = stream.take(read[1])
            seen.append((pos, u))
            pos += read[1]
        else:
            _, size, moved = read
            seen.append((pos, stream.peek(size)))
            stream.pos += moved
            pos += moved
    for at, u in seen:
        assert np.array_equal(u, want[at : at + u.size])


class TestSimulate:
    def test_initial_states_on_grid(self):
        cfg = mc.SimConfig(offspring=BINARY, immigration=None, grid=(0.0,), replicas=100, seed=1)
        obs = mc.simulate(cfg)
        assert np.all(obs.states[:, 0] == 1)
        cfg2 = mc.SimConfig(offspring=BINARY, immigration=ARRIVALS, grid=(0.0,), replicas=100, seed=1)
        assert np.all(mc.simulate(cfg2).states[:, 0] == 0)

    def test_absorption_is_permanent(self):
        cfg = mc.SimConfig(offspring=BINARY, immigration=None, grid=(1.0, 2.0, 4.0), replicas=2000, seed=3)
        obs = mc.simulate(cfg)
        dead_at_1 = obs.states[:, 0] == 0
        assert np.all(obs.states[dead_at_1, 1:] == 0)

    def test_bitwise_determinism_and_thread_independence(self):
        cfg = mc.SimConfig(
            offspring=HALF, immigration=HEAVY_IMM, grid=(1.0, 5.0), replicas=20_000, seed=42, cap=1000
        )
        a = mc.simulate(cfg, threads=1)
        b = mc.simulate(cfg, threads=1)
        c = mc.simulate(cfg, threads=4)
        assert np.array_equal(a.states, b.states) and np.array_equal(a.capped, b.capped)
        assert np.array_equal(a.states, c.states) and np.array_equal(a.capped, c.capped)

    def test_power_of_two_rate_scale_changes_no_path(self):
        # rates x 2^-60 and times x 2^60 are exact, so the scaled run makes the
        # same paths, counters and tables bit for bit
        k = 2.0**-60
        plain = mc.simulate(mc.SimConfig(BINARY, ARRIVALS, (1.0, 3.0), 20_000, 11))
        laws = make_finite_offspring([k, -2.0 * k, k]), make_finite_immigration([-k, k])
        scaled = mc.simulate(mc.SimConfig(*laws, (1.0 / k, 3.0 / k), 20_000, 11))
        assert np.array_equal(plain.states, scaled.states) and np.array_equal(plain.capped, scaled.capped)
        assert (plain.events, plain.straggler_events, plain.table_size) == (
            scaled.events,
            scaled.straggler_events,
            scaled.table_size,
        )

    def test_capped_fraction_small_for_critical_paths(self):
        cfg = mc.SimConfig(offspring=HALF, immigration=None, grid=(100.0,), replicas=10_000, seed=5, cap=10**6)
        obs = mc.simulate(cfg)
        assert obs.capped.mean() < 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            mc.SimConfig(offspring=HALF, immigration=None, grid=(1.0,), replicas=0, seed=1)
        with pytest.raises(ValueError):
            mc.SimConfig(offspring=HALF, immigration=None, grid=(2.0, 1.0), replicas=10, seed=1)
        with pytest.raises(ValueError):
            mc.SimConfig(offspring=HALF, immigration=None, grid=(1.0,), replicas=10, seed=1, cap=0)
        # a cap past the sampler table would let an overflowing draw through uncapped
        with pytest.raises(ValueError, match=r"cap must be in \[1, 10000000\]"):
            mc.SimConfig(offspring=HALF, immigration=None, grid=(1.0,), replicas=10, seed=1, cap=mc._CDF_BOUND + 1)


def _reference_chunk(cfg, seed_seq, n_paths):
    """The per-event engine: vectorized rounds, then a scalar loop per straggler.

    Returns the states, the capped flags, the jump counts (all, and those of
    the scalar loop) and the largest table.

    Its tables are bounded at 16 (cap + 1), well past the engine's cap + 1, so
    agreement also checks that the engine's bound changes no uncapped path.
    """
    rng = np.random.default_rng(seed_seq)
    limit = min(16 * (cfg.cap + 1), mc._CDF_BOUND)
    off = mc._Sampler(cfg.offspring, limit)
    imm = mc._Sampler(cfg.immigration, limit) if cfg.immigration is not None else None
    draw_off, draw_imm = loop_draw(off), loop_draw(imm) if imm is not None else None
    rb = -cfg.offspring.a1
    ri = -cfg.immigration.b0 if cfg.immigration is not None else 0.0
    n = np.full(n_paths, cfg.start, dtype=np.int64)
    t = np.zeros(n_paths)
    capped = np.zeros(n_paths, dtype=bool)
    out = np.empty((n_paths, len(cfg.grid)), dtype=np.int64)
    events = [0, 0]

    def advance_scalar(lane, horizon):
        ni, ti = int(n[lane]), float(t[lane])
        while True:
            rate = ni * rb + ri
            if rate <= 0.0 or ti >= horizon:
                break
            ti += -math.log1p(-rng.random()) / rate
            if ti > horizon:
                ti = horizon
                break
            u2 = rng.random()
            events[1] += 1
            branch, v = loop_split(u2, ni * rb / rate)
            ni += draw_off(v) - 1 if branch else draw_imm(v)
            if ni > cfg.cap:
                capped[lane] = True
                break
        n[lane], t[lane] = ni, ti

    for gi, g in enumerate(cfg.grid):
        work = np.nonzero(~capped & (t < g) & (n * rb + ri > 0.0))[0]
        while work.size > 4:
            rate_w = n[work] * rb + ri
            t_next = t[work] - np.log1p(-rng.random(work.size)) / rate_w
            fired = t_next <= g
            t[work] = np.where(fired, t_next, g)
            fi = work[fired]
            events[0] += fi.size
            if fi.size:
                u2 = rng.random(fi.size)
                pb = n[fi] * rb / rate_w[fired]
                branch = u2 < pb
                if branch.any():
                    n[fi[branch]] += off.draw(u2[branch] / pb[branch])
                if (~branch).any():
                    n[fi[~branch]] += imm.draw((u2[~branch] - pb[~branch]) / (1.0 - pb[~branch]))
                capped[fi[n[fi] > cfg.cap]] = True
                work = fi[~capped[fi] & (n[fi] * rb + ri > 0.0)]
            else:
                work = fi
        for lane in work:
            advance_scalar(int(lane), g)
        out[:, gi] = n
    table = max(off.table_size, imm.table_size if imm is not None else 0)
    return out, capped, events[0] + events[1], events[1], table


def assert_matches_reference(cfg, obs):
    """obs is what _reference_chunk makes of every chunk of cfg."""
    seqs = np.random.SeedSequence(cfg.seed).spawn(-(-cfg.replicas // mc.CHUNK))
    parts = [_reference_chunk(cfg, sq, min(mc.CHUNK, cfg.replicas - c * mc.CHUNK)) for c, sq in enumerate(seqs)]
    capped = np.concatenate([p[1] for p in parts])
    assert np.array_equal(obs.capped, capped)
    assert np.array_equal(obs.states[~capped], np.concatenate([p[0] for p in parts])[~capped])
    assert obs.events == sum(p[2] for p in parts)
    assert obs.straggler_events == sum(p[3] for p in parts) > 0
    # until it reaches its bound, the engine's table grows exactly where the loop's does
    if obs.table_size <= min(cfg.cap + 1, mc._CDF_BOUND):
        assert obs.table_size == max(p[4] for p in parts)


class TestStreamExact:
    """The engine realizes exactly the paths of the per-event loop.

    Uncapped states and capped flags must agree bit for bit; a capped path's
    frozen state depends on the table bound and is never read.
    """

    @pytest.mark.parametrize(
        "cfg,threads",
        [
            pytest.param(mc.SimConfig(HALF, None, (1.0, 10.0, 50.0, 100.0), 3000, 21), 1, id="half-t100-grid"),
            pytest.param(mc.SimConfig(HALF, None, (100.0,), 10_000, 22, cap=50), 1, id="cap50"),
            pytest.param(mc.SimConfig(HALF, None, (0.0, 5.0, 20.0), 5000, 23), 1, id="grid-with-0"),
            pytest.param(mc.SimConfig(BINARY, None, (2.0, 20.0), 10_000, 24), 1, id="binary"),
            pytest.param(mc.SimConfig(HALF, HEAVY_IMM, (50.0,), 4000, 25, cap=200), 1, id="pair-cap200"),
            pytest.param(mc.SimConfig(HALF, None, (10.0,), 20_000, 26), 2, id="threads2"),
            pytest.param(mc.SimConfig(HALF, None, (2.0, 2.0, 10.0, 10.0), 5000, 28), 1, id="duplicate-grid"),
            pytest.param(mc.SimConfig(FINITE, None, (0.5, 2.0), 10_000, 29, start=2), 1, id="finite-start2"),
            # about 45% of the paths cap, most of them inside the vectorized rounds
            pytest.param(mc.SimConfig(BINARY, ARRIVALS, (10.0, 30.0), 3000, 30, start=0, cap=40), 1,
                         id="arrivals-cap40"),
            # three chunks run their last rounds together and leave them at different rounds
            pytest.param(mc.SimConfig(HALF, None, (10.0,), 3 * mc.CHUNK, 31), 1, id="three-chunks"),
            # a remainder chunk of 3 lanes never enters the rounds
            pytest.param(mc.SimConfig(HALF, None, (1.0, 10.0), 2 * mc.CHUNK + 3, 32), 1, id="remainder-3"),
            # the last chunk (8 lanes) runs rounds to t = 0.5 and to t = 3, and has no live lane left for t = 30
            pytest.param(mc.SimConfig(BINARY, None, (0.5, 3.0, 30.0), 2 * mc.CHUNK + 8, 43), 1, id="dead-chunk"),
            pytest.param(mc.SimConfig(BINARY, ARRIVALS, (5.0, 10.0), 2 * mc.CHUNK + 1000, 34, start=0, cap=40), 1,
                         id="arrivals-cap40-three-chunks"),
            # the mc-tail shape: a few long-lived lanes run most of their rounds in blocks
            pytest.param(mc.SimConfig(HALF, None, (100.0,), 10_000, 44, cap=10**4), 1, id="tail-cap1e4"),
            pytest.param(IMM_STRAGGLERS, 1, id="immigration-stragglers"),
            # blocks take several fixed-point passes, and stragglers grow tables in their rounds
            pytest.param(mc.SimConfig(HALF, KAPPA_IMM, (5.0, 20.0), 200, 50, start=3, cap=5000), 1,
                         id="kappa-start3-cap5000"),
            pytest.param(mc.SimConfig(FINITE, FINITE_IMM, (2.0, 10.0), 2000, 51), 1, id="finite-pair"),
            # the mc-tail ratio shape: two chunks run joint immigration rounds, in which about 40% of the paths cap
            pytest.param(mc.SimConfig(HALF, HEAVY_IMM, (50.0,), 10_000, 54, cap=200), 1, id="ratio-cap200"),
            # about 40 grid times: the stragglers enter the rounds anew at every one of them
            pytest.param(mc.SimConfig(HALF, None, tuple(0.5 * k for k in range(1, 41)), 3000, 62), 1,
                         id="fine-grid"),
            pytest.param(mc.SimConfig(BINARY, ARRIVALS, tuple(0.25 * k for k in range(1, 41)), 2000, 63, start=0,
                                      cap=500), 1, id="fine-grid-arrivals"),
        ],
    )
    def test_matches_per_event_loop(self, cfg, threads, monkeypatch):
        # the engine never calls math.log1p: a straggler's clocks come from
        # np.log1p in blocks, and math.log1p costs about ten times as much per event
        def refuse(x):
            raise AssertionError("math.log1p called")

        with monkeypatch.context() as patch:
            patch.setattr(mc, "math", types.SimpleNamespace(**(vars(math) | {"log1p": refuse})))
            obs = mc.simulate(cfg, threads=threads)
        assert_matches_reference(cfg, obs)

    def test_dead_chunk_has_no_live_lane(self):
        # the "dead-chunk" case above covers a grid time at which one chunk has no live lane
        obs = mc.simulate(mc.SimConfig(BINARY, None, (0.5, 3.0, 30.0), 2 * mc.CHUNK + 8, 43))
        live = np.count_nonzero(obs.states[2 * mc.CHUNK :] > 0, axis=0)
        assert live[0] > mc._SCALAR_SWITCH and live[1] == 0

    def test_immigration_stragglers_read_past_a_refill(self):
        # the "immigration-stragglers" case above: its stragglers read more
        # uniforms than one refill of the stream holds
        assert mc.simulate(IMM_STRAGGLERS).straggler_events > 4 * mc._BLOCK_SIZE

    def test_table_grows_inside_a_many_lane_immigration_round(self, monkeypatch):
        # the "kappa-start3-cap5000" case above: an ordinary immigration round of
        # many lanes grows a table through the two-law read and still matches the loop
        cfg = mc.SimConfig(HALF, KAPPA_IMM, (5.0, 20.0), 200, 50, start=3, cap=5000)
        grown, draw = [], mc._PairSampler.draw

        def spy(pair, v, ii):
            before = [s.table_size for s in pair._laws]
            changes = draw(pair, v, ii)
            after = [s.table_size for s in pair._laws]
            if v.size > 1 and after != before:
                grown.append((v.size, before, after))
            return changes

        monkeypatch.setattr(mc._PairSampler, "draw", spy)
        obs = mc.simulate(cfg)
        assert any(a > b for _, before, after in grown for a, b in zip(after, before))
        assert_matches_reference(cfg, obs)

    @pytest.mark.parametrize(
        "offspring,immigration,cap",
        [(HALF, None, mc.DEFAULT_CAP), (BINARY, ARRIVALS, 40)],
        ids=["half", "arrivals-cap40"],
    )
    def test_chunk_paths_do_not_depend_on_other_chunks(self, offspring, immigration, cap):
        alone = mc.simulate(mc.SimConfig(offspring, immigration, (1.0, 5.0), mc.CHUNK, 35, cap=cap))
        joint = mc.simulate(mc.SimConfig(offspring, immigration, (1.0, 5.0), 3 * mc.CHUNK + 3, 35, cap=cap))
        assert np.array_equal(alone.states, joint.states[: mc.CHUNK])
        assert np.array_equal(alone.capped, joint.capped[: mc.CHUNK])

    @pytest.mark.parametrize(
        "cfg",
        [
            # the mc-tail shape; uniforms past where its blocks stop would grow the table
            pytest.param(mc.SimConfig(HALF, None, (100.0,), 10_000, 1, cap=10**4), id="solo"),
            pytest.param(mc.SimConfig(HALF, None, (10.0,), 3 * mc.CHUNK, 46), id="three-chunks"),
            pytest.param(mc.SimConfig(HALF, None, (100.0,), 10_000, 47, cap=50), id="cap50"),
        ],
    )
    def test_round_blocks_change_nothing(self, cfg, monkeypatch):
        # blocks of whole rounds replay the rounds they replace, so no block at
        # all gives the same paths, counters and table; the spy sees the blocks
        walks, walk_rows = [], mc._walk_rows

        def spy(n0, t0, clock, jumps, rb, ri):
            walks.append(clock.ndim)
            return walk_rows(n0, t0, clock, jumps, rb, ri)

        monkeypatch.setattr(mc, "_walk_rows", spy)
        blocked = mc.simulate(cfg)
        assert 2 in walks
        walks.clear()
        monkeypatch.setattr(mc, "_BLOCK_LANES", 0)
        plain = mc.simulate(cfg)
        assert 2 not in walks
        assert np.array_equal(blocked.states, plain.states)
        assert np.array_equal(blocked.capped, plain.capped)
        assert (blocked.events, blocked.straggler_events, blocked.table_size) == (
            plain.events,
            plain.straggler_events,
            plain.table_size,
        )

    @pytest.mark.parametrize("join", [mc._SCALAR_SWITCH, 512, mc.CHUNK], ids=["no-joint", "join512", "no-solo"])
    @pytest.mark.parametrize(
        "cfg",
        [
            # the three configs of test_matches_per_event_loop with these ids
            pytest.param(mc.SimConfig(HALF, None, (10.0,), 3 * mc.CHUNK, 31), id="three-chunks"),
            pytest.param(mc.SimConfig(BINARY, ARRIVALS, (5.0, 10.0), 2 * mc.CHUNK + 1000, 34, start=0, cap=40),
                         id="arrivals-cap40-three-chunks"),
            pytest.param(mc.SimConfig(HALF, HEAVY_IMM, (50.0,), 10_000, 54, cap=200), id="ratio-cap200"),
        ],
    )
    def test_schedule_changes_nothing(self, cfg, join, monkeypatch):
        # where the chunks join and where each straggler's blocks start change
        # no path, counter or table; the spy sees each straggler's first block
        # start where the last one's blocks ended
        def observe(obs):
            return obs.states.tolist(), obs.capped.tolist(), obs.events, obs.straggler_events, obs.table_size

        want = observe(mc.simulate(cfg))
        log, walk_rows, carried = [], mc._walk_rows, mc._carried

        def walk_spy(n0, t0, clock, jumps, rb, ri):
            # one-lane blocks are the stragglers'; a block's first pass has its full R rows
            if clock.shape[1:] == (1,):
                log.append(("rows", clock.shape[0]))
            return walk_rows(n0, t0, clock, jumps, rb, ri)

        def carry_spy(rows):
            # carried on, or reset to _BLOCK_START after every straggler
            log.append(("carry", carried(rows) if carry else mc._BLOCK_START))
            return log[-1][1]

        monkeypatch.setattr(mc, "_walk_rows", walk_spy)
        monkeypatch.setattr(mc, "_carried", carry_spy)
        monkeypatch.setattr(mc, "_JOIN", join)
        for carry in (True, False):
            log.clear()
            assert observe(mc.simulate(cfg)) == want
            # every straggler runs a block first: the first one at _BLOCK_START, each
            # later one at the length the last one left
            firsts = [(c, log[i + 1]) for i, (kind, c) in enumerate(log[:-1]) if kind == "carry"]
            assert log[0] == ("rows", mc._BLOCK_START) and firsts
            assert all(first == ("rows", c) for c, first in firsts)
            assert any(c != mc._BLOCK_START for c, _ in firsts) == carry

    @pytest.mark.parametrize(
        "cfg,immigration",
        [
            # tables born at their limit (cap < 1024) never grow, so a block's
            # later passes are the calls that repeat its (n, t)
            pytest.param(mc.SimConfig(HALF, HEAVY_IMM, (50.0,), 500, 52, cap=200), True, id="immigration"),
            pytest.param(mc.SimConfig(HALF, None, (5.0, 10.0, 20.0, 50.0, 100.0), 2000, 53, cap=50), False, id="pure"),
        ],
    )
    def test_walk_passes(self, cfg, immigration, monkeypatch):
        # with immigration some straggler blocks need more than one fixed-point
        # pass and still match the loop; without it every block takes one
        starts, walk_rows = [], mc._walk_rows

        def spy(n0, t0, clock, jumps, rb, ri):
            if clock.shape[1:] == (1,):
                starts.append((n0.tolist(), t0.tolist()))
            return walk_rows(n0, t0, clock, jumps, rb, ri)

        monkeypatch.setattr(mc, "_walk_rows", spy)
        obs = mc.simulate(cfg)
        repeats = sum(a == b for a, b in zip(starts, starts[1:]))
        assert len(starts) > 10
        assert (repeats > 0) == immigration
        assert_matches_reference(cfg, obs)

    def test_immigration_straggler_crosses_zero_in_one_block(self, monkeypatch):
        # with immigration n = 0 does not stop a block: some straggler block
        # commits the event that empties the population and the next one from 0,
        # so no block starts at that zero (a block that stopped there would)
        cfg = mc.SimConfig(HALF, ARRIVALS, (20.0,), 4, 60, cap=200)
        calls, walk_rows = [], mc._walk_rows

        def spy(n0, t0, clock, jumps, rb, ri):
            nb, tb = walk_rows(n0, t0, clock, jumps, rb, ri)
            if clock.shape[1:] == (1,):
                calls.append((n0.tolist(), t0.tolist(), nb[:, 0].copy(), tb[:, 0].copy()))
            return nb, tb

        monkeypatch.setattr(mc, "_walk_rows", spy)
        obs = mc.simulate(cfg)
        starts = {(n0[0], t0[0]) for n0, t0, _, _ in calls}
        # a block's last pass is the one before a call from another (n, t); tables
        # born at their limit (cap < 1024) never grow, so the stops are n < 0, cap and g
        crossed = 0
        for call, after in zip(calls, calls[1:] + [None]):
            if after is not None and after[:2] == call[:2]:
                continue
            nb, tb = call[2], call[3]
            zero = np.flatnonzero(nb == 0)
            if zero.size and zero[0] + 2 <= nb.size:
                kept = slice(0, zero[0] + 2)
                clean = ((nb[kept] >= 0) & (nb[kept] <= cfg.cap) & (tb[kept] <= cfg.grid[-1])).all()
                crossed += clean and (0, float(tb[zero[0]])) not in starts
        assert crossed > 0
        assert_matches_reference(cfg, obs)

    def test_bounded_table_agrees_below_its_bound(self):
        rng = np.random.default_rng(27)
        u = np.concatenate([rng.random(100_000), 1.0 - rng.random(1000) * 1e-4])
        wide, bounded = mc._Sampler(HEAVY_IMM, 1 << 16).draw(u), mc._Sampler(HEAVY_IMM, 201).draw(u)
        inside = wide <= 201
        assert np.array_equal(bounded[inside], wide[inside])
        assert np.all(bounded[~inside] == 202) and (~inside).any()


class TestEstimate:
    def test_survival_at_time_zero(self):
        cfg = mc.SimConfig(offspring=HALF, immigration=None, grid=(0.0,), replicas=500, seed=2)
        est = mc.estimate(cfg, "survival", 0.0)
        assert est.value == 1.0 and est.se == 0.0

    def test_binary_survival_covers_closed_form(self):
        cfg = mc.SimConfig(offspring=BINARY, immigration=None, grid=(2.0,), replicas=100_000, seed=11)
        est = mc.estimate(cfg, "survival", 2.0)
        assert abs(est.value - 1.0 / 3.0) <= 3.0 * est.se

    def test_half_index_survival_covers_closed_form(self):
        cfg = mc.SimConfig(offspring=HALF, immigration=None, grid=(10.0,), replicas=100_000, seed=12)
        est = mc.estimate(cfg, "survival", 10.0)
        assert abs(est.value - 1.0 / 36.0) <= 3.0 * est.se
        assert est.se == pytest.approx(5e-4, rel=0.2)

    def test_immigration_mean_covers_linear_growth(self):
        cfg = mc.SimConfig(offspring=BINARY, immigration=ARRIVALS, grid=(3.0,), replicas=20_000, seed=13)
        est = mc.estimate(cfg, "mean", 3.0)
        assert abs(est.value - 3.0) <= 3.0 * est.se

    def test_state_probability_covers_oracle(self):
        cfg = mc.SimConfig(offspring=HALF, immigration=HEAVY_IMM, grid=(1.0,), replicas=20_000, seed=14)
        est = mc.estimate(cfg, "p", 1.0, j=0)
        want = uniformized_transition(build_generator(HALF, HEAVY_IMM, 128), 1.0)[0, 0]
        assert abs(est.value - want) <= 3.0 * est.se

    def test_ratio_covers_limit_coefficient(self):
        from criticalbranch.asymptotics import ratio_limit_series

        cfg = mc.SimConfig(
            offspring=HALF, immigration=HEAVY_IMM, grid=(50.0,), replicas=10_000, seed=15, cap=200
        )
        est = mc.estimate(cfg, "ratio", 50.0, j=1)
        pi1 = float(ratio_limit_series(HALF, HEAVY_IMM, 4).coeffs[1])
        assert abs(est.value - pi1) <= 3.0 * est.se
        assert est.capped > 0  # exclusions are counted, never silent

    def test_ratio_needs_denominator_mass(self):
        cfg = mc.SimConfig(offspring=BINARY, immigration=ARRIVALS, grid=(50.0,), replicas=200, seed=16)
        with pytest.raises(mc.InsufficientEventsError):
            mc.estimate(cfg, "ratio", 50.0, j=1)

    def test_unknown_grid_point_rejected(self):
        cfg = mc.SimConfig(offspring=HALF, immigration=None, grid=(1.0,), replicas=100, seed=17)
        with pytest.raises(ValueError):
            mc.estimate(cfg, "survival", 2.0)


@pytest.mark.parametrize("immigration,start", [(None, 1), (HEAVY_IMM, 0)], ids=["pure", "immigration"])
def test_state_pmf_matches_truncated_oracle(immigration, start):
    # The control for any change of engine: a chi-square test of Z_5's pmf on the
    # chain capped at 200 against the oracle's row for the start state on 0..200.
    # Cells: j = 0..20, j > 20 uncapped, and capped (the row's leaked mass).
    # The seed was fixed once and is never changed to make the test pass.
    cap, t, replicas = 200, 5.0, 20_000
    obs = mc.simulate(mc.SimConfig(HALF, immigration, (t,), replicas, 4100, start=start, cap=cap))
    row = uniformized_transition(build_generator(HALF, immigration, cap), t)[start]
    observed = np.append(np.bincount(np.minimum(obs.states[~obs.capped, 0], 21), minlength=22), obs.capped.sum())
    expected = replicas * np.concatenate([row[:21], [row[21:].sum(), 1.0 - row.sum()]])
    assert expected.min() >= 5.0  # every cell large enough for the chi-square law
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert chi2.sf(stat, observed.size - 1) > 1e-3, f"chi-square {stat:.1f} on {observed.size - 1} degrees of freedom"


def test_three_sigma_coverage_rate():
    # 200 repeated experiments; the 3 SE band should cover the closed-form
    # survival probability in at least 99% of them
    q_true = 1.0 / 36.0
    misses = 0
    for rep in range(200):
        cfg = mc.SimConfig(offspring=HALF, immigration=None, grid=(10.0,), replicas=10_000, seed=9_000 + rep)
        est = mc.estimate(cfg, "survival", 10.0)
        if abs(est.value - q_true) > 3.0 * est.se:
            misses += 1
    assert misses <= 2
