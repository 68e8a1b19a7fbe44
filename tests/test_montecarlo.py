import math
from bisect import bisect_right

import numpy as np
import pytest

from criticalbranch import (
    make_finite_immigration,
    make_finite_offspring,
    make_stable_immigration,
    make_stable_offspring,
)
from criticalbranch import montecarlo as mc
from criticalbranch.oracle import build_generator, uniformized_transition

BINARY = make_finite_offspring([1.0, -2.0, 1.0])
HALF = make_stable_offspring(0.5, 1.0)
ARRIVALS = make_finite_immigration([-1.0, 1.0])
HEAVY_IMM = make_stable_immigration(0.4, 0.1)


class TestSampleOffspring:
    def test_binary_inverse_cdf(self):
        # pmf: {0: 1/2, 2: 1/2}
        assert mc.sample_offspring(BINARY, 0.3) == 0
        assert mc.sample_offspring(BINARY, 0.7) == 2

    def test_half_index_prefix(self):
        # lifetime mean 2/3; p0 = 2/3, p2 = 1/4, so u = 0.9 falls at k >= 2
        assert HALF.lifetime_mean == pytest.approx(2.0 / 3.0)
        assert mc.sample_offspring(HALF, 0.5) == 0
        assert mc.sample_offspring(HALF, 0.9) >= 2

    def test_rejects_bad_uniform(self):
        with pytest.raises(ValueError):
            mc.sample_offspring(HALF, 1.0)

    def test_empirical_pmf_matches_rates(self):
        rng = np.random.default_rng(7)
        sampler = mc._Sampler(mc._offspring_pmf(HALF))
        draws = sampler.draw(rng.random(1_000_000))
        lam = HALF.lifetime_mean
        pmf = lam * HALF.rates_up_to(10)
        pmf[1] = 0.0
        n = draws.size
        for k in range(11):
            observed = np.mean(draws == k)
            se = math.sqrt(max(pmf[k] * (1.0 - pmf[k]), 1e-12) / n)
            assert abs(observed - pmf[k]) <= 4.0 * se


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
        with pytest.raises(ValueError, match="table bound"):
            mc.SimConfig(offspring=HALF, immigration=None, grid=(1.0,), replicas=10, seed=1, cap=mc._CDF_BOUND + 1)


def _reference_chunk(cfg, seed_seq, n_paths):
    """The per-event engine: vectorized rounds, then a scalar loop per straggler.

    Returns the states, the capped flags, and the jump counts (all, and those of
    the scalar loop).

    Its tables are bounded at 16 (cap + 1), well past the engine's cap + 1, so
    agreement also checks that the engine's bound changes no uncapped path.
    """
    rng = np.random.default_rng(seed_seq)
    limit = min(16 * (cfg.cap + 1), mc._CDF_BOUND)
    off = mc._Sampler(mc._offspring_pmf(cfg.offspring), limit)
    imm = mc._Sampler(mc._immigration_pmf(cfg.immigration), limit) if cfg.immigration is not None else None
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
            pb = ni * rb / rate
            if u2 < pb:
                ni += off.draw_one(u2 / pb) - 1
            else:
                ni += imm.draw_one((u2 - pb) / (1.0 - pb))
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
                    n[fi[branch]] += off.draw(u2[branch] / pb[branch]) - 1
                if (~branch).any():
                    n[fi[~branch]] += imm.draw((u2[~branch] - pb[~branch]) / (1.0 - pb[~branch]))
                capped[fi[n[fi] > cfg.cap]] = True
                work = fi[~capped[fi] & (n[fi] * rb + ri > 0.0)]
            else:
                work = fi
        for lane in work:
            advance_scalar(int(lane), g)
        out[:, gi] = n
    return out, capped, events[0] + events[1], events[1]


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
        ],
    )
    def test_matches_per_event_loop(self, cfg, threads):
        obs = mc.simulate(cfg, threads=threads)
        seqs = np.random.SeedSequence(cfg.seed).spawn(-(-cfg.replicas // mc.CHUNK))
        parts = [_reference_chunk(cfg, sq, min(mc.CHUNK, cfg.replicas - c * mc.CHUNK)) for c, sq in enumerate(seqs)]
        states = np.concatenate([p[0] for p in parts])
        capped = np.concatenate([p[1] for p in parts])
        assert np.array_equal(obs.capped, capped)
        assert np.array_equal(obs.states[~capped], states[~capped])
        assert obs.events == sum(p[2] for p in parts)
        assert obs.straggler_events == sum(p[3] for p in parts) > 0

    def test_bounded_table_agrees_below_its_bound(self):
        rng = np.random.default_rng(27)
        u = np.concatenate([rng.random(100_000), 1.0 - rng.random(1000) * 1e-4])
        pmf = mc._immigration_pmf(HEAVY_IMM)
        wide, bounded = mc._Sampler(pmf, 1 << 16).draw(u), mc._Sampler(pmf, 201).draw(u)
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
