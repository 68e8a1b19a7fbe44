import math
import time

import numpy as np
import pytest
from scipy import stats

from criticalbranch import (
    make_finite_immigration,
    make_finite_offspring,
    make_stable_immigration,
    make_stable_offspring,
)
from criticalbranch.kolmogorov import immigration_gf_series
from criticalbranch.oracle import _split, build_generator, uniformize, uniformized_transition

BINARY = make_finite_offspring([1.0, -2.0, 1.0])
ARRIVALS = make_finite_immigration([-1.0, 1.0])


def _canonical_generator(n_max):
    return build_generator(make_stable_offspring(0.5, 1.0), make_stable_immigration(0.4, 0.1), n_max)


def _longdouble_transition(gen, t, terms=40):
    """Uniformization in extended precision with q t / 2^h <= 1 and no tail worth a float."""
    Q = gen.Q.astype(np.longdouble)
    q = np.max(-np.diag(Q))
    h = max(0, math.ceil(math.log2(float(q) * t)))
    x = q * np.longdouble(t) / np.longdouble(2) ** h
    identity = np.eye(Q.shape[0], dtype=np.longdouble)
    M = identity + Q / q
    term, P = identity.copy(), identity.copy()
    for k in range(1, terms):
        term = term @ M * (x / k)
        P += term
    P *= np.exp(-x)
    for _ in range(h):
        P = P @ P
    return P


class TestBuildGenerator:
    def test_binary_rates(self):
        gen = build_generator(BINARY, None, 3)
        assert gen.Q[1, 0] == pytest.approx(1.0)
        assert gen.Q[1, 2] == pytest.approx(1.0)
        assert gen.Q[1, 1] == pytest.approx(-2.0)

    def test_absorbing_zero_without_immigration(self):
        gen = build_generator(BINARY, None, 5)
        assert np.all(gen.Q[0] == 0.0)

    def test_immigration_row(self):
        gen = build_generator(BINARY, ARRIVALS, 2)
        assert gen.Q[0, 1] == pytest.approx(1.0)
        assert gen.Q[0, 0] == pytest.approx(-1.0)

    def test_row_sums_balance_clipping(self):
        law = make_stable_offspring(0.5, 1.0)
        h_law = make_stable_immigration(0.4, 0.1)
        gen = build_generator(law, h_law, 64)
        row_sums = gen.Q.sum(axis=1)
        assert np.allclose(row_sums, -gen.clipped_rate, atol=1e-12)
        assert np.all(gen.Q - np.diag(np.diag(gen.Q)) >= 0.0)

    def test_heavy_tail_clip_bound(self):
        nu, a0, n_max = 0.5, 1.0, 128
        gen = build_generator(make_stable_offspring(nu, a0), None, n_max)
        n = np.arange(1, n_max)
        bound = a0 * (n_max - n).astype(float) ** (-nu) * n
        assert np.all(gen.clipped_rate[1:n_max] <= bound)


class TestUniformizedTransition:
    def test_time_zero_identity(self):
        gen = build_generator(BINARY, None, 10)
        assert np.array_equal(uniformized_transition(gen, 0.0), np.eye(11))

    def test_binary_extinction_probability(self):
        gen = build_generator(BINARY, None, 200)
        P = uniformized_transition(gen, 2.0)
        assert P[1, 0] == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_rows_substochastic_nonnegative(self):
        law = make_stable_offspring(0.5, 1.0)
        h_law = make_stable_immigration(0.4, 0.1)
        gen = build_generator(law, h_law, 100)
        P = uniformized_transition(gen, 1.5)
        assert np.all(P >= -1e-12)
        assert np.all(P.sum(axis=1) <= 1.0 + 1e-10)

    def test_chapman_kolmogorov(self):
        law = make_stable_offspring(0.5, 1.0)
        h_law = make_stable_immigration(0.4, 0.1)
        gen = build_generator(law, h_law, 80)
        for t, u in ((0.5, 0.5), (0.5, 1.5), (2.0, 2.0)):
            lhs = uniformized_transition(gen, t + u)
            rhs = uniformized_transition(gen, t) @ uniformized_transition(gen, u)
            deficit = float(np.max(1.0 - rhs.sum(axis=1)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 + deficit

    def test_deficits_monotone_in_time(self):
        law = make_stable_offspring(0.5, 1.0)
        h_law = make_stable_immigration(0.4, 0.1)
        gen = build_generator(law, h_law, 60)
        deficits = []
        for t in (0.5, 1.0, 2.0, 4.0):
            P = uniformized_transition(gen, t)
            deficits.append(1.0 - P.sum(axis=1))
        for earlier, later in zip(deficits, deficits[1:]):
            assert np.all(later >= earlier - 1e-12)

    def test_matches_series_solver_cross_method(self):
        law = make_stable_offspring(0.5, 1.0)
        h_law = make_stable_immigration(0.4, 0.1)
        gen = build_generator(law, h_law, 200)
        P = uniformized_transition(gen, 1.0)
        series = immigration_gf_series(law, h_law, 0, 1.0, 32).P.coeffs
        assert np.max(np.abs(P[0, :21] - series[:21])) <= 1e-6

    def test_rejects_negative_time(self):
        gen = build_generator(BINARY, None, 4)
        with pytest.raises(ValueError):
            uniformized_transition(gen, -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, t):
        gen = build_generator(BINARY, None, 4)
        with pytest.raises(ValueError, match=r"t must be in \[0, inf\)"):
            uniformized_transition(gen, t)

    def test_rejects_overflowing_rate_times_time(self):
        gen = build_generator(BINARY, None, 4)
        with pytest.raises(ValueError, match="q\\*t must be finite"):
            uniformized_transition(gen, 1e308)

    def test_far_time_returns_quickly(self):
        gen = build_generator(BINARY, None, 4)
        started = time.perf_counter()
        P = uniformized_transition(gen, 1e300)
        assert time.perf_counter() - started < 0.5
        assert np.all(np.isfinite(P)) and np.all(P >= 0.0)
        assert np.all(P.sum(axis=1) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("t", [0.5, 50.0])
    def test_matches_longdouble_reference(self, t):
        gen = _canonical_generator(60)
        P = uniformized_transition(gen, t)
        assert np.max(np.abs(P - _longdouble_transition(gen, t))) <= 1e-10


class TestUniformize:
    def test_counters(self):
        gen = _canonical_generator(512)
        result = uniformize(gen, 50.0)
        assert np.array_equal(result.leaked, 1.0 - result.P.sum(axis=1))
        assert result.terms - 1 + result.halvings <= 30
        assert np.array_equal(uniformized_transition(gen, 50.0), result.P)

    def test_time_zero_counts_nothing(self):
        result = uniformize(build_generator(BINARY, None, 3), 0.0)
        assert (result.halvings, result.terms) == (0, 0)
        assert np.array_equal(result.leaked, np.zeros(4))

    @pytest.mark.parametrize("eps", [1e-10, 1e-14])
    def test_poisson_tail_below_split_tolerance(self, eps):
        violations = []
        for qt in np.logspace(-3, 7, 100):
            h, k = _split(float(qt), eps)
            if not stats.poisson.sf(k, qt / 2**h) <= eps / 2 ** (h + 1):
                violations.append((qt, h, k))
        assert violations == []


def test_generator_requires_positive_truncation():
    with pytest.raises(ValueError):
        build_generator(BINARY, None, 0)
