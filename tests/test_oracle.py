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
from criticalbranch.oracle import EPS

BINARY = make_finite_offspring([1.0, -2.0, 1.0])
ARRIVALS = make_finite_immigration([-1.0, 1.0])
_CANONICAL = (make_stable_offspring(0.5, 1.0), make_stable_immigration(0.4, 0.1))


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


def _row_loop_generator(f_law, h_law, n_max):
    """Reference: the generator accumulated row by row into zeros, one fancy assignment per row."""
    size = n_max + 1
    Q = np.zeros((size, size))
    clipped = np.zeros(size)
    a = f_law.rates_up_to(n_max + 1)
    total_branch = -f_law.a1
    for n in range(1, size):
        j_max = n_max - n + 1
        Q[n, n - 1] += n * a[0]
        included = a[0]
        if j_max >= 2:
            js = np.arange(2, j_max + 1)
            Q[n, n - 1 + js] += n * a[js]
            included += a[2 : j_max + 1].sum()
        Q[n, n] += n * f_law.a1
        clipped[n] += n * max(0.0, total_branch - included)
    if h_law is not None:
        b = h_law.rates_up_to(n_max)
        total_imm = -h_law.b0
        for n in range(size):
            k_max = n_max - n
            if k_max >= 1:
                ks = np.arange(1, k_max + 1)
                Q[n, n + ks] += b[ks]
            Q[n, n] += h_law.b0
            clipped[n] += max(0.0, total_imm - b[1 : k_max + 1].sum())
    return Q, clipped


_GENERATOR_LAWS = {
    "canonical": _CANONICAL,
    "binary-arrivals": (BINARY, ARRIVALS),
    "canonical-no-immigration": (_CANONICAL[0], None),
    "finite-batches": (make_finite_offspring([2.0, -3.0, 0.5, 0.5]),
                       make_finite_immigration([-1.0, 0.5, 0.25, 0.25])),
    "kappa": (_CANONICAL[0], make_stable_immigration(0.4, 0.1, kappa=0.25)),
}


@pytest.mark.parametrize("n_max", [1, 2, 3, 50, 200, 512])
@pytest.mark.parametrize("pair", sorted(_GENERATOR_LAWS))
def test_generator_matches_the_row_loop(pair, n_max):
    # bytes, not values: row 0 must stay +0.0 without immigration, and the
    # clipped rates keep each row's pairwise-summed slices
    f_law, h_law = _GENERATOR_LAWS[pair]
    gen = build_generator(f_law, h_law, n_max)
    Q, clipped = _row_loop_generator(f_law, h_law, n_max)
    assert gen.Q.flags.c_contiguous
    assert gen.Q.tobytes() == Q.tobytes()
    assert gen.clipped_rate.tobytes() == clipped.tobytes()
    if h_law is None:
        assert not np.signbit(gen.Q[0]).any()


# ---------------------------------------------------------------------------
# The squarings flush entries below 2^-511; parity with the loop without the flush.

_TINY = 2.0**-1022  # the smallest normal double
_FLUSH_CONFIGS = [
    *((pair, 200, t) for pair in ("bin", "can") for t in (0.5, 1.0, 2.0)),  # A3
    ("can", 512, 50.0),  # A6
    ("can", 512, 0.01),
    ("bin", 512, 0.01),
]
_FLUSH_PAIRS = {"can": _CANONICAL, "bin": (BINARY, ARRIVALS)}


def _unflushed_uniformize(gen, t):
    """``uniformize`` with squarings that keep every entry, however small."""
    size = gen.n_max + 1
    q = float(np.max(-np.diag(gen.Q)))
    h, k_max = _split(q * t, EPS)
    x = math.ldexp(q * t, -h)
    diag = np.diag_indices(size)
    M = gen.Q / q
    M[diag] += 1.0
    P = M * (x / k_max) if k_max else np.zeros_like(M)
    P[diag] += 1.0
    buf = np.empty_like(P)
    for k in range(k_max - 1, 0, -1):
        np.matmul(M, P, out=buf)
        buf *= x / k
        buf[diag] += 1.0
        P, buf = buf, P
    P *= math.exp(-x)
    for _ in range(h):
        np.matmul(P, P, out=buf)
        P, buf = buf, P
    return P, 1.0 - P.sum(axis=1)


@pytest.mark.parametrize("pair,n_max,t", _FLUSH_CONFIGS)
def test_flush_moves_only_far_tiny_entries(pair, n_max, t):
    # the flush removes at most EPS / 2 from a row; in these configurations it
    # changes no entry of 1e-140 or more, and no leaked mass at all
    gen = build_generator(*_FLUSH_PAIRS[pair], n_max)
    result = uniformize(gen, t)
    P, leaked = _unflushed_uniformize(gen, t)
    assert np.array_equal(result.leaked, leaked)
    large = (result.P >= 1e-140) | (P >= 1e-140)
    assert np.array_equal(result.P[large], P[large])
    assert np.max(np.abs(result.P.sum(axis=1) - P.sum(axis=1))) <= EPS / 2


def test_squarings_see_no_subnormal_operand(monkeypatch):
    # A6's middle squarings held thousands of subnormal entries before the flush
    squared = []
    matmul = np.matmul

    def spy(a, b, **kwargs):
        if a is b:
            squared.append(int(np.count_nonzero((a > 0.0) & (a < _TINY))))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    result = uniformize(build_generator(*_CANONICAL, 512), 50.0)
    assert len(squared) == result.halvings == 18
    assert squared == [0] * 18
