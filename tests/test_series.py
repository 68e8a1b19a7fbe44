import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.polynomial import polyder, polyval
from scipy.linalg.blas import dtrsv

from criticalbranch import series as fps
from criticalbranch.series import Series


def binomial_coeffs(beta, n, scale=1.0):
    """Oracle: coefficients of scale*(1-s)**beta by direct ratio products."""
    out = [scale]
    c = scale
    for j in range(1, n + 1):
        c *= (j - 1.0 - beta) / j
        out.append(c)
    return np.array(out)


def test_mul_polynomials():
    one_plus = Series(np.array([1.0, 1.0, 0.0]))
    one_minus = Series(np.array([1.0, -1.0, 0.0]))
    assert np.allclose(fps.mul(one_plus, one_minus).coeffs, [1.0, 0.0, -1.0])
    s = Series(np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(fps.mul(s, s).coeffs, [0.0, 0.0, 1.0, 0.0, 0.0])


def test_mul_truncates_to_shorter_operand():
    a = Series(np.arange(1.0, 9.0))
    b = Series(np.array([2.0, 1.0, 3.0]))
    assert fps.mul(a, b).order == 2


def test_sqrt_square_matches_binomial_oracle():
    half = Series(binomial_coeffs(0.5, 64))
    prod = fps.mul(half, half)
    want = binomial_coeffs(1.0, 64)
    assert np.max(np.abs(prod.coeffs - want)) < 1e-12


def test_compose_constant_inner():
    expo = fps.exp_series(Series(np.array([0.0, 1.0, 0, 0, 0, 0, 0])))
    zero = Series(np.zeros(7))
    out = fps.compose(expo, zero)
    assert np.allclose(out.coeffs, [1.0, 0, 0, 0, 0, 0, 0])


def test_compose_recenters_affine_inner():
    square = Series(np.array([0.0, 0.0, 1.0]))
    inner = Series(np.array([1.0, 1.0, 0.0]))
    assert np.allclose(fps.compose(square, inner).coeffs, [1.0, 2.0, 1.0])


def _cauchy_coeffs(fn, n, points=4096):
    """Taylor coefficients 0..n of fn from its samples on the unit circle."""
    z = np.exp(2j * np.pi * np.arange(points) / points)
    return (np.fft.fft(fn(z)) / points)[: n + 1].real


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_compose_with_inner_constant_matches_cauchy_reference(n, seed):
    # mixed-sign coefficients and a nonzero inner constant, the shape of F(t;s) composed into a measure
    rng = np.random.default_rng(seed)
    outer = rng.uniform(-1.0, 1.0, n + 1) * 0.7 ** np.arange(n + 1)
    inner = np.r_[rng.uniform(0.0, 0.2), rng.uniform(-1.0, 1.0, n) * 0.5 ** np.arange(1, n + 1)]
    want = _cauchy_coeffs(lambda z: polyval(polyval(z, inner), outer), n)
    got = fps.compose(Series(outer), Series(inner)).coeffs
    assert np.max(np.abs(got - want)) <= 1e-12


def test_compose_shift_identity_through_the_flow():
    # composing the invariant GF series with the time-2 transition series
    # shifts the constant term by 2 and leaves every other coefficient alone;
    # the comparison window must sit well inside the truncation because high
    # ancestor counts feed low coefficients of the composition
    from criticalbranch import make_stable_offspring
    from criticalbranch.asymptotics import invariant_series
    from criticalbranch.kolmogorov import solve_gf_series

    law = make_stable_offspring(0.5, 1.0)
    m = Series(invariant_series(law, 320).coeffs)
    f = solve_gf_series(law, 2.0, 320).F
    comp = fps.compose(m, f)
    target = m.coeffs.copy()
    target[0] += 2.0
    assert np.max(np.abs(comp.coeffs[:65] - target[:65])) < 1e-8


def test_exp_series_examples():
    assert np.allclose(fps.exp_series(Series(np.zeros(6))).coeffs, [1, 0, 0, 0, 0, 0])
    got = fps.exp_series(Series(np.array([0.0, 1.0, 0.0, 0.0, 0.0]))).coeffs
    assert np.allclose(got, [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0])


def test_exp_of_tail_power_series():
    # exp((1-s)^{-0.1}): constant term e, linear term e/10
    g = Series(binomial_coeffs(-0.1, 16))
    u = fps.exp_series(g)
    assert abs(u.coeffs[0] - math.e) < 1e-14
    assert abs(u.coeffs[1] - 0.1 * math.e) < 1e-14


def test_exp_series_overflow_guard():
    with pytest.raises(OverflowError):
        fps.exp_series(Series(np.array([701.0, 0.0, 0.0, 0.0, 0.0])))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_series_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="coefficients leave the float range"):
        Series(np.array([1.0, bad, 0.0]))


def test_overflowing_operation_raises():
    # the constant term becomes 1e308 + 10 * 1e308
    with pytest.raises(ValueError, match="coefficients leave the float range"):
        fps.compose(Series(np.array([1e308, 1e308])), Series(np.array([10.0, 0.0])))


def test_integrate_differentiate():
    g = Series(np.array([1.0, 1.0, 1.0]))
    assert np.allclose(polyder(fps.integrate_series(g).coeffs), g.coeffs)
    assert np.allclose(fps.integrate_series(Series(np.ones(1))).coeffs, [0.0, 1.0])
    assert fps.integrate_series(g).order == g.order + 1


def test_integrate_of_derivative_restores_tail():
    g = Series(np.array([3.0, -1.0, 2.0, 0.5]))
    back = fps.integrate_series(Series(polyder(g.coeffs)))
    assert np.allclose(back.coeffs[1:4], g.coeffs[1:4])
    assert back.coeffs[0] == 0.0


def test_eval_at_constant_and_geometric():
    assert polyval(0.3, Series(np.array([7.0, 0.0, 0.0, 0.0])).coeffs) == 7.0
    geom = fps.reciprocal(Series(np.array([1.0, -1.0] + [0.0] * 59)))
    assert abs(polyval(0.5, geom.coeffs) - 2.0) < 1e-12


def test_reciprocal_geometric():
    rec = fps.reciprocal(Series(np.array([1.0, -1.0, 0.0, 0.0])))
    assert np.allclose(rec.coeffs, np.ones(4))


def _pow_coeffs_rowwise(w, alpha):
    """Reference: the row-by-row recurrence k w_0 p_k = sum_{j<k} (alpha (k-j) - j) w_{k-j} p_j."""
    n = w.size
    p = np.empty(n)
    p[0] = w[0] ** alpha
    mw = np.arange(1, n) * w[1:]
    for k in range(1, n):
        t1 = np.dot(mw[:k], p[k - 1 :: -1])
        t2 = np.dot(np.arange(1, k) * p[1:k], w[k - 1 : 0 : -1]) if k > 1 else 0.0
        p[k] = (alpha * t1 - t2) / (k * w[0])
    return p


def test_power_matches_binomial_oracle():
    base = Series(np.array([1.0, -1.0] + [0.0] * 30))
    for alpha in (0.5, -0.5, 1.7, -2.0):
        got = fps.power(base, alpha).coeffs
        want = binomial_coeffs(alpha, 31)
        assert np.max(np.abs(got - want)) < 1e-12


# orders on both sides of the 64-row block edges, and the largest order a solve accepts
@pytest.mark.parametrize("order", [63, 64, 65, 129, 1024])
def test_power_matches_binomial_oracle_across_blocks(order):
    base = Series(np.array([1.0, -1.0] + [0.0] * (order - 1)))
    for alpha in (0.5, -0.5, 1.7, -2.0):
        got = fps.power(base, alpha).coeffs
        want = binomial_coeffs(alpha, order)
        assert got.size == order + 1
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-12


def test_power_of_constant_series():
    assert fps.power(Series(np.array([4.0])), 0.5).coeffs.tolist() == [2.0]


@pytest.mark.parametrize("w0", [0.0, -1.0])
def test_power_rejects_nonpositive_constant_term(w0):
    with pytest.raises(ValueError, match="positive constant term"):
        fps.power(Series(np.array([w0, 1.0, 0.5])), 0.5)


@st.composite
def power_inputs(draw):
    # |w_k| <= w_0 r^k with r <= 1/2 keeps w free of zeros in the unit disk,
    # where both recurrences are stable and must agree to rounding
    n = draw(st.integers(min_value=1, max_value=300))
    w0 = draw(st.floats(min_value=0.1, max_value=2.0))
    r = draw(st.floats(min_value=0.01, max_value=0.5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    alpha = draw(st.one_of(st.sampled_from([1.0, 2.0, 3.0, 4.0]), st.floats(min_value=-2.0, max_value=3.0)))
    w = w0 * np.random.default_rng(seed).uniform(-1.0, 1.0, n) * r ** np.arange(n)
    w[0] = w0
    return w, alpha


@given(power_inputs())
@settings(max_examples=120, deadline=None)
def test_blocked_power_matches_rowwise_recurrence(case):
    w, alpha = case
    got = fps._pow_coeffs(w, alpha)
    want = _pow_coeffs_rowwise(w, alpha)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def _pow_coeffs_strided(w, alpha):
    """Reference: the blocked kernel with its Toeplitz as a reversed sliding window, weights built per block."""
    block = fps._BLOCK
    n = w.size
    p = np.empty(n)
    p[0] = w[0] ** alpha
    k = np.arange(n, dtype=float)
    u = np.zeros(2 * block - 1)
    u[block - 1 : block - 1 + min(n, block)] = w[:block]
    upper = sliding_window_view(u, block)[:, ::-1].T
    for m in range(1, n, block):
        e = min(m + block, n)
        km = k[m:e]
        prefix_p = np.convolve(w[1:e], p[:m], "valid")
        prefix_jp = np.convolve(w[1:e], k[:m] * p[:m], "valid")
        rhs = alpha * km * prefix_p - (1.0 + alpha) * prefix_jp
        tri = upper[: e - m, : e - m] * ((1.0 + alpha) * km[:, None] - alpha * km)
        p[m:e] = dtrsv(tri.T, rhs, lower=1)
    return p


exponents = st.one_of(
    st.integers(min_value=-3, max_value=4),
    st.floats(min_value=-3.0, max_value=-0.01),
    st.floats(min_value=-3.0, max_value=4.0),
)


@given(power_inputs(), power_inputs(), exponents, exponents)
@example((np.array([1.0]), 1.0), (np.array([1.0, -0.23021329]), 1.0), 0, -0.0)  # 0 and -0.0 compare equal
@settings(max_examples=150, deadline=None)
def test_pow_coeffs_bitwise_matches_strided_kernel(first, second, alpha, beta):
    # two orders and two exponents interleaved, so cached block weights keyed on too little would be reused wrongly
    (v, _), (w, _) = first, second
    for base, exponent in ((v, alpha), (w, beta), (w, alpha), (v, beta), (v, alpha)):
        got = fps._pow_coeffs(base, exponent)
        assert got.tobytes() == _pow_coeffs_strided(base, exponent).tobytes()


def test_cached_block_weights_are_read_only():
    # every array of a cache entry: the weights, alpha k and k
    fps._pow_coeffs(np.linspace(1.0, 0.5, 100), 0.5)
    cached = fps._weights(0.5, 1.0, 65, 100)
    assert [a.shape for a in cached] == [(35, 35), (35,), (35,)]
    for a in cached:
        with pytest.raises(ValueError):
            a[0] = 0.0


small_series =st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=1, max_size=12
).map(lambda xs: Series(np.array(xs)))


@given(small_series, small_series)
@settings(max_examples=80)
def test_mul_commutative(a, b):
    left = fps.mul(a, b).coeffs
    right = fps.mul(b, a).coeffs
    assert np.allclose(left, right, rtol=1e-13, atol=1e-13)


@given(small_series, small_series, small_series)
@settings(max_examples=80)
def test_mul_associative_to_tolerance(a, b, c):
    left = fps.mul(fps.mul(a, b), c).coeffs
    right = fps.mul(a, fps.mul(b, c)).coeffs
    scale = np.max(np.abs(left)) + 1.0
    assert np.max(np.abs(left - right)) <= 1e-13 * scale


@given(small_series)
@settings(max_examples=60)
def test_compose_with_identity(a):
    identity = np.zeros(a.order + 1)
    identity[1:2] = 1.0
    out = fps.compose(a, Series(identity))
    assert np.allclose(out.coeffs, a.coeffs, rtol=1e-12, atol=1e-12)



@given(
    st.lists(st.floats(min_value=-0.5, max_value=0.5, allow_nan=False), min_size=1, max_size=10)
)
@settings(max_examples=60)
def test_exp_log_round_trip(xs):
    # log E = ln E_0 + integral of E'/E, built from the reciprocal and the antiderivative
    g = Series(np.array([1.5] + xs))
    e = fps.exp_series(g).coeffs
    dlog = fps.mul(Series(polyder(e)), fps.reciprocal(Series(e)))
    back = fps.integrate_series(dlog).coeffs.copy()
    back[0] += math.log(e[0])
    assert np.max(np.abs(back - g.coeffs)) < 1e-11
