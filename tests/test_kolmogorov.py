import ast
import functools
import math
import re
import struct
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from hypothesis import given, settings
from hypothesis import strategies as st

from criticalbranch import (
    make_finite_immigration,
    make_finite_offspring,
    make_perturbed_offspring,
    make_stable_immigration,
    make_stable_offspring,
)
from criticalbranch import kolmogorov
from criticalbranch import series as fps
from criticalbranch.kolmogorov import (
    StepUnderflowError,
    closed_form_gf,
    gf_derivative,
    immigration_gf,
    immigration_gf_series,
    solve_gf,
    solve_gf_series,
)
from reference_stepper import reference_stepper


HALF = make_stable_offspring(0.5, 1.0)
BINARY = make_stable_offspring(1.0, 1.0)


class TestSolveGf:
    def test_initial_condition(self):
        assert solve_gf(HALF, 0.0, 0.3).F == 0.3

    def test_half_index_at_ten(self):
        assert solve_gf(HALF, 10.0, 0.0).F == pytest.approx(1.0 - 1.0 / 36.0, abs=1e-10)

    def test_binary_at_two(self):
        assert solve_gf(BINARY, 2.0, 0.0).F == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_gf(HALF, -1.0, 0.5)
        with pytest.raises(ValueError):
            solve_gf(HALF, 1.0, 1.5)
        with pytest.raises(ValueError):
            solve_gf(HALF, 1.0, 0.5, tol=0.0)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"t must be in \[0, inf\)"):
                solve_gf(HALF, t, 0.5)

    def test_step_through_negative_gap_stage_is_retried(self):
        # at tol=0.5 the first large steps drive inner stages below R = 0,
        # where f = R^(3/2) is complex; those steps are rejected and halved
        sol = solve_gf(HALF, 100.0, 0.0, tol=0.5)
        assert isinstance(sol.R, float)
        assert sol.R == pytest.approx(closed_form_gf(0.5, 1.0, 100.0, 0.0).R, rel=0.2)


class TestClosedForm:
    def test_half_index_gap(self):
        sol = closed_form_gf(0.5, 1.0, 2.0, 0.5)
        assert sol.R == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-15)

    def test_extinction_survival(self):
        assert closed_form_gf(0.5, 1.0, 2.0, 0.0).R == pytest.approx(0.25, abs=1e-15)

    def test_time_zero(self):
        assert closed_form_gf(0.7, 2.0, 0.0, 0.3).R == pytest.approx(0.7)

    def test_rejects_bad_family(self):
        with pytest.raises(ValueError):
            closed_form_gf(1.5, 1.0, 1.0, 0.0)


class TestSeriesMode:
    def test_time_zero_is_identity(self):
        sol = solve_gf_series(HALF, 0.0, 6)
        assert np.allclose(sol.F.coeffs, [0, 1, 0, 0, 0, 0, 0])

    def test_binary_coefficients(self):
        sol = solve_gf_series(BINARY, 2.0, 8)
        assert sol.F.coeffs[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert sol.F.coeffs[1] == pytest.approx(1.0 / 9.0, abs=1e-9)

    def test_eval_matches_scalar(self):
        sol = solve_gf_series(HALF, 10.0, 256)
        scalar = solve_gf(HALF, 10.0, 0.5).F
        assert abs(polyval(0.5, sol.F.coeffs) - scalar) < 1e-8

    def test_eval_at_zero_is_extinction_probability(self):
        sol = solve_gf_series(HALF, 3.0, 64)
        assert abs(polyval(0.0, sol.F.coeffs) - solve_gf(HALF, 3.0, 0.0).F) < 1e-8

    def test_coefficients_are_probabilities(self):
        sol = solve_gf_series(HALF, 2.0, 128)
        p = sol.F.coeffs
        assert np.all(p >= -1e-12)
        total = p.sum()
        assert total <= 1.0 + 1e-10
        # single-ancestor critical population has unit mean: Markov tail bound
        assert 1.0 - total <= 1.0 / 128.0

    def test_conservation_finite_support(self):
        law = make_finite_offspring([1.0, -2.0, 1.0])
        for t in (1.0, 5.0):
            total = solve_gf_series(law, t, 256).F.coeffs.sum()
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            solve_gf_series(HALF, 1.0, 2000)


class TestDerivative:
    def test_time_zero(self):
        assert gf_derivative(HALF, 0.0, 0.4) == 1.0

    def test_binary_closed_form(self):
        assert gf_derivative(BINARY, 2.0, 0.0) == pytest.approx(1.0 / 9.0, abs=1e-10)

    def test_matches_central_difference(self):
        h = 1e-5
        fd = (closed_form_gf(0.5, 1.0, 10.0, h).F - closed_form_gf(0.5, 1.0, 10.0, 0.0).F) / h
        # one-sided at s=0; symmetric difference around s=0.2 as well
        assert gf_derivative(HALF, 10.0, 0.0) == pytest.approx(fd, abs=1e-6)
        fd2 = (closed_form_gf(0.5, 1.0, 10.0, 0.2 + h).F - closed_form_gf(0.5, 1.0, 10.0, 0.2 - h).F) / (2 * h)
        assert gf_derivative(HALF, 10.0, 0.2) == pytest.approx(fd2, abs=1e-6)

    @pytest.mark.parametrize("t", [1.0, 1e3, 1e40, 1e100])
    def test_far_horizon_closed_form(self, t):
        # V falls like t^-3 here and turns subnormal near t = 1e103; log V stays in range
        exact = (1.0 + 0.5 * t) ** -3.0
        assert gf_derivative(HALF, t, 0.0) == pytest.approx(exact, rel=5e-8)


class TestImmigrationGf:
    def test_empty_integral_at_time_zero(self):
        h_law = make_stable_immigration(0.4, 0.1)
        sol = immigration_gf(HALF, h_law, 0, 0.0, 0.7)
        assert sol.P == 1.0 and sol.G == 0.0

    def test_closed_form_exponent(self):
        # int_0^t h(F) du has the exact value (1-s)^(-|g|) - tau(t;s)^{|g|}
        # for the matched stable pair, |g| = nu - delta
        h_law = make_stable_immigration(0.4, 0.1)
        sol = immigration_gf(HALF, h_law, 0, 5.0, 0.5)
        want = math.exp(2.0**0.1 - (math.sqrt(2.0) + 2.5) ** 0.2)
        assert sol.P == pytest.approx(want, abs=1e-8)
        assert sol.P == pytest.approx(0.7850361852, abs=1e-8)

    def test_ancestor_factorization(self):
        h_law = make_stable_immigration(0.4, 0.1)
        base = immigration_gf(HALF, h_law, 0, 3.0, 0.4)
        two = immigration_gf(HALF, h_law, 2, 3.0, 0.4)
        assert two.P == pytest.approx(base.F**2 * base.P, abs=1e-12)

    def test_series_step_through_negative_gap_stage_is_retried(self):
        sol = immigration_gf_series(HALF, make_stable_immigration(0.4, 0.1), 0, 100.0, 32, tol=0.5)
        assert np.all(np.isfinite(sol.P.coeffs))
        assert sol.R.coeffs[0] == pytest.approx(closed_form_gf(0.5, 1.0, 100.0, 0.0).R, rel=0.2)

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 5])
    def test_series_at_time_zero_is_s_to_the_i(self, i):
        # P = s^i exactly; past the order N = 4 it has no coefficient
        sol = immigration_gf_series(HALF, make_stable_immigration(0.4, 0.1), i, 0.0, 4)
        assert sol.P.coeffs.tolist() == [float(k == i) for k in range(5)]

    def test_series_coefficients_sum_to_scalar(self):
        h_law = make_stable_immigration(0.4, 0.1)
        sol = immigration_gf_series(HALF, h_law, 0, 1.0, 64)
        scalar = immigration_gf(HALF, h_law, 0, 1.0, 0.5)
        assert abs(polyval(0.5, sol.P.coeffs) - scalar.P) < 1e-8


_IMM = make_stable_immigration(0.4, 0.1)
# the solvers that take a tolerance
_SOLVERS = {
    "solve_gf": lambda tol: solve_gf(HALF, 1.0, 0.5, tol=tol),
    "immigration_gf": lambda tol: immigration_gf(HALF, _IMM, 0, 1.0, 0.5, tol=tol),
    "immigration_gf_series": lambda tol: immigration_gf_series(HALF, _IMM, 0, 1.0, 8, tol=tol),
}
# the solves that return their stepper counters
_COUNTED = {
    **{name: functools.partial(solve, 1e-10) for name, solve in _SOLVERS.items()},
    "solve_gf_series": lambda: solve_gf_series(HALF, 1.0, 8),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_every_solver_rejects_bad_tol(solver, tol):
    # tol = 0 divides by a zero error floor or never finishes; tol < 0 runs unchecked
    with pytest.raises(ValueError, match=r"tol must be in \(0, inf\)"):
        _SOLVERS[solver](tol)


class TestStepper:
    def test_far_horizon_matches_closed_form(self):
        sol = solve_gf(HALF, 1e100, 0.0)
        assert sol.R == pytest.approx(closed_form_gf(0.5, 1.0, 1e100, 0.0).R, rel=1e-8)

    @pytest.mark.parametrize(
        "solve",
        [lambda t: solve_gf(HALF, t, 0.5), lambda t: immigration_gf(HALF, _IMM, 0, t, 0.5)],
        ids=["solve_gf", "immigration_gf"],
    )
    def test_stalled_far_horizon_solve_fails_fast(self, solve):
        # past t ~ 1e103 the rate R^(3/2) is subnormal, the error estimate is
        # rounding noise and the step shrinks without end; the attempt budget
        # ends the solve
        started = time.perf_counter()
        with pytest.raises(StepUnderflowError, match="no progress"):
            solve(1e300)
        assert time.perf_counter() - started < 30.0

    def test_nan_error_estimate_rejects_the_step(self):
        # a NaN in any component is never accepted: the first attempt ends the solve
        calls = []

        def rate(r):
            calls.append(1)
            return -r

        quad = lambda r: np.full(3, math.nan)
        with pytest.raises(StepUnderflowError, match="non-finite stage value .* at t=0.0$"):
            kolmogorov._Stepper(rate, quad, np.ones(3), np.zeros(3), 1e-9, 1e-11, 1e-11, (1.0,))(1.0)
        assert len(calls) == 7  # k1 and the six stages of one attempt

    def test_horizon_below_min_step(self):
        # a horizon below _MIN_STEP is one short step, not a step size underflow
        t, h_law = 1e-13, make_stable_immigration(0.4, 0.1)
        assert t < kolmogorov._MIN_STEP
        assert solve_gf(HALF, t, 0.5).F == pytest.approx(0.5, abs=1e-12)
        assert immigration_gf(HALF, h_law, 2, t, 0.5).P == pytest.approx(0.25, abs=1e-12)
        assert gf_derivative(HALF, t, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(solve_gf_series(HALF, t, 4).F.coeffs, [0, 1, 0, 0, 0], atol=1e-12)

    def test_series_overflow_fails_at_once(self):
        # the higher G coefficients overflow past t ~ 1e83; the first non-finite
        # step ends the solve instead of the 200,000-attempt budget (about 60 s)
        started = time.perf_counter()
        with pytest.raises(StepUnderflowError, match="non-finite stage value"):
            immigration_gf_series(HALF, _IMM, 0, 1e100, 64)
        assert time.perf_counter() - started < 20.0

    @pytest.mark.parametrize("solver", sorted(_COUNTED))
    def test_rhs_evals_count_six_per_attempt(self, solver):
        sol = _COUNTED[solver]()
        assert sol.gap_rejected == 0
        assert sol.rhs_evals == 1 + 6 * (sol.steps + sol.rejected)

    def test_series_rate_reads_the_kernel_from_its_module(self, monkeypatch):
        # perfbench wraps series._pow_coeffs by name: a one-term law's gap rate
        # calls it once per RHS evaluation, and a binding made at import time
        # would bypass the wrapper
        calls = []
        kernel = fps._pow_coeffs

        def counted(w, alpha):
            calls.append(alpha)
            return kernel(w, alpha)

        monkeypatch.setattr(fps, "_pow_coeffs", counted)
        sol = solve_gf_series(HALF, 1.0, 32)
        assert sol.rhs_evals > 0 and len(calls) == sol.rhs_evals

    def test_counters_match_rhs_calls_through_gap_rejections(self):
        # at tol=0.5 some attempts stop at a non-positive gap stage, after
        # zero to five of their six RHS calls
        calls = []

        def rate(r):
            calls.append(1)
            return -HALF.from_gap(r)

        _, _, counts = kolmogorov._Stepper(rate, None, 1.0, None, 0.5, 0.0, 0.0, (100.0,))(100.0)
        sol = solve_gf(HALF, 100.0, 0.0, tol=0.5)
        assert counts == dict(steps=sol.steps, rejected=sol.rejected, gap_rejected=sol.gap_rejected,
                              rhs_evals=sol.rhs_evals)
        assert sol.gap_rejected > 0
        assert sol.rhs_evals == len(calls)
        series = immigration_gf_series(HALF, _IMM, 0, 100.0, 32, tol=0.5)
        assert series.gap_rejected > 0
        attempts = 1 + 6 * (series.steps + series.rejected)
        assert attempts <= series.rhs_evals <= attempts + 5 * series.gap_rejected

    def test_gap_rejection_at_each_stage_counts_its_rhs_calls(self):
        # a spike in one stage's rate drives the next stage's gap negative; the
        # spikes stop attempts 1-5 after 1, 2, 3, 4 and 5 of their six RHS calls,
        # and a spike in the sixth call of attempt 6 fails its error test
        spikes = {1: -1e9, 3: -1e9, 6: 1e9, 10: 1e9, 15: -1e9, 21: -1e3}
        calls = []

        def rate(r):
            calls.append(1)
            return spikes.get(len(calls) - 1, -r)

        r, _, counts = kolmogorov._Stepper(rate, None, 1.0, None, 1e-10, 0.0, 0.0, (1.0,))(1.0)
        assert counts["gap_rejected"] == 5 and counts["rejected"] >= 1
        assert counts["rhs_evals"] == len(calls) == 1 + 6 * (counts["steps"] + counts["rejected"]) + 15
        assert r == pytest.approx(math.exp(-1.0), rel=1e-9)

    @pytest.mark.parametrize("solve", [
        lambda: immigration_gf(HALF, _IMM, 2, 100.0, 0.3),
        lambda: immigration_gf_series(HALF, _IMM, 0, 2.0, 16),
    ], ids=["immigration_gf", "immigration_gf_series"])
    def test_quadrature_rate_skips_the_second_stage(self, solve, monkeypatch):
        # b2 has weight zero in the update and the error probe, so the quadrature
        # rate is called at five of the six stages; rhs_evals counts gap-rate calls
        calls = {"rate": 0, "quad": 0}
        stepper = kolmogorov._Stepper

        def spy(name, fn):
            def counted(r):
                calls[name] += 1
                return fn(r)
            return counted

        monkeypatch.setattr(kolmogorov, "_Stepper",
                            lambda rate, quad, *args: stepper(spy("rate", rate), spy("quad", quad), *args))
        sol = solve()
        attempts = sol.steps + sol.rejected
        assert sol.gap_rejected == 0 and attempts > 0
        assert calls == {"rate": 1 + 6 * attempts, "quad": 1 + 5 * attempts}
        assert sol.rhs_evals == calls["rate"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rate, quad, r0, where", [
        (lambda r: r ** 400.0, None, 10.0, "at t=0.0$"),
        (lambda r: r ** 400.0, None, 1.0, "at step size .* at t=0.0$"),
        (lambda r: r, lambda r: r ** 400.0, 1.0, "at step size .* at t=1.77"),
    ], ids=["first-rate", "third-stage", "quadrature"])
    def test_overflowing_power_is_a_non_finite_stage(self, rate, quad, r0, where):
        # a power of Python floats past the float range raises OverflowError where
        # numpy gives inf: r0 = 10 overflows r ** 400 at once; from r0 = 1 the
        # third stage's gap passes 5.9; a gap growing as e^t passes it at t = 1.774
        g = None if quad is None else 0.0
        with pytest.raises(StepUnderflowError, match="^non-finite stage value " + where):
            kolmogorov._Stepper(rate, quad, r0, g, 1e-10, 0.0, 1e-12, (10.0,))(10.0)

    def test_series_and_scalar_states_share_the_stepper(self):
        # a vector state of one coefficient advances exactly as the float state
        rate_f, quad_f = lambda r: -HALF.from_gap(r), _IMM.from_gap
        rate_v, quad_v = (lambda r: np.array([rate_f(r[0])])), (lambda r: np.array([quad_f(r[0])]))
        r, g, steps = kolmogorov._Stepper(rate_f, quad_f, 0.5, 0.0, 1e-10, 0.0, 1e-12, (7.0,))(7.0)
        rv, gv, steps_v = kolmogorov._Stepper(rate_v, quad_v, np.array([0.5]), np.zeros(1), 1e-10, 0.0, 1e-12, (7.0,))(7.0)
        assert (rv[0], gv[0], steps_v) == (r, g, steps)



# ---------------------------------------------------------------------------
# Parity with the reference stepper of ``reference_stepper``, run to each horizon alone.


_PARITY_LAWS = {
    "canonical": (HALF, make_stable_immigration(0.4, 0.1)),
    "perturbed": (make_perturbed_offspring(0.5, 1.0, 0.3, 0.5), make_stable_immigration(0.4, 0.1, 0.25)),
    "finite": (make_finite_offspring([1.0, -2.0, 1.0]), make_finite_immigration([-1.0, 1.0])),
    # three centered terms each: the rates' loop form
    "finite3": (make_finite_offspring([1.0, -1.65, 0.4, 0.15, 0.1]), make_finite_immigration([-1.0, 0.5, 0.25, 0.25])),
}


def _outcome(solve, *args, **kwargs):
    """solve(*args, **kwargs) as bytes, F, R, G, P (those present) and the four counters or dF/ds, or its error."""
    try:
        sol = solve(*args, **kwargs)
    except ValueError as exc:  # StepUnderflowError included: the message names the t reached
        return f"{type(exc).__name__}: {exc}"
    if isinstance(sol, float):
        return struct.pack("<d", sol)
    values = [sol.F, sol.R] + ([sol.G, sol.P] if sol.G is not None else [])
    floats = b"".join(np.asarray(getattr(v, "coeffs", v), dtype=float).tobytes() for v in values)
    return floats + struct.pack("<4q", sol.steps, sol.rejected, sol.gap_rejected, sol.rhs_evals)


def _parity_solves(f_law, h_law, t, s, tol):
    """Every solver's outcome at (t, s)."""
    return [
        _outcome(solve_gf, f_law, t, s, tol=tol),
        *(_outcome(immigration_gf, f_law, h_law, i, t, s, tol=tol) for i in (0, 2)),
        _outcome(gf_derivative, f_law, t, s),
        _outcome(solve_gf_series, f_law, t, 8),
        _outcome(immigration_gf_series, f_law, h_law, 2, t, 8, tol=tol),
    ]


def _assert_parity(law, t, s, tol):
    f_law, h_law = _PARITY_LAWS[law]
    solves = _parity_solves(f_law, h_law, t, s, tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kolmogorov, "_Stepper", reference_stepper)
        assert _parity_solves(f_law, h_law, t, s, tol) == solves


@given(
    law=st.sampled_from(sorted(_PARITY_LAWS)),
    t=st.floats(min_value=0.0, max_value=20.0),
    s=st.floats(min_value=0.0, max_value=0.999),
    tol=st.sampled_from([1e-10, 1e-6, 0.5]),
)
@settings(max_examples=30, deadline=None)
def test_solvers_match_the_reference_stepper_bit_for_bit(law, t, s, tol):
    _assert_parity(law, t, s, tol)


@pytest.mark.parametrize("law", sorted(_PARITY_LAWS))
def test_reference_parity_through_gap_rejections(law):
    # at tol=0.5 some attempts stop at a non-positive gap stage
    f_law, h_law = _PARITY_LAWS[law]
    assert immigration_gf(f_law, h_law, 2, 100.0, 0.0, tol=0.5).gap_rejected > 0
    _assert_parity(law, 100.0, 0.0, 0.5)


# ---------------------------------------------------------------------------
# A march through a grid of horizons against the solo solve at each one, on the
# reference stepper: each horizon run alone from t = 0.

_MARCH_LAWS = {
    **_PARITY_LAWS,
    # a stiff supercritical law
    "stiff": (make_finite_offspring([25.976, -96.001, 18.446, 48.793, 2.786]), make_finite_immigration([-1.0, 1.0])),
}


# each solver at t, and its march arguments after f_law and ts, from (h_law, i, s, tol); series at N = 8
_SOLO = {
    "solve_gf": (lambda f, h, i, s, tol, t: solve_gf(f, t, s, tol), lambda h, i, s, tol: dict(s=s, tol=tol)),
    "immigration_gf": (lambda f, h, i, s, tol, t: immigration_gf(f, h, i, t, s, tol),
                       lambda h, i, s, tol: dict(h_law=h, i=i, s=s, tol=tol)),
    "gf_derivative": (lambda f, h, i, s, tol, t: gf_derivative(f, t, s), lambda h, i, s, tol: dict(s=s)),
    "solve_gf_series": (lambda f, h, i, s, tol, t: solve_gf_series(f, t, 8), lambda h, i, s, tol: dict(N=8)),
    "immigration_gf_series": (lambda f, h, i, s, tol, t: immigration_gf_series(f, h, i, t, 8, tol),
                              lambda h, i, s, tol: dict(h_law=h, i=i, N=8, tol=tol)),
}


def _assert_march_is_solo(solver, law, ts, order, s, tol, i, tries):
    """Each t of ``order`` asked of one march of ``solver`` over ``ts`` gives its solo solve's outcome; returns the outcomes.

    The solo solves run on the reference stepper, to each t alone.
    """
    f_law, h_law = _MARCH_LAWS[law]
    solo, march_args = _SOLO[solver]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kolmogorov, "_MAX_TRIES", tries)
        march = kolmogorov._March(solver, f_law, ts, **march_args(h_law, i, s, tol))
        got = [_outcome(march, t) for t in order]
        patch.setattr(kolmogorov, "_Stepper", reference_stepper)
        assert got == [_outcome(solo, f_law, h_law, i, s, tol, t) for t in order]
    return got


@given(
    solver=st.sampled_from(sorted(_SOLO)),
    law=st.sampled_from(sorted(_MARCH_LAWS)),
    ts=st.lists(st.one_of(st.sampled_from([0.0, 1e-13]), st.floats(min_value=0.0, max_value=20.0)),
                min_size=1, max_size=5),
    s=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.999)),
    tol=st.sampled_from([1e-10, 1e-6, 0.5]),
    i=st.sampled_from([0, 2]),
    tries=st.sampled_from([10, 30, 200, kolmogorov._MAX_TRIES]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_march_is_the_solo_solve(solver, law, ts, s, tol, i, tries, data):
    # unsorted horizons with a repeat, 0 and one below _MIN_STEP, asked for in any order
    ts = ts + [ts[0], 1e-13, 0.0]
    _assert_march_is_solo(solver, law, ts, data.draw(st.permutations(ts)), s, tol, i, tries)


@pytest.mark.parametrize("tries, fails", [(10, [True, True, True]), (60, [True, False, True])],
                         ids=["failing-prefix", "failing-continuation"])
def test_march_fails_where_the_solo_solves_fail(tries, fails):
    # HALF at s = 0.5 (i = 2) reaches t = 1 in 24-59 attempts and t = 5 in 76-138, by
    # solver: within 10 the march fails before its first horizon, within 60 after it
    for solver in _SOLO:
        got = _assert_march_is_solo(solver, "canonical", [5.0, 1.0, 20.0], [20.0, 1.0, 5.0], 0.5, 1e-10, 2, tries)
        failed = [g for g in got if isinstance(g, str)]
        assert [isinstance(g, str) for g in got] == fails
        assert all(g.startswith(f"StepUnderflowError: no progress in {tries} step attempts") for g in failed)


def test_one_driver_runs_the_stepper():
    # _start and _run are called from the one driver only, only the march builds the driver,
    # and each of the five solvers is the march of itself: a second way to run the stepper fails here
    calls, marches = {}, {}
    for path in Path(kolmogorov.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(callee, set()).add((path.stem, getattr(top, "name", None)))
                    if callee == "_March" and path.stem == "kolmogorov":
                        marches[top.name] = getattr(node.args[0], "value", None)
    assert calls["_start"] == calls["_run"] == {("kolmogorov", "_Stepper")}
    assert calls["_Stepper"] == {("kolmogorov", "_March")}
    assert marches == {name: name for name in _SOLO}


@pytest.mark.parametrize("solver", sorted(_SOLO))
def test_a_march_checks_its_fixed_arguments_once(solver, monkeypatch):
    # the first call checks every argument in the solver's order; once a call has passed
    # them, a call checks t alone; a call that fails leaves the march checking everything
    order = {"solve_gf": ("t", "s", "tol"), "immigration_gf": ("i", "t", "s", "tol"), "gf_derivative": ("t", "s"),
             "solve_gf_series": ("order", "t"), "immigration_gf_series": ("order", "t", "tol", "i")}[solver]
    seen, check = [], kolmogorov._check
    monkeypatch.setattr(kolmogorov, "_check", lambda **args: seen.append(tuple(args)) or check(**args))
    march = kolmogorov._March(solver, HALF, [1.0, 2.0], **_SOLO[solver][1](_IMM, 2, 0.5, 1e-10))
    with pytest.raises(ValueError, match="^t must be"):
        march(-1.0)
    march(0.0)
    march(2.0)
    march(1.0)
    with pytest.raises(ValueError, match="^t must be"):
        march(math.inf)
    assert seen == [order, order, ("t",), ("t",), ("t",)]


@pytest.mark.parametrize("solve, message", [
    (lambda: solve_gf(HALF, -1.0, 2.0, 0.0), "t must be in [0, inf), got -1.0"),
    (lambda: immigration_gf(HALF, _IMM, -1, -1.0, 2.0, 0.0), "i must be in [0, inf), got -1"),
    (lambda: immigration_gf(HALF, _IMM, 2, 1.0, 2.0, 0.0), "s must be in [0, 1], got 2.0"),
    (lambda: gf_derivative(HALF, -1.0, 2.0), "t must be in [0, inf), got -1.0"),
    (lambda: gf_derivative(HALF, 0.0, 2.0), "s must be in [0, 1], got 2.0"),
    (lambda: gf_derivative(HALF, 0.0, 1.0), "derivative is evaluated on [0, 1)"),
    (lambda: solve_gf_series(HALF, -1.0, -1), "order must be in [0, 1024], got -1"),
    (lambda: immigration_gf_series(HALF, _IMM, -1, -1.0, 2000, 0.0), "order must be in [0, 1024], got 2000"),
    (lambda: immigration_gf_series(HALF, _IMM, -1, 1.0, 8, 0.0), "tol must be in (0, inf), got 0.0"),
], ids=["solve_gf", "immigration_gf", "immigration_gf-s", "gf_derivative", "gf_derivative-s", "gf_derivative-s=1",
        "solve_gf_series", "immigration_gf_series", "immigration_gf_series-tol"])
def test_several_bad_values_get_the_first_message(solve, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve()


@pytest.mark.parametrize("solver", sorted(_SOLO))
def test_a_one_horizon_solve_runs_once(solver, monkeypatch):
    # the last horizon's steps are cut to it in the run that reaches it
    runs, run = [], kolmogorov._run
    monkeypatch.setattr(kolmogorov, "_run", lambda *args, **kwargs: runs.append(1) or run(*args, **kwargs))
    solve = _SOLO[solver][0]
    assert isinstance(_outcome(solve, HALF, _IMM, 2, 0.5, 1e-10, 1e-3), bytes)
    assert len(runs) == 1


def immigration_mean(f_law, h_law, t, eps=1e-7):
    """Mean population from the empty state: dG/ds at s = 1 by a one-sided difference."""
    return -immigration_gf(f_law, h_law, 0, t, 1.0 - eps, tol=1e-12).G / eps


class TestPopulationMean:
    # E Z(t) = h'(1) (e^{a t} - 1) / a, and h'(1) t for a critical law (a = 0)

    def test_critical_linear_growth(self):
        h_law = make_stable_immigration(1.0, 1.0)
        assert BINARY.fprime_from_gap(0.0) == 0.0
        # h(s) = -(1-s), so h'(1) = 1
        assert immigration_mean(BINARY, h_law, 3.0) == pytest.approx(3.0)

    def test_time_zero(self):
        h_law = make_stable_immigration(1.0, 2.0)
        assert immigration_mean(BINARY, h_law, 0.0) == 0.0

    def test_noncritical_branch(self):
        f_law = make_finite_offspring([0.75, -1.0, 0.25])
        h_law = make_finite_immigration([-1.0, 1.0])
        a = f_law.fprime_from_gap(0.0)
        assert a == -0.5
        assert immigration_mean(f_law, h_law, 2.0) == pytest.approx((math.exp(-1.0) - 1.0) / a)


class TestFlowIdentities:
    @pytest.mark.parametrize("s", [0.0, 0.3, 0.7])
    def test_semigroup_property(self, s):
        for t in (0.5, 1.0, 2.0):
            for u in (0.5, 1.0, 2.0):
                lhs = solve_gf(HALF, t + u, s).F
                rhs = solve_gf(HALF, t, solve_gf(HALF, u, s).F).F
                assert abs(lhs - rhs) <= 1e-8

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.7])
    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    def test_forward_equation_residual(self, s, t):
        f_of_F = HALF.value(solve_gf(HALF, t, s).F)
        rhs = HALF.value(s) * gf_derivative(HALF, t, s)
        assert abs(f_of_F - rhs) <= 1e-6

    def test_invariant_gf_shift(self):
        from criticalbranch.asymptotics import invariant_gf

        for t in (0.5, 2.0, 7.0):
            for s in (0.0, 0.4):
                f_val = solve_gf(HALF, t, s).F
                assert invariant_gf(HALF, f_val) - invariant_gf(HALF, s) == pytest.approx(
                    t, abs=1e-8 * max(t, 1.0)
                )


@given(
    s1=st.floats(min_value=0.0, max_value=0.94),
    ds=st.floats(min_value=0.01, max_value=0.05),
    t=st.floats(min_value=0.1, max_value=20.0),
)
@settings(max_examples=40, deadline=None)
def test_strictly_increasing_in_s(s1, ds, t):
    assert solve_gf(HALF, t, s1 + ds).F > solve_gf(HALF, t, s1).F


@given(t=st.floats(min_value=0.1, max_value=50.0), s=st.floats(min_value=0.0, max_value=0.9))
@settings(max_examples=40, deadline=None)
def test_gap_within_unit_interval(t, s):
    sol = solve_gf(HALF, t, s)
    assert s <= sol.F < 1.0
    assert 0.0 < sol.R <= 1.0
