import math
import time

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from hypothesis import given, settings
from hypothesis import strategies as st

from criticalbranch import (
    make_finite_immigration,
    make_finite_offspring,
    make_stable_immigration,
    make_stable_offspring,
)
from criticalbranch import kolmogorov
from criticalbranch.kolmogorov import (
    StepUnderflowError,
    closed_form_gf,
    gf_derivative,
    immigration_gf,
    immigration_gf_series,
    solve_gf,
    solve_gf_series,
)


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
            with pytest.raises(ValueError, match="finite"):
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
        assert sol.F[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert sol.F[1] == pytest.approx(1.0 / 9.0, abs=1e-9)

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
        assert sol.R[0] == pytest.approx(closed_form_gf(0.5, 1.0, 100.0, 0.0).R, rel=0.2)

    def test_series_coefficients_sum_to_scalar(self):
        h_law = make_stable_immigration(0.4, 0.1)
        sol = immigration_gf_series(HALF, h_law, 0, 1.0, 64)
        scalar = immigration_gf(HALF, h_law, 0, 1.0, 0.5)
        assert abs(polyval(0.5, sol.P.coeffs) - scalar.P) < 1e-8


_IMM = make_stable_immigration(0.4, 0.1)
_SOLVERS = {
    "solve_gf": lambda tol: solve_gf(HALF, 1.0, 0.5, tol=tol),
    "gf_derivative": lambda tol: gf_derivative(HALF, 1.0, 0.5, tol=tol),
    "immigration_gf": lambda tol: immigration_gf(HALF, _IMM, 0, 1.0, 0.5, tol=tol),
    "solve_gf_series": lambda tol: solve_gf_series(HALF, 1.0, 8, tol=tol),
    "immigration_gf_series": lambda tol: immigration_gf_series(HALF, _IMM, 0, 1.0, 8, tol=tol),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_every_solver_rejects_bad_tol(solver, tol):
    # tol = 0 divides by a zero error floor or never finishes; tol < 0 runs unchecked
    with pytest.raises(ValueError, match="tol must be finite and positive"):
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
        # a NaN in any component must shrink the step, never accept it
        rhs = lambda y: (-y[0], np.full(3, math.nan))
        with pytest.raises(StepUnderflowError, match="step size underflow"):
            kolmogorov._advance(rhs, (np.ones(3), np.zeros(3)), 1.0, 1e-9, (1e-11, 1e-11))

    def test_series_and_scalar_states_share_the_stepper(self):
        # a vector state of one coefficient advances exactly as the float state
        rhs_f = lambda y: (-HALF.from_gap(y[0]), _IMM.from_gap(y[0]))
        rhs_v = lambda y: tuple(np.array([v]) for v in rhs_f((y[0][0], y[1][0])))
        (r, g), steps = kolmogorov._advance(rhs_f, (0.5, 0.0), 7.0, 1e-10, (0.0, 1e-12))
        (rv, gv), steps_v = kolmogorov._advance(rhs_v, (np.array([0.5]), np.zeros(1)), 7.0, 1e-10, (0.0, 1e-12))
        assert (rv[0], gv[0], steps_v) == (r, g, steps)



def immigration_mean(f_law, h_law, t, eps=1e-7):
    """Mean population from the empty state: dG/ds at s = 1 by a one-sided difference."""
    return -immigration_gf(f_law, h_law, 0, t, 1.0 - eps, tol=1e-12).G / eps


class TestPopulationMean:
    # E Z(t) = h'(1) (e^{a t} - 1) / a, and h'(1) t for a critical law (a = 0)

    def test_critical_linear_growth(self):
        h_law = make_stable_immigration(1.0, 1.0)
        assert BINARY.criticality == 0.0
        assert immigration_mean(BINARY, h_law, 3.0) == pytest.approx(h_law.hprime1 * 3.0)
        assert h_law.hprime1 == 1.0

    def test_time_zero(self):
        h_law = make_stable_immigration(1.0, 2.0)
        assert immigration_mean(BINARY, h_law, 0.0) == 0.0

    def test_noncritical_branch(self):
        f_law = make_finite_offspring([0.75, -1.0, 0.25])
        h_law = make_finite_immigration([-1.0, 1.0])
        a = f_law.criticality
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
