import math

import numpy as np
import pytest

from criticalbranch import asymptotics as asy
from criticalbranch import karamata as km
from criticalbranch import (
    classify,
    make_perturbed_offspring,
    make_stable_immigration,
    make_stable_offspring,
)
from criticalbranch import kolmogorov
from criticalbranch.kolmogorov import closed_form_gf, gf_derivative, immigration_gf, solve_gf
from reference_stepper import reference_stepper

HALF = make_stable_offspring(0.5, 1.0)
BINARY = make_stable_offspring(1.0, 1.0)
IMM = make_stable_immigration(0.4, 0.1)
IMM_PERTURBED = make_stable_immigration(0.4, 0.1, kappa=0.25)
REGIME = classify(HALF, IMM)
RATIO = km.ratio_of(HALF.slowly_varying(), IMM.slowly_varying())
RATIO_PERTURBED = km.ratio_of(HALF.slowly_varying(), IMM_PERTURBED.slowly_varying())


class TestInvariantGf:
    def test_vanishes_at_zero(self):
        assert asy.invariant_gf(HALF, 0.0) == 0.0

    def test_half_index_closed_form(self):
        want = 2.0 * (math.sqrt(2.0) - 1.0)
        assert asy.invariant_gf(HALF, 0.5) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("s", np.arange(0.1, 0.95, 0.1))
    def test_quadrature_matches_tail_form(self, s):
        # rho = 0 leaves f = (1-s)^1.5, which takes the quadrature route; the
        # canonical law takes the tail form
        quad_val = asy.invariant_gf(make_perturbed_offspring(0.5, 1.0, 0.0, 0.5), float(s))
        tail_val = asy.invariant_gf(HALF, float(s))
        assert quad_val == pytest.approx(tail_val, abs=1e-10)

    def test_series_matches_closed_coefficients(self):
        got = asy.invariant_series(HALF, 48).coeffs
        want = asy.stable_invariant_coeffs(0.5, 1.0, 48)
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.all(got >= -1e-10)

    def test_series_for_unit_index_is_geometric(self):
        got = asy.invariant_series(BINARY, 16).coeffs
        assert np.allclose(got[1:], 1.0, atol=1e-12)


class TestFigureNormalizers:
    def test_presets_match_expressions(self):
        t = 50.0
        assert asy.FIGURE_NORMALIZERS["half-log"](0.2, t) == pytest.approx(1.0 + 0.5 / math.log(51.0))
        assert asy.FIGURE_NORMALIZERS["log-power"](0.2, t) == pytest.approx(1.0 + math.log(51.0) / 50.0**0.2)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown normalizer preset"):
            asy.figure_rows(0.2, 0.9, "log")


class TestSurvivalExpansion:
    def test_figure_point_value(self):
        n_fn = lambda t: asy.FIGURE_NORMALIZERS["half-log"](0.2, t)
        got = asy.survival_expansion(0.2, 0.9, n_fn, 50.0)
        assert got == pytest.approx(7.319e-5, rel=1e-3)
        # the three factors behind that number
        assert n_fn(50.0) == pytest.approx(1.127168, abs=1e-6)
        assert (0.2 * 50.0) ** 5.0 == pytest.approx(1e5)
        assert 1.0 + math.log(9.0) / 0.4 == pytest.approx(6.49306, abs=1e-5)

    def test_second_preset_accepted(self):
        n_fn = lambda t: asy.FIGURE_NORMALIZERS["log-power"](0.9, t)
        assert asy.survival_expansion(0.9, 0.2, n_fn, 50.0) > 0.0

    @pytest.mark.parametrize("nu", [0.2, 0.5, 0.9, 1.0])
    def test_canonical_gap_bound(self, nu):
        for t in (10.0 / nu, 100.0 / nu):
            q = closed_form_gf(nu, 1.0, t, 0.0).R
            assert abs((nu * t) ** (1.0 / nu) * q - 1.0) <= 2.0 / (nu**2 * t)


def balance_lhs(L, nu, r, s):
    """1/Lambda(R(t;s)) - 1/Lambda(1-s) for the gap R(t;s) = r, Lambda(y) = y^nu L(1/y)."""
    y = 1.0 - s
    return 1.0 / (r**nu * L(1.0 / r)) - 1.0 / (y**nu * L(1.0 / y))


def drift_integral(f_law, L, t, s, nodes=16):
    """integral_0^t sigma(R(u;s)) du with sigma(y) = -p u/(1+u), u = rho y^p.

    sigma is the elasticity of the power form L at 1/y; composite
    Gauss-Legendre on decade panels, each node a separate gap solve.
    """
    edges = [0.0] + [e for e in (0.1, 1.0, 10.0, 100.0) if e < t] + [t]
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        for xi, wi in zip(x, w):
            r = solve_gf(f_law, 0.5 * (b - a) * xi + 0.5 * (a + b), s, tol=1e-12).R
            u = L.rho * r**L.p
            total += 0.5 * (b - a) * wi * (-L.p * u / (1.0 + u))
    return total


class TestBalanceResiduals:
    # 1/Lambda(R(t;s)) - 1/Lambda(1-s) = nu t - integral_0^t sigma(R(u;s)) du

    def test_canonical_is_exact(self):
        # with a flat factor the drift term vanishes and the left side is nu t
        L = HALF.slowly_varying()
        lhs = balance_lhs(L, 0.5, solve_gf(HALF, 20.0, 0.3, tol=1e-10).R, 0.3)
        assert abs(lhs - 0.5 * 20.0) <= 1e-9

    def test_time_zero(self):
        L = HALF.slowly_varying()
        assert balance_lhs(L, 0.5, solve_gf(HALF, 0.0, 0.3).R, 0.3) == 0.0

    def test_power_corrected_factor(self):
        law = make_perturbed_offspring(0.5, 1.0, rho=0.3, p=0.5)
        L = law.slowly_varying()
        nu, s = 0.5, 0.2
        for t in (5.0, 50.0, 500.0):
            lhs = balance_lhs(L, nu, solve_gf(law, t, s, tol=1e-12).R, s)
            assert abs(lhs - nu * t + drift_integral(law, L, t, s)) <= 1e-8
            # the slowly growing correction nu t - (1/nu) ln(Lambda(1-s) nu t)
            y = 1.0 - s
            asym = nu * t - math.log(y**nu * L(1.0 / y) * nu * t) / nu
            assert abs(lhs - asym) <= 5.0 * math.log(t + 2.0)


class TestLocalRatio:
    def test_unit_index_measured_closed_form(self):
        for t in (5.0, 50.0):
            measured = asy.local_ratio_measured(BINARY, t)
            assert measured == pytest.approx(1.0 / (1.0 + t), abs=1e-9)
            assert measured * t == pytest.approx(1.0, abs=2.0 / t)

    def test_predicted_factor_at_figure_point(self):
        # the plotted p1/q is (1 + ln(a0 nu t)/(nu^2 t)) / (a0 nu t); at (0.2, 0.9, 50) the factor is 1 + ln(9)/2
        ((_, q, p1),) = asy.figure_rows(0.2, 0.9, "half-log", [50.0])
        assert p1 / q * (0.9 * 0.2 * 50.0) == pytest.approx(1.0 + math.log(9.0) / 2.0, abs=1e-12)

    def test_large_time_agreement(self):
        t = 1e4
        measured = asy.local_ratio_measured(BINARY, t)
        assert abs(measured * t - 1.0) <= 10.0 * math.log(t) / t


def scaled_local(f_law, t):
    """(nu t)^(1 + 1/nu) p_1(t) a0, slowly varying in t."""
    nu = f_law.nu
    return (nu * t) ** (1.0 + 1.0 / nu) * gf_derivative(f_law, t, 0.0) * f_law.a0


class TestSlowVariationReport:
    def test_unit_index_ratio(self):
        assert abs(scaled_local(BINARY, 2e3) / scaled_local(BINARY, 1e3) - 1.0) < 0.01

    def test_half_index_level(self):
        # (nu t)^(1+1/nu) p1(t) a0 settles at a0^(-1/nu) = 1 here
        assert scaled_local(HALF, 1e3) == pytest.approx(1.0, rel=2e-2)


class TestLimitGf:
    def test_flat_ratio_gives_pure_exponent(self):
        assert asy.limit_gf(REGIME, RATIO, 0.0) == pytest.approx(math.e, abs=1e-14)
        assert asy.limit_gf(REGIME, RATIO, 0.5) == pytest.approx(math.exp(2.0**0.1), abs=1e-12)

    def test_eligibility_errors(self):
        bad_regime = classify(HALF, make_stable_immigration(0.9, 0.1))
        with pytest.raises(asy.EligibilityError):
            asy.limit_gf(bad_regime, RATIO, 0.0)
        mismatched = km.ratio_of(km.constant(1.0), km.constant(0.2))
        with pytest.raises(asy.EligibilityError):
            asy.limit_gf(REGIME, mismatched, 0.0)

    def test_perturbed_tail_integral_scaling(self):
        # B(s) = -(kappa/a0) (1-s)^mu / mu exactly for the shipped family
        g = abs(REGIME.gamma)
        for s in (0.9, 0.99, 0.999):
            got = asy._tail_gap_integral(RATIO_PERTURBED, g, 1.0 / (1.0 - s))
            want = -(0.25 / 1.0) * (1.0 - s) ** REGIME.mu / REGIME.mu
            assert got == pytest.approx(want, rel=1e-6)

    def test_series_anchor_and_positivity(self):
        measure = asy.limit_gf_series(HALF, IMM, REGIME, RATIO, 32)
        assert measure.coeffs[0] == pytest.approx(math.e, abs=1e-12)
        assert measure.coeffs[1] == pytest.approx(0.1 * math.e, abs=1e-12)
        assert np.all(measure.coeffs >= -1e-10)


class TestScaledGfConvergence:
    def test_canonical_limit_hit_at_origin(self):
        report = asy.scaled_gf_convergence(HALF, IMM, REGIME, RATIO, [10.0, 100.0, 1000.0], 0.0)
        assert np.max(np.abs(report.values)) <= 1e-6
        assert report.passes
        assert report.target is None

    def test_perturbed_rate_exponent(self):
        grid = np.logspace(2, 4, 7)
        report = asy.scaled_gf_convergence(
            HALF, IMM_PERTURBED, REGIME, RATIO_PERTURBED, grid, 0.5
        )
        assert report.target == pytest.approx(-REGIME.mu / REGIME.nu)
        assert report.passes
        assert abs(report.slope - report.target) <= 0.15 * abs(report.target)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_marches_give_the_per_point_values(self, s, monkeypatch):
        # the gap at s = 0 and the immigration solve at s each march once through the
        # sorted grid; the values keep the bytes of one solo solve per point, run on
        # the reference stepper
        grid = [1e4, 100.0, 562.34, 100.0, 3.0]
        report = asy.scaled_gf_convergence(HALF, IMM_PERTURBED, REGIME, RATIO_PERTURBED, grid, s)
        g = abs(REGIME.gamma)
        log_u = math.log(asy.limit_gf(REGIME, RATIO_PERTURBED, s))
        monkeypatch.setattr(kolmogorov, "_Stepper", reference_stepper)
        want = [math.expm1(solve_gf(HALF, t, 0.0).R ** (-g) + immigration_gf(HALF, IMM_PERTURBED, 0, t, s).G - log_u)
                for t in sorted(grid)]
        assert report.values.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("pair", ["matched", "kappa=0.25"])
    def test_marches_give_the_reference_stepper_values(self, pair, monkeypatch):
        # the marches stay, and the reference stepper runs each of their horizons alone
        h_law, ratio = (IMM, RATIO) if pair == "matched" else (IMM_PERTURBED, RATIO_PERTURBED)
        grid = [1e4, 100.0, 562.34, 100.0, 3.0]
        marched = asy.scaled_gf_convergence(HALF, h_law, REGIME, ratio, grid, 0.5).values
        monkeypatch.setattr(kolmogorov, "_Stepper", reference_stepper)
        assert asy.scaled_gf_convergence(HALF, h_law, REGIME, ratio, grid, 0.5).values.tobytes() == marched.tobytes()


class TestRatioLimit:
    def test_normalization(self):
        assert asy.ratio_limit_gf(HALF, IMM, 0.0) == 1.0
        series = asy.ratio_limit_series(HALF, IMM, 24)
        assert series.coeffs[0] == 1.0
        assert np.all(series.coeffs >= -1e-10)

    def test_half_point_value(self):
        assert asy.ratio_limit_gf(HALF, IMM, 0.5) == pytest.approx(
            math.exp(2.0**0.1 - 1.0), abs=1e-10
        )

    def test_first_coefficient(self):
        series = asy.ratio_limit_series(HALF, IMM, 8)
        assert series.coeffs[1] == pytest.approx(0.1, abs=1e-14)


def tail_defect(ratio, t):
    """J_mu(t): the tail-gap integral truncated at 1/q(t)."""
    return asy._tail_gap_integral(ratio, abs(REGIME.gamma), 1.0 / solve_gf(HALF, t, 0.0).R)


def scaled_p00(h_law, t):
    """e^(T(t)) p_00(t), the scaled probability of an empty population."""
    q = solve_gf(HALF, t, 0.0).R
    return math.exp(q ** (-abs(REGIME.gamma)) + immigration_gf(HALF, h_law, 0, t, 0.0).G)


class TestScalingConstant:
    # u_0 = U(0) = exp{1 + B(0)}; at finite t the scaled p_00 equals
    # u_0 (1 - J_mu(t)) up to second order in the defect J_mu(t)
    def test_canonical_values(self):
        u0 = asy.limit_gf(REGIME, RATIO, 0.0)
        assert u0 == pytest.approx(math.e, abs=1e-14)
        assert tail_defect(RATIO, 100.0) == 0.0
        assert abs(scaled_p00(IMM, 100.0) - u0) <= 1e-8

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.7])
    def test_measure_factorization_identity(self, s):
        u0 = asy.limit_gf(REGIME, RATIO, 0.0)
        assert u0 * asy.ratio_limit_gf(HALF, IMM, s) == pytest.approx(
            asy.limit_gf(REGIME, RATIO, s), abs=1e-10
        )

    def test_perturbed_constant_and_defect_scaling(self):
        u0 = asy.limit_gf(REGIME, RATIO_PERTURBED, 0.0)
        assert u0 == pytest.approx(math.exp(1.0 - 0.25 / REGIME.mu), rel=1e-10)
        # defect scales like q(t)^mu; fitted exponent within 10%
        ts = [50.0, 200.0, 800.0, 3200.0]
        js = [abs(tail_defect(RATIO_PERTURBED, t)) for t in ts]
        qs = [solve_gf(HALF, t, 0.0).R for t in ts]
        slope = np.polyfit(np.log(qs), np.log(js), 1)[0]
        assert slope == pytest.approx(REGIME.mu, rel=0.1)
        # residual is second order in the defect
        residual = scaled_p00(IMM_PERTURBED, 100.0) - u0 * (1.0 - tail_defect(RATIO_PERTURBED, 100.0))
        x = 0.8333333333333333 * qs[0] ** REGIME.mu
        assert abs(residual) <= u0 * x**2


class TestConditionedGf:
    def test_vanishes_at_origin(self):
        res = asy.conditioned_gf(HALF, 10.0, 0.0)
        assert res.value == 0.0 and res.slack == 0.0

    def test_slack_value_at_hundred(self):
        res = asy.conditioned_gf(HALF, 100.0, 0.5)
        assert res.slack == pytest.approx(0.80239, abs=1e-4)
        assert res.error == pytest.approx(res.slack / (2.0 * (math.sqrt(2.0) - 1.0)) - 1.0)
        assert abs(res.error) == pytest.approx(0.031, abs=5e-3)

    def test_argwise_consistency(self):
        t, s = 25.0, 0.4
        q = solve_gf(HALF, t, 0.0).R
        r = solve_gf(HALF, t, s).R
        value = asy.conditioned_gf(HALF, t, s).value
        assert abs(value * q + r - q) <= 1e-14

    def test_log_corrected_decay_of_gap(self):
        grid = np.logspace(2, 5, 7)
        errs = np.array([abs(asy.conditioned_gf(HALF, t, 0.5).error) for t in grid])
        slope = np.polyfit(np.log(grid), np.log(errs), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)


def _loop_and_grid(fn, grid):
    """[fn(t) for t in grid] and fn(grid), each as the repr of its value (every float's bits) or its first error."""
    def outcome(call):
        try:
            return repr(call())
        except Exception as exc:  # whatever the error, its type and message
            return f"{type(exc).__name__}: {exc}"

    return outcome(lambda: [fn(t) for t in grid]), outcome(lambda: fn(grid))


class TestGridCalls:
    # a grid call marches once per (law, s) and gives each t the per-point call's result or error

    @pytest.mark.parametrize("as_grid", [list, np.array])
    @pytest.mark.parametrize("s", [0.0, 0.5])
    @pytest.mark.parametrize("law", [HALF, make_perturbed_offspring(0.5, 1.0, 0.3, 0.5)], ids=["canonical", "perturbed"])
    def test_entries_are_the_per_point_results(self, law, s, as_grid):
        grid = as_grid([1e4, 100.0, 562.34, 100.0, 3.0])  # unsorted, with a repeat
        for fn in (lambda t: asy.conditioned_gf(law, t, s), lambda t: asy.local_ratio_measured(law, t)):
            loop, marched = _loop_and_grid(fn, grid)
            assert marched == loop and "Error" not in loop

    @pytest.mark.parametrize("grid, s", [
        ([10.0, -1.0, 5.0], 0.5),
        ([10.0, math.nan], 0.5),
        ([2.0, "x", 1.0], 0.5),
        ([5.0, 0.0], 0.5),  # conditioned_gf needs t > 0; local_ratio_measured takes it
        ([5.0, 1e300, -1.0], 0.5),  # a failing solve before a bad t
        ([5.0, 10.0], 1.0),  # the invariant GF fails after the solves
        ([5.0, 10.0], 2.0),
    ])
    def test_a_bad_or_failing_t_raises_the_per_point_error(self, grid, s, monkeypatch):
        monkeypatch.setattr(kolmogorov, "_MAX_TRIES", 3000)  # t = 1e300 makes no progress within it
        for fn in (lambda t: asy.conditioned_gf(HALF, t, s), lambda t: asy.local_ratio_measured(HALF, t)):
            loop, marched = _loop_and_grid(fn, grid)
            assert marched == loop
        assert "Error" in _loop_and_grid(lambda t: asy.conditioned_gf(HALF, t, s), grid)[0]


def relative_local_gf(f_law, t, s):
    """(q(t)/p_1(t)) times the conditioned GF; converges to a0 M(s)."""
    return asy.conditioned_gf(f_law, t, s).value / asy.local_ratio_measured(f_law, t)


class TestRelativeLocalGf:
    def test_vanishes_at_origin(self):
        assert relative_local_gf(BINARY, 5.0, 0.0) == 0.0

    def test_unit_index_limit(self):
        got = relative_local_gf(BINARY, 1000.0, 0.5)
        want = BINARY.a0 * asy.invariant_gf(BINARY, 0.5)
        assert got == pytest.approx(want, rel=5e-3)

    def test_unit_index_coefficient_ratio(self):
        # p_2(t)/p_1(t) approaches v_2 = 1 for the unit-index family
        from criticalbranch.kolmogorov import solve_gf_series

        sol = solve_gf_series(BINARY, 1000.0, 4)
        assert sol.F.coeffs[2] / sol.F.coeffs[1] == pytest.approx(1.0, abs=2e-3)

    def test_measure_scaling(self):
        law = make_stable_offspring(0.5, 0.2)
        v = asy.relative_measure_series(law, 16).coeffs[1:]
        mu = asy.invariant_series(law, 16).coeffs[1:]
        assert np.allclose(v / mu, law.a0, atol=1e-12)


class TestInvarianceResidual:
    def test_time_zero_exact(self):
        measure = asy.limit_gf_series(HALF, IMM, REGIME, RATIO, 64)
        resid, _ = asy.invariance_residual(measure, HALF, IMM, 0.0, 16)
        assert resid <= 1e-14

    def test_pi_tag_equivalent(self):
        measure = asy.ratio_limit_series(HALF, IMM, 128)
        resid, _ = asy.invariance_residual(measure, HALF, IMM, 1.0, 32)
        assert resid <= 1e-6

    def test_window_must_fit(self):
        measure = asy.ratio_limit_series(HALF, IMM, 16)
        with pytest.raises(ValueError):
            asy.invariance_residual(measure, HALF, IMM, 1.0, 32)


MEASURE_BUILDERS = {
    "M": lambda N: asy.invariant_series(HALF, N),
    "V": lambda N: asy.relative_measure_series(HALF, N),
    "pi": lambda N: asy.ratio_limit_series(HALF, IMM, N),
    "U": lambda N: asy.limit_gf_series(HALF, IMM, REGIME, RATIO, N),
    "residual": lambda N: asy.invariance_residual(asy.ratio_limit_series(HALF, IMM, 16), HALF, IMM, 1.0, N),
}


@pytest.mark.parametrize("N", [-1, 1.5, True, 1025])
@pytest.mark.parametrize("build", MEASURE_BUILDERS.values(), ids=MEASURE_BUILDERS.keys())
def test_measure_builders_check_their_order(build, N):
    # the same check as the series solvers make
    with pytest.raises(ValueError, match="order must be"):
        build(N)


class TestPartialSums:
    # sum_{j<=n} mu_j grows like n^nu / (a0 nu^2 Gamma(nu))

    def test_unit_index_exact(self):
        sums = np.cumsum(asy.stable_invariant_coeffs(1.0, 1.0, 1000))[[10, 100, 1000]]
        assert np.allclose(sums, [10.0, 100.0, 1000.0], rtol=1e-12)

    def test_half_index_window(self):
        n = np.array([100, 1000, 10000])
        sums = np.cumsum(asy.stable_invariant_coeffs(0.5, 1.0, 10000))[n]
        assert 0.98 <= sums[-1] / (10000.0**0.5 / (0.25 * math.gamma(0.5))) <= 1.02
        assert np.polyfit(np.log(n), np.log(sums), 1)[0] == pytest.approx(0.5, abs=0.02)
