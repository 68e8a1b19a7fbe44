"""Limiting structure of critical branching systems and its convergence rates.

Covers the invariant generating functions of the plain system (M), of the
transient immigration system (U and its ratio-limit normalization pi), the
survivor-conditioned GF and its limit, the relative local-probability measure,
the survival and local-probability expansions, and measured convergence
rates.

Conventions used throughout, for the critical offspring family
f(s) = (1-s)^(1+nu) L(1/(1-s)) with immigration h(s) = -(1-s)^delta l(1/(1-s)):

* Lambda(y) = y^nu L(1/y), the tail functional of the gap;
* gamma = delta - nu (negative in the transient regime), mu = 2 delta - nu;
* q(t) = R(t;0), survival probability from a single ancestor;
* T(t) = q(t)^(-|gamma|), the exponential scaling of the immigration GF.

Rate reports fit the leading decay exponent on a log-log grid; asymptotically
vanishing corrections are never asserted pointwise, only through the fitted
slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import series as fps
from .karamata import RatioSV
from .kolmogorov import _March, immigration_gf_series
from .laws import _POSITIVE, ImmigrationLaw, OffspringLaw, RegimeParams, _check
from .series import Series

__all__ = [
    "RateReport",
    "EligibilityError",
    "invariant_gf",
    "invariant_series",
    "stable_invariant_coeffs",
    "survival_expansion",
    "figure_rows",
    "report_rows",
    "FIGURE_PRESETS",
    "FIGURE_NORMALIZERS",
    "local_ratio_measured",
    "limit_gf",
    "limit_gf_series",
    "scaled_gf_convergence",
    "ratio_limit_gf",
    "ratio_limit_series",
    "conditioned_gf",
    "ConditionedResult",
    "relative_measure_series",
    "invariance_residual",
]

ELIGIBILITY_TOL = 1e-6
FIGURE_PRESETS = ((0.2, 0.9), (0.9, 0.2))
# the time normalizers N(nu, t) of the survival-probability figures, by preset name
FIGURE_NORMALIZERS = {
    "half-log": lambda nu, t: 1.0 + 0.5 / math.log(t + 1.0),
    "log-power": lambda nu, t: 1.0 + math.log(t + 1.0) / t ** nu,
}


class EligibilityError(ValueError):
    """The transient limit law does not apply to this parameter set."""


def _quad(fn, a: float, b: float, bound, what: str) -> float:
    """integral_a^b fn; a non-finite value, an error past bound(value) or a
    convergence warning from scipy raises ValueError naming ``what``."""
    from scipy.integrate import quad  # here, not at the top: most commands never integrate, and it loads in ~0.2 s

    val, err, _, *problem = quad(fn, a, b, epsabs=1e-12, epsrel=1e-12, limit=200, full_output=1)
    if problem or not (math.isfinite(val) and err <= bound(val)):
        note = f" ({problem[0].splitlines()[0].strip()})" if problem else ""
        raise ValueError(f"{what}: value {val}, error {err}{note}")
    return val


@dataclass(frozen=True)
class RateReport:
    """Measured error decay on a time grid with a fitted log-log exponent."""

    grid: np.ndarray
    values: np.ndarray
    slope: float | None
    target: float | None
    passes: bool


def _fit_loglog(x: np.ndarray, e: np.ndarray) -> float | None:
    mask = np.isfinite(e) & (e != 0.0)
    if mask.sum() < 2:
        return None
    slope, _ = np.polyfit(np.log(x[mask]), np.log(np.abs(e[mask])), 1)
    return float(slope)


def _nu(f_law: OffspringLaw) -> float:
    if f_law.nu is None:
        raise ValueError("operation requires a critical law with a tail index")
    return f_law.nu


# ---------------------------------------------------------------------------
# Invariant GF of the plain system.


def invariant_gf(f_law: OffspringLaw, s: float) -> float:
    """M(s) = integral_0^s dx / f(x); M(0) = 0.

    The canonical family takes the exact tail form (1/nu) [1/Lambda(1-s) -
    1/a0] with Lambda(y) = a0 y^nu; every other law takes adaptive quadrature.
    """
    if not 0.0 <= s < 1.0:
        raise ValueError("s must lie in [0, 1)")
    if f_law.kind == "canonical-stable":
        nu, a0 = f_law.nu, f_law.a0
        return (1.0 / ((1.0 - s) ** nu * a0) - 1.0 / a0) / nu
    if s == 0.0:
        return 0.0
    return _quad(lambda x: 1.0 / f_law.value(x), 0.0, s, lambda v: 1e-8 * max(1.0, abs(v)),
                 f"quadrature failure near s={s}")


def invariant_series(f_law: OffspringLaw, N: int) -> Series:
    """Coefficients mu_j of M by integrating the reciprocal series of f."""
    _check(order=N)
    recip = fps.reciprocal(f_law.as_series(N))
    return Series(fps.integrate_series(recip).coeffs[: N + 1])


def stable_invariant_coeffs(nu: float, a0: float, N: int) -> np.ndarray:
    """Closed-form mu_j = binom(nu+j-1, j) / (a0 nu) of the canonical family."""
    out = np.empty(N + 1)
    out[0] = 0.0
    if N >= 1:
        j = np.arange(1.0, N + 1.0)
        out[1:] = np.cumprod((nu + j - 1.0) / j) / (a0 * nu)
    return out


# ---------------------------------------------------------------------------
# Survival and local-probability expansions.


def survival_expansion(nu: float, a0: float, normalizer: Callable[[float], float], t: float) -> float:
    """Expansion value [N(t) / (nu t)^(1/nu)] (1 + ln(a0 nu t) / (nu^3 t)).

    This is the exact expression the survival-probability figures plot.  The
    logarithmic correction only carries asymptotic meaning once a0 nu t is
    well above one, but the curve is evaluated wherever the logarithm exists
    (the plotted grids start at t = 5 for every preset).
    """
    _check({"t": _POSITIVE}, t=t)
    n_t = normalizer(t)
    return n_t / (nu * t) ** (1.0 / nu) * (1.0 + math.log(a0 * nu * t) / (nu**3 * t))


def figure_rows(nu: float, a0: float, normalizer: str, t_grid=None):
    """Rows (t, q, p1) of the survival and local-probability expansions.

    These are exactly the plotted expressions, with the time normalizer
    ``FIGURE_NORMALIZERS[normalizer]``; the default grid runs from 5 to 100
    in steps of one half.
    """
    if normalizer not in FIGURE_NORMALIZERS:
        raise ValueError(f"unknown normalizer preset {normalizer!r}")
    preset = FIGURE_NORMALIZERS[normalizer]
    n_fn = lambda t: preset(nu, t)
    if t_grid is None:
        t_grid = [5.0 + 0.5 * k for k in range(191)]
    rows = []
    for t in t_grid:
        x = a0 * nu * t
        if t > 0.0 and not 0.0 < x < math.inf:
            raise ValueError(f"a0 nu t = {x} at t={t} leaves the float range at $.a0")
        try:
            q = survival_expansion(nu, a0, n_fn, t)
            p1 = q * (1.0 + math.log(x) / (nu**2 * t)) / x
        except ArithmeticError:  # (nu t)^(1/nu) or nu^3 t left the float range
            q = p1 = math.nan
        if not (math.isfinite(q) and math.isfinite(p1)):
            key = "$.a0" if math.isfinite(q) else "$.nu"
            raise ValueError(f"expansion not finite at t={t} (q={q}, p1={p1}), out of range at {key}")
        rows.append((t, q, p1))
    return rows


def report_rows():
    """The six summary rows: expansion formulas plus spot evaluations.

    Spot values use nu=0.5, a0=1, delta=0.4, c=0.1 at t=100, s=0.5.
    """
    nu, a0, delta = 0.5, 1.0, 0.4
    t, s = 100.0, 0.5
    g = nu - delta
    lam = a0 * (1.0 - s) ** nu
    q = (1.0 + a0 * nu * t) ** (-1.0 / nu)
    r = ((1.0 - s) ** (-nu) + a0 * nu * t) ** (-1.0 / nu)
    p1 = q / (a0 * nu * t) * (1.0 + math.log(a0 * nu * t) / (nu**2 * t))
    rows = [
        (
            "R(t;s)",
            "R(t;s) ~ N(t)/(nu*t)^(1/nu) * (1 + ln(Lambda(1-s)*nu*t)/(nu^3*t))",
            r * (1.0 + math.log(lam * nu * t) / (nu**3 * t)),
        ),
        ("q(t)", "q(t) ~ N(t)/(nu*t)^(1/nu) * (1 + ln(a0*nu*t)/(nu^3*t))", q * (1.0 + math.log(a0 * nu * t) / (nu**3 * t))),
        ("p1(t)", "p1(t) ~ q(t)/(a0*nu*t) * (1 + ln(a0*nu*t)/(nu^2*t))", p1),
        ("ln U(s)", "ln U(s) = (1-s)^(-|gamma|) + int_{1/(1-s)}^inf (|gamma|-L(u)) u^(|gamma|-1) du", (1.0 - s) ** (-g)),
        ("ln pi(s)", "ln pi(s) = (1-s)^(-|gamma|) * L_v(1/(1-s))", (1.0 - s) ** (-g) - 1.0),
        ("M(s)", "M(s) = (1/nu)(1/Lambda(1-s) - 1/a0)", ((1.0 - s) ** (-nu) / a0 - 1.0 / a0) / nu),
    ]
    return rows


def local_ratio_measured(f_law: OffspringLaw, t) -> float | list[float]:
    """Measured p_1(t)/q(t) from the variational and gap solves.

    ``t`` is a time, or a grid of times that gets a list of one ratio per
    time from one march of each solve, as a loop over the grid would.
    """
    ts = list(t) if np.ndim(t) else [t]
    derivative, gap = _March("gf_derivative", f_law, ts), _March("solve_gf", f_law, ts)
    ratios = [derivative(tk) / gap(tk).R for tk in ts]
    return ratios if np.ndim(t) else ratios[0]


# ---------------------------------------------------------------------------
# Transient immigration limit.


def _require_transient_limit(regime: RegimeParams, ratio: RatioSV) -> float:
    if not (regime.gamma < 0.0 and regime.mu > 0.0):
        raise EligibilityError(
            f"limit law needs gamma < 0 and mu > 0; got gamma={regime.gamma}, mu={regime.mu}"
        )
    g = abs(regime.gamma)
    if abs(ratio.C_L - g) > ELIGIBILITY_TOL:
        raise EligibilityError(
            f"ratio limit {ratio.C_L!r} must equal |gamma|={g!r} within {ELIGIBILITY_TOL}"
        )
    return g


def _ratio_is_flat(ratio: RatioSV) -> bool:
    return ratio.numerator.form == "constant" and ratio.denominator.form == "constant"


def _tail_gap_integral(ratio: RatioSV, gamma_abs: float, x: float) -> float:
    """integral_x^inf (|gamma| - L(u)) u^(|gamma| - 1) du via u = x/v.

    The substitution maps onto v in (0, 1] where the integrand decays like
    v^(mu - 1); the quadrature targets 1e-10 absolute.  A flat ratio, whose
    limit ``_require_transient_limit`` has matched to |gamma|, gives zero.
    """
    if _ratio_is_flat(ratio):
        return 0.0

    def integrand(v):
        return (gamma_abs - ratio(x / v)) * x**gamma_abs * v ** (-1.0 - gamma_abs)

    return _quad(integrand, 0.0, 1.0, lambda v: 1e-10 + 1e-8 * abs(v), f"tail quadrature failed at x={x}")


def limit_gf(regime: RegimeParams, ratio: RatioSV, s: float) -> float:
    """Limit U(s) of the scaled immigration GF e^(T(t)) P(t;s).

    U(s) = exp{ (1-s)^(-|gamma|) + integral_{1/(1-s)}^inf (|gamma| - L(u))
    u^(|gamma|-1) du }.  Requires the transient regime with matched ratio
    limit.
    """
    g = _require_transient_limit(regime, ratio)
    if not 0.0 <= s < 1.0:
        raise ValueError("s must lie in [0, 1)")
    b = _tail_gap_integral(ratio, g, 1.0 / (1.0 - s))
    return math.exp((1.0 - s) ** (-g) + b)


def limit_gf_series(
    f_law: OffspringLaw,
    h_law: ImmigrationLaw,
    regime: RegimeParams,
    ratio: RatioSV,
    N: int,
) -> Series:
    """Coefficients u_j of U.

    log U has derivative -h/f, so the series is the exponential of the
    integrated quotient series anchored at log U(0) = 1 + B(0), with B(0) the
    tail-gap integral at x = 1.
    """
    _check(order=N)
    g = _require_transient_limit(regime, ratio)
    b0 = _tail_gap_integral(ratio, g, 1.0)
    log_u = _log_series(f_law, h_law, N).copy()
    log_u[0] = 1.0 + b0
    return fps.exp_series(Series(log_u))


def scaled_gf_convergence(
    f_law: OffspringLaw,
    h_law: ImmigrationLaw,
    regime: RegimeParams,
    ratio: RatioSV,
    t_grid,
    s: float,
) -> RateReport:
    """Relative error of e^(T(t)) P(t;s) against U(s) over a time grid.

    The expected decay exponent is -mu/nu when the ratio factor is genuinely
    nonconstant; the exactly flat family has a vanishing tail-gap integral,
    so only the faster boundary-shift effect remains and the report records
    the limit being hit rather than the generic rate.
    """
    g = _require_transient_limit(regime, ratio)
    t = np.asarray(sorted(t_grid), dtype=float)
    log_u = math.log(limit_gf(regime, ratio, s))
    errs = np.empty(t.size)
    # two marches through the grid: the gap at s = 0 and the immigration solve at s
    gap, immigration = _March("solve_gf", f_law, t), _March("immigration_gf", f_law, t, h_law, s=s)
    for k, tk in enumerate(t):
        q = gap(tk).R
        errs[k] = math.expm1(q ** (-g) + immigration(tk).G - log_u)
    slope = _fit_loglog(t, errs)
    if _ratio_is_flat(ratio):
        target = None
        passes = bool(np.all(np.abs(errs) < 1.0e-2))
    else:
        target = -regime.mu / regime.nu
        passes = slope is not None and abs(slope - target) <= 0.15 * abs(target)
    return RateReport(grid=t, values=errs, slope=slope, target=target, passes=passes)


# ---------------------------------------------------------------------------
# Ratio-limit invariant measure.


def ratio_limit_gf(f_law: OffspringLaw, h_law: ImmigrationLaw, s: float) -> float:
    """pi(s) = exp{-integral_0^s h(y)/f(y) dy}; pi(0) = 1."""
    if not 0.0 <= s < 1.0:
        raise ValueError("s must lie in [0, 1)")
    if s == 0.0:
        return 1.0
    val = _quad(lambda y: h_law.value(y) / f_law.value(y), 0.0, s, lambda v: 1e-9 * max(1.0, abs(v)),
                f"quadrature failure near s={s}")
    return math.exp(-val)


def _log_series(f_law: OffspringLaw, h_law: ImmigrationLaw, N: int) -> np.ndarray:
    """Coefficients 0..N of -integral_0^s h(y)/f(y) dy: log pi, and log U up to its constant."""
    quot = fps.mul(h_law.as_series(N), fps.reciprocal(f_law.as_series(N)))
    return fps.integrate_series(-quot).coeffs[: N + 1]


def ratio_limit_series(f_law: OffspringLaw, h_law: ImmigrationLaw, N: int) -> Series:
    """Coefficients pi_j with pi_0 = 1 exactly."""
    _check(order=N)
    return fps.exp_series(Series(_log_series(f_law, h_law, N)))


# ---------------------------------------------------------------------------
# Survivor-conditioned system.


@dataclass(frozen=True)
class ConditionedResult:
    """Conditioned GF value, its time-scaled (slack) form, and the limit gap."""

    value: float
    slack: float
    error: float


def conditioned_gf(f_law: OffspringLaw, t, s: float) -> ConditionedResult | list[ConditionedResult]:
    """GF of the population conditioned on survival: 1 - R(t;s)/q(t).

    ``slack`` is nu t times the value; it approaches M(s) from below with a
    log-corrected 1/t gap, reported in ``error`` as slack/M(s) - 1.  ``t``
    is a time, or a grid of times that gets a list of one result per time
    from one march at s = 0 and one at s, as a loop over the grid would.
    """
    ts = list(t) if np.ndim(t) else [t]
    gap, gap_s = _March("solve_gf", f_law, ts), _March("solve_gf", f_law, ts, s=s)
    results, m = [], None
    for tk in ts:  # each point in the per-point call's order, so a bad or failing t raises that call's error
        nu = _nu(f_law)
        _check({"t": _POSITIVE}, t=tk)
        q = gap(tk).R
        if q <= 0.0:
            raise ZeroDivisionError("survival probability underflowed")
        value = 1.0 - gap_s(tk).R / q
        slack = nu * tk * value
        m = invariant_gf(f_law, s) if m is None else m
        results.append(ConditionedResult(value=value, slack=slack, error=slack / m - 1.0 if m != 0.0 else 0.0))
    return results if np.ndim(t) else results[0]


def relative_measure_series(f_law: OffspringLaw, N: int) -> Series:
    """Coefficients v_j = a0 mu_j of the relative local measure."""
    m = invariant_series(f_law, N)
    return Series(f_law.a0 * m.coeffs)


# ---------------------------------------------------------------------------
# Invariance of the limit measure under the transition semigroup.


def invariance_residual(
    measure: Series,
    f_law: OffspringLaw,
    h_law: ImmigrationLaw,
    t: float,
    N: int,
    tol: float = 1e-9,
) -> tuple[float, bool]:
    """Coefficient-level residual of u_j = sum_i u_i p_ij(t) over j <= N, for U or pi.

    Computes the series of U(F(t;s)) exp(G(t;s)) at the measure's full
    truncation order and compares the window j <= N.  Coefficient j of the
    composition draws on measure entries far beyond j (many ancestors can
    collapse to a small population), so the window must sit well inside the
    measure's truncation; a measure of order 4N keeps the window clean at t
    of order one.  The returned flag marks the window residual as
    truncation-dominated: within a factor ten of the residual floor observed
    at the top orders, where truncation always dominates.
    """
    _check(order=N)
    order = measure.order
    if order < N:
        raise ValueError("measure truncation shorter than the comparison window")
    sol = immigration_gf_series(f_law, h_law, 0, t, order, tol)
    u = measure.coeffs
    composed = fps.mul(fps.compose(measure, sol.F), sol.P)
    rel = np.abs(composed.coeffs - u) / np.maximum(u, 1.0)
    resid = float(np.max(rel[: N + 1]))
    tail_floor = float(np.max(rel[-max(1, order // 8) :]))
    return resid, resid >= tail_floor / 10.0
