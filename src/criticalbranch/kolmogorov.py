"""Transition generating functions of branching systems by adaptive ODE solves.

The time-t generating function F(t;s) of the single-ancestor population obeys
dF/dt = f(F) with F(0;s) = s.  Internally the solvers integrate the extinction
gap R = 1 - F, whose equation dR/dt = -f(1-R) evaluates through the centered
form of f and therefore stays accurate when F is within a few ulps of 1.

With immigration the augmented state carries G(t;s) = integral_0^t h(F(u;s)) du,
so that the population GF from i ancestors is F^i exp(G).  Series-mode solves
integrate the whole coefficient vector of R (and G) at once; the coefficient
recurrences for fractional powers keep the right-hand side exact at the stored
truncation order.  One Dormand-Prince 5(4) stepper serves both modes: its state
is a tuple whose components are floats in a scalar solve and coefficient
vectors in a series solve.

Solvers are pure functions of (law, t, s, tol); grid sweeps can run
concurrently without shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laws import ImmigrationLaw, OffspringLaw
from .series import Series, _exp_coeffs, _pow_coeffs

__all__ = [
    "TransitionSolution",
    "StepUnderflowError",
    "solve_gf",
    "closed_form_gf",
    "solve_gf_series",
    "gf_derivative",
    "immigration_gf",
    "immigration_gf_series",
]

SCALAR_RTOL = 1e-10
SCALAR_ATOL = 1e-12
SERIES_RTOL = 1e-9
SERIES_ATOL = 1e-11
_MIN_STEP = 1e-12
_MAX_TRIES = 200_000
_MAX_ORDER = 1024


class StepUnderflowError(RuntimeError):
    """Adaptive solve stopped progressing; carries the time reached."""

    def __init__(self, t_reached: float, reason: str = "step size underflow"):
        super().__init__(f"{reason} at t={float(t_reached)!r}")
        self.t_reached = t_reached


@dataclass(frozen=True)
class TransitionSolution:
    """Solution bundle for one (t, s) or one (t, series) solve.

    F is the GF value (or its truncated series), R = 1 - F the survival gap.
    G is present for immigration solves; P carries F^i exp(G).
    """

    t: float
    s: float | None
    F: float | Series
    R: float | Series
    G: float | Series | None = None
    P: float | Series | None = None
    steps: int = 0


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) pair.  Fifth order propagated, fourth order error probe.

_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)


def _advance(rhs, y0, t_end, rtol, atols):
    """Integrate a tuple state from 0 to t_end; returns (y, steps).

    The components are all floats or all coefficient vectors, and ``atols``
    holds one absolute floor per component.  The leading component is the
    survival gap (for a vector, its constant term), strictly positive along
    the flow, so its absolute floor can be zero for pure relative control;
    auxiliary components that start at zero need a positive floor.  A step
    with a non-positive gap at any stage is rejected and retried at half the
    step size.  A step below ``_MIN_STEP``, or a solve still short of t_end
    after ``_MAX_TRIES`` attempts, raises StepUnderflowError.
    """
    y = tuple(y0)
    t = 0.0
    if t_end == 0.0:
        return y, 0
    vec = y[0].__class__ is np.ndarray
    k1 = rhs(y)
    scale = max(abs(v).max() if vec else abs(v) for v in y) + 1.0
    dscale = max(abs(v).max() if vec else abs(v) for v in k1) + 1e-30
    h = min(t_end, 0.1 * scale / dscale, 1.0)
    steps = 0
    for _ in range(_MAX_TRIES):
        if not t < t_end:
            break
        h = min(h, t_end - t)
        if h < _MIN_STEP:
            raise StepUnderflowError(t)
        # a stage with a non-positive gap rejects the step before rhs sees it
        y2 = tuple(v + h * _A21 * a for v, a in zip(y, k1))
        if not (y2[0][0] if vec else y2[0]) > 0.0:
            h *= 0.5
            continue
        k2 = rhs(y2)
        y3 = tuple(v + h * (_A31 * a + _A32 * b) for v, a, b in zip(y, k1, k2))
        if not (y3[0][0] if vec else y3[0]) > 0.0:
            h *= 0.5
            continue
        k3 = rhs(y3)
        y4 = tuple(
            v + h * (_A41 * a + _A42 * b + _A43 * c) for v, a, b, c in zip(y, k1, k2, k3)
        )
        if not (y4[0][0] if vec else y4[0]) > 0.0:
            h *= 0.5
            continue
        k4 = rhs(y4)
        y5 = tuple(
            v + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
            for v, a, b, c, d in zip(y, k1, k2, k3, k4)
        )
        if not (y5[0][0] if vec else y5[0]) > 0.0:
            h *= 0.5
            continue
        k5 = rhs(y5)
        y6 = tuple(
            v + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
            for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
        )
        if not (y6[0][0] if vec else y6[0]) > 0.0:
            h *= 0.5
            continue
        k6 = rhs(y6)
        ynew = tuple(
            v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * f)
            for v, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)
        )
        if not (ynew[0][0] if vec else ynew[0]) > 0.0:
            h *= 0.5
            continue
        k7 = rhs(ynew)
        err = 0.0
        for v, w, a, c, d, e, f, g in zip(ynew, atols, k1, k3, k4, k5, k6, k7):
            e_i = h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g)
            q = abs(e_i) / (w + rtol * abs(v))
            q = q.max() if vec else q
            if not q <= err:
                err = q if q == q else math.inf  # a NaN estimate rejects and shrinks
        if err <= 1.0:
            t += h
            y = ynew
            k1 = k7
            steps += 1
        factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
    if t < t_end:
        raise StepUnderflowError(t, f"no progress in {_MAX_TRIES} step attempts")
    return y, steps


# ---------------------------------------------------------------------------
# Scalar solves.


def _check_time(t: float) -> None:
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _check_scalar_args(t: float, s: float) -> None:
    _check_time(t)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")


def solve_gf(f_law: OffspringLaw, t: float, s: float, tol: float = SCALAR_RTOL) -> TransitionSolution:
    """F(t;s) by the embedded pair on dR/dt = -f(1-R), R(0) = 1-s."""
    _check_scalar_args(t, s)
    _check_tol(tol)
    r0 = 1.0 - s
    if r0 == 0.0 or t == 0.0:
        return TransitionSolution(t=t, s=s, F=s, R=r0)
    rhs = lambda y: (-f_law.from_gap(y[0]),)
    (r,), steps = _advance(rhs, (r0,), t, tol, (0.0,))
    return TransitionSolution(t=t, s=s, F=1.0 - r, R=r, steps=steps)


def closed_form_gf(nu: float, a0: float, t: float, s: float) -> TransitionSolution:
    """Exact gap R(t;s) = [(1-s)^(-nu) + a0 nu t]^(-1/nu) of the stable family."""
    if not 0.0 < nu <= 1.0 or a0 <= 0.0:
        raise ValueError("closed form applies to the canonical stable family only")
    _check_scalar_args(t, s)
    if s == 1.0:
        return TransitionSolution(t=t, s=s, F=1.0, R=0.0)
    r = ((1.0 - s) ** (-nu) + a0 * nu * t) ** (-1.0 / nu)
    return TransitionSolution(t=t, s=s, F=1.0 - r, R=r)


def gf_derivative(f_law: OffspringLaw, t: float, s: float, tol: float = SCALAR_RTOL) -> float:
    """dF/ds via the variational equation V' = f'(F) V, V(0) = 1."""
    _check_scalar_args(t, s)
    _check_tol(tol)
    if s == 1.0:
        raise ValueError("derivative is evaluated on [0, 1)")
    if t == 0.0:
        return 1.0

    def rhs(y):
        r, v = y
        return (-f_law.from_gap(r), f_law.fprime_from_gap(r) * v)

    (r, v), _ = _advance(rhs, (1.0 - s, 1.0), t, tol, (0.0, 0.0))
    return v


def immigration_gf(
    f_law: OffspringLaw,
    h_law: ImmigrationLaw,
    i: int,
    t: float,
    s: float,
    tol: float = SCALAR_RTOL,
) -> TransitionSolution:
    """Population GF from i ancestors with immigration: F^i exp(G).

    G accumulates h(F) jointly with the gap equation so both share one error
    budget.
    """
    if i < 0:
        raise ValueError("initial state must be nonnegative")
    _check_scalar_args(t, s)
    _check_tol(tol)
    r0 = 1.0 - s
    if t == 0.0 or r0 == 0.0:
        return TransitionSolution(t=t, s=s, F=s, R=r0, G=0.0, P=s ** i if i else 1.0)

    def rhs(y):
        r, _ = y
        return (-f_law.from_gap(r), h_law.from_gap(r))

    (r, g), steps = _advance(rhs, (r0, 0.0), t, tol, (0.0, min(tol * 1e-2, SCALAR_ATOL)))
    f = 1.0 - r
    return TransitionSolution(t=t, s=s, F=f, R=r, G=g, P=(f ** i) * math.exp(g), steps=steps)


# ---------------------------------------------------------------------------
# Series-mode solves.


def _series_init(N: int) -> np.ndarray:
    r = np.zeros(N + 1)
    r[0] = 1.0
    if N >= 1:
        r[1] = -1.0
    return r


def _check_order(N: int) -> None:
    if not 0 <= N <= _MAX_ORDER:
        raise ValueError(f"series order must lie in [0, {_MAX_ORDER}]")


def _gap_to_solution(t, r, g=None, i=0, steps=0) -> TransitionSolution:
    f = -r.copy()
    f[0] = 1.0 - r[0]
    F = Series(f)
    sol_kwargs = dict(t=t, s=None, F=F, R=Series(r), steps=steps)
    if g is not None:
        eg = _exp_coeffs(g)
        p = eg if i == 0 else np.convolve(_pow_coeffs(f, float(i)), eg)[: f.size]
        sol_kwargs.update(G=Series(g), P=Series(p))
    return TransitionSolution(**sol_kwargs)


def solve_gf_series(
    f_law: OffspringLaw, t: float, N: int, tol: float = SERIES_RTOL
) -> TransitionSolution:
    """Coefficients p_j(t) of F(t;s) to order N, by the coefficient-space ODE."""
    _check_order(N)
    _check_time(t)
    _check_tol(tol)
    r0 = _series_init(N)
    if t == 0.0:
        return _gap_to_solution(0.0, r0)
    rhs = lambda y: (-f_law.from_gap_coeffs(y[0]),)
    (r,), steps = _advance(rhs, (r0,), t, tol, (min(tol * 1e-2, SERIES_ATOL),))
    return _gap_to_solution(t, r, steps=steps)


def immigration_gf_series(
    f_law: OffspringLaw,
    h_law: ImmigrationLaw,
    i: int,
    t: float,
    N: int,
    tol: float = SERIES_RTOL,
) -> TransitionSolution:
    """Coefficient vector of F^i exp(G) to order N; row i of the transition law."""
    _check_order(N)
    _check_time(t)
    _check_tol(tol)
    if i < 0:
        raise ValueError("initial state must be nonnegative")
    r0, g0 = _series_init(N), np.zeros(N + 1)
    if t == 0.0:
        return _gap_to_solution(0.0, r0, g0, i=i)

    def rhs(y):
        r, _ = y
        return (-f_law.from_gap_coeffs(r), h_law.from_gap_coeffs(r))

    atol = min(tol * 1e-2, SERIES_ATOL)
    (r, g), steps = _advance(rhs, (r0, g0), t, tol, (atol, atol))
    return _gap_to_solution(t, r, g, i=i, steps=steps)

