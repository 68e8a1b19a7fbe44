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
is the gap plus an optional quadrature (G, or log dF/ds), both floats in a
scalar solve and coefficient vectors in a series solve.  A quadrature's rate
reads the gap alone, so the stages are formed for the gap only.

Solvers are pure functions of (law, t, s, tol); grid sweeps can run
concurrently without shared state.  ``gf_derivative`` and ``solve_gf_series``
run at the fixed tolerances SCALAR_RTOL and SERIES_RTOL.  Each solver checks
its arguments before any work against the ``laws`` leaves that configs use:
t, s, tol, the series order N (leaf ``order``) and the initial state i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laws import ImmigrationLaw, OffspringLaw, _check
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


class StepUnderflowError(ValueError):
    """Adaptive solve stopped progressing; the message names the time reached."""

    def __init__(self, t_reached: float, reason: str = "step size underflow"):
        super().__init__(f"{reason} at t={float(t_reached)!r}")


@dataclass(frozen=True)
class TransitionSolution:
    """Solution bundle for one (t, s) or one (t, series) solve.

    F is the GF value (or its truncated series), R = 1 - F the survival gap.
    G is present for immigration solves; P carries F^i exp(G).  The counters
    are the stepper's: accepted steps, steps rejected by the error test or at
    a non-positive gap stage, and RHS evaluations (all zero for an exact
    point at t = 0 or s = 1).
    """

    F: float | Series
    R: float | Series
    G: float | Series | None = None
    P: float | Series | None = None
    steps: int = 0
    rejected: int = 0
    gap_rejected: int = 0
    rhs_evals: int = 0


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


@np.errstate(over="ignore", invalid="ignore")
def _advance(rhs, r, t_end, rtol, atol, g=None, gatol=0.0):
    """Integrate the gap r and an optional quadrature g from 0 to t_end; returns (r, g, counts).

    r and g are both floats or both coefficient vectors.  ``rhs(r)`` returns
    the rates (dr, dg), dg None when g is None: a quadrature's rate reads the
    gap alone, so the stages are formed for the gap only and g enters the
    step's update and its error estimate.  The gap (for a vector, its
    constant term) is strictly positive along the flow, so ``atol`` can be
    zero for pure relative control; a quadrature that starts at zero needs a
    positive ``gatol``.  A step with a non-positive gap at any stage is
    rejected and retried at half the step size.  StepUnderflowError ends the
    solve on a step below ``_MIN_STEP``, after ``_MAX_TRIES`` attempts short
    of t_end, and at once on a non-finite error estimate or vector state (the
    solve left the float range; that check replaces numpy's overflow warnings).

    ``counts`` holds the keyword arguments ``steps`` (accepted steps),
    ``rejected`` (steps failing the error test), ``gap_rejected`` (steps
    stopped at a non-positive gap stage) and ``rhs_evals`` of a
    TransitionSolution.  An attempt that reaches the error test costs six RHS
    evaluations; one stopped at a gap stage costs the stages computed before
    it, which its rejection branch adds to ``gap_evals``.
    """
    t = 0.0
    if t_end == 0.0:
        return r, g, dict(steps=0, rejected=0, gap_rejected=0, rhs_evals=0)
    vec = r.__class__ is np.ndarray
    quad = g is not None
    a1, b1 = rhs(r)  # a_k: the gap's stage rates; b_k: the quadrature's
    peak = lambda v: abs(v).max() if vec else abs(v)
    scale = (max(peak(r), peak(g)) if quad else peak(r)) + 1.0
    dscale = (max(peak(a1), peak(b1)) if quad else peak(a1)) + 1e-30
    h = min(0.1 * scale / dscale, 1.0)
    steps = rejected = gap_rejected = gap_evals = 0
    for _ in range(_MAX_TRIES):
        if not t < t_end:
            break
        # the step is tested before it is cut to the horizon: a horizon below _MIN_STEP is no underflow
        if h < _MIN_STEP:
            raise StepUnderflowError(t)
        h = min(h, t_end - t)
        # a stage with a non-positive gap rejects the step before rhs sees it
        r2 = r + h * _A21 * a1
        if not (r2[0] if vec else r2) > 0.0:
            h *= 0.5
            gap_rejected += 1
            continue
        a2, _ = rhs(r2)
        r3 = r + h * (_A31 * a1 + _A32 * a2)
        if not (r3[0] if vec else r3) > 0.0:
            h *= 0.5
            gap_rejected += 1
            gap_evals += 1
            continue
        a3, b3 = rhs(r3)
        r4 = r + h * (_A41 * a1 + _A42 * a2 + _A43 * a3)
        if not (r4[0] if vec else r4) > 0.0:
            h *= 0.5
            gap_rejected += 1
            gap_evals += 2
            continue
        a4, b4 = rhs(r4)
        r5 = r + h * (_A51 * a1 + _A52 * a2 + _A53 * a3 + _A54 * a4)
        if not (r5[0] if vec else r5) > 0.0:
            h *= 0.5
            gap_rejected += 1
            gap_evals += 3
            continue
        a5, b5 = rhs(r5)
        r6 = r + h * (_A61 * a1 + _A62 * a2 + _A63 * a3 + _A64 * a4 + _A65 * a5)
        if not (r6[0] if vec else r6) > 0.0:
            h *= 0.5
            gap_rejected += 1
            gap_evals += 4
            continue
        a6, b6 = rhs(r6)
        rnew = r + h * (_B1 * a1 + _B3 * a3 + _B4 * a4 + _B5 * a5 + _B6 * a6)
        if not (rnew[0] if vec else rnew) > 0.0:
            h *= 0.5
            gap_rejected += 1
            gap_evals += 5
            continue
        a7, b7 = rhs(rnew)
        # the error ratio is the larger of the gap's and g's; a NaN ratio makes it inf
        q = abs(h * (_E1 * a1 + _E3 * a3 + _E4 * a4 + _E5 * a5 + _E6 * a6 + _E7 * a7)) / (atol + rtol * abs(rnew))
        q = q.max() if vec else q
        err = q if q == q else math.inf
        gnew = g
        if quad:
            gnew = g + h * (_B1 * b1 + _B3 * b3 + _B4 * b4 + _B5 * b5 + _B6 * b6)
            q = abs(h * (_E1 * b1 + _E3 * b3 + _E4 * b4 + _E5 * b5 + _E6 * b6 + _E7 * b7)) / (gatol + rtol * abs(gnew))
            q = q.max() if vec else q
            if not q <= err:
                err = q if q == q else math.inf
        if err == math.inf or vec and not (np.isfinite(rnew).all() and (not quad or np.isfinite(gnew).all())):
            raise StepUnderflowError(t, f"non-finite stage value at step size {float(h)!r}")
        if err <= 1.0:
            t += h
            r, g, a1, b1 = rnew, gnew, a7, b7
            steps += 1
        else:
            rejected += 1
        factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
    if t < t_end:
        raise StepUnderflowError(t, f"no progress in {_MAX_TRIES} step attempts")
    rhs_evals = 1 + 6 * (steps + rejected) + gap_evals
    return r, g, dict(steps=steps, rejected=rejected, gap_rejected=gap_rejected, rhs_evals=rhs_evals)


# ---------------------------------------------------------------------------
# Scalar solves.


def solve_gf(f_law: OffspringLaw, t: float, s: float, tol: float = SCALAR_RTOL) -> TransitionSolution:
    """F(t;s) by the embedded pair on dR/dt = -f(1-R), R(0) = 1-s."""
    _check(t=t, s=s, tol=tol)
    r0 = 1.0 - s
    if r0 == 0.0 or t == 0.0:
        return TransitionSolution(F=s, R=r0)
    r, _, counts = _advance(lambda r: (-f_law.from_gap(r), None), r0, t, tol, 0.0)
    return TransitionSolution(F=1.0 - r, R=r, **counts)


def closed_form_gf(nu: float, a0: float, t: float, s: float) -> TransitionSolution:
    """Exact gap R(t;s) = [(1-s)^(-nu) + a0 nu t]^(-1/nu) of the stable family."""
    _check(nu=nu, a0=a0, t=t, s=s)
    if s == 1.0:
        return TransitionSolution(F=1.0, R=0.0)
    r = ((1.0 - s) ** (-nu) + a0 * nu * t) ** (-1.0 / nu)
    return TransitionSolution(F=1.0 - r, R=r)


def gf_derivative(f_law: OffspringLaw, t: float, s: float) -> float:
    """dF/ds = V for V' = f'(F) V, V(0) = 1, solved as u = log V so a subnormal V at far t stays in reach."""
    _check(t=t, s=s)
    if s == 1.0:
        raise ValueError("derivative is evaluated on [0, 1)")
    if t == 0.0:
        return 1.0

    rhs = lambda r: (-f_law.from_gap(r), f_law.fprime_from_gap(r))
    _, u, _ = _advance(rhs, 1.0 - s, t, SCALAR_RTOL, 0.0, 0.0, min(SCALAR_RTOL * 1e-2, SCALAR_ATOL))
    return math.exp(u)


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
    _check(i=i, t=t, s=s, tol=tol)
    r0 = 1.0 - s
    if t == 0.0 or r0 == 0.0:
        return TransitionSolution(F=s, R=r0, G=0.0, P=s ** i if i else 1.0)

    rhs = lambda r: (-f_law.from_gap(r), h_law.from_gap(r))
    r, g, counts = _advance(rhs, r0, t, tol, 0.0, 0.0, min(tol * 1e-2, SCALAR_ATOL))
    f = 1.0 - r
    return TransitionSolution(F=f, R=r, G=g, P=(f ** i) * math.exp(g), **counts)


# ---------------------------------------------------------------------------
# Series-mode solves.


def _series_init(N: int) -> np.ndarray:
    r = np.zeros(N + 1)
    r[0] = 1.0
    if N >= 1:
        r[1] = -1.0
    return r


def _gap_to_solution(t, r, g=None, i=0, counts=None) -> TransitionSolution:
    f = -r.copy()
    f[0] = 1.0 - r[0]
    F = Series(f)
    sol_kwargs = dict(F=F, R=Series(r), **(counts or {}))
    if g is not None:
        eg = _exp_coeffs(g)
        if i == 0:
            p = eg
        elif t == 0.0:
            p = np.eye(1, f.size, i)[0]  # P = s^i exactly; F = s has no fractional power
        else:
            p = np.convolve(_pow_coeffs(f, float(i)), eg)[: f.size]
        sol_kwargs.update(G=Series(g), P=Series(p))
    return TransitionSolution(**sol_kwargs)


def solve_gf_series(f_law: OffspringLaw, t: float, N: int) -> TransitionSolution:
    """Coefficients p_j(t) of F(t;s) to order N, by the coefficient-space ODE."""
    _check(order=N, t=t)
    r0 = _series_init(N)
    if t == 0.0:
        return _gap_to_solution(0.0, r0)
    rhs = lambda r: (-f_law.from_gap_coeffs(r), None)
    r, _, counts = _advance(rhs, r0, t, SERIES_RTOL, min(SERIES_RTOL * 1e-2, SERIES_ATOL))
    return _gap_to_solution(t, r, counts=counts)


def immigration_gf_series(
    f_law: OffspringLaw,
    h_law: ImmigrationLaw,
    i: int,
    t: float,
    N: int,
    tol: float = SERIES_RTOL,
) -> TransitionSolution:
    """Coefficient vector of F^i exp(G) to order N; row i of the transition law."""
    _check(order=N, t=t, tol=tol, i=i)
    r0, g0 = _series_init(N), np.zeros(N + 1)
    if t == 0.0:
        return _gap_to_solution(0.0, r0, g0, i=i)

    rhs = lambda r: (-f_law.from_gap_coeffs(r), h_law.from_gap_coeffs(r))
    atol = min(tol * 1e-2, SERIES_ATOL)
    r, g, counts = _advance(rhs, r0, t, tol, atol, g0, atol)
    return _gap_to_solution(t, r, g, i=i, counts=counts)

