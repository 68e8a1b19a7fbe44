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
scalar solve and coefficient vectors in a series solve.  It takes the gap's
rate and the quadrature's as two functions of the gap: a quadrature's rate
reads the gap alone, so the stages are formed for the gap only.  A scalar
solve reads each rate once from its law (``OffspringLaw.gap_rate``,
``from_gap``, ``fprime_from_gap``), which builds it over the law's terms.

Solvers are pure functions of (law, t, s, tol).  Every solve runs on one
driver, ``_Stepper``: a march from t = 0 toward the largest of its horizons,
read at each one, so a solve to one t is a march with one horizon.  Marches
to two horizons make the very same attempts until one attempt would be cut
to the nearer horizon, so a sweep over t at one (law, s) shares them.
``_March`` is the one way to the driver: any of the five solvers at each t
of a grid, and each solver is the march over its one t.  It checks the
arguments before any work against the ``laws`` leaves that configs use (t,
s, tol, the series order N as leaf ``order``, and the initial state i),
returns the exact points, picks the tolerances and builds the driver.
``gf_derivative`` and ``solve_gf_series`` run at the fixed tolerances
SCALAR_RTOL and SERIES_RTOL.  Once checked, an ``np.float64`` t, s or tol
(a float subclass) becomes the Python float of the same value, so a grid
from ``np.logspace`` marches on Python floats: it gets the bytes, counters
and errors of the same Python floats, and a bad value keeps its numpy repr
in the message.  Grid callers march: ``cli solve``,
``asymptotics.scaled_gf_convergence``, ``conditioned_gf`` and
``local_ratio_measured`` over a grid, and the acceptance checks A3, A7 and
A8.  A march holds state, so each sweep builds its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

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
_TABLEAU = (_A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64, _A65,
            _B1, _B3, _B4, _B5, _B6, _E1, _E3, _E4, _E5, _E6, _E7)


class _Stepper:
    """DP5(4) on the gap r and an optional quadrature g from t = 0; called at a horizon, returns (r, g, counts) there.

    r and g are both floats or both coefficient vectors.  ``rate(r)`` is the
    gap's rate and ``quad(r)`` the quadrature's (``quad`` is None when g is
    None): a quadrature's rate reads the gap alone, so the stages are formed
    for the gap only, and g enters the step's update and its error estimate.
    The second stage's quadrature rate has weight zero in both and is not
    computed.  The gap (for a vector, its constant term) is strictly positive
    along the flow, so ``atol`` can be zero for pure relative control; a
    quadrature that starts at zero needs a positive ``gatol``.  A step with a
    non-positive gap at any stage is rejected and retried at half the step
    size.  A horizon's call raises StepUnderflowError on a step below
    ``_MIN_STEP``, after ``_MAX_TRIES`` attempts short of it, and at once on
    a non-finite error estimate or vector state, or a rate whose Python-float
    power overflows (the solve left the float range; that check replaces
    numpy's overflow and division warnings).  A gap so small that its error
    scale rounds to zero gives an infinite error estimate.  A march whose
    gap and ``rtol`` are Python floats runs outside ``np.errstate``: its
    arithmetic raises where numpy's would warn, so the context would do
    nothing and cost about 2-3 µs a call.  Any other march (a vector state,
    or numpy scalars) enters it once per horizon call.

    ``counts`` holds the keyword arguments ``steps`` (accepted steps),
    ``rejected`` (steps failing the error test), ``gap_rejected`` (steps
    stopped at a non-positive gap stage) and ``rhs_evals`` (calls of
    ``rate``) of a TransitionSolution.  An attempt that reaches the error test
    costs six gap-rate calls and five quadrature-rate calls; one stopped at a
    gap stage costs the stages computed before it, which its rejection branch
    adds to ``gap_evals``.

    The horizons are positive, and a solve to one t is the march with the
    one horizon t.  Marches to two horizons make the very same attempts
    until one attempt would be cut to the nearer horizon (``_run``).  There
    the march keeps that attempt's state, from which the nearer horizon's
    last steps run when that horizon is asked for, and goes on toward the
    next one.  A horizon that a step reaches without a cut keeps its
    outcome at once, and so does the last horizon: no march goes past it,
    so its steps are cut to it in the same run.  So each horizon gets the
    bytes, counters and error of its one-horizon march.  A failed march
    fails every horizon that it has not passed with the same error, as
    their one-horizon marches would.  The march runs only as far as the horizons asked for so
    far need, so a caller that stops at its first failing horizon makes no
    attempt that one-horizon marches in the same order would not make.
    """

    def __init__(self, rate, quad, r, g, rtol, atol, gatol, horizons):
        self.step = (rate, quad, rtol, atol, gatol)
        self.r, self.g = r, g
        self.floats = r.__class__ is float and rtol.__class__ is float  # a march on Python floats alone
        self.horizons = sorted(set(horizons))
        self.passed = 0  # the march has passed horizons[:passed]
        self.state = None  # where the march stands, once it has started
        self.starts = {}  # horizon -> where its last steps start, until it is asked for
        self.done = {}  # horizon -> (r, g, counts), its StepUnderflowError, or None while its last steps wait

    def __call__(self, t):
        if self.floats:  # Python floats raise where numpy would warn: no errstate to enter
            got = self._outcome(t)
        else:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                got = self._outcome(t)
        if isinstance(got, StepUnderflowError):
            raise got.with_traceback(None)
        return got

    def _outcome(self, t):
        """Horizon t's (r, g, counts) or StepUnderflowError, marching as far as it needs."""
        step = self.step
        while t not in self.done:
            x = self.horizons[self.passed]
            self.passed += 1
            try:
                if self.state is None:
                    self.state = _start(step[0], step[1], self.r, self.g)
                # x's outcome, or None and the attempt that would be cut to x; no march goes past its last horizon
                self.done[x], self.state = _run(*step, self.state, x, last=self.passed == len(self.horizons))
                if self.done[x] is None:
                    self.starts[x] = self.state
            except StepUnderflowError as exc:  # so would every march to x or beyond
                self.done.update(dict.fromkeys(self.horizons[self.passed - 1:], exc))
                self.passed = len(self.horizons)
        if self.done[t] is None:
            try:
                self.done[t] = _run(*step, self.starts.pop(t), t)[0]
            except StepUnderflowError as exc:
                self.done[t] = exc
        return self.done[t]


def _start(rate, quad, r, g):
    """The stepper's state at t = 0: the first rates, the first step size, zero counters and every attempt.

    A state is (t, r, g, a1, b1, h, steps, rejected, gap_rejected, gap_evals,
    tries): a1 and b1 are the gap's and the quadrature's rates at r, h the
    next attempt's step size before any cut to a horizon, and tries the
    attempts left of ``_MAX_TRIES``.
    """
    vec = r.__class__ is np.ndarray
    try:
        # a_k: the gap's stage rates; b_k: the quadrature's
        a1 = rate(r)
        b1 = quad(r) if quad else None
    except OverflowError:  # numpy would give inf here; a non-finite stage, as in _run
        raise StepUnderflowError(0.0, "non-finite stage value") from None
    peak = lambda v: abs(v).max() if vec else abs(v)
    scale = (max(peak(r), peak(g)) if quad else peak(r)) + 1.0
    dscale = (max(peak(a1), peak(b1)) if quad else peak(a1)) + 1e-30
    return 0.0, r, g, a1, b1, min(0.1 * scale / dscale, 1.0), 0, 0, 0, 0, _MAX_TRIES


def _run(rate, quad, rtol, atol, gatol, state, t_end, last=True):
    """DP5(4) attempts from ``state`` toward t_end; returns ((r, g, counts) or None, state).

    With ``last`` the attempt that would pass t_end is cut to it, and the
    first item is the (r, g, counts) at t_end; the state is where the steps
    stopped.  Without it t_end is a horizon that a march toward a later one
    passes: where an attempt would be cut to t_end, the run returns None and
    the state of that attempt before its cut, from which a run with ``last``
    reaches t_end and a run toward a later horizon goes on, both as a march
    with the one horizon would.  Reaching t_end without a cut returns its
    (r, g, counts) either way.  Raises StepUnderflowError as ``_Stepper``
    says.
    """
    t, r, g, a1, b1, h, steps, rejected, gap_rejected, gap_evals, tries = state
    vec = r.__class__ is np.ndarray
    # locals, not module globals: an attempt reads the tableau 26 times, 37 with a quadrature
    (A21, A31, A32, A41, A42, A43, A51, A52, A53, A54, A61, A62, A63, A64, A65,
     B1, B3, B4, B5, B6, E1, E3, E4, E5, E6, E7) = _TABLEAU
    min_step, inf = _MIN_STEP, math.inf
    try:
        for k in range(tries):
            if not t < t_end:
                break
            # the step is tested before it is cut to the horizon: a horizon below _MIN_STEP is no underflow
            if h < min_step:
                raise StepUnderflowError(t)
            if t_end - t < h:
                if not last:
                    return None, (t, r, g, a1, b1, h, steps, rejected, gap_rejected, gap_evals, tries - k)
                h = t_end - t
            # a stage with a non-positive gap rejects the step before a rate sees it
            r2 = r + h * A21 * a1
            if not (r2[0] if vec else r2) > 0.0:
                h *= 0.5
                gap_rejected += 1
                continue
            a2 = rate(r2)
            r3 = r + h * (A31 * a1 + A32 * a2)
            if not (r3[0] if vec else r3) > 0.0:
                h *= 0.5
                gap_rejected += 1
                gap_evals += 1
                continue
            a3 = rate(r3)
            b3 = quad(r3) if quad else None
            r4 = r + h * (A41 * a1 + A42 * a2 + A43 * a3)
            if not (r4[0] if vec else r4) > 0.0:
                h *= 0.5
                gap_rejected += 1
                gap_evals += 2
                continue
            a4 = rate(r4)
            b4 = quad(r4) if quad else None
            r5 = r + h * (A51 * a1 + A52 * a2 + A53 * a3 + A54 * a4)
            if not (r5[0] if vec else r5) > 0.0:
                h *= 0.5
                gap_rejected += 1
                gap_evals += 3
                continue
            a5 = rate(r5)
            b5 = quad(r5) if quad else None
            r6 = r + h * (A61 * a1 + A62 * a2 + A63 * a3 + A64 * a4 + A65 * a5)
            if not (r6[0] if vec else r6) > 0.0:
                h *= 0.5
                gap_rejected += 1
                gap_evals += 4
                continue
            a6 = rate(r6)
            b6 = quad(r6) if quad else None
            rnew = r + h * (B1 * a1 + B3 * a3 + B4 * a4 + B5 * a5 + B6 * a6)
            if not (rnew[0] if vec else rnew) > 0.0:
                h *= 0.5
                gap_rejected += 1
                gap_evals += 5
                continue
            a7 = rate(rnew)
            b7 = quad(rnew) if quad else None
            # the error ratio is the larger of the gap's and g's; a NaN ratio makes it inf
            try:
                q = (abs(h * (E1 * a1 + E3 * a3 + E4 * a4 + E5 * a5 + E6 * a6 + E7 * a7))
                     / (atol + rtol * abs(rnew)))
            except ZeroDivisionError:  # a float gap so far below 1 that rtol * |rnew| rounds to 0
                q = inf
            q = q.max() if vec else q
            err = q if q == q else inf
            gnew = g
            if quad:
                gnew = g + h * (B1 * b1 + B3 * b3 + B4 * b4 + B5 * b5 + B6 * b6)
                q = (abs(h * (E1 * b1 + E3 * b3 + E4 * b4 + E5 * b5 + E6 * b6 + E7 * b7))
                     / (gatol + rtol * abs(gnew)))
                q = q.max() if vec else q
                if not q <= err:
                    err = q if q == q else inf
            if err == inf or vec and not (np.isfinite(rnew).all() and (not quad or np.isfinite(gnew).all())):
                raise StepUnderflowError(t, f"non-finite stage value at step size {float(h)!r}")
            if err <= 1.0:
                t += h
                r, g, a1, b1 = rnew, gnew, a7, b7
                steps += 1
            else:
                rejected += 1
            factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
            h *= 5.0 if factor > 5.0 else 0.2 if factor < 0.2 else factor
        else:
            k = tries
    except OverflowError:  # numpy would give inf here; a non-finite stage, as above
        raise StepUnderflowError(t, f"non-finite stage value at step size {float(h)!r}") from None
    if t < t_end:
        raise StepUnderflowError(t, f"no progress in {_MAX_TRIES} step attempts")
    rhs_evals = 1 + 6 * (steps + rejected) + gap_evals
    counts = dict(steps=steps, rejected=rejected, gap_rejected=gap_rejected, rhs_evals=rhs_evals)
    return (r, g, counts), (t, r, g, a1, b1, h, steps, rejected, gap_rejected, gap_evals, tries - k)


# ---------------------------------------------------------------------------
# The solvers: each is the march with its one horizon.


def solve_gf(f_law: OffspringLaw, t: float, s: float, tol: float = SCALAR_RTOL) -> TransitionSolution:
    """F(t;s) by the embedded pair on dR/dt = -f(1-R), R(0) = 1-s."""
    return _March("solve_gf", f_law, (t,), s=s, tol=tol)(t)


def closed_form_gf(nu: float, a0: float, t: float, s: float) -> TransitionSolution:
    """Exact gap R(t;s) = [(1-s)^(-nu) + a0 nu t]^(-1/nu) of the stable family."""
    _check(nu=nu, a0=a0, t=t, s=s)
    if s == 1.0:
        return TransitionSolution(F=1.0, R=0.0)
    r = ((1.0 - s) ** (-nu) + a0 * nu * t) ** (-1.0 / nu)
    return TransitionSolution(F=1.0 - r, R=r)


def gf_derivative(f_law: OffspringLaw, t: float, s: float) -> float:
    """dF/ds = V for V' = f'(F) V, V(0) = 1, solved as u = log V so a subnormal V at far t stays in reach."""
    return _March("gf_derivative", f_law, (t,), s=s)(t)


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
    return _March("immigration_gf", f_law, (t,), h_law, i, s, tol=tol)(t)


def solve_gf_series(f_law: OffspringLaw, t: float, N: int) -> TransitionSolution:
    """Coefficients p_j(t) of F(t;s) to order N, by the coefficient-space ODE."""
    return _March("solve_gf_series", f_law, (t,), N=N)(t)


def immigration_gf_series(
    f_law: OffspringLaw,
    h_law: ImmigrationLaw,
    i: int,
    t: float,
    N: int,
    tol: float = SERIES_RTOL,
) -> TransitionSolution:
    """Coefficient vector of F^i exp(G) to order N; row i of the transition law."""
    return _March("immigration_gf_series", f_law, (t,), h_law, i, N=N, tol=tol)(t)


def _float(x):
    """x as a Python float if it is an np.float64, else x itself.

    The conversion is exact (np.float64 subclasses float), and a march on
    Python floats skips numpy's scalar arithmetic in every attempt.
    """
    return float(x) if x.__class__ is np.float64 else x


# each solver's check of march m's arguments at t, in its order: several bad values get the message of the first
_CHECKS = dict(
    solve_gf=lambda m, t: _check(t=t, s=m.s, tol=m.tol),
    immigration_gf=lambda m, t: _check(i=m.i, t=t, s=m.s, tol=m.tol),
    gf_derivative=lambda m, t: _check(t=t, s=m.s),
    solve_gf_series=lambda m, t: _check(order=m.N, t=t),
    immigration_gf_series=lambda m, t: _check(order=m.N, t=t, tol=m.tol, i=m.i),
)


class _March:
    """The solver named ``solver`` at each t of ``ts``, its other arguments fixed.

    ``h_law`` (the immigration solvers' alone), ``i``, ``s``, ``N`` and
    ``tol`` are the solver's own; ``gf_derivative`` runs at SCALAR_RTOL and
    ``solve_gf_series`` at SERIES_RTOL.  The first call checks every argument
    in the solver's order (``_CHECKS``, against the ``laws`` leaves that
    configs use; N is leaf ``order``).  Once a call has passed its checks, a
    call checks its t alone.  Each checked ``np.float64`` t, s, tol and
    horizon is read as a Python float (``_float``).  An exact point (t = 0,
    or s = 1) takes no step.  Any other t is read from one ``_Stepper`` over
    the positive t of ``ts``, built at the first call that needs a step,
    after that call's checks, so a bad t gets its message before any horizon
    is sorted.  Every t of a grid gets the bytes, counters and error of its
    one-horizon solve.
    """

    def __init__(self, solver: str, f_law: OffspringLaw, ts, h_law: ImmigrationLaw | None = None, i: int = 0,
                 s: float = 0.0, N: int = 0, tol: float | None = None):
        self.series = solver.endswith("_series")
        if tol is None:
            tol = SERIES_RTOL if self.series else SCALAR_RTOL
        self.solver, self.f_law, self.h_law, self.i, self.s, self.N, self.tol, self.ts = solver, f_law, h_law, i, s, N, tol, ts
        self.checked = False  # True once a call has passed the checks
        self.stepper = None

    def __call__(self, t: float) -> TransitionSolution | float:
        solver = self.solver
        if self.checked:
            _check(t=t)
        else:
            _CHECKS[solver](self, t)
            if solver == "gf_derivative" and self.s == 1.0:
                raise ValueError("derivative is evaluated on [0, 1)")
            self.checked = True
            self.s, self.tol = _float(self.s), _float(self.tol)
        t, s, i = _float(t), self.s, self.i
        if t == 0.0 or s == 1.0:  # an exact point: no step (a series march keeps s = 0)
            if solver == "solve_gf":
                return TransitionSolution(F=s, R=1.0 - s)
            if solver == "immigration_gf":
                return TransitionSolution(F=s, R=1.0 - s, G=0.0, P=s ** i if i else 1.0)
            r, g, counts = *self._initial()[2:4], {}
        else:
            if self.stepper is None:
                # numbers alone: any other entry fails its check before it is asked for
                horizons = [_float(x) for x in self.ts if (isinstance(x, float) or isinstance(x, Real)) and x > 0.0]
                self.stepper = _Stepper(*self._initial(), horizons)
            r, g, counts = self.stepper(t)
        if solver == "gf_derivative":
            return math.exp(g)
        if self.series:
            f = -r.copy()
            f[0] = 1.0 - r[0]
            f, r, p = Series(f), Series(r), None
            if g is not None:
                p = _exp_coeffs(g)
                if i and t == 0.0:
                    p = np.eye(1, p.size, i)[0]  # P = s^i exactly; F = s has no fractional power
                elif i:
                    p = np.convolve(_pow_coeffs(f.coeffs, float(i)), p)[: p.size]
                g, p = Series(g), Series(p)
        else:
            f = 1.0 - r
            p = None if g is None else (f ** i) * math.exp(g)
        return TransitionSolution(F=f, R=r, G=g, P=p, **counts)

    def _initial(self):
        """``_Stepper``'s arguments before the horizons: the rates, the state at t = 0 and the tolerances."""
        f_law, h_law, tol = self.f_law, self.h_law, self.tol
        if self.series:

            def rate(r):  # -f(1 - R) on the coefficients, negated in the law's fresh output
                out = f_law.from_gap_coeffs(r)
                return np.negative(out, out=out)

            r = np.zeros(self.N + 1)
            r[:2] = [1.0, -1.0][: r.size]  # the coefficients of 1 - s
            atol = min(tol * 1e-2, SERIES_ATOL)
            quad, g = (None, None) if h_law is None else (h_law.from_gap_coeffs, np.zeros(r.size))
            return rate, quad, r, g, tol, atol, atol
        quad = f_law.fprime_from_gap if self.solver == "gf_derivative" else None if h_law is None else h_law.from_gap
        return f_law.gap_rate, quad, 1.0 - self.s, None if quad is None else 0.0, tol, 0.0, min(tol * 1e-2, SCALAR_ATOL)
