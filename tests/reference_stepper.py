"""A reference DP5(4) stepper for parity tests, sharing no code with ``kolmogorov``'s.

``reference_advance`` forms every stage for every component, through
per-component list comprehensions over a state list, and integrates from
t = 0 to one horizon.  ``reference_stepper`` takes the place of
``kolmogorov._Stepper``: it runs each horizon asked for alone.
"""

import math

import numpy as np

from criticalbranch import kolmogorov
from criticalbranch.kolmogorov import StepUnderflowError


@np.errstate(over="ignore", invalid="ignore")
def reference_advance(rhs, y0, t_end, rtol, atols):
    y = list(y0)
    t = 0.0
    if t_end == 0.0:
        return y, dict(steps=0, rejected=0, gap_rejected=0, rhs_evals=0)
    vec = y[0].__class__ is np.ndarray
    k1 = rhs(y)
    scale = max(abs(v).max() if vec else abs(v) for v in y) + 1.0
    dscale = max(abs(v).max() if vec else abs(v) for v in k1) + 1e-30
    h = min(0.1 * scale / dscale, 1.0)
    steps = rejected = gap_rejected = gap_evals = 0
    K = kolmogorov
    for _ in range(K._MAX_TRIES):
        if not t < t_end:
            break
        if h < K._MIN_STEP:
            raise StepUnderflowError(t)
        h = min(h, t_end - t)
        y2 = [v + h * K._A21 * a for v, a in zip(y, k1)]
        if not (y2[0][0] if vec else y2[0]) > 0.0:
            h *= 0.5
            gap_rejected += 1
            continue
        k2 = rhs(y2)
        y3 = [v + h * (K._A31 * a + K._A32 * b) for v, a, b in zip(y, k1, k2)]
        if not (y3[0][0] if vec else y3[0]) > 0.0:
            h *= 0.5
            gap_rejected += 1
            gap_evals += 1
            continue
        k3 = rhs(y3)
        y4 = [v + h * (K._A41 * a + K._A42 * b + K._A43 * c) for v, a, b, c in zip(y, k1, k2, k3)]
        if not (y4[0][0] if vec else y4[0]) > 0.0:
            h *= 0.5
            gap_rejected += 1
            gap_evals += 2
            continue
        k4 = rhs(y4)
        y5 = [v + h * (K._A51 * a + K._A52 * b + K._A53 * c + K._A54 * d) for v, a, b, c, d in zip(y, k1, k2, k3, k4)]
        if not (y5[0][0] if vec else y5[0]) > 0.0:
            h *= 0.5
            gap_rejected += 1
            gap_evals += 3
            continue
        k5 = rhs(y5)
        y6 = [
            v + h * (K._A61 * a + K._A62 * b + K._A63 * c + K._A64 * d + K._A65 * e)
            for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
        ]
        if not (y6[0][0] if vec else y6[0]) > 0.0:
            h *= 0.5
            gap_rejected += 1
            gap_evals += 4
            continue
        k6 = rhs(y6)
        ynew = [
            v + h * (K._B1 * a + K._B3 * c + K._B4 * d + K._B5 * e + K._B6 * f)
            for v, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)
        ]
        if not (ynew[0][0] if vec else ynew[0]) > 0.0:
            h *= 0.5
            gap_rejected += 1
            gap_evals += 5
            continue
        k7 = rhs(ynew)
        err = 0.0
        for v, w, a, c, d, e, f, g in zip(ynew, atols, k1, k3, k4, k5, k6, k7):
            e_i = h * (K._E1 * a + K._E3 * c + K._E4 * d + K._E5 * e + K._E6 * f + K._E7 * g)
            q = abs(e_i) / (w + rtol * abs(v))
            q = q.max() if vec else q
            if not q <= err:
                err = q if q == q else math.inf
        if err == math.inf or vec and not all(np.isfinite(v).all() for v in ynew):
            raise StepUnderflowError(t, f"non-finite stage value at step size {float(h)!r}")
        if err <= 1.0:
            t += h
            y = ynew
            k1 = k7
            steps += 1
        else:
            rejected += 1
        factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
    if t < t_end:
        raise StepUnderflowError(t, f"no progress in {K._MAX_TRIES} step attempts")
    rhs_evals = 1 + 6 * (steps + rejected) + gap_evals
    return y, dict(steps=steps, rejected=rejected, gap_rejected=gap_rejected, rhs_evals=rhs_evals)


def reference_stepper(rate, quad, r, g, rtol, atol, gatol, horizons):
    """``kolmogorov._Stepper``'s signature over ``reference_advance``: the state list is (r,) or (r, g)."""
    y0, atols = ((r,), (atol,)) if g is None else ((r, g), (atol, gatol))
    rhs = (lambda y: (rate(y[0]),)) if quad is None else (lambda y: (rate(y[0]), quad(y[0])))

    def at(t):
        (r_t, *rest), counts = reference_advance(rhs, y0, t, rtol, atols)
        return r_t, (rest[0] if rest else None), counts

    return at
