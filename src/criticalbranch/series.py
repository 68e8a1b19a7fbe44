"""Truncated power-series arithmetic over float64 coefficients.

A :class:`Series` holds the coefficients ``c[0]..c[N]`` of a degree-N
truncation: a transition row p_ij(t) as well as an invariant measure (M, V,
pi, U).  Binary operations truncate to the shorter operand; coefficients
beyond the stored order are undefined, never implicitly zero.  Series values
are immutable, always finite, and every operation is pure; an operation whose
result leaves the float range raises ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsv

__all__ = [
    "Series",
    "mul",
    "compose",
    "exp_series",
    "integrate_series",
    "reciprocal",
    "power",
    "taylor_shift",
]

_BLOCK = 64
_LAG = _BLOCK - 1 - np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))


@dataclass(frozen=True)
class Series:
    """Degree-N truncation of a formal power series in one variable."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a non-empty 1-d vector")
        if not np.isfinite(c).all():
            raise ValueError("coefficients leave the float range")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __neg__(self) -> "Series":
        return Series(-self.coeffs)


def mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated at the shorter operand's order."""
    n = min(a.order, b.order)
    return Series(np.convolve(a.coeffs[: n + 1], b.coeffs[: n + 1])[: n + 1])


def taylor_shift(a: Series, x0: float) -> Series:
    """Coefficients of ``a(x0 + s)`` by repeated synthetic division.

    Loses roughly one decimal digit per 64 orders when coefficient signs mix.
    """
    if x0 == 0.0:
        return Series(a.coeffs)
    b = a.coeffs.tolist()
    x0 = float(x0)
    n = len(b)
    for k in range(n - 1):
        for j in range(n - 2, k - 1, -1):
            b[j] += x0 * b[j + 1]
    return Series(b)


def compose(outer: Series, inner: Series) -> Series:
    """Coefficients of ``outer(inner(s))`` to the shorter operand's order.

    A nonzero constant term of ``inner`` is handled by re-centering ``outer``
    with a Taylor shift before the Horner pass.
    """
    n = min(outer.order, inner.order)
    oc = Series(outer.coeffs[: n + 1])
    w = inner.coeffs[: n + 1].copy()
    if w[0] != 0.0:
        oc = taylor_shift(oc, w[0])
        w[0] = 0.0
    b = oc.coeffs
    acc = np.zeros(n + 1)
    acc[0] = b[n]
    for k in range(n - 1, -1, -1):
        acc = np.convolve(acc, w)[: n + 1]
        acc[0] += b[k]
    return Series(acc)


def _exp_coeffs(g: np.ndarray) -> np.ndarray:
    if g[0] > 700.0:
        raise OverflowError(f"exp of series with constant term {g[0]!r} overflows")
    n = g.size
    e = np.empty(n)
    e[0] = math.exp(g[0])
    w = np.arange(1, n) * g[1:]
    for k in range(1, n):
        e[k] = np.dot(w[:k], e[k - 1 :: -1]) / k
    return e


def exp_series(g: Series) -> Series:
    """exp(g) via the differential recurrence E' = E g', E(0) = e^{g_0}."""
    return Series(_exp_coeffs(g.coeffs))


def integrate_series(g: Series) -> Series:
    """Term-wise antiderivative with zero constant term; order grows by one."""
    c = g.coeffs
    out = np.empty(c.size + 1)
    out[0] = 0.0
    out[1:] = c / np.arange(1, c.size + 1)
    return Series(out)


def _reciprocal_coeffs(a: np.ndarray) -> np.ndarray:
    if a[0] == 0.0:
        raise ValueError("reciprocal requires a nonzero constant term")
    n = a.size
    b = np.empty(n)
    b[0] = 1.0 / a[0]
    for k in range(1, n):
        b[k] = -np.dot(a[1 : k + 1], b[k - 1 :: -1]) / a[0]
    return b


def reciprocal(a: Series) -> Series:
    """1 / a for a series with nonzero constant term."""
    return Series(_reciprocal_coeffs(a.coeffs))


def _pow_coeffs(w: np.ndarray, alpha: float) -> np.ndarray:
    """Coefficients of w(s)**alpha for w with positive constant term.

    Differentiating p = w**alpha gives p' w = alpha w' p; its order-(k-1)
    coefficient is row k of a lower-triangular system in the p_j,

        sum_{j<=k} w_{k-j} ((1 + alpha) j - alpha k) p_j = 0,   k >= 1,

    with diagonal k w_0.  It is solved by forward substitution in blocks of
    ``_BLOCK`` unknowns: the solved prefix enters a block through two
    convolutions of w, against p_j and against j p_j, and the block's own
    triangle is one BLAS solve.  Same flops as row-by-row substitution, in
    O(_BLOCK * N) memory plus the block weights, which depend on (alpha, m, e)
    alone and are cached for the last 64 keys: at most 64 * _BLOCK**2 floats.
    """
    w0 = w[0]
    if w0 <= 0.0:
        raise ValueError("fractional power requires a positive constant term")
    n = w.size
    p = np.empty(n)
    p[0] = w0 ** alpha
    k = np.arange(n, dtype=float)
    u = np.zeros(2 * _BLOCK - 1)
    u[_BLOCK - 1 : _BLOCK - 1 + min(n, _BLOCK)] = w[:_BLOCK]
    upper = u[_LAG]  # upper[j, k] = w_{k-j}, zero below the diagonal
    for m in range(1, n, _BLOCK):
        e = min(m + _BLOCK, n)
        km = k[m:e]
        prefix_p = np.convolve(w[1:e], p[:m], "valid")
        prefix_jp = np.convolve(w[1:e], k[:m] * p[:m], "valid")
        rhs = alpha * km * prefix_p - (1.0 + alpha) * prefix_jp
        # Built transposed so that tri.T is the Fortran-ordered lower triangle BLAS reads without a copy.
        tri = upper[: e - m, : e - m] * _weights(alpha, m, e)
        p[m:e] = dtrsv(tri.T, rhs, lower=1)
    return p


@functools.lru_cache(maxsize=64)
def _weights(alpha: float, m: int, e: int) -> np.ndarray:
    """Read-only ``(1 + alpha) k_j - alpha k_k`` for j, k in [m, e)."""
    km = np.arange(m, e, dtype=float)
    out = (1.0 + alpha) * km[:, None] - alpha * km
    out.setflags(write=False)
    return out


def power(w: Series, alpha: float) -> Series:
    """w**alpha for real alpha; exact coefficient recurrence, no composition."""
    return Series(_pow_coeffs(w.coeffs, alpha))
