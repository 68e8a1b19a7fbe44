"""Truncated power-series arithmetic over float64 coefficients.

A :class:`Series` holds the coefficients ``c[0]..c[N]`` of a degree-N
truncation: a transition row p_ij(t) as well as an invariant measure (M, V,
pi, U).  Binary operations truncate to the shorter operand; coefficients
beyond the stored order are undefined (``compose`` composes ``outer``'s
truncation as the polynomial it is).  Series values are immutable, always
finite, and every operation is pure; one leaving the float range raises ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Series",
    "mul",
    "compose",
    "exp_series",
    "integrate_series",
    "reciprocal",
    "power",
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


def compose(outer: Series, inner: Series) -> Series:
    """Coefficients of ``outer(inner(s))`` to the shorter operand's order.

    One Horner pass over ``inner``, constant term included: truncated at order
    N, ``outer`` is a degree-N polynomial, composed exactly up to rounding.  With a
    nonzero constant in ``inner``, every result coefficient draws on all of ``outer``'s.
    """
    n = min(outer.order, inner.order)
    b, w = outer.coeffs, inner.coeffs[: n + 1]
    acc = b[n : n + 1]
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
    O(_BLOCK * N) memory plus the block weights (``_weights``), which depend
    on (alpha, m, e) alone and are cached for the last 64 keys: at most
    64 * (_BLOCK**2 + 2 _BLOCK) floats, 2.2 MB.  The prefix's j p_j are kept
    block by block as the blocks are solved.
    """
    w0 = w[0]
    if w0 <= 0.0:
        raise ValueError("fractional power requires a positive constant term")
    n = w.size
    p = np.empty(n)
    p[0] = p0 = w0 ** alpha
    jp = np.empty(n)  # j p_j, which the later blocks' prefixes convolve
    jp[0] = 0.0 * p0
    u = np.zeros(2 * _BLOCK - 1)
    u[_BLOCK - 1 : _BLOCK - 1 + min(n, _BLOCK)] = w[:_BLOCK]
    upper = u.take(_LAG)  # upper[j, k] = w_{k-j}, zero below the diagonal
    dtrsv = _dtrsv()
    for m in range(1, n, _BLOCK):
        e = min(m + _BLOCK, n)
        weights, alpha_k, k = _weights(alpha, math.copysign(1.0, alpha), m, e)
        prefix_p = np.convolve(w[1:e], p[:m], "valid")
        prefix_jp = np.convolve(w[1:e], jp[:m], "valid")
        rhs = alpha_k * prefix_p - (1.0 + alpha) * prefix_jp
        # Built transposed so that tri.T is the Fortran-ordered lower triangle BLAS reads without a copy.
        tri = upper[: e - m, : e - m] * weights
        p[m:e] = dtrsv(tri.T, rhs, lower=1)
        if e < n:
            np.multiply(k, p[m:e], out=jp[m:e])
    return p


@functools.cache
def _dtrsv():
    """scipy's BLAS triangular solve, imported on first use: only series solves
    need it, and scipy.linalg takes about 0.3 s to load."""
    from scipy.linalg.blas import dtrsv

    return dtrsv


@functools.lru_cache(maxsize=64)
def _weights(alpha: float, sign: float, m: int, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(1 + alpha) k_j - alpha k_k`` for j, k in [m, e), with
    ``alpha k`` and ``k`` for k in [m, e).

    ``sign`` is alpha's sign (``math.copysign(1.0, alpha)``): it keys 0.0 and
    -0.0 apart, which compare equal but give ``alpha k`` zeros of either sign.

    An entry holds at most _BLOCK**2 + 2 _BLOCK floats, so the cache holds
    at most 64 * (_BLOCK**2 + 2 _BLOCK) floats: 2.2 MB.
    """
    k = np.arange(m, e, dtype=float)
    alpha_k = alpha * k
    out = ((1.0 + alpha) * k[:, None] - alpha_k, alpha_k, k)
    for a in out:
        a.setflags(write=False)
    return out


def power(w: Series, alpha: float) -> Series:
    """w**alpha for real alpha; exact coefficient recurrence, no composition."""
    return Series(_pow_coeffs(w.coeffs, alpha))
