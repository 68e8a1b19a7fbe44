"""Brute-force ground truth: truncated CTMC generator plus uniformization.

The generator is assembled directly from the jump rules (one individual
replaced by j offspring at rate n a_j, batches of k immigrants at rate b_k),
with no generating-function machinery involved, so transition matrices from
this module serve as an independent oracle.  Jumps that would leave the
truncated state space are dropped and logged per row; row sums of the
resulting transition matrix fall short of one by exactly the leaked mass.

P(t) comes from Jensen's uniformization, a Poisson mixture of powers of a
nonnegative matrix, raised to the power 2^h by exact time halving.  The
number of halvings h and the series length K are chosen together so that
the count of matrix products, (K - 1) + h, is smallest (the trade-off of
Al-Mohy & Higham, SIMAX 31, 2009).  The tolerance EPS = 1e-10 bounds the
truncation error only, through a proven Poisson tail bound; rounding is
not part of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laws import ImmigrationLaw, OffspringLaw, _check

__all__ = ["TruncatedGenerator", "Uniformization", "build_generator", "uniformize", "uniformized_transition"]

EPS = 1e-10  # bound on the truncation error of P(t) in the max row-sum norm
_X_MAX = 64.0  # the split search starts at the first h with q t / 2^h <= _X_MAX
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class TruncatedGenerator:
    """Dense rate matrix over states 0..n_max with clipping diagnostics."""

    n_max: int
    Q: np.ndarray
    clipped_rate: np.ndarray

    def __post_init__(self):
        self.Q.setflags(write=False)
        self.clipped_rate.setflags(write=False)


@dataclass(frozen=True)
class Uniformization:
    """P(t) of a truncated chain and how it was computed.

    ``halvings`` is h and ``terms`` is K, the last power of the Poisson
    series; they cost (K - 1) + h matrix products.  ``leaked`` is 1 minus
    each row sum: mass clipped at the boundary plus the truncation error.
    """

    P: np.ndarray
    halvings: int
    terms: int
    leaked: np.ndarray


def build_generator(
    f_law: OffspringLaw, h_law: ImmigrationLaw | None, n_max: int
) -> TruncatedGenerator:
    """Generator of the truncated chain; clipped jump rates are logged, not
    renormalized (renormalizing would bias the mean offspring count).  n_max
    is checked against its ``laws`` leaf, [1, inf)."""
    _check(n_max=n_max)
    size = n_max + 1
    Q = np.zeros((size, size))
    clipped = np.zeros(size)

    a = f_law.rates_up_to(n_max + 1)
    total_branch = -f_law.a1
    for n in range(1, size):
        j_max = n_max - n + 1
        Q[n, n - 1] += n * a[0]
        included = a[0]
        if j_max >= 2:
            js = np.arange(2, j_max + 1)
            Q[n, n - 1 + js] += n * a[js]
            included += a[2 : j_max + 1].sum()
        Q[n, n] += n * f_law.a1
        clipped[n] += n * max(0.0, total_branch - included)

    if h_law is not None:
        b = h_law.rates_up_to(n_max)
        total_imm = -h_law.b0
        for n in range(size):
            k_max = n_max - n
            if k_max >= 1:
                ks = np.arange(1, k_max + 1)
                Q[n, n + ks] += b[ks]
            Q[n, n] += h_law.b0
            clipped[n] += max(0.0, total_imm - b[1 : k_max + 1].sum())

    return TruncatedGenerator(n_max=n_max, Q=Q, clipped_rate=clipped)


def _series_terms(x: float, log_tol: float) -> int:
    """Smallest K whose Poisson(x) tail beyond K is provably at most e^log_tol.

    For K + 2 > x the tail sum_{k>K} w_k is bounded by the geometric series
    w_{K+1} / (1 - x/(K+2)), since w_{k+1}/w_k = x/(k+1).  Weights are
    carried in log space, so tolerances far below the smallest float work.
    """
    log_x = math.log(x)
    log_w = -x  # log w_0
    k = 0
    while True:
        log_w += log_x - math.log(k + 1)  # log w_{k+1}
        if k + 2 > x and log_w - math.log1p(-x / (k + 2)) <= log_tol:
            return k
        k += 1


def _split(qt: float, eps: float) -> tuple[int, int]:
    """Halvings h and series length K with the fewest products, (K - 1) + h.

    The base step's tail tolerance is eps / 2^(h+1): h squarings at most
    double a row-sum error each time, so the total stays below eps / 2.
    """
    h = max(0, math.frexp(qt / _X_MAX)[1] - 1)
    while math.ldexp(qt, -h) > _X_MAX:
        h += 1
    log_eps = math.log(eps)
    best = None
    while best is None or h < best[0]:  # h halvings cost at least h products
        k = _series_terms(math.ldexp(qt, -h), log_eps - (h + 1) * _LN2)
        cost = max(k - 1, 0) + h
        if best is None or cost < best[0]:
            best = (cost, h, k)
        h += 1
    return best[1], best[2]


def uniformize(gen: TruncatedGenerator, t: float) -> Uniformization:
    """Transition matrix P(t) of the truncated chain, with its counters.

    P(t) = (e^{-x} sum_{k<=K} x^k/k! M^k)^(2^h), with M = I + Q/q
    nonnegative, q the largest exit rate and x = q t / 2^h.  The split (h, K)
    is the one with the fewest matrix products, (K - 1) + h, over h from the
    first with x <= 64 on; K is the shortest series whose Poisson tail is
    provably at most EPS / 2^(h+1).  EPS bounds the truncation error in the
    max row-sum norm; rounding is not part of it.  Entries are nonnegative
    and truncation only removes mass, so rows sum to at most one.  t is
    checked against the ``laws`` leaf that configs use.
    """
    _check(t=t)
    size = gen.n_max + 1
    q = float(np.max(-np.diag(gen.Q)))
    qt = q * t
    if qt == math.inf:
        raise ValueError(f"q*t must be finite, got q={q} and t={t}")
    if qt == 0.0:
        return Uniformization(P=np.eye(size), halvings=0, terms=0, leaked=np.zeros(size))
    h, k_max = _split(qt, EPS)
    x = math.ldexp(qt, -h)
    diag = np.diag_indices(size)
    M = gen.Q / q
    M[diag] += 1.0
    # Horner: S = I + (x/1) M (I + (x/2) M (... (I + (x/K) M))), every term >= 0
    P = M * (x / k_max) if k_max else np.zeros_like(M)
    P[diag] += 1.0
    buf = np.empty_like(P)
    for k in range(k_max - 1, 0, -1):
        np.matmul(M, P, out=buf)
        buf *= x / k
        buf[diag] += 1.0
        P, buf = buf, P
    P *= math.exp(-x)
    for _ in range(h):
        np.matmul(P, P, out=buf)
        P, buf = buf, P
    return Uniformization(P=P, halvings=h, terms=k_max, leaked=1.0 - P.sum(axis=1))


def uniformized_transition(gen: TruncatedGenerator, t: float) -> np.ndarray:
    """P(t) of the truncated chain: ``uniformize(gen, t).P``."""
    return uniformize(gen, t).P
