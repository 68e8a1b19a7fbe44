"""Brute-force ground truth: truncated CTMC generator plus uniformization.

The generator is assembled directly from the jump rules (one individual
replaced by j offspring at rate n a_j, batches of k immigrants at rate b_k),
with no generating-function machinery involved, so transition matrices from
this module serve as an independent oracle.  Jumps that would leave the
truncated state space are dropped and logged per row; row sums of the
resulting transition matrix fall short of one by exactly the leaked mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laws import ImmigrationLaw, OffspringLaw

__all__ = ["TruncatedGenerator", "build_generator", "uniformized_transition"]

_QT_SPLIT = 64.0


@dataclass(frozen=True)
class TruncatedGenerator:
    """Dense rate matrix over states 0..n_max with clipping diagnostics."""

    n_max: int
    Q: np.ndarray
    clipped_rate: np.ndarray

    def __post_init__(self):
        self.Q.setflags(write=False)
        self.clipped_rate.setflags(write=False)


def build_generator(
    f_law: OffspringLaw, h_law: ImmigrationLaw | None, n_max: int
) -> TruncatedGenerator:
    """Generator of the truncated chain; clipped jump rates are logged, not
    renormalized (renormalizing would bias the mean offspring count)."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
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


def _poisson_mixture(Q: np.ndarray, q: float, t: float, eps: float) -> np.ndarray:
    """sum_k e^{-qt} (qt)^k / k! M^k with M = I + Q/q, truncated below eps."""
    size = Q.shape[0]
    M = np.eye(size) + Q / q
    qt = q * t
    w = math.exp(-qt)
    out = w * np.eye(size)
    term = np.eye(size)
    cum = w
    k_cap = int(qt + 12.0 * math.sqrt(qt) + 60.0)
    for k in range(1, k_cap + 1):
        term = term @ M
        w *= qt / k
        out += w * term
        cum += w
        if cum >= 1.0 - eps:
            break
    return out


def uniformized_transition(gen: TruncatedGenerator, t: float, eps: float = 1e-10) -> np.ndarray:
    """Transition matrix P(t) of the truncated chain.

    Entries are nonnegative and rows sum to at most one; the deficit is the
    mass clipped at the truncation boundary.  Large q*t is handled by exact
    time halving, P(t) = P(t/2)^2, with the base tolerance tightened so the
    overall truncation error stays below eps.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    size = gen.n_max + 1
    if t == 0.0:
        return np.eye(size)
    q = float(np.max(-np.diag(gen.Q)))
    if q == 0.0:
        return np.eye(size)
    halvings = 0
    while q * t / 2 ** halvings > _QT_SPLIT:
        halvings += 1
    base_eps = eps / 2 ** (halvings + 1) if halvings else eps
    P = _poisson_mixture(gen.Q, q, t / 2 ** halvings, base_eps)
    for _ in range(halvings):
        P = P @ P
    return P
