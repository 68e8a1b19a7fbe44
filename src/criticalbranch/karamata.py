"""Slowly varying functions of the shipped law families.

Provides the two slowly varying forms the laws produce (constant and power
corrected), the tail functional ``Lambda(y) = y^nu L(1/y)``, the two preset
time normalizers of the survival-probability figures, and the ratio of two
factors with its limit at infinity.  Arbitrary user callables are
deliberately excluded so each form's limit is available in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SlowlyVarying",
    "Normalizer",
    "RatioSV",
    "constant",
    "power_corrected",
    "lambda_tail",
    "ratio_of",
]


@dataclass(frozen=True)
class SlowlyVarying:
    """One member of the closed family of slowly varying functions.

    Forms: ``constant`` c; ``power`` c(1 + rho/x^p).
    """

    form: str
    c: float = 1.0
    rho: float = 0.0
    p: float = 0.0

    def value(self, x):
        if self.form == "constant":
            return self.c * np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else self.c
        if np.ndim(x):
            return self.c * (1.0 + self.rho * np.asarray(x, dtype=float) ** (-self.p))
        return self.c * (1.0 + self.rho * x ** (-self.p))

    __call__ = value

    @property
    def limit(self) -> float:
        """Value at infinity."""
        return self.c


def constant(c: float) -> SlowlyVarying:
    if c <= 0.0:
        raise ValueError("constant form must be positive")
    return SlowlyVarying("constant", c=c)


def power_corrected(c: float, rho: float, p: float) -> SlowlyVarying:
    if c <= 0.0 or p <= 0.0:
        raise ValueError("power form needs c > 0 and p > 0")
    return SlowlyVarying("power", c=c, rho=rho, p=p)


def lambda_tail(L: SlowlyVarying, nu: float, y: float) -> float:
    """The tail functional Lambda(y) = y^nu L(1/y) for y in (0, 1]."""
    return y ** nu * L.value(1.0 / y)


@dataclass(frozen=True)
class Normalizer:
    """Evaluator for the slowly varying time normalizer N(t).

    The two preset shapes used for plotting, ``half-log`` and ``log-power``,
    are stored verbatim as expressions.
    """

    kind: str
    nu: float = 1.0

    def __call__(self, t: float) -> float:
        if self.kind == "half-log":
            return 1.0 + 0.5 / math.log(t + 1.0)
        return 1.0 + math.log(t + 1.0) / t ** self.nu

    @staticmethod
    def half_log() -> "Normalizer":
        return Normalizer("half-log")

    @staticmethod
    def log_power(nu: float) -> "Normalizer":
        return Normalizer("log-power", nu=nu)


@dataclass(frozen=True)
class RatioSV:
    """Ratio of two slowly varying factors and its limit at infinity."""

    numerator: SlowlyVarying
    denominator: SlowlyVarying
    C_L: float

    def __call__(self, t):
        return self.numerator.value(t) / self.denominator.value(t)


def ratio_of(Lf: SlowlyVarying, Lh: SlowlyVarying) -> RatioSV:
    """Ratio evaluator Lh/Lf with its limit taken analytically."""
    return RatioSV(numerator=Lh, denominator=Lf, C_L=Lh.limit / Lf.limit)
