"""Slowly varying functions of the shipped law families.

Provides the two slowly varying forms the laws produce (constant and power
corrected) and the ratio of two factors with its limit at infinity.
Arbitrary user callables are deliberately excluded so each form's limit is
available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SlowlyVarying",
    "RatioSV",
    "constant",
    "power_corrected",
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

    def value(self, x: float) -> float:
        if self.form == "constant":
            return self.c
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
