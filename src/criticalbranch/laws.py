"""Offspring and immigration rate families for branching with immigration.

An offspring law fixes branching rates ``a_j`` (events per unit time) with
``a_1 < 0`` and ``sum_{j != 1} a_j = -a_1``, so the generating function
``f(s) = sum_j a_j s^j`` vanishes at 1 and the individual lifetime is
exponential with mean ``1/(-a_1)``.  An immigration law fixes arrival rates
``b_k`` with ``b_0 = -sum_{k >= 1} b_k``.

The canonical stable families realize ``f(s) = a0 (1-s)^(1+nu)`` and
``h(s) = -c (1-s)^delta`` exactly; perturbed variants add a second
``(1-s)^power`` term to exercise nonconstant slowly varying factors.  All
fractional binomial coefficients come from the multiplicative recurrence,
never from Gamma-function quotients.

Everything here is immutable after construction.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from . import karamata, series

__all__ = [
    "OffspringLaw",
    "ImmigrationLaw",
    "RegimeParams",
    "make_stable_offspring",
    "make_perturbed_offspring",
    "make_finite_offspring",
    "make_stable_immigration",
    "make_finite_immigration",
    "classify",
    "offspring_from_config",
    "immigration_from_config",
]

_SCAN_HORIZON = 10_000
_CLAMP = -1e-14


def _binomial_stream(beta: float, J: int) -> np.ndarray:
    """(-1)^j binom(beta, j) for j = 0..J via the ratio recurrence."""
    out = np.empty(J + 1)
    out[0] = 1.0
    if J >= 1:
        j = np.arange(1.0, J + 1.0)
        out[1:] = np.cumprod((j - 1.0 - beta) / j)
    return out


def _terms_rates(terms: tuple[tuple[float, float], ...], J: int) -> np.ndarray:
    """Series coefficients of sum_m c_m (1-s)^{beta_m} up to order J."""
    out = np.zeros(J + 1)
    for c, beta in terms:
        out += c * _binomial_stream(beta, J)
    return out


def _power_sum(terms: tuple[tuple[float, float], ...], negate: bool = False):
    """The function r -> sum_m c_m r**b_m over ``terms``, negated when ``negate``.

    The sum runs left to right from the integer 0, as sum() did up to Python
    3.11 (3.12 replaced it by a compensated sum of floats), so a -0.0 term
    adds as +0.0.  A solver calls its rates six times an attempt: one and two
    terms are written out, and the sign is folded in.  On Python floats a
    power past the float range raises OverflowError.
    """
    if len(terms) == 1:
        ((c, b),) = terms
        if negate:
            return lambda r: -(0 + c * r ** b)
        return lambda r: 0 + c * r ** b
    if len(terms) == 2:
        (c, b), (c2, b2) = terms
        if negate:
            return lambda r: -(0 + c * r ** b + c2 * r ** b2)
        return lambda r: 0 + c * r ** b + c2 * r ** b2

    def loop(r):
        total = 0
        for c, b in terms:
            total += c * r ** b
        return -total if negate else total

    return loop


def _finite_terms(rates: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Centered terms of the polynomial sum_j rates_j s^j; the constant term is zero."""
    terms = []
    for m in range(1, rates.size):
        g = (-1.0) ** m * sum(rates[j] * math.comb(j, m) for j in range(m, rates.size))
        if abs(g) > 1e-15:
            terms.append((float(g), float(m)))  # Python floats: numpy scalars would slow every solve
    return tuple(terms)


@dataclass(frozen=True)
class CenteredLaw:
    """A rate generating function in the centered form ``sum_m c_m (1-s)^{beta_m}``.

    The centered form evaluates stably arbitrarily close to s = 1, and its
    series coefficients are the rates.
    """

    kind: str
    terms: tuple[tuple[float, float], ...]

    def value(self, s: float) -> float:
        return self.from_gap(1.0 - s)

    @property
    def from_gap(self):
        """The generating function at 1 - r, as a function of r; stable for r near 0.

        Each read builds the function anew (``_power_sum``), so a solve reads it once.
        """
        return _power_sum(self.terms)

    def from_gap_coeffs(self, r: np.ndarray) -> np.ndarray:
        """Series coefficients of the generating function at 1 - R(s), given those of R."""
        out = np.zeros_like(r)
        for c, b in self.terms:
            out += c * series._pow_coeffs(r, b)
        return out

    def rates_up_to(self, J: int) -> np.ndarray:
        """Rates 0..J, the series coefficients of the generating function."""
        return _terms_rates(self.terms, J)

    def as_series(self, N: int) -> series.Series:
        return series.Series(self.rates_up_to(N))


@dataclass(frozen=True)
class OffspringLaw(CenteredLaw):
    """Branching rates a_j and the generating function f(s)."""

    nu: float | None
    a0: float
    a1: float

    @property
    def gap_rate(self):
        """The rate -f(1 - r) of the extinction gap r = 1 - F, as a function of r."""
        return _power_sum(self.terms, negate=True)

    @property
    def fprime_from_gap(self):
        """f'(1 - r) as a function of r: the rate of log dF/ds."""
        # (c b) r^(b - 1) is the product c * b * r ** (b - 1.0), so the pairs are exact
        return _power_sum(tuple((c * b, b - 1.0) for c, b in self.terms), negate=True)

    def slowly_varying(self) -> karamata.SlowlyVarying:
        """The factor L with f(s) = (1-s)^(1+nu) L(1/(1-s)).

        Exact for the stable families; finite laws get the constant limit
        f''(1)/2 (their true factor approaches it at rate 1/x).
        """
        if self.kind == "canonical-stable":
            return karamata.constant(self.terms[0][0])
        if self.kind == "perturbed-stable":
            (c, b1), (c2, b2) = self.terms
            return karamata.power_corrected(c, c2 / c, b2 - b1)
        if self.nu is None:
            raise ValueError("no slowly varying factor for a non-critical law")
        # f''(1)/2: only the quadratic centered term survives at s = 1
        half_second = sum(c for c, b in self.terms if abs(b - 2.0) <= 1e-12)
        return karamata.constant(half_second)


@dataclass(frozen=True)
class ImmigrationLaw(CenteredLaw):
    """Immigration rates b_k and the generating function h(s) <= 0 on [0,1)."""

    delta: float
    c: float
    kappa: float = 0.0

    @property
    def b0(self) -> float:
        return sum(c for c, _ in self.terms)

    def slowly_varying(self) -> karamata.SlowlyVarying:
        """The factor l with h(s) = -(1-s)^delta l(1/(1-s)).

        Finite laws (delta = 1) get the constant h'(1), their mean arrival rate.
        """
        if self.kind == "canonical-stable":
            return karamata.constant(self.c)
        if self.kind == "perturbed-stable":
            return karamata.power_corrected(self.c, self.kappa / self.c, self.delta)
        # h'(1): only the linear centered term survives at s = 1
        return karamata.constant(sum(-c for c, b in self.terms if abs(b - 1.0) <= 1e-12))


@dataclass(frozen=True)
class RegimeParams:
    """Tail indices nu and delta with gamma = delta - nu and mu = 2 delta - nu.

    The sign of gamma sets the regime: positive recurrent above zero, the
    q-process at zero, transient below.
    """

    nu: float
    delta: float
    gamma: float
    mu: float


def _scan_nonnegative(rates: np.ndarray, first_index: int, what: str) -> None:
    bad = np.nonzero(rates[first_index:] < _CLAMP)[0]
    if bad.size:
        k = int(bad[0]) + first_index
        raise ValueError(f"{what} coefficient at index {k} is negative: {rates[k]!r}")


def make_stable_offspring(nu: float, a0: float) -> OffspringLaw:
    """Canonical critical family f(s) = a0 (1-s)^(1+nu)."""
    _check(nu=nu, a0=a0)
    return OffspringLaw(
        kind="canonical-stable",
        terms=((float(a0), 1.0 + nu),),
        nu=float(nu),
        a0=float(a0),
        a1=-float(a0) * (1.0 + nu),
    )


def make_perturbed_offspring(nu: float, a0: float, rho: float, p: float) -> OffspringLaw:
    """Stable family with a power-corrected factor: f = a0(1-s)^(1+nu)(1 + rho (1-s)^p).

    Coefficient nonnegativity is scanned up to the standard horizon; p <= 1 - nu
    keeps the second term's series nonnegative on its own.
    """
    _check(nu=nu, a0=a0, rho=rho, p=p)
    terms = ((float(a0), 1.0 + nu), (float(a0) * rho, 1.0 + nu + p))
    rates = _terms_rates(terms, _SCAN_HORIZON)
    _scan_nonnegative(rates, 2, "offspring")
    a1 = -(a0 * (1.0 + nu) + a0 * rho * (1.0 + nu + p))
    return OffspringLaw(kind="perturbed-stable", terms=terms, nu=float(nu), a0=float(a0), a1=a1)


def make_finite_offspring(rates) -> OffspringLaw:
    """Offspring law from an explicit finite rate vector [a_0, a_1, a_2, ...]."""
    domain = "need finite rates with a_0 > 0 and a_1 < 0"
    try:
        a = np.asarray(rates, dtype=float)
    except OverflowError:  # an integer rate past the float range
        raise ValueError(domain) from None
    if a.size < 2 or not np.isfinite(a).all() or a[0] <= 0.0 or a[1] >= 0.0:
        raise ValueError(domain)
    if np.any(np.delete(a, 1) < 0.0):
        raise ValueError("rates a_j must be nonnegative for j != 1")
    if abs(a.sum()) > 1e-12 * np.abs(a).sum():
        raise ValueError("rates must balance: sum_j a_j = 0")
    critical = abs(a @ np.arange(a.size)) <= 1e-12 * np.abs(a).sum()
    return OffspringLaw(
        kind="finite",
        terms=_finite_terms(a),
        nu=1.0 if critical else None,
        a0=float(a[0]),
        a1=float(a[1]),
    )


def make_stable_immigration(delta: float, c: float, kappa: float = 0.0) -> ImmigrationLaw:
    """Stable immigration h(s) = -c(1-s)^delta - kappa(1-s)^(2 delta).

    A positive kappa is accepted only if every series coefficient b_k stays
    nonnegative over the scan horizon (values above -1e-14 clamp to zero).
    """
    _check(delta=delta, c=c, kappa=kappa)
    if kappa == 0.0:
        terms = ((-float(c), float(delta)),)
        kind = "canonical-stable"
    else:
        terms = ((-float(c), float(delta)), (-float(kappa), 2.0 * float(delta)))
        kind = "perturbed-stable"
    rates = _terms_rates(terms, _SCAN_HORIZON)
    _scan_nonnegative(rates, 1, "immigration")
    return ImmigrationLaw(kind=kind, terms=terms, delta=float(delta), c=float(c), kappa=float(kappa))


def make_finite_immigration(rates) -> ImmigrationLaw:
    """Immigration law from an explicit finite rate vector [b_0, b_1, ...]."""
    domain = "need finite rates with b_0 < 0 and b_k >= 0 for k >= 1"
    try:
        b = np.asarray(rates, dtype=float)
    except OverflowError:  # an integer rate past the float range
        raise ValueError(domain) from None
    if b.size < 2 or not np.isfinite(b).all() or b[0] >= 0.0 or np.any(b[1:] < 0.0):
        raise ValueError(domain)
    if abs(b.sum()) > 1e-12 * np.abs(b).sum():
        raise ValueError("rates must balance: b_0 = -sum_k b_k")
    return ImmigrationLaw(kind="finite", terms=_finite_terms(b), delta=1.0, c=float(-b[0]), kappa=0.0)


def classify(f_law: OffspringLaw, h_law: ImmigrationLaw) -> RegimeParams:
    """Regime parameters from the two tail indices; a pure function."""
    if f_law.nu is None:
        raise ValueError("offspring law is not critical; no regime classification")
    nu, delta = f_law.nu, h_law.delta
    return RegimeParams(nu=nu, delta=delta, gamma=delta - nu, mu=2.0 * delta - nu)


# ---------------------------------------------------------------------------
# Schema: {key: (required, spec)} where spec is a _Leaf, a nested schema dict,
# a _ByKind, or a list [element spec] or [element spec, max length].  The law
# fragments and every leaf a library entry point checks are declared here, and
# ``cli._SCHEMAS`` builds on them.


class _Leaf:
    """A string among choices, or a finite number of the given types within [lo, hi] ((lo, hi] when open_lo)."""

    def __init__(self, types, lo=-math.inf, hi=math.inf, *, open_lo=False, choices=()):
        self.types, self.lo, self.hi, self.open_lo, self.choices = types, lo, hi, open_lo, choices

    def domain(self) -> str:
        if self.choices:
            return "one of " + ", ".join(self.choices)
        left = "(" if self.open_lo or self.lo == -math.inf else "["
        return f"{left}{self.lo}, {self.hi}{')' if self.hi == math.inf else ']'}"

    def takes(self, value) -> bool:
        """The type rule of configs and library calls alike: an int leaf takes
        integral numbers (numpy integers too), a number leaf real ones, and
        neither takes a bool."""
        if self.types is str:
            return isinstance(value, str)
        return not isinstance(value, bool) and isinstance(value, Integral if self.types is int else Real)

    def admits(self, value) -> bool:
        if self.types is str:
            return not self.choices or value in self.choices
        # abs(), not math.isfinite, which raises OverflowError on an int past the float range
        return abs(value) <= sys.float_info.max and (self.lo < value if self.open_lo else self.lo <= value) and value <= self.hi


def _kind(leaf: _Leaf) -> str:
    return {str: "a string", int: "an integer"}.get(leaf.types, "a number")


class _ByKind(dict):
    """Object schemas keyed by the value of the object's ``kind``."""


def _show(value) -> str:
    if isinstance(value, float):
        return json.dumps(value)  # NaN and Infinity as a config spells them
    if isinstance(value, int) and not abs(value) <= sys.float_info.max:
        return "an integer that overflows a float"
    if isinstance(value, str) and len(value) > 40:  # an integer literal kept as text may run to any length
        return f"{value[:20]!r}... ({len(value)} characters)"
    return repr(value) if value is None or isinstance(value, (int, str)) else f"a {type(value).__name__}"


def _validate(obj, spec, path="$"):
    """Check ``obj`` against ``spec``; a violation raises ValueError ending in its path."""
    if isinstance(spec, _ByKind) and isinstance(obj, dict):
        kind = obj.get("kind")
        if not (isinstance(kind, str) and kind in spec):
            raise ValueError(f"kind must be one of {', '.join(spec)}, got {_show(kind)} at {path}.kind")
        spec = spec[kind]
    if isinstance(spec, dict):
        if not isinstance(obj, dict):
            raise ValueError(f"expected an object at {path}")
        for key in obj:
            if key not in spec:
                raise ValueError(f"unknown key at {path}.{key}")
        for key, (required, sub) in spec.items():
            if key not in obj:
                if required:
                    raise ValueError(f"missing required key at {path}.{key}")
                continue
            _validate(obj[key], sub, f"{path}.{key}")
    elif isinstance(spec, list):
        if not isinstance(obj, list):
            raise ValueError(f"expected an array at {path}")
        if len(spec) > 1 and len(obj) > spec[1]:
            raise ValueError(f"at most {spec[1]} entries, got {len(obj)} at {path}")
        for i, item in enumerate(obj):
            _validate(item, spec[0], f"{path}[{i}]")
    elif not spec.takes(obj):
        raise ValueError(f"expected {_kind(spec)}, got {_show(obj)} at {path}")
    elif not spec.admits(obj):
        raise ValueError(f"value must be {'' if spec.choices else 'in '}{spec.domain()}, got {_show(obj)} at {path}")


_NUM, _NONNEG, _POSITIVE = _Leaf((int, float)), _Leaf((int, float), 0), _Leaf((int, float), 0, open_lo=True)
_COUNT = _Leaf(int, 0)
# input bounds: simulate allocates a replicas x grid state array up front, and
# series solves run O(order^2) coefficient recurrences
MAX_REPLICAS = 10**6
MAX_GRID = 100
_MAX_ORDER = 1024
_CDF_BOUND = 10_000_000  # entries in a jump sampler's table
# Each parameter's domain, stated once: the config walk, the builders and the
# library entry points read it.
_PARAMS = {
    "nu": _Leaf((int, float), 0, 1, open_lo=True), "a0": _POSITIVE, "rho": _NONNEG, "p": _POSITIVE,
    "delta": _Leaf((int, float), 0, 1, open_lo=True), "c": _POSITIVE, "kappa": _NONNEG, "rates": [_NUM],
    "t": _NONNEG, "s": _Leaf((int, float), 0, 1), "tol": _POSITIVE, "order": _Leaf(int, 0, _MAX_ORDER),
    "i": _COUNT, "start": _COUNT, "seed": _COUNT, "replicas": _Leaf(int, 1, MAX_REPLICAS), "grid": [_NONNEG, MAX_GRID],
    # a uniform past the sampler table jumps by the bound; only a cap within the
    # bound turns that jump into a capped path
    "cap": _Leaf(int, 1, _CDF_BOUND), "n_max": _Leaf(int, 1),
}


def _check(leaves=_PARAMS, /, **args) -> None:
    """Library arguments against their leaves, looked up by name in ``leaves``.

    Types follow the config walk's rule (``_Leaf.takes``), and a tuple passes
    for an array.  A list leaf bounds the length and checks every entry.
    """
    for name, value in args.items():
        leaf, values = leaves[name], (value,)
        if isinstance(leaf, list):
            if len(leaf) > 1 and len(value) > leaf[1]:
                raise ValueError(f"{name} must have at most {leaf[1]} entries, got {len(value)}")
            leaf, values = leaf[0], value
        for v in values:
            if not leaf.takes(v):
                raise ValueError(f"{name} must be {_kind(leaf)} in {leaf.domain()}, got {v!r}")
            if not leaf.admits(v):
                raise ValueError(f"{name} must be in {leaf.domain()}, got {v!r}")


def _keys(*names: str) -> dict:
    return {name: _PARAMS[name] for name in names}


# Config dispatch: kind -> (builder, {key: spec} in argument order).
_OFFSPRING_KINDS = {
    "canonical": (make_stable_offspring, _keys("nu", "a0")),
    "perturbed": (make_perturbed_offspring, _keys("nu", "a0", "rho", "p")),
    "finite": (make_finite_offspring, _keys("rates")),
}
_IMMIGRATION_KINDS = {
    "canonical": (make_stable_immigration, _keys("delta", "c")),
    "perturbed": (make_stable_immigration, _keys("delta", "c", "kappa")),
    "finite": (make_finite_immigration, _keys("rates")),
}


def _law_schema(kinds: dict) -> _ByKind:
    return _ByKind((kind, {"kind": (True, _Leaf(str)), **{key: (True, spec) for key, spec in keys.items()}})
                   for kind, (_, keys) in kinds.items())


_LAWS = {"offspring": (True, _law_schema(_OFFSPRING_KINDS)), "immigration": (False, _law_schema(_IMMIGRATION_KINDS))}


def _from_config(cfg, kinds: dict, what: str):
    """Walk the fragment at ``$.<what>``, then build; any ValueError names its path."""
    path = f"$.{what}"
    _validate(cfg, _LAWS[what][1], path)
    build, keys = kinds[cfg["kind"]]
    try:
        return build(*(cfg[key] for key in keys))
    except ValueError as exc:
        raise ValueError(f"{exc} at {path}") from None


def offspring_from_config(cfg: dict) -> OffspringLaw:
    """Offspring law from its JSON fragment ``{"kind": ..., ...}``."""
    return _from_config(cfg, _OFFSPRING_KINDS, "offspring")


def immigration_from_config(cfg: dict) -> ImmigrationLaw:
    """Immigration law from its JSON fragment ``{"kind": ..., ...}``."""
    return _from_config(cfg, _IMMIGRATION_KINDS, "immigration")
