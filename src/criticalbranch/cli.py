"""Experiment orchestration: config ingestion, CSV emission, verification.

Subcommands: ``simulate``, ``solve``, ``invariant``, ``verify``,
``figure-data``, ``report``.  Configs are single JSON files validated against
a closed schema (unknown keys are rejected with their path).  Every output
CSV starts with ``#`` comment lines carrying the config hash and seed, and a
JSON provenance sidecar records the effective config, library versions, wall
time and, for ``simulate``, a ``diagnostics`` block of engine counters.
Floating-point cells print with 17 significant digits so a fixed
(config, seed, platform) triple reproduces files byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, asymptotics, karamata, montecarlo
from .kolmogorov import _MAX_ORDER, StepUnderflowError, immigration_gf, solve_gf
from .laws import classify, immigration_from_config, offspring_from_config

__all__ = ["main", "SchemaError", "figure_rows", "report_rows", "FIGURE_PRESETS"]

FIGURE_PRESETS = ((0.2, 0.9), (0.9, 0.2))
_FIGURE_NORMALIZERS = ("half-log", "log-power")
ENV_THREADS = "CRITICALBRANCH_THREADS"
# input bounds: simulate allocates a replicas x grid state array up front, and
# figure-data builds its whole t grid in memory
MAX_REPLICAS = 10**6
MAX_GRID = 100
MAX_FIGURE_ROWS = 10**5


class SchemaError(ValueError):
    """Config violates the schema; the message carries the JSON path."""


# ---------------------------------------------------------------------------
# Schema validation: {key: (required, spec)} where spec is a type, a tuple of
# types, a nested schema dict, or a list [element spec].

_LAW_OFFSPRING = {
    "kind": (True, str),
    "nu": (False, (int, float)),
    "a0": (False, (int, float)),
    "rho": (False, (int, float)),
    "p": (False, (int, float)),
    "rates": (False, [(int, float)]),
}
_LAW_IMMIGRATION = {
    "kind": (True, str),
    "delta": (False, (int, float)),
    "c": (False, (int, float)),
    "kappa": (False, (int, float)),
    "rates": (False, [(int, float)]),
}

_SCHEMAS = {
    "simulate": {
        "offspring": (True, _LAW_OFFSPRING),
        "immigration": (False, _LAW_IMMIGRATION),
        "grid": (True, [(int, float)]),
        "replicas": (True, int),
        "cap": (False, int),
        "start": (False, int),
        "seed": (False, int),
        "estimators": (True, [{"kind": (True, str), "t": (True, (int, float)), "j": (False, int)}]),
    },
    "solve": {
        "offspring": (True, _LAW_OFFSPRING),
        "immigration": (False, _LAW_IMMIGRATION),
        "t": (True, [(int, float)]),
        "s": (True, [(int, float)]),
        "tol": (False, (int, float)),
    },
    "invariant": {
        "offspring": (True, _LAW_OFFSPRING),
        "immigration": (False, _LAW_IMMIGRATION),
        "measures": (True, [str]),
        "order": (True, int),
    },
    "figure-data": {
        "nu": (True, (int, float)),
        "a0": (True, (int, float)),
        "normalizer": (False, str),
        "t_start": (False, (int, float)),
        "t_stop": (False, (int, float)),
        "t_step": (False, (int, float)),
    },
    "verify": {"checks": (False, [str])},
    "report": {},
}


def _validate(obj, schema, path="$"):
    if isinstance(schema, dict):
        if not isinstance(obj, dict):
            raise SchemaError(f"expected an object at {path}")
        for key in obj:
            if key not in schema:
                raise SchemaError(f"unknown key at {path}.{key}")
        for key, (required, spec) in schema.items():
            if key not in obj:
                if required:
                    raise SchemaError(f"missing required key at {path}.{key}")
                continue
            _validate(obj[key], spec, f"{path}.{key}")
    elif isinstance(schema, list):
        if not isinstance(obj, list):
            raise SchemaError(f"expected an array at {path}")
        for i, item in enumerate(obj):
            _validate(item, schema[0], f"{path}[{i}]")
    else:
        if isinstance(obj, bool) or not isinstance(obj, schema):
            raise SchemaError(f"wrong type at {path}: expected {schema}")


# ---------------------------------------------------------------------------
# Output plumbing.


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_csv(path: Path, command: str, cfg_hash: str, seed, columns, rows) -> None:
    lines = [
        f"# criticalbranch {command}",
        f"# config_hash={cfg_hash} seed={seed}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_provenance(
    path: Path, command: str, cfg: dict, cfg_hash: str, seed, wall: float, diagnostics: dict | None = None
) -> None:
    payload = {
        "command": command,
        "config_hash": cfg_hash,
        "seed": seed,
        "effective_config": cfg,
        "versions": {
            "criticalbranch": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "wall_time_s": wall,
    }
    if diagnostics is not None:
        payload["diagnostics"] = diagnostics
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Figure data and the summary table.


def figure_rows(nu: float, a0: float, normalizer: str, t_grid=None):
    """Rows (t, q, p1) of the survival and local-probability expansions.

    These are exactly the plotted expressions; the default grid runs from 5
    to 100 in steps of one half.
    """
    if normalizer == "half-log":
        n_fn = karamata.Normalizer.half_log()
    elif normalizer == "log-power":
        n_fn = karamata.Normalizer.log_power(nu)
    else:
        raise ValueError(f"unknown normalizer preset {normalizer!r}")
    if t_grid is None:
        t_grid = [5.0 + 0.5 * k for k in range(191)]
    rows = []
    for t in t_grid:
        x = a0 * nu * t
        if t > 0.0 and not 0.0 < x < math.inf:
            raise ValueError(f"a0 nu t = {x} at t={t} leaves the float range at $.a0")
        try:
            q = asymptotics.survival_expansion(nu, a0, n_fn, t)
        except ArithmeticError:  # (nu t)^(1/nu) left the float range
            q = math.nan
        p1 = q * (1.0 + math.log(x) / (nu**2 * t)) / x
        if not (math.isfinite(q) and math.isfinite(p1)):
            key = "$.a0" if math.isfinite(q) else "$.nu"
            raise ValueError(f"expansion not finite at t={t} (q={q}, p1={p1}), out of range at {key}")
        rows.append((t, q, p1))
    return rows


def report_rows():
    """The six summary rows: expansion formulas plus spot evaluations.

    Spot values use nu=0.5, a0=1, delta=0.4, c=0.1 at t=100, s=0.5.
    """
    nu, a0, delta = 0.5, 1.0, 0.4
    t, s = 100.0, 0.5
    g = nu - delta
    lam = a0 * (1.0 - s) ** nu
    q = (1.0 + a0 * nu * t) ** (-1.0 / nu)
    r = ((1.0 - s) ** (-nu) + a0 * nu * t) ** (-1.0 / nu)
    p1 = q / (a0 * nu * t) * (1.0 + math.log(a0 * nu * t) / (nu**2 * t))
    rows = [
        (
            "R(t;s)",
            "R(t;s) ~ N(t)/(nu*t)^(1/nu) * (1 + ln(Lambda(1-s)*nu*t)/(nu^3*t))",
            r * (1.0 + math.log(lam * nu * t) / (nu**3 * t)),
        ),
        ("q(t)", "q(t) ~ N(t)/(nu*t)^(1/nu) * (1 + ln(a0*nu*t)/(nu^3*t))", q * (1.0 + math.log(a0 * nu * t) / (nu**3 * t))),
        ("p1(t)", "p1(t) ~ q(t)/(a0*nu*t) * (1 + ln(a0*nu*t)/(nu^2*t))", p1),
        ("ln U(s)", "ln U(s) = (1-s)^(-|gamma|) + int_{1/(1-s)}^inf (|gamma|-L(u)) u^(|gamma|-1) du", (1.0 - s) ** (-g)),
        ("ln pi(s)", "ln pi(s) = (1-s)^(-|gamma|) * L_v(1/(1-s))", (1.0 - s) ** (-g) - 1.0),
        ("M(s)", "M(s) = (1/nu)(1/Lambda(1-s) - 1/a0)", ((1.0 - s) ** (-nu) / a0 - 1.0 / a0) / nu),
    ]
    return rows


# ---------------------------------------------------------------------------
# Subcommand handlers.


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise SchemaError(f"non-finite number {text} in config")
    return value


def _float_safe_int(text: str) -> int:
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise SchemaError(f"integer literal of {len(text)} digits in config overflows a float") from None
    return value


def _load_config(args, command) -> dict:
    if args.config is None:
        if command in ("verify", "report"):
            return {}
        if command == "figure-data":
            return {}
        raise SchemaError(f"{command} requires --config")
    try:
        cfg = json.loads(
            Path(args.config).read_text(),
            parse_constant=_finite_float,
            parse_float=_finite_float,
            parse_int=_float_safe_int,
        )
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from None
    _validate(cfg, _SCHEMAS[command])
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _load_config(args, "simulate")
    if cfg["replicas"] > MAX_REPLICAS:
        raise SchemaError(f"replicas must not exceed {MAX_REPLICAS} at $.replicas, got {cfg['replicas']}")
    if len(cfg["grid"]) > MAX_GRID:
        raise SchemaError(f"grid must have at most {MAX_GRID} points at $.grid, got {len(cfg['grid'])}")
    started = time.perf_counter()
    offspring = offspring_from_config(cfg["offspring"])
    immigration = immigration_from_config(cfg["immigration"]) if "immigration" in cfg else None
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    sim_cfg = montecarlo.SimConfig(
        offspring=offspring,
        immigration=immigration,
        grid=tuple(cfg["grid"]),
        replicas=cfg["replicas"],
        seed=seed,
        start=cfg.get("start"),
        cap=cfg.get("cap", 10**6),
    )
    for i, spec in enumerate(cfg["estimators"]):
        if not 0 <= spec.get("j", 0) <= sim_cfg.cap:
            raise SchemaError(f"j must lie in [0, cap={sim_cfg.cap}] at $.estimators[{i}].j, got {spec['j']}")
    obs = montecarlo.simulate(sim_cfg, threads=args.threads)
    rows = []
    for spec in cfg["estimators"]:
        est = montecarlo.estimate(sim_cfg, spec["kind"], spec["t"], spec.get("j"), obs=obs)
        rows.append((spec["kind"], spec.get("j", ""), spec["t"], est.value, est.se, est.replicas, est.capped))
    effective = dict(cfg, seed=seed, cap=sim_cfg.cap, start=sim_cfg.start)
    h = _config_hash(effective)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "simulate.csv", "simulate", h, seed,
               ("estimator", "j", "t", "value", "stderr", "replicas", "capped"), rows)
    diagnostics = {
        "events": obs.events,
        "straggler_events": obs.straggler_events,
        "capped_paths": int(obs.capped.sum()),
        "table_size": obs.table_size,
    }
    _write_provenance(out / "simulate.provenance.json", "simulate", effective, h, seed,
                      time.perf_counter() - started, diagnostics)
    return 0


def _cmd_solve(args) -> int:
    cfg = _load_config(args, "solve")
    started = time.perf_counter()
    offspring = offspring_from_config(cfg["offspring"])
    immigration = immigration_from_config(cfg["immigration"]) if "immigration" in cfg else None
    tol = cfg.get("tol", 1e-10)
    if not tol > 0.0:
        raise SchemaError(f"tol must be positive at $.tol, got {tol}")
    rows = []
    for t in cfg["t"]:
        for s in cfg["s"]:
            if immigration is None:
                sol = solve_gf(offspring, float(t), float(s), tol)
                rows.append((t, s, sol.F, sol.R, "", ""))
            else:
                sol = immigration_gf(offspring, immigration, 0, float(t), float(s), tol)
                rows.append((t, s, sol.F, sol.R, sol.G, sol.P))
    h = _config_hash(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "solve.csv", "solve", h, args.seed, ("t", "s", "F", "R", "G", "P0"), rows)
    _write_provenance(out / "solve.provenance.json", "solve", cfg, h, args.seed,
                      time.perf_counter() - started)
    return 0


def _cmd_invariant(args) -> int:
    cfg = _load_config(args, "invariant")
    started = time.perf_counter()
    offspring = offspring_from_config(cfg["offspring"])
    immigration = immigration_from_config(cfg["immigration"]) if "immigration" in cfg else None
    N = cfg["order"]
    if not 0 <= N <= _MAX_ORDER:
        raise SchemaError(f"order must lie in [0, {_MAX_ORDER}] at $.order, got {N}")
    rows = []
    for tag in cfg["measures"]:
        if tag == "M":
            measure = asymptotics.invariant_series(offspring, N)
        elif tag == "V":
            measure = asymptotics.relative_measure_series(offspring, N)
        elif tag == "pi":
            if immigration is None:
                raise SchemaError("measure pi requires an immigration law")
            measure = asymptotics.ratio_limit_series(offspring, immigration, N)
        elif tag == "U":
            if immigration is None:
                raise SchemaError("measure U requires an immigration law")
            regime = classify(offspring, immigration)
            ratio = karamata.ratio_of(offspring.slowly_varying(), immigration.slowly_varying())
            measure = asymptotics.limit_gf_series(offspring, immigration, regime, ratio, N)
        else:
            raise SchemaError(f"unknown measure tag {tag!r}")
        rows.extend((tag, j, c) for j, c in enumerate(measure.coeffs))
    h = _config_hash(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "invariant.csv", "invariant", h, args.seed, ("measure", "j", "coefficient"), rows)
    _write_provenance(out / "invariant.provenance.json", "invariant", cfg, h, args.seed,
                      time.perf_counter() - started)
    return 0


def _cmd_figure_data(args) -> int:
    cfg = _load_config(args, "figure-data")
    started = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg:
        if not 0.0 < cfg["nu"] <= 1.0:
            raise SchemaError(f"nu must lie in (0, 1] at $.nu, got {cfg['nu']}")
        if not cfg["a0"] > 0.0:
            raise SchemaError(f"a0 must be positive at $.a0, got {cfg['a0']}")
        t_grid = None
        if "t_start" in cfg or "t_stop" in cfg or "t_step" in cfg:
            t0, t1 = cfg.get("t_start", 5.0), cfg.get("t_stop", 100.0)
            dt = cfg.get("t_step", 0.5)
            if not dt > 0.0:
                raise SchemaError(f"t_step must be positive at $.t_step, got {dt}")
            if t1 < t0:
                raise SchemaError(f"t_stop must not precede t_start at $.t_stop, got {t1} < {t0}")
            n = (t1 - t0) / dt
            if not n < MAX_FIGURE_ROWS:
                raise SchemaError(f"(t_stop - t_start)/t_step must stay below {MAX_FIGURE_ROWS} at $.t_step")
            t_grid = [t0 + dt * k for k in range(int(round(n)) + 1)]
        jobs = [(cfg["nu"], cfg["a0"], cfg.get("normalizer", "half-log"), t_grid)]
    else:
        jobs = [(nu, a0, nf, None) for nu, a0 in FIGURE_PRESETS for nf in _FIGURE_NORMALIZERS]
    for nu, a0, nf, t_grid in jobs:
        rows = figure_rows(nu, a0, nf, t_grid)
        effective = {"nu": nu, "a0": a0, "normalizer": nf}
        h = _config_hash(effective)
        name = f"figure_nu{nu}_a0{a0}_{nf}"
        _write_csv(out / f"{name}.csv", "figure-data", h, args.seed, ("t", "q", "p1"), rows)
        _write_provenance(out / f"{name}.provenance.json", "figure-data", effective, h, args.seed,
                          time.perf_counter() - started)
    return 0


def _cmd_report(args) -> int:
    started = time.perf_counter()
    rows = report_rows()
    for name, formula, spot in rows:
        print(f"{name:10s} {formula}")
        print(f"{'':10s} spot value at (nu=0.5, a0=1, delta=0.4, c=0.1, t=100, s=0.5): {_fmt(spot)}")
    cfg = {"command": "report"}
    h = _config_hash(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "report.csv", "report", h, args.seed, ("quantity", "expression", "spot_value"),
               [(n, f'"{f}"', v) for n, f, v in rows])
    _write_provenance(out / "report.provenance.json", "report", cfg, h, args.seed,
                      time.perf_counter() - started)
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance

    cfg = _load_config(args, "verify")
    wanted = args.checks.split(",") if args.checks else cfg.get("checks")
    results = acceptance.run(wanted, threads=args.threads)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.ident} {status} [{res.seconds:7.2f}s] {res.description}: {res.detail}")
        failed += not res.passed
    print(f"{len(results) - failed}/{len(results)} acceptance checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="criticalbranch",
        description="critical branching systems: solvers, invariant measures, simulation, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "exact-event Monte Carlo with estimators"),
        ("solve", "transition GF values on a (t, s) grid"),
        ("invariant", "invariant measure coefficients"),
        ("verify", "run the acceptance suite"),
        ("figure-data", "survival and local-probability expansion curves"),
        ("report", "summary table of the key expansions"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=str, default=None, help="path to a JSON config")
        p.add_argument("--out", type=str, default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--threads", type=int, default=None, help="worker count (0 = auto)")
        if name == "verify":
            p.add_argument("--checks", type=str, default=None, help="comma-separated check ids")
    args = parser.parse_args(argv)
    if args.threads is None:
        args.threads = int(os.environ.get(ENV_THREADS, "1"))

    handlers = {
        "simulate": _cmd_simulate,
        "solve": _cmd_solve,
        "invariant": _cmd_invariant,
        "verify": _cmd_verify,
        "figure-data": _cmd_figure_data,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, montecarlo.InsufficientEventsError, StepUnderflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
