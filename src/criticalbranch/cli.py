"""Experiment orchestration: config ingestion, CSV emission, verification.

Subcommands: ``simulate``, ``solve``, ``invariant``, ``verify``,
``figure-data``, ``report``.  Configs are single JSON files checked against
one closed schema of keys, ranges and choices before any work.  Every output
CSV starts with ``#`` comment lines carrying the config hash and seed, and a
JSON provenance sidecar records the effective config, library versions, wall
time and, for ``simulate`` and ``solve``, a ``diagnostics`` block of engine
or solver counters.  Floating-point cells print with 17 significant digits so
a fixed (config, seed, platform) triple reproduces files byte for byte.  An
existing output file is unlinked and created anew, never truncated in place.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, acceptance, asymptotics, karamata, kolmogorov, montecarlo
from .laws import (_COUNT, _LAWS, _NUM, _PARAMS, _POSITIVE, _Leaf, _validate, classify, immigration_from_config,
                   offspring_from_config)

__all__ = ["main"]

MAX_FIGURE_ROWS = 10**5  # figure-data builds its whole t grid in memory


# ---------------------------------------------------------------------------
# Schema: the walk, the law fragments and the leaves the library checks too
# live in ``laws``.  This table alone says what a valid config is; the
# cross-field rules that it cannot state sit at the top of each handler, ahead
# of any work.

_SCHEMAS = {
    "simulate": {
        **_LAWS,
        "grid": (True, _PARAMS["grid"]),
        "replicas": (True, _PARAMS["replicas"]),
        "cap": (False, _PARAMS["cap"]),
        "start": (False, _PARAMS["start"]),
        "seed": (False, _PARAMS["seed"]),
        "estimators": (True, [{
            "kind": (True, _Leaf(str, choices=("survival", "p", "mean", "ratio"))),
            "t": (True, _PARAMS["t"]),
            "j": (False, _COUNT),
        }]),
    },
    "solve": {
        **_LAWS,
        "t": (True, [_PARAMS["t"]]),
        "s": (True, [_PARAMS["s"]]),
        "tol": (False, _PARAMS["tol"]),
    },
    "invariant": {
        **_LAWS,
        "measures": (True, [_Leaf(str, choices=("M", "V", "pi", "U"))]),
        "order": (True, _PARAMS["order"]),
    },
    "figure-data": {
        "nu": (True, _PARAMS["nu"]),
        "a0": (True, _PARAMS["a0"]),
        "normalizer": (False, _Leaf(str, choices=tuple(asymptotics.FIGURE_NORMALIZERS))),
        "t_start": (False, _POSITIVE),
        "t_stop": (False, _NUM),
        "t_step": (False, _POSITIVE),
    },
    "verify": {"checks": (False, [_Leaf(str)])},
    "report": {},
}


# ---------------------------------------------------------------------------
# Output plumbing.


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _replace(path: Path, text: str) -> None:
    """Write ``text`` to a new file at ``path``.

    Unlinking first replaces a symlink rather than its target, and is much
    cheaper than truncating a file just written: on ext4, truncating to zero
    waits for the old contents to be written back.
    """
    path.unlink(missing_ok=True)
    path.write_text(text)


def _write_outputs(args, name: str, command: str, cfg: dict, seed, columns, rows, started: float,
                   diagnostics: dict | None = None) -> None:
    """``name``.csv and its provenance sidecar in --out, both keyed by the hash of ``cfg``."""
    cfg_hash = _config_hash(cfg)
    lines = [f"# criticalbranch {command}", f"# config_hash={cfg_hash} seed={seed}", ",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    payload = {
        "command": command,
        "config_hash": cfg_hash,
        "seed": seed,
        "effective_config": cfg,
        "versions": {"criticalbranch": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
        "wall_time_s": time.perf_counter() - started,
    }
    if diagnostics is not None:
        payload["diagnostics"] = diagnostics
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _replace(out / f"{name}.csv", "\n".join(lines) + "\n")
        _replace(out / f"{name}.provenance.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {exc.filename or out}: {exc.strerror or exc} at --out") from None


# ---------------------------------------------------------------------------
# Subcommand handlers.


def _int_or_text(text: str):
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return text


def _load_config(args, command) -> dict:
    if args.config is None:
        if command in ("verify", "report", "figure-data"):
            return {}
        raise ValueError(f"{command} requires --config")
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {args.config}: {exc.strerror or exc} at --config") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"config is not UTF-8 text ({exc.reason} at byte {exc.start}) at --config") from None
    try:
        # a float literal past the float range, or an integer literal past Python's
        # int-string digit limit, stays text, so its error names its path
        cfg = json.loads(text, parse_float=lambda literal: literal if math.isinf(float(literal)) else float(literal),
                         parse_int=_int_or_text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc} at --config") from None
    _validate(cfg, _SCHEMAS[command])
    return cfg


def _at(path: str, fn, *args):
    """fn(*args), with a ValueError's message naming the config path it concerns."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"{exc} at {path}") from None


def _laws(cfg: dict):
    """The offspring law and the immigration law (or None) of a validated config."""
    immigration = immigration_from_config(cfg["immigration"]) if "immigration" in cfg else None
    return offspring_from_config(cfg["offspring"]), immigration


def _cmd_simulate(args) -> int:
    cfg = _load_config(args, "simulate")
    cap = cfg.get("cap", montecarlo.DEFAULT_CAP)
    grid = [float(t) for t in cfg["grid"]]
    if grid != sorted(grid):
        raise ValueError("grid times must be sorted at $.grid")
    for i, spec in enumerate(cfg["estimators"]):
        if float(spec["t"]) not in grid:
            raise ValueError(f"t={spec['t']} is not a grid time at $.estimators[{i}].t")
        if spec.get("j", 0) > cap:
            raise ValueError(f"j must not exceed cap={cap} at $.estimators[{i}].j, got {spec['j']}")
        if "j" not in spec and spec["kind"] in ("p", "ratio"):
            raise ValueError(f"a {spec['kind']} estimator needs a level at $.estimators[{i}].j")
    started = time.perf_counter()
    offspring, immigration = _laws(cfg)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    # the schema and the checks above leave only SimConfig's cross-field rules to
    # fail here (start above cap, the event-rate bound); each message starts with
    # the name of the key it concerns
    try:
        sim_cfg = montecarlo.SimConfig(
            offspring=offspring,
            immigration=immigration,
            grid=tuple(cfg["grid"]),
            replicas=cfg["replicas"],
            seed=seed,
            start=cfg.get("start"),
            cap=cap,
        )
    except ValueError as exc:
        raise ValueError(f"{exc} at $.{str(exc).split()[0]}") from None
    obs = montecarlo.simulate(sim_cfg)
    rows = []
    for i, spec in enumerate(cfg["estimators"]):
        est = _at(f"$.estimators[{i}]", montecarlo.estimate, sim_cfg, spec["kind"], spec["t"], spec.get("j"), obs)
        rows.append((spec["kind"], spec.get("j", ""), spec["t"], est.value, est.se, est.replicas, est.capped))
    diagnostics = {"events": obs.events, "straggler_events": obs.straggler_events,
                   "capped_paths": int(obs.capped.sum()), "table_size": obs.table_size}
    _write_outputs(args, "simulate", "simulate", dict(cfg, seed=seed, cap=sim_cfg.cap, start=sim_cfg.start), seed,
                   ("estimator", "j", "t", "value", "stderr", "replicas", "capped"), rows, started, diagnostics)
    return 0


_SOLVE_COUNTERS = ("steps", "rejected", "gap_rejected", "rhs_evals")


def _cmd_solve(args) -> int:
    cfg = _load_config(args, "solve")
    started = time.perf_counter()
    offspring, immigration = _laws(cfg)
    tol = cfg.get("tol", kolmogorov.SCALAR_RTOL)
    ts = [float(t) for t in cfg["t"]]
    # one march per s through the t list; the points come out in row-major order, as solo solves would
    solver = "solve_gf" if immigration is None else "immigration_gf"
    marches = [kolmogorov._March(solver, offspring, ts, immigration, s=float(s), tol=tol) for s in cfg["s"]]
    rows = []
    totals = dict.fromkeys(_SOLVE_COUNTERS, 0)
    for i, t in enumerate(cfg["t"]):
        for k, s in enumerate(cfg["s"]):
            sol = _at(f"$.t[{i}] and $.s[{k}]", marches[k], ts[i])
            rows.append((t, s, sol.F, sol.R, "", "") if immigration is None else (t, s, sol.F, sol.R, sol.G, sol.P))
            for key in _SOLVE_COUNTERS:
                totals[key] += getattr(sol, key)
    _write_outputs(args, "solve", "solve", cfg, args.seed, ("t", "s", "F", "R", "G", "P0"), rows, started,
                   dict(totals, points=len(rows)))
    return 0


@np.errstate(over="ignore", invalid="ignore")  # Series rejects coefficients past the float range
def _measure(tag: str, offspring, immigration, N: int):
    if tag == "M":
        return asymptotics.invariant_series(offspring, N)
    if tag == "V":
        return asymptotics.relative_measure_series(offspring, N)
    if tag == "pi":
        return asymptotics.ratio_limit_series(offspring, immigration, N)
    regime = classify(offspring, immigration)
    ratio = karamata.ratio_of(offspring.slowly_varying(), immigration.slowly_varying())
    return asymptotics.limit_gf_series(offspring, immigration, regime, ratio, N)


def _cmd_invariant(args) -> int:
    cfg = _load_config(args, "invariant")
    for i, tag in enumerate(cfg["measures"]):
        if tag in ("pi", "U") and "immigration" not in cfg:
            raise ValueError(f"measure {tag} needs an immigration law at $.measures[{i}]")
    started = time.perf_counter()
    offspring, immigration = _laws(cfg)
    rows = []
    for i, tag in enumerate(cfg["measures"]):
        measure = _at(f"$.measures[{i}]", _measure, tag, offspring, immigration, cfg["order"])
        rows.extend((tag, j, c) for j, c in enumerate(measure.coeffs))
    _write_outputs(args, "invariant", "invariant", cfg, args.seed, ("measure", "j", "coefficient"), rows, started)
    return 0


def _cmd_figure_data(args) -> int:
    cfg = _load_config(args, "figure-data")
    started = time.perf_counter()
    if cfg:
        t_grid = None
        if "t_start" in cfg or "t_stop" in cfg or "t_step" in cfg:
            t0, t1, dt = cfg.get("t_start", 5.0), cfg.get("t_stop", 100.0), cfg.get("t_step", 0.5)
            if t1 < t0:
                raise ValueError(f"t_stop must not precede t_start at $.t_stop, got {t1} < {t0}")
            n = (t1 - t0) / dt
            if not n < MAX_FIGURE_ROWS:
                raise ValueError(f"(t_stop - t_start)/t_step must stay below {MAX_FIGURE_ROWS} at $.t_step")
            # whole steps up to t_stop; a step count a rounding error short of whole still reaches it
            t_grid = [min(t0 + dt * k, t1) for k in range(math.floor(n * (1.0 + 1e-9)) + 1)]
        jobs = [(cfg["nu"], cfg["a0"], cfg.get("normalizer", "half-log"), t_grid)]
    else:
        jobs = [(nu, a0, nf, None) for nu, a0 in asymptotics.FIGURE_PRESETS for nf in asymptotics.FIGURE_NORMALIZERS]
    for nu, a0, nf, t_grid in jobs:
        rows = asymptotics.figure_rows(nu, a0, nf, t_grid)
        _write_outputs(args, f"figure_nu{nu}_a0{a0}_{nf}", "figure-data", {"nu": nu, "a0": a0, "normalizer": nf},
                       args.seed, ("t", "q", "p1"), rows, started)
    return 0


def _cmd_report(args) -> int:
    started = time.perf_counter()
    rows = asymptotics.report_rows()
    _write_outputs(args, "report", "report", {"command": "report"}, args.seed, ("quantity", "expression", "spot_value"),
                   [(n, f'"{f}"', v) for n, f, v in rows], started)
    for name, formula, spot in rows:
        print(f"{name:10s} {formula}")
        print(f"{'':10s} spot value at (nu=0.5, a0=1, delta=0.4, c=0.1, t=100, s=0.5): {_fmt(spot)}")
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args, "verify")
    wanted = args.checks.split(",") if args.checks else cfg.get("checks")
    results = acceptance.run(wanted)
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
    commands = {
        "simulate": (_cmd_simulate, "exact-event Monte Carlo with estimators"),
        "solve": (_cmd_solve, "transition GF values on a (t, s) grid"),
        "invariant": (_cmd_invariant, "invariant measure coefficients"),
        "verify": (_cmd_verify, "run the acceptance suite"),
        "figure-data": (_cmd_figure_data, "survival and local-probability expansion curves"),
        "report": (_cmd_report, "summary table of the key expansions"),
    }
    for name, (_, helptext) in commands.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=str, default=None, help="path to a JSON config")
        p.add_argument("--out", type=str, default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--threads", type=int, default=None, help="accepted and ignored; runs are serial")
        if name == "verify":
            p.add_argument("--checks", type=str, default=None, help="comma-separated check ids")
    args = parser.parse_args(argv)
    try:
        if args.seed is not None:
            _validate(args.seed, _SCHEMAS["simulate"]["seed"][1], "--seed")
        return commands[args.command][0](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
