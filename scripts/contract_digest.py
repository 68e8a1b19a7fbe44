#!/usr/bin/env python3
"""Print a digest of the behaviour contract, to diff between two source trees.

For every command that writes CSVs (``solve``, ``invariant`` with M, V, pi
and U, ``simulate --seed 7`` on the twelve law pairs of ``docs/cli.md``,
``figure-data`` and ``report``) it prints the exit code, any error line, and
for each CSV its SHA-256 next to the config hash and a SHA-256 of the
effective config from the provenance sidecar, and the sidecar's
``diagnostics`` block (engine counters, no timings) where it has one.  One
more ``solve`` with fewer points writes into the output directory of the
first, so the digest covers replacing an existing file.  It then prints the
``verify`` lines with elapsed times masked, a SHA-256 sweep over the scalar
and series transition solves (F, R, G, P, the stepper counters, dF/ds, and
solves at tol = 0.5), and a SHA-256 sweep over ``montecarlo.simulate`` output
(states, capped flags, event counts and table size) for every law pair, a
13-chunk run, two few-lane tail runs, an immigration run at the default cap
that its stragglers dominate, and two more immigration runs whose straggler
blocks take several fixed-point passes.  Then comes a sweep over the
library's invariant measures at order 256 (M, V, pi, U and the invariance
residual of U or pi), which the CLI sweep covers only at order 32, on every
law pair and on one pair with a0 = 2, where V = a0 M differs from M.  Last
comes a SHA-256 of the uniformization oracle's full P(t) and leaked mass,
with its halvings and terms, at the configurations of ``verify``'s A3 and A6.

The output opens with ``# field: value`` lines naming the platform (Python,
numpy, scipy, their BLAS, the machine, numpy's SIMD targets and glibc), and
each section opens with a ``## name`` line.  ``contract_digest.txt`` next to
this script holds the output at the current tree; ``--check FILE`` recomputes
the digest (only the ``--sections`` named, if given), prints a unified diff
against FILE and exits 1 on any difference.  A change that moves an output
on purpose regenerates the file.

    PYTHONPATH=src python scripts/contract_digest.py > scripts/contract_digest.txt
    PYTHONPATH=src python scripts/contract_digest.py --check scripts/contract_digest.txt
    PYTHONPATH=src python scripts/contract_digest.py --check scripts/contract_digest.txt --sections commands

To compare two trees, run it once per tree and diff the outputs:

    PYTHONPATH=old/src python scripts/contract_digest.py > old.txt
    PYTHONPATH=new/src python scripts/contract_digest.py > new.txt
    diff old.txt new.txt
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import platform
import re
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from criticalbranch import cli, oracle

OFFSPRING = (
    {"kind": "canonical", "nu": 0.5, "a0": 1.0},
    {"kind": "perturbed", "nu": 0.5, "a0": 1.0, "rho": 0.3, "p": 0.5},
    {"kind": "finite", "rates": [1.0, -2.0, 1.0]},
)
IMMIGRATION = (
    None,
    {"kind": "canonical", "delta": 0.4, "c": 0.1},
    {"kind": "perturbed", "delta": 0.4, "c": 0.1, "kappa": 0.25},
    {"kind": "finite", "rates": [-1.0, 1.0]},
)
PAIRS = [(f, h) for f in OFFSPRING for h in IMMIGRATION]
# finite laws of three centered terms each, which the rates sum in a loop
THREE_TERM_PAIR = ({"kind": "finite", "rates": [1.0, -1.65, 0.4, 0.15, 0.1]},
                   {"kind": "finite", "rates": [-1.0, 0.5, 0.25, 0.25]})
# every pair above has a0 = 1, where V = a0 M and M hash the same; c = 0.2 keeps c / a0 = nu - delta, so U applies
SCALED_PAIR = ({"kind": "canonical", "nu": 0.5, "a0": 2.0}, {"kind": "canonical", "delta": 0.4, "c": 0.2})


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run(label: str, work: Path, argv: list, config: dict | None = None, into: str | None = None) -> str:
    """Run one command in a fresh directory (outputs into ``into``'s, if given); returns its stdout."""
    out = work / label
    out.mkdir()
    if config is not None:
        (out / "config.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(out / "config.json")]
    outputs = work / (into or label) / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + ["--out", str(outputs)])
    print(f"{label} exit={code} {stderr.getvalue().strip()}")
    for csv in sorted(outputs.glob("*.csv")) if code == 0 else ():
        sidecar = json.loads(csv.with_name(csv.stem + ".provenance.json").read_text())
        effective = json.dumps(sidecar["effective_config"], sort_keys=True).encode()
        print(f"  {csv.name} csv={sha(csv.read_bytes())} config_hash={sidecar['config_hash']} "
              f"effective={sha(effective)} seed={sidecar['seed']}")
        if "diagnostics" in sidecar:
            print(f"  diagnostics={json.dumps(sidecar['diagnostics'], sort_keys=True)}")
    return stdout.getvalue()


def with_laws(f, h, **rest) -> dict:
    return {"offspring": f, **({"immigration": h} if h else {}), **rest}


def commands(work: Path) -> None:
    for k, (f, h) in enumerate(PAIRS):
        run(f"solve[{k}]", work, ["solve"], with_laws(f, h, t=[0.5, 1.0, 10.0, 100.0], s=[0.0, 0.5, 0.9]))
        run(f"invariant[{k}]", work, ["invariant"],
            with_laws(f, h, measures=["M", "V", "pi"] if h else ["M", "V"], order=32))
        if h:
            run(f"invariant-U[{k}]", work, ["invariant"], with_laws(f, h, measures=["U"], order=32))
        estimators = [{"kind": "survival", "t": 5.0}, {"kind": "mean", "t": 5.0}, {"kind": "p", "t": 1.0, "j": 1}]
        run(f"simulate[{k}]", work, ["simulate", "--seed", "7"],
            with_laws(f, h, grid=[0.0, 1.0, 5.0], replicas=2000, cap=1000, estimators=estimators))
    f, h = PAIRS[1]
    run("solve[1]-again", work, ["solve"], with_laws(f, h, t=[10.0], s=[0.5]), into="solve[1]")
    run("figure-data", work, ["figure-data"])
    report = run("report", work, ["report"])
    print(f"  report stdout={sha(report.encode())}")
    verify = run("verify", work, ["verify"])
    for line in verify.splitlines():
        print("  " + re.sub(r"\b\d+\.\d+s\b", "<time>", line))  # budgets are whole seconds


def floats(*values) -> bytes:
    return b"".join(v.coeffs.tobytes() if hasattr(v, "coeffs") else struct.pack("<d", v) for v in values)


def solution(sol) -> bytes:
    """F, R, G and P (those present) of a TransitionSolution, then its four stepper counters."""
    values = floats(*(v for v in (sol.F, sol.R, sol.G, sol.P) if v is not None))
    return values + struct.pack("<qqqq", sol.steps, sol.rejected, sol.gap_rejected, sol.rhs_evals)


def solver_sweep() -> None:
    """SHA-256 of the scalar and series transition solves of every law pair and THREE_TERM_PAIR.

    Each solve adds F, R, G, P and its four stepper counters (accepted,
    rejected, gap-rejected steps and RHS evaluations); the scalar grid adds
    ``gf_derivative`` at each point, and each pair adds solves at tol = 0.5,
    where some steps stop at a non-positive gap stage.
    """
    kolmogorov = sys.modules[cli.solve_gf.__module__]
    pairs = [(f"solves[{k}]", f, h) for k, (f, h) in enumerate(PAIRS)]
    for label, f, h in pairs + [("solves[finite,3 terms]", *THREE_TERM_PAIR)]:
        f_law = cli.offspring_from_config(f)
        h_law = cli.immigration_from_config(h) if h else None
        digest = hashlib.sha256()
        for t in (0.1, 1.0, 10.0, 100.0, 1e4):
            for s in (0.0, 0.3, 0.9, 0.999):
                digest.update(solution(kolmogorov.solve_gf(f_law, t, s)))
                digest.update(floats(kolmogorov.gf_derivative(f_law, t, s)))
                for i in (0, 2) if h_law else ():
                    digest.update(solution(kolmogorov.immigration_gf(f_law, h_law, i, t, s)))
        for t in (0.5, 2.0):
            digest.update(solution(kolmogorov.solve_gf_series(f_law, t, 64)))
            for i in (0, 1) if h_law else ():
                digest.update(solution(kolmogorov.immigration_gf_series(f_law, h_law, i, t, 64)))
        if h_law:
            digest.update(solution(kolmogorov.immigration_gf(f_law, h_law, 2, 100.0, 0.0, tol=0.5)))
            sol = kolmogorov.immigration_gf_series(f_law, h_law, 0, 100.0, 32, tol=0.5)
        else:
            sol = kolmogorov.solve_gf(f_law, 100.0, 0.0, tol=0.5)
        digest.update(solution(sol))
        print(f"{label} {digest.hexdigest()[:16]} tol=0.5 gap_rejected={sol.gap_rejected}")


def simulate_sweep() -> None:
    """SHA-256 of (states, capped, events, straggler events, table size) of ``simulate``.

    Every law pair runs 20,000 replicas (three chunks, the last one partial)
    over a grid with a repeated time at cap 1000; one canonical pure-branching
    run to t = 10 at the default cap covers the straggler walk and a grown table,
    and the same run with 100,000 replicas (13 chunks) covers many chunks
    running their last rounds together.  Two canonical runs to t = 100 at cap
    1e4 (10,000 replicas, seeds 1 and 2) cover long blocks of rounds with few
    lanes.  A perturbed offspring law with canonical immigration from 0 to t = 10
    at the default cap (100 replicas) spends most of its events in the
    immigration straggler walk.  Canonical offspring with perturbed (kappa =
    0.25) immigration from 3 at cap 5000 (200 replicas to t = 20) grows a table
    inside the walk, and finite offspring [2, -3, 0.5, 0.5] with finite batch
    immigration [-1, 0.5, 0.25, 0.25] at the default cap (2000 replicas to
    t = 10) covers finite tables.
    """
    montecarlo = cli.montecarlo
    default = montecarlo.DEFAULT_CAP
    runs = [(f"simulate_sweep[{k}]", f, h, (0.0, 1.0, 1.0, 5.0), 1000, 20_000, 7, None)
            for k, (f, h) in enumerate(PAIRS)]
    runs.append(("simulate_sweep[canonical,t=10]", OFFSPRING[0], None, (10.0,), default, 20_000, 7, None))
    runs.append(("simulate_sweep[canonical,t=10,13 chunks]", OFFSPRING[0], None, (10.0,), default, 100_000, 7, None))
    for seed in (1, 2):
        runs.append((f"simulate_sweep[canonical,t=100,cap=1e4,seed={seed}]", OFFSPRING[0], None, (100.0,), 10**4,
                     10_000, seed, None))
    runs.append(("simulate_sweep[perturbed+canonical,t=10]", OFFSPRING[1], IMMIGRATION[1], (10.0,), default, 100, 7,
                 None))
    runs.append(("simulate_sweep[canonical+kappa,start=3,cap=5000]", OFFSPRING[0], IMMIGRATION[2], (5.0, 20.0), 5000,
                 200, 7, 3))
    runs.append(("simulate_sweep[finite+finite batches]", {"kind": "finite", "rates": [2.0, -3.0, 0.5, 0.5]},
                 {"kind": "finite", "rates": [-1.0, 0.5, 0.25, 0.25]}, (2.0, 10.0), default, 2000, 7, None))
    for label, f, h, grid, cap, replicas, seed, start in runs:
        cfg = montecarlo.SimConfig(offspring=cli.offspring_from_config(f),
                                   immigration=cli.immigration_from_config(h) if h else None,
                                   grid=grid, replicas=replicas, seed=seed, start=start, cap=cap)
        obs = montecarlo.simulate(cfg)
        counts = struct.pack("<qqq", obs.events, obs.straggler_events, obs.table_size)
        print(f"{label} {sha(obs.states.tobytes() + obs.capped.tobytes() + counts)}")


def measure_sweep(pairs=None) -> None:
    """SHA-256 of the invariant measures of each law pair at order 256, and an invariance residual.

    ``pairs`` is a list of (label, offspring config, immigration config or
    None); by default ``measures[k]`` for the k-th of PAIRS.  Each pair
    prints M and V; with immigration also pi, U (or the type name of the
    error when the limit law does not apply) and the residual and truncation
    flag of ``invariance_residual(measure, ..., 1.0, 64, tol=1e-10)`` on U,
    or on pi where U does not apply.
    """
    asymptotics = cli.asymptotics
    if pairs is None:
        pairs = [(f"measures[{k}]", f, h) for k, (f, h) in enumerate(PAIRS)]
    for label, f, h in pairs:
        f_law = cli.offspring_from_config(f)
        line = (f"{label} M={sha(asymptotics.invariant_series(f_law, 256).coeffs.tobytes())} "
                f"V={sha(asymptotics.relative_measure_series(f_law, 256).coeffs.tobytes())}")
        if h:
            h_law = cli.immigration_from_config(h)
            measure = asymptotics.ratio_limit_series(f_law, h_law, 256)
            line += f" pi={sha(measure.coeffs.tobytes())}"
            ratio = cli.karamata.ratio_of(f_law.slowly_varying(), h_law.slowly_varying())
            try:
                measure = asymptotics.limit_gf_series(f_law, h_law, cli.classify(f_law, h_law), ratio, 256)
                line += f" U={sha(measure.coeffs.tobytes())}"
            except ValueError as exc:
                line += f" U={type(exc).__name__}"
            resid, flag = asymptotics.invariance_residual(measure, f_law, h_law, 1.0, 64, tol=1e-10)
            line += f" residual={resid!r} truncation={flag}"
        print(line)


def oracle_sweep() -> None:
    """SHA-256 of ``oracle.uniformize``'s full P and leaked mass, with halvings and terms.

    The configurations are those of ``verify``: A3's binary law with unit
    arrivals and the canonical pair at n_max = 200 and t = 0.5, 1 and 2, and
    A6's canonical pair at n_max = 512 and t = 50.
    """
    canonical = [cli.offspring_from_config(OFFSPRING[0]), cli.immigration_from_config(IMMIGRATION[1])]
    binary = [cli.offspring_from_config(OFFSPRING[2]), cli.immigration_from_config(IMMIGRATION[3])]
    runs = [(label, laws, 200, t) for label, laws in (("binary", binary), ("canonical", canonical))
            for t in (0.5, 1.0, 2.0)]
    runs.append(("canonical", canonical, 512, 50.0))
    for label, laws, n_max, t in runs:
        result = oracle.uniformize(oracle.build_generator(*laws, n_max), t)
        print(f"oracle[{label},n_max={n_max},t={t}] {sha(result.P.tobytes() + result.leaked.tobytes())} "
              f"halvings={result.halvings} terms={result.terms}")


def platform_fields() -> dict[str, str]:
    """What the digest's floats may depend on besides the source: the header's fields."""
    def blas(show_config):
        dep = show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', 'unknown')} {dep.get('version', '')}".strip()

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"numpy {blas(np.show_config)}; scipy {blas(scipy.show_config)}",
        "machine": platform.machine(),
        "simd": f"baseline {' '.join(umath.__cpu_baseline__)}; dispatch {' '.join(found)}",
        "glibc": platform.libc_ver()[1] or "unknown",
    }


def _commands() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        commands(Path(tmp))


def _measures() -> None:
    measure_sweep()
    measure_sweep([("measures[a0=2]", *SCALED_PAIR)])


SECTIONS = {"commands": _commands, "solver_sweep": solver_sweep, "simulate_sweep": simulate_sweep,
            "measure_sweep": _measures, "oracle_sweep": oracle_sweep}


def digest(sections=tuple(SECTIONS)) -> list[str]:
    """The header lines, then each named section's heading and lines."""
    lines = [f"# {key}: {value}" for key, value in platform_fields().items()]
    for name in sections:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            SECTIONS[name]()
        lines += [f"## {name}", *out.getvalue().splitlines()]
    return lines


def read_digest(path: Path) -> tuple[dict[str, str], dict[str, list[str]]]:
    """A digest file's header fields and its lines by section."""
    fields, sections, current = {}, {}, None
    for line in path.read_text().splitlines():
        if line.startswith("## "):
            current = sections.setdefault(line[3:], [])
        elif current is None and line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            fields[key] = value
        elif current is not None:
            current.append(line)
    return fields, sections


def check(path: Path, sections=tuple(SECTIONS)) -> int:
    """Print a unified diff of the named sections (and the header) against ``path``; 1 if any line differs."""
    fields, recorded = read_digest(path)
    expected = [f"# {key}: {value}" for key, value in fields.items()]
    for name in sections:
        expected += [f"## {name}", *recorded.get(name, [])]
    diff = list(difflib.unified_diff(expected, digest(sections), str(path), "this tree", lineterm=""))
    print("\n".join(diff))
    return 1 if diff else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="diff against a recorded digest; exit 1 on any difference")
    parser.add_argument("--sections", nargs="+", choices=list(SECTIONS), default=list(SECTIONS))
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check, args.sections)
    print("\n".join(digest(args.sections)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
