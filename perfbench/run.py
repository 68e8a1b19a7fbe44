#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up time is measured in several fresh interpreters and the
workload runs in one more (``worker.py``), with BLAS pinned to one thread in
the children only.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
of BENCHMARK.json for ``--trace 0`` and its per-layer metrics for
``--trace 1``.  A record of the run goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up probes run before and after the workload, so that they sample the
# machine at both ends of the run.
SETUP_PROBES_EACH_SIDE = 2
RUN_TIMEOUT_S = 170  # all children together; a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["CRITICALBRANCH_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py with ``argv`` and return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(argv)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def source_facts() -> dict:
    """Commit when the checkout is a git repository, and a hash of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every operation, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "criticalbranch" / "__init__.py").is_file():
        print(f"error: no criticalbranch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    out_dir = HERE / "out"
    common = ["--workload", args.workload, "--size", args.size]
    setup_only = [*common, "--setup-only"]
    try:
        probes = [run_child(setup_only, env, deadline) for _ in range(SETUP_PROBES_EACH_SIDE)]
        res = run_child([*common, "--seed", str(args.seed), "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--out", str(out_dir)], env, deadline)
        probes += [run_child(setup_only, env, deadline) for _ in range(SETUP_PROBES_EACH_SIDE)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    probes.append(res)
    setup = [pr["setup_s"] for pr in probes]
    wall = res["wall_s"]
    values = dict(res.get("metrics", {}))
    values.update(wall_s=wall["median"], setup_s=statistics.median(setup))
    if "peak_rss_mb" in res:
        values["peak_rss_mb"] = res["peak_rss_mb"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    facts = dict(res["facts"], **source_facts(), setup_samples_s=setup,
                 setup_raw_samples_s=[pr["setup_raw_s"] for pr in probes], size=args.size)
    record = dict(res, facts=facts, metrics=metrics, trace=args.trace, seconds=args.seconds)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    attempted, failed = res["attempted"], res["failed"]
    print(f"facts: {json.dumps(facts, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, {res['ops']} operations per pass")
    print(f"wall_s median {wall['median']:.6g} s, quartiles {wall['q1']:.6g} .. {wall['q3']:.6g} s over "
          f"{wall['n']} passes (speed-normalized; raw pass median "
          f"{statistics.median(wall['raw_passes_s']):.6g} s)")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for line in res["failures"]:
        print(f"  failed: {line}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
