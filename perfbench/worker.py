"""One benchmark process: set-up, timed passes over a workload, checks.

Started by ``run.py`` in a fresh interpreter per run, so that set-up time
and the peak-RSS high-water mark belong to this workload alone.  Prints one
JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
    python3 perfbench/worker.py --workload NAME --setup-only
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_PASSES = 2
MAX_FAILURES_KEPT = 50


class Tally:
    """Attempt and failure counts plus first-pass digests, shared by all passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[int, bytes] = {}

    def fail(self, where: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(f"{where}: {reason}")


# Speed normalization.  On a shared host the same work runs up to 1.6x
# slower for seconds to minutes at a time.  A fixed probe that shares no code
# with criticalbranch is timed around every ~50 ms of operations, and each
# operation's time is scaled by PROBE_NOMINAL_S / (probe time), i.e. to the
# speed at which the probe takes PROBE_NOMINAL_S (about its time on the 2-vCPU
# x86-64 VM this benchmark was built on).  Raw times are kept in the run record.
PROBE_NOMINAL_S = 1.9e-3
PROBE_EVERY_S = 0.05
_PROBE_BIG = None
_PROBE_SMALL = None


def _probe_step(y):
    return (-(y[0] ** 1.5) * 0.3, y[1] * 0.5)


def speed_probe() -> float:
    """Seconds for a fixed mix of work: an integer loop, tuple arithmetic
    through function calls, short numpy dot products, and one pass over an
    8 MiB array (interpreter, small-array and memory-bound speed)."""
    global _PROBE_BIG, _PROBE_SMALL
    import numpy as np

    if _PROBE_BIG is None:
        _PROBE_BIG = np.linspace(0.0, 1.0, 1 << 20)
        _PROBE_SMALL = np.linspace(0.0, 1.0, 256)
    t0 = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc += i
    y = (1.0, 0.5)
    for _ in range(750):
        k = _probe_step(y)
        y = tuple(v + 1e-4 * a for v, a in zip(y, k))
    for k in range(1, 100):
        acc += float(np.dot(_PROBE_SMALL[:k], _PROBE_SMALL[k - 1 :: -1]))
    _PROBE_BIG.sum()
    return time.perf_counter() - t0


def pin_fastest_cpu() -> float:
    """Move this process to the allowed CPU where the speed probe runs
    fastest, and return the probe time there.  The host slows each vCPU
    independently, so this keeps a pass off a vCPU that is in a slow spell."""
    best = None
    for cpu in sorted(_ALLOWED_CPUS):
        os.sched_setaffinity(0, {cpu})
        c = min(speed_probe() for _ in range(2))
        if best is None or c < best[0]:
            best = (c, cpu)
    os.sched_setaffinity(0, {best[1]})
    return best[0]


_ALLOWED_CPUS = os.sched_getaffinity(0)


def run_passes(ops, budget_s: float, tally: Tally, tracer=None, label: str = ""):
    """Run the operation list while another pass fits in ``budget_s`` (at least twice).

    Returns per-operation lists of raw call times and of speed-normalized
    call times.  An exception, a failed check, or output that differs from
    the first pass counts as a failed operation; the run always goes on.
    """
    perf = time.perf_counter
    op_times: list[list[float]] = [[] for _ in ops]
    op_norm: list[list[float]] = [[] for _ in ops]
    start = perf()
    passes = 0
    last = 0.0
    while passes < MIN_PASSES or perf() - start + last <= budget_s:
        pass_start = perf()
        c_prev = pin_fastest_cpu()
        pending: list[int] = []
        since = 0.0
        for i, op in enumerate(ops):
            tally.attempted += 1
            if tracer is not None:
                tracer.op = f"{label}{passes}:{i}"
            t0 = perf()
            try:
                out = op.call()
                err = None
            except Exception as exc:  # a raising operation is a failed one
                err = f"raised {type(exc).__name__}: {exc}"
            dt = perf() - t0
            if tracer is not None:
                tracer.op = None
            op_times[i].append(dt)
            pending.append(i)
            since += dt
            if since >= PROBE_EVERY_S or i == len(ops) - 1:
                c_next = speed_probe()
                scale = PROBE_NOMINAL_S / (0.5 * (c_prev + c_next))
                for j in pending:
                    op_norm[j].append(op_times[j][-1] * scale)
                pending, since, c_prev = [], 0.0, c_next
            if err is None:
                try:
                    err = op.check(out)
                    if err is None and tally.digests.setdefault(i, op.digest(out)) != op.digest(out):
                        err = "output differs from the first pass"
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is not None:
                tally.fail(f"{label}pass {passes} {op.name}", err)
        passes += 1
        last = perf() - pass_start
    return op_times, op_norm


def summarize(op_times: list[list[float]], op_norm: list[list[float]]) -> dict:
    """Median and quartiles of the speed-normalized pass times (the reported
    wall time), with the pass count and the raw pass times."""
    n = len(op_times[0])
    norm_pass = [sum(ts[p] for ts in op_norm) for p in range(n)]
    q1, _, q3 = statistics.quantiles(norm_pass, n=4)
    raw_pass = [sum(ts[p] for ts in op_times) for p in range(n)]
    return {
        "median": statistics.median(norm_pass),
        "q1": q1,
        "q3": q3,
        "n": n,
        "norm_passes_s": norm_pass,
        "raw_passes_s": raw_pass,
    }


def normalized_setup(setup_s: float) -> tuple[float, float]:
    """Set-up time scaled like operation times, from probes run right after it."""
    probe = statistics.median(speed_probe() for _ in range(9))
    return setup_s * PROBE_NOMINAL_S / probe, setup_s


def machine_facts(seed, mc_seeds) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload_seed": seed,
        "mc_seeds": mc_seeds,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Set-up: numpy, scipy and every criticalbranch module, then the laws.
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    laws = workloads.build_laws(args.workload)
    setup_s = time.perf_counter() - _T0
    setup_s, setup_raw_s = normalized_setup(setup_s)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    args.out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=args.out))
    try:
        ops = workloads.build_ops(args.workload, laws, args.seed, args.size, workdir)
        tally = Tally()
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "ops": len(ops),
            "facts": machine_facts(args.seed, [op.seed for op in ops if op.seed is not None]),
        }
        if args.trace == 0:
            op_times, op_norm = run_passes(ops, args.seconds, tally)
            result["peak_rss_mb"] = peak_rss_mb()
            result["wall_s"] = summarize(op_times, op_norm)
            result["op_median_s"] = [[op.name, statistics.median(ts)] for op, ts in zip(ops, op_norm)]
        else:
            result.update(traced_run(args, ops, tally))
        result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def traced_run(args, ops, tally: Tally) -> dict:
    """Untraced and traced passes, then one acceptance run: per-layer metrics."""
    import spans
    import workloads
    from criticalbranch import acceptance

    untraced = summarize(*run_passes(ops, args.seconds / 2, tally))
    tracer = spans.Tracer()
    tracer.install(workloads)
    try:
        tracer.op = "setup"
        workloads.build_laws(args.workload)
        tracer.op = None
        traced = summarize(*run_passes(ops, args.seconds / 2, tally, tracer=tracer, label="traced "))
    finally:
        tracer.uninstall()
    tracer.write(args.out / f"spans-{args.workload}-seed{args.seed}.json")
    metrics = spans.layer_metrics(tracer, traced["n"])
    metrics["trace.overhead_frac"] = traced["median"] / untraced["median"] - 1.0

    checks = acceptance.run(threads=1)
    for res in checks:
        metrics[f"acceptance.{res.ident}_s"] = res.seconds
        tally.attempted += 1
        if not res.passed:
            tally.fail(f"acceptance {res.ident}", res.detail)
    metrics["acceptance.passed"] = float(sum(res.passed for res in checks))
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite layer metrics: {bad}")
    return {"wall_s": untraced, "wall_traced_s": traced, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
