#!/usr/bin/env python3
"""Cross-check Monte Carlo estimates against closed forms and the CTMC oracle.

Runs three experiments and prints a small comparison table: survival of a
single-ancestor critical population, the mean with unit-rate immigration, and
a state probability of the heavy-tailed immigration system against
uniformization.
"""

import argparse

from criticalbranch import montecarlo as mc
from criticalbranch import (
    make_finite_immigration,
    make_finite_offspring,
    make_stable_immigration,
    make_stable_offspring,
)
from criticalbranch.oracle import build_generator, uniformized_transition


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicas", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    half = make_stable_offspring(0.5, 1.0)
    binary = make_finite_offspring([1.0, -2.0, 1.0])
    arrivals = make_finite_immigration([-1.0, 1.0])
    heavy = make_stable_immigration(0.4, 0.1)

    rows = []
    cfg = mc.SimConfig(offspring=half, immigration=None, grid=(10.0,), replicas=args.replicas, seed=args.seed)
    est = mc.estimate(cfg, "survival", 10.0)
    rows.append(("survival(10), stable offspring", est, 1.0 / 36.0))

    cfg = mc.SimConfig(offspring=binary, immigration=arrivals, grid=(3.0,), replicas=args.replicas, seed=args.seed + 1)
    est = mc.estimate(cfg, "mean", 3.0)
    rows.append(("mean(3), unit arrivals", est, 3.0))

    cfg = mc.SimConfig(offspring=half, immigration=heavy, grid=(1.0,), replicas=args.replicas, seed=args.seed + 2)
    est = mc.estimate(cfg, "p", 1.0, j=0)
    oracle_p00 = uniformized_transition(build_generator(half, heavy, 128), 1.0)[0, 0]
    rows.append(("p_00(1), heavy immigration", est, float(oracle_p00)))

    print(f"{'experiment':34s} {'estimate':>12s} {'stderr':>10s} {'reference':>12s} {'z':>6s}")
    for label, est, ref in rows:
        z = (est.value - ref) / est.se if est.se > 0 else 0.0
        print(f"{label:34s} {est.value:12.6f} {est.se:10.6f} {ref:12.6f} {z:6.2f}")
        if est.capped:
            print(f"{'':34s} capped paths excluded: {est.capped}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
