#!/usr/bin/env python3
"""Measure convergence rates of the transient limit law and conditioned GF.

Sweeps a log-spaced time grid and writes per-time errors plus the fitted
log-log slopes for three experiments:

* scaled immigration GF against its limit, exactly matched ratio factor;
* the same with the perturbed ratio factor (generic decay exponent mu/nu);
* the conditioned survivor GF against the invariant GF value.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from criticalbranch import asymptotics, karamata
from criticalbranch import classify, make_stable_immigration, make_stable_offspring


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="data", help="output directory")
    parser.add_argument("--points", type=int, default=9, help="grid points per decade sweep")
    parser.add_argument("--s", type=float, default=0.5, help="evaluation point")
    args = parser.parse_args()

    f_law = make_stable_offspring(0.5, 1.0)
    grid = np.logspace(2, 4, args.points)
    reports = []
    for kappa, label in ((0.0, "matched"), (0.25, "perturbed")):
        h_law = make_stable_immigration(0.4, 0.1, kappa=kappa)
        regime = classify(f_law, h_law)
        ratio = karamata.ratio_of(f_law.slowly_varying(), h_law.slowly_varying())
        rep = asymptotics.scaled_gf_convergence(f_law, h_law, regime, ratio, grid, args.s)
        reports.append((f"scaled-gf-{label}", rep))

    cond_errs = np.array([res.error for res in asymptotics.conditioned_gf(f_law, grid, args.s)])
    slope = np.polyfit(np.log(grid), np.log(np.abs(cond_errs)), 1)[0]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "convergence_rates.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "t", "error", "fitted_slope", "target_slope"])
        for label, rep in reports:
            for t, e in zip(rep.grid, np.abs(rep.values)):
                writer.writerow([label, f"{t:.6g}", f"{e:.17g}", f"{rep.slope}", f"{rep.target}"])
        for t, e in zip(grid, cond_errs):
            writer.writerow(["conditioned-gf", f"{t:.6g}", f"{e:.17g}", f"{slope}", "-1"])
    print(f"wrote {path}")
    for label, rep in reports:
        print(f"{label}: slope={rep.slope}, target={rep.target}, passes={rep.passes}")
    print(f"conditioned-gf: slope={slope:.3f} (log-corrected 1/t)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
