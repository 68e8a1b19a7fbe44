"""The four benchmark workloads: operation lists and their references.

Every operation is one call into a public function of ``criticalbranch``.
Its output is checked against a reference that the benchmark computes on
its own, from closed forms of the canonical family or from a discrete
Cauchy integral (FFT on a circle) of such a closed form, never from the
code path under test.  References are built before timing starts.

Inputs derive from the workload seed, except the Monte Carlo seeds of the
canonical nu = 0.5 pure-branching runs, which are fixed (``BULK_SEEDS``,
``TAIL_SEEDS``; see README.md, "Heavy-tail seed caveat").
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from criticalbranch import (
    asymptotics,
    classify,
    cli,
    karamata,
    kolmogorov,
    make_finite_immigration,
    make_finite_offspring,
    make_perturbed_offspring,
    make_stable_immigration,
    make_stable_offspring,
    montecarlo,
    oracle,
    series,
)

WORKLOADS = ("scalar-grid", "coefficients", "mc-bulk", "mc-tail")

# Canonical pair of the paper: f = a0 (1-s)^(1+nu), h = -c (1-s)^delta.
NU, A0, DELTA, C = 0.5, 1.0, 0.4, 0.1
KAPPA = 0.25
RHO, P_EXP = 0.3, 0.5
# The nu = 0.5 offspring law has infinite variance, so the cost of one
# pure-branching run is heavy-tailed in its Monte Carlo seed: 0.6-3.7 s over
# 10 seeds at t = 100, and a third apart for two seeds at t = 10.  Those runs
# use fixed seeds, so that every run of the benchmark does the same work.
BULK_SEEDS = (3, 4)
TAIL_SEEDS = (1, 2)
# Fixed-seed estimates are checked at 3 sigma, as the acceptance suite does.
# Estimates from seed-derived streams are checked at 4 sigma: at 3 sigma a
# correct program fails one check in 370, which many seeds would hit.
Z_FIXED, Z_SEEDED = 3.0, 4.0


@dataclass
class Op:
    """One timed call and the checks on its output."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    digest: Callable[[Any], bytes]
    seed: int | None = None  # Monte Carlo seed, recorded with the run


# ---------------------------------------------------------------------------
# Laws and closed forms.


def build_laws(workload: str) -> dict:
    """The laws a workload uses; this is the law-building part of set-up."""
    laws = {}
    if workload in ("scalar-grid", "coefficients", "mc-tail", "mc-bulk"):
        laws["f"] = make_stable_offspring(NU, A0)
    if workload in ("scalar-grid", "coefficients", "mc-tail"):
        laws["h"] = make_stable_immigration(DELTA, C)
    if workload in ("scalar-grid", "coefficients", "mc-bulk"):
        laws["f_bin"] = make_finite_offspring([1.0, -2.0, 1.0])
        laws["h_one"] = make_finite_immigration([-1.0, 1.0])
    if workload == "scalar-grid":
        laws["f_pert"] = make_perturbed_offspring(NU, A0, RHO, P_EXP)
        laws["h_kappa"] = make_stable_immigration(DELTA, C, kappa=KAPPA)
    return laws


def gap_closed(nu, a0, t, r0):
    """R(t) = [R(0)^(-nu) + a0 nu t]^(-1/nu); real or complex R(0)."""
    return (r0 ** (-nu) + a0 * nu * t) ** (-1.0 / nu)


def g_closed(nu, a0, terms, t, r0):
    """G(t) = int_0^t h(F(u)) du for f = a0 (1-s)^(1+nu), h = sum c (1-s)^b."""
    x0 = r0 ** (-nu)
    xt = x0 + a0 * nu * t
    out = 0.0
    for c, b in terms:
        if b == nu:
            out = out + c / (a0 * nu) * np.log(xt / x0)
        else:
            e = (nu - b) / nu
            out = out + c / (a0 * (nu - b)) * (xt**e - x0**e)
    return out


def m_closed_canonical(nu, a0, r):
    """Invariant GF M as a function of the gap r = 1 - s."""
    return (r ** (-nu) - 1.0) / (a0 * nu)


def m_closed_perturbed(a0, rho, r):
    """M for f = a0 r^1.5 (1 + rho r^0.5): (2/a0)[H(1) - H(sqrt r)]."""

    def H(y):
        return -1.0 / y - rho * math.log(y) + rho * math.log1p(rho * y)

    return 2.0 / a0 * (H(1.0) - H(math.sqrt(r)))


def cauchy_coeffs(fn, N, M=2048, rho=0.97):
    """Taylor coefficients 0..N of fn from M samples on the circle |s| = rho."""
    z = rho * np.exp(2j * np.pi * np.arange(M) / M)
    c = np.fft.fft(fn(z)) / M
    return (c[: N + 1] / rho ** np.arange(N + 1)).real


def stable_invariant_ref(nu, a0, N):
    j = np.arange(1.0, N + 1.0)
    return np.r_[0.0, np.cumprod((nu + j - 1.0) / j) / (a0 * nu)]


# ---------------------------------------------------------------------------
# Checks and digests.


def _fail_if(cond: bool, msg: str) -> str | None:
    return msg if cond else None


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _max_rel(a, b) -> float:
    b = np.asarray(b)
    return float(np.max(np.abs(np.asarray(a) - b) / np.maximum(np.abs(b), 1.0)))


def _floats_digest(*values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _solution_digest(sol) -> bytes:
    parts = [sol.F, sol.R, sol.G, sol.P]
    out = b""
    for p in parts:
        if p is None:
            out += b"-"
        elif isinstance(p, series.Series):
            out += p.coeffs.tobytes()
        else:
            out += np.float64(p).tobytes()
    return out + str(sol.steps).encode()


def _array_digest(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _obs_digest(obs) -> bytes:
    return hashlib.sha256(obs.states.tobytes() + obs.capped.tobytes()).digest()


def _read_csv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# ---------------------------------------------------------------------------
# scalar-grid


def _scalar_grid(laws, rng, size, workdir: Path) -> list[Op]:
    nt, ns = (12, 6) if size == "full" else (2, 2)
    # One jittered point per bin, t log-uniform over [1, 1e4), s over
    # [0, 0.99): stratified so that the total step count varies little
    # with the seed (2 % spread over 10 seeds, against 9 % for free draws).
    ts = 10.0 ** (4.0 * (np.arange(nt) + rng.random(nt)) / nt)
    ss = 0.99 * (np.arange(ns) + rng.random(ns)) / ns
    f, h, fp, fb, hb = laws["f"], laws["h"], laws["f_pert"], laws["f_bin"], laws["h_one"]
    h_terms = h.terms
    ops: list[Op] = []

    def shift_ok(m_of_gap, sol, t, s):
        resid = abs(m_of_gap(sol.R) - m_of_gap(1.0 - s) - t) / max(t, 1.0)
        return _fail_if(not resid <= 1e-8, f"shift identity residual {resid:.3e}")

    def canon_check(nu, a0, t, s):
        def check(sol):
            err = abs(sol.F - (1.0 - gap_closed(nu, a0, t, 1.0 - s)))
            if not err <= 1e-8:
                return f"|F - closed form| = {err:.3e}"
            return shift_ok(lambda r: m_closed_canonical(nu, a0, r), sol, t, s)

        return check

    def immig_check(nu, a0, terms, t, s):
        def check(sol):
            err_f = abs(sol.F - (1.0 - gap_closed(nu, a0, t, 1.0 - s)))
            g_ref = g_closed(nu, a0, terms, t, 1.0 - s)
            err_g = abs(sol.G - g_ref) / abs(g_ref)
            err_p = abs(sol.P - math.exp(g_ref)) / math.exp(g_ref)
            return _fail_if(
                not (err_f <= 1e-8 and err_g <= 1e-8 and err_p <= 1e-8),
                f"F err {err_f:.3e}, G rel err {err_g:.3e}, P rel err {err_p:.3e}",
            )

        return check

    pert_m = lambda r: m_closed_perturbed(A0, RHO, r)
    for t in ts:
        for s in ss:
            t, s = float(t), float(s)
            tag = f"t={t:.6g},s={s:.6g}"
            ops.append(Op(f"solve_gf[canonical,{tag}]", lambda t=t, s=s: kolmogorov.solve_gf(f, t, s),
                          canon_check(NU, A0, t, s), _solution_digest))
            ops.append(Op(f"immigration_gf[canonical,{tag}]",
                          lambda t=t, s=s: kolmogorov.immigration_gf(f, h, 0, t, s),
                          immig_check(NU, A0, h_terms, t, s), _solution_digest))
            ops.append(Op(f"solve_gf[perturbed,{tag}]", lambda t=t, s=s: kolmogorov.solve_gf(fp, t, s),
                          lambda sol, t=t, s=s: shift_ok(pert_m, sol, t, s), _solution_digest))
            ops.append(Op(f"solve_gf[binary,{tag}]", lambda t=t, s=s: kolmogorov.solve_gf(fb, t, s),
                          canon_check(1.0, 1.0, t, s), _solution_digest))
            ops.append(Op(f"immigration_gf[binary,{tag}]",
                          lambda t=t, s=s: kolmogorov.immigration_gf(fb, hb, 0, t, s),
                          immig_check(1.0, 1.0, ((-1.0, 1.0),), t, s), _solution_digest))

    # The convergence sweep as scripts/convergence_rates.py runs it.
    grid = np.logspace(2, 4, 9 if size == "full" else 3)
    s_conv = 0.5
    for label, h_law in (("matched", h), ("perturbed", laws["h_kappa"])):
        regime = classify(f, h_law)
        ratio = karamata.ratio_of(f.slowly_varying(), h_law.slowly_varying())
        g = abs(regime.gamma)
        kappa = h_law.kappa
        log_u = (1.0 - s_conv) ** (-g) - (kappa / A0) * (1.0 - s_conv) ** (h_law.delta - g) / (h_law.delta - g)
        want = np.array([
            math.expm1(gap_closed(NU, A0, t, 1.0) ** (-g) + g_closed(NU, A0, h_law.terms, t, 1.0 - s_conv) - log_u)
            for t in grid
        ])

        def check_conv(rep, want=want):
            err = _max_abs(rep.values, want)
            return _fail_if(not err <= 1e-7, f"max |error - closed-form error| = {err:.3e}")

        ops.append(Op(f"scaled_gf_convergence[{label}]",
                      lambda h_law=h_law, regime=regime, ratio=ratio:
                      asymptotics.scaled_gf_convergence(f, h_law, regime, ratio, grid, s_conv),
                      check_conv, lambda rep: _array_digest(rep.values)))

    def check_cond(vals):
        want = [1.0 - gap_closed(NU, A0, t, 1.0 - s_conv) / gap_closed(NU, A0, t, 1.0) for t in grid]
        err = _max_abs([v / w for v, w in zip(vals, want)], 1.0)
        return _fail_if(not err <= 1e-7, f"conditioned GF max rel err {err:.3e}")

    ops.append(Op("conditioned_gf[sweep]",
                  lambda: [asymptotics.conditioned_gf(f, t, s_conv).value for t in grid],
                  check_cond, lambda vals: _floats_digest(*vals)))

    # In-process CLI runs on seed-drawn grids.
    n_cli = 3 if size == "full" else 1
    for k in range(n_cli):
        t_cli = sorted(float(v) for v in 10.0 ** (4.0 * rng.random(3)))
        s_cli = sorted(float(v) for v in 0.99 * rng.random(3))
        cfg = {
            "offspring": {"kind": "canonical", "nu": NU, "a0": A0},
            "immigration": {"kind": "canonical", "delta": DELTA, "c": C},
            "t": t_cli,
            "s": s_cli,
        }
        ops.append(_cli_op(f"cli.solve[{k}]", "solve", cfg, workdir / f"solve{k}", _check_solve_csv))
    return ops


def _check_solve_csv(out: Path) -> str | None:
    rows = _read_csv(out / "solve.csv")
    worst = 0.0
    for row in rows:
        t, s = float(row["t"]), float(row["s"])
        g_ref = g_closed(NU, A0, ((-C, DELTA),), t, 1.0 - s)
        worst = max(
            worst,
            abs(float(row["F"]) - (1.0 - gap_closed(NU, A0, t, 1.0 - s))),
            abs(float(row["G"]) - g_ref) / abs(g_ref),
            abs(float(row["P0"]) - math.exp(g_ref)) / math.exp(g_ref),
        )
    return _fail_if(not (rows and worst <= 1e-8), f"solve.csv worst error {worst:.3e} over {len(rows)} rows")


def _cli_op(name, command, cfg, out: Path, check_dir) -> Op:
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(cfg_path), "--out", str(out), "--threads", "1"]

    def check(code):
        if code != 0:
            return f"exit code {code}"
        return check_dir(out)

    def digest(code):
        return str(code).encode() + (out / f"{command}.csv").read_bytes()

    return Op(name, lambda: cli.main(argv), check, digest)


# ---------------------------------------------------------------------------
# coefficients


def _coefficients(laws, rng, size, workdir: Path) -> list[Op]:
    f, h, fb, hb = laws["f"], laws["h"], laws["f_bin"], laws["h_one"]
    big = 256 if size == "full" else 128
    small = 64 if size == "full" else 24
    n_oracle = 200 if size == "full" else 100
    n_ratio = 512
    ops: list[Op] = []
    rows: dict = {}

    def p_ref_canonical(t, N):
        return cauchy_coeffs(lambda z: np.exp(g_closed(NU, A0, h.terms, t, 1.0 - z)), N)

    def p_ref_finite(t, N):
        # P(t;s) = 1/(1 + (1-s) t): geometric with ratio t/(1+t)
        return (t / (1.0 + t)) ** np.arange(N + 1) / (1.0 + t)

    systems = (("finite", fb, hb, p_ref_finite), ("canonical", f, h, p_ref_canonical))
    times = (0.5, 1.0, 2.0)
    # Oracle rows first: the series ops of the same pass check against them.
    for label, f_law, h_law, p_ref in systems:
        gen_box = {}

        def build(f_law=f_law, h_law=h_law, gen_box=gen_box):
            gen_box["gen"] = oracle.build_generator(f_law, h_law, n_oracle)
            return gen_box["gen"]

        ops.append(Op(f"oracle.build_generator[{label},n_max={n_oracle}]", build,
                      lambda gen: _fail_if(not np.allclose(gen.Q.sum(axis=1) + gen.clipped_rate, 0.0, atol=1e-9),
                                           "generator rows do not balance"),
                      lambda gen: _array_digest(gen.Q)))
        for t in times:
            want = p_ref(t, 20)

            def uniformize(t=t, gen_box=gen_box, label=label):
                row = oracle.uniformized_transition(gen_box["gen"], t)[0]
                rows[(label, t)] = row
                return row

            ops.append(Op(f"oracle.uniformized_transition[{label},t={t}]", uniformize,
                          lambda row, want=want: _fail_if(not _max_abs(row[:21], want) <= 1e-6,
                                                          f"oracle row vs closed form {_max_abs(row[:21], want):.3e}"),
                          _array_digest))
    for label, f_law, h_law, _ in systems:
        for t in times:
            def check_a3(sol, label=label, t=t):
                row = rows.get((label, t))
                if row is None:
                    return "oracle row missing"
                err = _max_abs(sol.P.coeffs[:21], row[:21])
                return _fail_if(not err <= 1e-6, f"|series - oracle| = {err:.3e} for j<=20")

            ops.append(Op(f"immigration_gf_series[{label},t={t},N={small}]",
                          lambda f_law=f_law, h_law=h_law, t=t: kolmogorov.immigration_gf_series(f_law, h_law, 0, t, small),
                          check_a3, _solution_digest))

    t_big = 1.0  # as in the ROADMAP baseline; the solve's step count grows with t
    f_ref = cauchy_coeffs(lambda z: 1.0 - gap_closed(NU, A0, t_big, 1.0 - z), big)
    p_ref = p_ref_canonical(t_big, big)
    ops.append(Op(f"solve_gf_series[canonical,t={t_big:.6g},N={big}]",
                  lambda: kolmogorov.solve_gf_series(f, t_big, big),
                  lambda sol: _fail_if(not _max_abs(sol.F.coeffs, f_ref) <= 1e-9,
                                       f"F coefficients vs Cauchy reference {_max_abs(sol.F.coeffs, f_ref):.3e}"),
                  _solution_digest))
    ops.append(Op(f"immigration_gf_series[canonical,t={t_big:.6g},N={big}]",
                  lambda: kolmogorov.immigration_gf_series(f, h, 0, t_big, big),
                  lambda sol: _fail_if(not (_max_abs(sol.F.coeffs, f_ref) <= 1e-9 and _max_abs(sol.P.coeffs, p_ref) <= 1e-9),
                                       f"F/P coefficients vs Cauchy reference {_max_abs(sol.P.coeffs, p_ref):.3e}"),
                  _solution_digest))

    # A5: U at order 4n and its invariance residual over the window j <= n.
    g = NU - DELTA
    regime = classify(f, h)
    ratio = karamata.ratio_of(f.slowly_varying(), h.slowly_varying())
    u_ref = cauchy_coeffs(lambda z: np.exp((1.0 - z) ** (-g)), big)
    measure_box = {}

    def limit_series():
        measure_box["U"] = asymptotics.limit_gf_series(f, h, regime, ratio, big)
        return measure_box["U"]

    ops.append(Op(f"limit_gf_series[N={big}]", limit_series,
                  lambda m: _fail_if(not _max_rel(m.coeffs, u_ref) <= 1e-10,
                                     f"U coefficients vs Cauchy reference {_max_rel(m.coeffs, u_ref):.3e}"),
                  lambda m: _array_digest(m.coeffs)))
    ops.append(Op(f"invariance_residual[N={big},window={big // 4}]",
                  lambda: asymptotics.invariance_residual(measure_box["U"], f, h, 1.0, big // 4, tol=1e-10),
                  lambda res: _fail_if(not res[0] <= 1e-6, f"invariance residual {res[0]:.3e} (tol 1e-6)"),
                  lambda res: _floats_digest(res[0], float(res[1]))))

    # A6: oracle ratio rows at t = 50 against the ratio-limit measure.
    pi_ref = cauchy_coeffs(lambda z: np.exp((1.0 - z) ** (-g) - 1.0), big)

    def a6():
        gen = oracle.build_generator(f, h, n_ratio)
        return oracle.uniformized_transition(gen, 50.0)[0]

    ops.append(Op(f"oracle.ratio_rows[t=50,n_max={n_ratio}]", a6,
                  lambda row: _fail_if(not _max_abs(row[:11] / row[0], pi_ref[:11]) <= 0.01,
                                       f"max |p_0j/p_00 - pi_j| = {_max_abs(row[:11] / row[0], pi_ref[:11]):.3e}"),
                  _array_digest))

    # M, pi, U, V through the CLI.
    m_ref = stable_invariant_ref(NU, A0, big)
    refs = {"M": m_ref, "V": A0 * m_ref, "pi": pi_ref, "U": u_ref}

    def check_invariant(out: Path):
        worst = 0.0
        got: dict = {}
        for row in _read_csv(out / "invariant.csv"):
            got.setdefault(row["measure"], []).append(float(row["coefficient"]))
        for tag, ref in refs.items():
            vals = got.get(tag)
            if vals is None or len(vals) != ref.size:
                return f"measure {tag} missing or truncated"
            worst = max(worst, _max_rel(vals, ref))
        return _fail_if(not worst <= 1e-10, f"invariant.csv worst rel err {worst:.3e}")

    cfg = {
        "offspring": {"kind": "canonical", "nu": NU, "a0": A0},
        "immigration": {"kind": "canonical", "delta": DELTA, "c": C},
        "measures": ["M", "pi", "U", "V"],
        "order": big,
    }
    ops.append(_cli_op(f"cli.invariant[N={big}]", "invariant", cfg, workdir / "invariant", check_invariant))

    # Direct kernels on seed-drawn inputs with geometric decay, so the
    # reference can sample them on the unit circle.
    w = np.r_[1.0, rng.uniform(-1.0, 1.0, big) * 0.5 ** np.arange(1, big + 1)]
    alpha = float(rng.uniform(-0.9, 1.5))
    outer = rng.uniform(-1.0, 1.0, big + 1) * 0.7 ** np.arange(big + 1)
    inner = np.r_[float(rng.uniform(0.0, 0.2)), rng.uniform(-1.0, 1.0, big) * 0.5 ** np.arange(1, big + 1)]
    poly = np.polynomial.polynomial.polyval
    pow_ref = cauchy_coeffs(lambda z: poly(z, w) ** alpha, big, M=4096, rho=1.0)
    comp_ref = cauchy_coeffs(lambda z: poly(poly(z, inner), outer), big, M=4096, rho=1.0)
    w_s, outer_s, inner_s = series.Series(w), series.Series(outer), series.Series(inner)
    ops.append(Op(f"series.power[N={big},alpha={alpha:.6g}]", lambda: series.power(w_s, alpha),
                  lambda r: _fail_if(not _max_abs(r.coeffs, pow_ref) <= 1e-12,
                                     f"power vs Cauchy reference {_max_abs(r.coeffs, pow_ref):.3e}"),
                  lambda r: _array_digest(r.coeffs)))
    ops.append(Op(f"series.compose[N={big}]", lambda: series.compose(outer_s, inner_s),
                  lambda r: _fail_if(not _max_abs(r.coeffs, comp_ref) <= 1e-12,
                                     f"compose vs Cauchy reference {_max_abs(r.coeffs, comp_ref):.3e}"),
                  lambda r: _array_digest(r.coeffs)))
    return ops


# ---------------------------------------------------------------------------
# Monte Carlo workloads


def _mc_op(name, cfg, estimator, check) -> Op:
    """simulate + estimate as one operation; the output is (obs, estimate)."""
    kind, t, j = estimator

    def call():
        obs = montecarlo.simulate(cfg, threads=1)
        return obs, montecarlo.estimate(cfg, kind, t, j, obs=obs)

    return Op(name, call, lambda out: check(out[1]), lambda out: _obs_digest(out[0]), seed=cfg.seed)


def _z_check(want: float, label: str, z_max: float):
    def check(est):
        z = (est.value - want) / est.se if est.se > 0 else math.inf
        return _fail_if(not abs(z) <= z_max, f"{label} = {est.value:.6g} +/- {est.se:.3g} vs {want:.6g} (z = {z:+.2f})")

    return check


def _mc_bulk(laws, rng, size, workdir: Path) -> list[Op]:
    f, fb, hb = laws["f"], laws["f_bin"], laws["h_one"]
    replicas = 100_000 if size == "full" else 2_000
    ops = []
    for seed_a in BULK_SEEDS:
        seed_b = int(rng.integers(0, 2**63))
        cfg = montecarlo.SimConfig(offspring=f, immigration=None, grid=(10.0,), replicas=replicas, seed=seed_a)
        ops.append(_mc_op(f"simulate[canonical,t=10,seed={seed_a}]", cfg, ("survival", 10.0, None),
                          _z_check(1.0 / 36.0, "q_hat(10)", Z_FIXED)))
        cfg2 = montecarlo.SimConfig(offspring=fb, immigration=hb, grid=(3.0,), replicas=replicas, seed=seed_b)
        ops.append(_mc_op(f"simulate[binary+arrivals,t=3,seed={seed_b}]", cfg2, ("mean", 3.0, None),
                          _z_check(3.0, "mean(3)", Z_SEEDED)))
    return ops


def _mc_tail(laws, rng, size, workdir: Path) -> list[Op]:
    f, h = laws["f"], laws["h"]
    replicas = 10_000 if size == "full" else 2_000
    t_end = 100.0 if size == "full" else 20.0
    cap_b = 10**4
    q_true = float(gap_closed(NU, A0, t_end, 1.0))
    ops = []

    def check_tail(est):
        # capped paths could have survived or died, so they widen the bound
        bound = 3.0 * est.se + est.capped / est.replicas
        err = abs(est.value - q_true)
        return _fail_if(not err <= bound, f"|q_hat - q| = {err:.3g} above 3 se + capped/used = {bound:.3g}")

    for seed in TAIL_SEEDS:
        cfg = montecarlo.SimConfig(offspring=f, immigration=None, grid=(t_end,), replicas=replicas, seed=seed, cap=cap_b)
        ops.append(_mc_op(f"simulate[canonical,t={t_end:g},cap={cap_b},seed={seed}]", cfg,
                          ("survival", t_end, None), check_tail))

    # The ratio estimator excludes paths that ever exceed the cap; the
    # truncated chain on 0..cap has exactly that law, so its row-0 ratio
    # at t = 50 is the estimator's target (pi_1 is only the t -> infinity
    # limit and sits about 1.7 standard errors away).
    cap_i = 200
    row = oracle.uniformized_transition(oracle.build_generator(f, h, cap_i), 50.0)[0]
    seed_i = int(rng.integers(0, 2**63))
    cfg = montecarlo.SimConfig(offspring=f, immigration=h, grid=(50.0,), replicas=replicas, seed=seed_i, cap=cap_i)
    ops.append(_mc_op(f"simulate[canonical pair,t=50,cap={cap_i},seed={seed_i}]", cfg, ("ratio", 50.0, 1),
                      _z_check(float(row[1] / row[0]), "ratio(1,50)", Z_SEEDED)))
    return ops


_BUILDERS = {
    "scalar-grid": _scalar_grid,
    "coefficients": _coefficients,
    "mc-bulk": _mc_bulk,
    "mc-tail": _mc_tail,
}


def build_ops(workload: str, laws: dict, seed: int, size: str, workdir: Path) -> list[Op]:
    """The workload's operation list, with references computed up front."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    return _BUILDERS[workload](laws, rng, size, workdir)
