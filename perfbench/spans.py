"""Span recording for the traced run, and the per-layer metrics built from it.

Spans are recorded around calls into ``criticalbranch`` functions by
wrapping them, from this file, in every module namespace that binds them;
nothing under ``src/`` changes.  Spans stay in memory as
``[name, start, end, parent, op]`` and are written once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from criticalbranch import asymptotics, cli, karamata, kolmogorov, laws, montecarlo, oracle, series

SCALAR_SOLVES = ("solve_gf", "immigration_gf", "gf_derivative")
SERIES_SOLVES = ("solve_gf_series", "immigration_gf_series")
KERNELS = ("_pow_coeffs", "_exp_coeffs", "_reciprocal_coeffs", "compose")
LAW_BUILDERS = (
    "make_stable_offspring", "make_perturbed_offspring", "make_finite_offspring",
    "make_stable_immigration", "make_finite_immigration",
    "offspring_from_config", "immigration_from_config", "classify",
)
LAYERS = ("kolmogorov", "series", "oracle", "asymptotics", "karamata", "montecarlo", "cli", "laws")


def _public_functions(module) -> tuple[str, ...]:
    return tuple(n for n in module.__all__ if type(getattr(module, n)).__name__ == "function")


def _kernel_flops(name: str, args) -> int:
    """Leading-order flop count of one kernel call, computed from N."""
    if name == "compose":
        n = min(args[0].coeffs.size, args[1].coeffs.size)
        return 2 * n**3  # n truncated convolutions of length n
    n = np.asarray(args[0]).size
    return 2 * n * n if name == "_pow_coeffs" else n * n  # dot products of length k, k < n


def _csv_bytes(argv) -> int:
    argv = list(argv)
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else Path(".")
    return sum(p.stat().st_size for p in out.glob("*.csv"))


class Tracer:
    """Wraps layer entry points; records spans only while ``op`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.extra: dict[int, dict] = {}
        self.op: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _targets(self):
        yield "kolmogorov", kolmogorov, SCALAR_SOLVES + SERIES_SOLVES
        yield "series", series, KERNELS
        yield "oracle", oracle, ("build_generator", "uniformized_transition")
        yield "asymptotics", asymptotics, _public_functions(asymptotics)
        yield "karamata", karamata, _public_functions(karamata)
        yield "montecarlo", montecarlo, ("simulate", "estimate")
        yield "cli", cli, ("main",)
        yield "laws", laws, LAW_BUILDERS

    def install(self, *extra_modules) -> None:
        """Wrap every binding of each entry point in the package and in ``extra_modules``."""
        pkg_modules = [m for n, m in sys.modules.items() if n.startswith("criticalbranch") and m is not None]
        pkg_modules += extra_modules
        for layer, module, names in self._targets():
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in pkg_modules:
                    if getattr(mod, name, None) is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()

    def _wrap(self, span_name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [span_name, time.perf_counter(), None, parent, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            tracer._note(idx, span_name, args, result)
            return result

        return wrapper

    def _note(self, idx, span_name, args, result) -> None:
        layer, name = span_name.split(".", 1)
        extra = {}
        if name in ("solve_gf", "immigration_gf", "solve_gf_series", "immigration_gf_series"):
            extra["steps"] = result.steps
        elif layer == "series":
            extra["flops"] = _kernel_flops(name, args)
        elif name == "build_generator":
            extra["bytes"] = result.Q.nbytes
        elif name == "uniformized_transition":
            extra["bytes"] = result.nbytes
            extra["leaked"] = float(1.0 - result[0].sum())
        elif name == "simulate":
            extra["paths"] = int(result.states.shape[0])
            extra["capped"] = int(result.capped.sum())
        elif layer == "cli":
            extra["csv_bytes"] = _csv_bytes(args[0] if args else [])
        if extra:
            self.extra[idx] = extra

    def write(self, path: Path) -> None:
        payload = {"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans, "extra": self.extra}
        path.write_text(json.dumps(payload))


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer totals over the traced passes, divided by the pass count.

    Spans of op ``setup`` (the law building before the first operation) are
    counted once, undivided.

    ``<layer>.self_s`` is span time minus the time its direct child spans
    cover.  The layer-level ``_s`` figures count only spans with no ancestor
    in the same layer, so they include nested work of other layers.
    """
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child_time[s[3]] += dur[i]

    def layer_of(i):
        return spans[i][0].split(".", 1)[0]

    def outermost(i):
        layer, p = layer_of(i), spans[i][3]
        while p is not None:
            if layer_of(p) == layer:
                return False
            p = spans[p][3]
        return True

    tot: dict[str, float] = {}

    def add(key, value):
        tot[key] = tot.get(key, 0.0) + value * weight

    leaked = 0.0
    for i, s in enumerate(spans):
        layer, name = s[0].split(".", 1)
        weight = 1.0 if s[4] == "setup" else 1.0 / passes
        extra = tracer.extra.get(i, {})
        add(f"{layer}.self_s", dur[i] - child_time[i])
        top = outermost(i)
        if layer == "kolmogorov":
            kind = "scalar" if name in SCALAR_SOLVES else "series"
            if top:
                add(f"kolmogorov.{kind}_calls", 1)
                add(f"kolmogorov.{kind}_s", dur[i])
            add(f"kolmogorov.{kind}_steps", extra.get("steps", 0))
        elif layer == "series":
            if top:
                add("series.kernel_calls", 1)
                add("series.kernel_s", dur[i])
            add("series.kernel_flops", extra.get("flops", 0))
        elif layer == "oracle":
            add("oracle.matrix_bytes", extra.get("bytes", 0))
            if name == "build_generator":
                add("oracle.build_s", dur[i])
            else:
                add("oracle.uniformize_calls", 1)
                add("oracle.uniformize_s", dur[i])
                leaked = max(leaked, extra["leaked"])
        elif layer == "montecarlo":
            if name == "simulate":
                add("montecarlo.simulate_calls", 1)
                add("montecarlo.simulate_s", dur[i])
                add("montecarlo.paths", extra["paths"])
                add("montecarlo.capped", extra["capped"])
            elif top:
                add("montecarlo.estimate_s", dur[i])
        elif layer in ("asymptotics", "cli"):
            if top:
                add(f"{layer}.calls", 1)
                add(f"{layer}.s", dur[i])
            if layer == "cli":
                add("cli.csv_bytes", extra["csv_bytes"])
        elif top and layer == "karamata":
            add("karamata.s", dur[i])
        elif top and layer == "laws":
            add("laws.build_s", dur[i])

    names = [
        "kolmogorov.scalar_calls", "kolmogorov.scalar_s", "kolmogorov.scalar_steps",
        "kolmogorov.series_calls", "kolmogorov.series_s", "kolmogorov.series_steps",
        "series.kernel_calls", "series.kernel_s", "series.kernel_flops",
        "oracle.build_s", "oracle.uniformize_calls", "oracle.uniformize_s", "oracle.matrix_bytes",
        "asymptotics.calls", "asymptotics.s", "karamata.s", "laws.build_s",
        "montecarlo.simulate_calls", "montecarlo.simulate_s", "montecarlo.paths",
        "montecarlo.capped", "montecarlo.estimate_s",
        "cli.calls", "cli.s", "cli.csv_bytes",
    ] + [f"{layer}.self_s" for layer in LAYERS]
    out = {n: tot.get(n, 0.0) for n in names}
    out["oracle.leaked_mass"] = leaked
    sim_s = out["montecarlo.simulate_s"]
    out["montecarlo.paths_per_s"] = out["montecarlo.paths"] / sim_s if sim_s > 0 else 0.0
    return out
