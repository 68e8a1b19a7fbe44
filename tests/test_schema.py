"""The config schema against its documentation, and a fuzz of the CLI drawn from it."""

import contextlib
import csv
import io
import itertools
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from criticalbranch import cli

DOCS = Path(__file__).resolve().parents[1] / "docs" / "cli.md"


def declared_domains(spec, path="$"):
    """(path, allowed) for every range and choice a schema declares; ``[i]`` marks an index."""
    if isinstance(spec, cli._ByKind):
        yield f"{path}.kind", "one of " + ", ".join(spec)
        for sub in spec.values():
            yield from declared_domains(sub, path)
    elif isinstance(spec, dict):
        for key, (_, sub) in spec.items():
            yield from declared_domains(sub, f"{path}.{key}")
    elif isinstance(spec, list):
        if len(spec) > 1:
            yield path, f"at most {spec[1]} entries"
        yield from declared_domains(spec[0], f"{path}[i]")
    elif spec.choices or spec.lo > -math.inf or spec.hi < math.inf:
        yield path, spec.domain()


def test_docs_list_every_declared_range():
    text = DOCS.read_text()
    rows = [l for l in text[text.index("## Exit codes") : text.index("## simulate")].splitlines() if l.startswith("| `$.")]
    missing = [
        (command, path, allowed)
        for command, schema in cli._SCHEMAS.items()
        for path, allowed in declared_domains(schema)
        if not any(f"`{path}`" in row and command in row and allowed in row for row in rows)
    ]
    assert not missing


# ---------------------------------------------------------------------------
# Fuzz: configs drawn from the schema, each leaf in its domain or, at one drawn
# path, one step outside it.  In-domain draws stay small (replicas <= 200,
# cap <= 1000, arrays of at most 3 entries, times up to 10, order <= 64) so an
# example runs in milliseconds.

_IN_DOMAIN = {
    "$.replicas": (1, 200),
    "$.cap": (1, 1000),
    "$.start": (0, 5),
    "$.seed": (0, 2**32),
    "$.estimators[i].j": (0, 20),
    "$.order": (0, 64),
    "$.t[i]": (0.0, 10.0),
    "$.tol": (1e-12, 1.0),
    "$.a0": (1e-3, 10.0),
    "$.t_start": (1.0, 20.0),
    "$.t_step": (1e-2, 5.0),
    "$.t_stop": (5.0, 100.0),
}
# drawn even though optional: the default cap of 1e6 lets immigration paths run for seconds
_ALWAYS = ("$.cap",)
# grid and estimator times share three values, so estimators often hit the grid
_TIMES = ("$.grid[i]", "$.estimators[i].t")
# law parameters have no declared range (their builders guard them); draws take
# values of working laws four times in six and arbitrary numbers otherwise
_LAW_VALUES = {
    "nu": (0.5, 1.0, 0.2),
    "a0": (1.0, 2.0),
    "rho": (0.3, 0.0),
    "p": (0.5,),
    "delta": (0.4, 0.8, 1.0),
    "c": (0.1, 1.0),
    "kappa": (0.25, 0.0),
    "rates": ([1.0, -2.0, 1.0], [-1.0, 1.0], [0.5, -1.0, 0.5], [-2.0, 1.0, 1.0]),
}


def _step_out(leaf):
    """Values one step outside a leaf's domain."""
    if leaf.choices:
        return st.just("bogus")
    out = []
    if leaf.lo > -math.inf:
        out.append(leaf.lo if leaf.open_lo else leaf.lo - 1 if leaf.types is int else math.nextafter(leaf.lo, -math.inf))
    if leaf.hi < math.inf:
        out.append(leaf.hi + 1 if leaf.types is int else math.nextafter(leaf.hi, math.inf))
    return st.sampled_from(out)


def _in_domain(leaf, path):
    if leaf.types is str:
        return st.sampled_from(leaf.choices) if leaf.choices else st.text(max_size=3)
    if path in _TIMES:
        return st.sampled_from((0.0, 1.0, 10.0))
    lo, hi = _IN_DOMAIN.get(path, (leaf.lo, leaf.hi))
    if lo == -math.inf:
        key = path.rsplit(".", 1)[-1]
        return st.one_of(*[st.sampled_from(_LAW_VALUES[key])] * 4, st.floats(-1.0, 3.0), st.integers(-1, 3))
    if leaf.types is int:
        return st.integers(max(lo, leaf.lo), min(hi, leaf.hi))
    return st.floats(max(lo, leaf.lo), min(hi, leaf.hi), exclude_min=leaf.open_lo and lo <= leaf.lo)


@st.composite
def config(draw, spec, bad, placed, path="$"):
    """A config for ``spec``; the leaf at the pattern ``bad`` (if drawn) steps out of its domain."""
    if isinstance(spec, cli._ByKind):
        kind = draw(st.sampled_from(sorted(spec)))
        obj = draw(config(spec[kind], None if bad == f"{path}.kind" else bad, placed, path))
        obj["kind"] = kind
        if bad == f"{path}.kind":
            foreign = sorted(set(itertools.chain(*spec.values())) - set(spec[kind]))
            if draw(st.booleans()):
                obj["kind"] = "bogus"
                placed.append(f"{path}.kind")
            else:
                key = draw(st.sampled_from(foreign))
                obj[key] = 1.0
                placed.append(f"{path}.{key}")
        return obj
    if isinstance(spec, dict):
        obj = {}
        for key, (required, sub) in spec.items():
            if required or f"{path}.{key}" in _ALWAYS or draw(st.booleans()):
                obj[key] = draw(config(sub, bad, placed, f"{path}.{key}"))
        return obj
    if path.endswith(".rates"):
        return draw(st.one_of(*[st.sampled_from(_LAW_VALUES["rates"])] * 4, st.lists(st.floats(-2.0, 2.0), max_size=4)))
    if isinstance(spec, list):
        n = spec[1] + 1 if bad == path else draw(st.integers(1, 3))
        if bad == path:
            placed.append(path)
        items = [draw(config(spec[0], bad, placed, f"{path}[i]")) for _ in range(n)]
        return sorted(items) if items and isinstance(items[0], (int, float)) else items
    if bad == path:
        placed.append(path)
        return draw(_step_out(spec))
    return draw(_in_domain(spec, path))


def _check_csvs(out: Path) -> None:
    files = sorted(out.glob("*.csv"))
    assert files
    for f in files:
        lines = f.read_text().splitlines()
        assert lines[0].startswith("# criticalbranch ") and lines[1].startswith("# config_hash=")
        header, *rows = list(csv.reader(lines[2:]))
        for row in rows:
            assert len(row) == len(header)
            for cell in row:
                assert cell.lower() not in ("nan", "inf", "-inf"), f"{f.name}: {row}"


_examples = itertools.count()


@pytest.mark.parametrize("command", ["simulate", "solve", "invariant", "figure-data"])
@settings(
    max_examples=100,
    deadline=5000,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_cli_fuzz_from_schema(tmp_path, command, data):
    schema = cli._SCHEMAS[command]
    patterns = [path for path, _ in declared_domains(schema)]
    bad = data.draw(st.one_of(st.none(), st.sampled_from(patterns)), label="out-of-domain path")
    placed = []
    cfg = data.draw(config(schema, bad, placed), label="config")
    work = tmp_path / f"example{next(_examples)}"
    work.mkdir()
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", str(cfg_path), "--out", str(work / "out")])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert not placed and not lines
        _check_csvs(work / "out")
    else:
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error: ") and "$." in lines[0]
        assert not list((work / "out").glob("*.csv"))
        if placed:
            pattern = re.escape(placed[0]).replace(r"\[i\]", r"\[\d+\]")
            assert re.search(pattern, lines[0]), (placed[0], lines[0])

