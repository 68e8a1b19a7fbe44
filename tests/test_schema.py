"""The config schema against its documentation, and fuzzes of the CLI and the law entry points drawn from it."""

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

from criticalbranch import ImmigrationLaw, OffspringLaw, cli, laws

DOCS = Path(__file__).resolve().parents[1] / "docs" / "cli.md"


def nodes(spec, path="$"):
    """(path, spec) for every node of a schema; ``[i]`` marks an index."""
    yield path, spec
    if isinstance(spec, laws._ByKind):
        for sub in spec.values():
            yield from nodes(sub, path)
    elif isinstance(spec, dict):
        for key, (_, sub) in spec.items():
            yield from nodes(sub, f"{path}.{key}")
    elif isinstance(spec, list):
        yield from nodes(spec[0], f"{path}[i]")


def declared_domains(spec, path="$"):
    """(path, allowed) for every range and choice a schema declares."""
    for where, node in nodes(spec, path):
        if isinstance(node, laws._ByKind):
            yield f"{where}.kind", "one of " + ", ".join(node)
        elif isinstance(node, list) and len(node) > 1:
            yield where, f"at most {node[1]} entries"
        elif isinstance(node, laws._Leaf) and (node.choices or node.lo > -math.inf or node.hi < math.inf):
            yield where, node.domain()


def numeric_paths(spec, path="$"):
    """Every path whose leaf is a number, declared range or not."""
    return sorted({where for where, node in nodes(spec, path) if isinstance(node, laws._Leaf) and node.types is not str})


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
# path, one step outside it or a value no number leaf admits.  In-domain draws
# stay small (replicas <= 200, cap <= 1000, arrays of at most 3 entries, times
# up to 10, order <= 64, law parameters up to 3) so an example runs in
# milliseconds.

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
# law parameters take values of working laws four times in six and other
# in-domain numbers otherwise
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
# JSON literals that no number leaf admits: each must be rejected at its path
_LITERALS = ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400)
_STEP = object()  # the value at the bad path: one step outside its domain


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
    if path.startswith(("$.offspring.", "$.immigration.")):
        key = path.rsplit(".", 1)[-1]
        others = st.floats(leaf.lo, min(leaf.hi, 3.0), exclude_min=leaf.open_lo), st.integers(0, 3).filter(leaf.admits)
        return st.one_of(*[st.sampled_from(_LAW_VALUES[key])] * 4, *others)
    if leaf.types is int:
        return st.integers(max(lo, leaf.lo), min(hi, leaf.hi))
    return st.floats(max(lo, leaf.lo), min(hi, leaf.hi), exclude_min=leaf.open_lo and lo <= leaf.lo)


@st.composite
def config(draw, spec, bad, placed, path="$", value=_STEP):
    """A config for ``spec``; the leaf at the pattern ``bad`` (if drawn) gets ``value`` or steps out of its domain."""
    if isinstance(spec, laws._ByKind):
        kind = draw(st.sampled_from(sorted(spec)))
        obj = draw(config(spec[kind], None if bad == f"{path}.kind" else bad, placed, path, value))
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
                obj[key] = draw(config(sub, bad, placed, f"{path}.{key}", value))
        return obj
    if path.endswith(".rates"):
        rates = list(draw(st.one_of(*[st.sampled_from(_LAW_VALUES["rates"])] * 4, st.lists(st.floats(-2.0, 2.0), max_size=4))))
        if bad == f"{path}[i]":
            placed.append(bad)
            rates.insert(draw(st.integers(0, len(rates))), value)
        return rates
    if isinstance(spec, list):
        n = spec[1] + 1 if bad == path else draw(st.integers(1, 3))
        if bad == path:
            placed.append(path)
        items = [draw(config(spec[0], bad, placed, f"{path}[i]", value)) for _ in range(n)]
        return sorted(items) if items and isinstance(items[0], (int, float)) else items
    if bad == path:
        placed.append(path)
        return draw(_step_out(spec)) if value is _STEP else value
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
    literal = data.draw(st.one_of(st.none(), st.none(), st.none(), st.sampled_from(_LITERALS)), label="literal")
    patterns = numeric_paths(schema) if literal else [path for path, _ in declared_domains(schema)]
    bad = data.draw(st.one_of(st.none(), st.sampled_from(patterns)), label="out-of-domain path")
    placed = []
    marker = f"@{literal}@"  # a string that json.dumps leaves alone, swapped for the bare literal
    cfg = data.draw(config(schema, bad, placed, value=marker if literal else _STEP), label="config")
    work = tmp_path / f"example{next(_examples)}"
    work.mkdir()
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg).replace(f'"{marker}"', str(literal)))
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


# values that no number leaf admits, as a library caller might pass them
_BAD_VALUES = (math.nan, math.inf, -math.inf, 10**400, "0.5", True, None, [0.5])


@pytest.mark.parametrize("what", ["offspring", "immigration"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_law_fuzz_from_schema(what, data):
    spec, path = laws._LAWS[what][1], f"$.{what}"
    value = data.draw(st.one_of(st.just(_STEP), st.sampled_from(_BAD_VALUES)), label="bad value")
    patterns = numeric_paths(spec, path) if value is not _STEP else [p for p, _ in declared_domains(spec, path)]
    bad = data.draw(st.one_of(st.none(), st.sampled_from(patterns)), label="bad path")
    placed = []
    fragment = data.draw(config(spec, bad, placed, path, value), label="fragment")
    build = laws.offspring_from_config if what == "offspring" else laws.immigration_from_config
    try:
        law = build(fragment)
    except ValueError as exc:  # any other exception type fails the test
        assert "$." in str(exc)
        if placed:
            pattern = re.escape(placed[0]).replace(r"\[i\]", r"\[\d+\]")
            assert re.search(pattern + "$", str(exc)), (placed[0], str(exc))
    else:
        assert not placed
        assert isinstance(law, OffspringLaw if what == "offspring" else ImmigrationLaw)
