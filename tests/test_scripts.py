"""The scripts under scripts/ run end to end on small inputs.

``test_exports`` counts the scripts as code that reaches library names; these
runs check that those names still work as the scripts call them.  Only the
exit code and the shape of the output are asserted, not the statistics.
"""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_convergence_rates_writes_three_sweeps(tmp_path):
    result = run_script("convergence_rates.py", "--points", "3", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    with (tmp_path / "convergence_rates.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["experiment", "t", "error", "fitted_slope", "target_slope"]
    assert [row[0] for row in rows] == ["scaled-gf-matched"] * 3 + ["scaled-gf-perturbed"] * 3 + ["conditioned-gf"] * 3


def test_mc_vs_exact_prints_three_rows():
    result = run_script("mc_vs_exact.py", "--replicas", "2000")
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["experiment", "estimate", "stderr", "reference", "z"]
    assert len(rows) == 3, result.stdout


def test_contract_digest_measure_sweep_prints_one_line_per_pair(capsys):
    spec = importlib.util.spec_from_file_location("contract_digest", ROOT / "scripts" / "contract_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    digest.measure_sweep()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [f"measures[{k}]" for k in range(len(digest.PAIRS))]
    for line, (_, h) in zip(lines, digest.PAIRS):
        keys = [field.split("=")[0] for field in line.split()[1:]]
        assert keys == (["M", "V", "pi", "U", "residual", "truncation"] if h else ["M", "V"]), line


def _load_digest():
    spec = importlib.util.spec_from_file_location("contract_digest", ROOT / "scripts" / "contract_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_contract_digest_oracle_sweep_prints_the_a3_and_a6_calls(capsys):
    _load_digest().oracle_sweep()
    lines = capsys.readouterr().out.splitlines()
    labels = [f"oracle[{pair},n_max=200,t={t}]" for pair in ("binary", "canonical") for t in (0.5, 1.0, 2.0)]
    assert [line.split()[0] for line in lines] == labels + ["oracle[canonical,n_max=512,t=50.0]"]
    for line in lines:
        assert [field.split("=")[0] for field in line.split()[2:]] == ["halvings", "terms"], line
    assert lines[-1].endswith(" halvings=18 terms=10")


def test_contract_digest_scaled_pair_tells_v_from_m(capsys):
    digest = _load_digest()
    digest.measure_sweep([("measures[a0=2]", *digest.SCALED_PAIR)])
    (line,) = capsys.readouterr().out.splitlines()
    fields = dict(field.split("=", 1) for field in line.split()[1:])
    assert list(fields) == ["M", "V", "pi", "U", "residual", "truncation"], line
    assert fields["M"] != fields["V"]


def test_contract_digest_matches_the_committed_file():
    # the CSV bytes of every command, the verify details and the solver sweep, pinned for one platform
    digest = _load_digest()
    committed = ROOT / "scripts" / "contract_digest.txt"
    recorded, _ = digest.read_digest(committed)
    here = digest.platform_fields()
    differ = sorted(key for key in recorded.keys() | here.keys() if recorded.get(key) != here.get(key))
    if differ:
        pytest.skip(f"the committed digest was recorded on another platform: {', '.join(differ)} differ")
    result = run_script("contract_digest.py", "--check", str(committed), "--sections", "commands", "solver_sweep")
    assert result.returncode == 0, result.stdout + result.stderr
