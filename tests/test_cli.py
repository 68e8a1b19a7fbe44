import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from criticalbranch import asymptotics, cli, kolmogorov, laws
from criticalbranch.kolmogorov import immigration_gf
from criticalbranch.laws import immigration_from_config, offspring_from_config
from reference_stepper import reference_stepper


def run_cli(*argv):
    return cli.main(list(argv))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


_MARCH = kolmogorov._March


def per_point(solver, f_law, ts, *args, **kwargs):
    """A stand-in for ``kolmogorov._March`` that runs one solo solve (a one-horizon march) per point.

    It builds each march from the class itself: ``solve_gf`` would call this stand-in again.
    """
    return lambda t: _MARCH(solver, f_law, (t,), *args, **kwargs)(t)


def count_rate_calls(monkeypatch):
    """Counts every call of a gap rate that an offspring law builds from now on."""
    calls = [0]
    build = laws.OffspringLaw.gap_rate.fget

    def counted(law):
        rate = build(law)

        def spy(r):
            calls[0] += 1
            return rate(r)

        return spy

    monkeypatch.setattr(laws.OffspringLaw, "gap_rate", property(counted))
    return calls


class TestFigureData:
    def test_presets_are_both_figure_parameter_sets(self):
        assert asymptotics.FIGURE_PRESETS == ((0.2, 0.9), (0.9, 0.2))

    def test_grid_endpoints(self):
        rows = asymptotics.figure_rows(0.2, 0.9, "half-log")
        assert rows[0][0] == 5.0
        assert rows[-1][0] == 100.0
        assert len(rows) == 191
        assert [t for t, _, _ in rows] == [5.0 + 0.5 * k for k in range(191)]

    def test_spot_value(self):
        rows = dict((t, q) for t, q, _ in asymptotics.figure_rows(0.2, 0.9, "half-log"))
        assert rows[50.0] == pytest.approx(7.319e-5, rel=1e-3)

    def test_rows_equal_direct_formula(self):
        nu, a0 = 0.9, 0.2
        for t, q, p1 in asymptotics.figure_rows(nu, a0, "log-power"):
            n_t = 1.0 + math.log(t + 1.0) / t**nu
            q_direct = n_t / (nu * t) ** (1.0 / nu) * (1.0 + math.log(a0 * nu * t) / (nu**3 * t))
            assert q == q_direct
            assert p1 == q_direct * (1.0 + math.log(a0 * nu * t) / (nu**2 * t)) / (a0 * nu * t)

    def test_cli_writes_four_preset_files(self, tmp_path):
        assert run_cli("figure-data", "--out", str(tmp_path)) == 0
        files = sorted(p.name for p in tmp_path.glob("figure_*.csv"))
        assert len(files) == 4

    def test_output_is_bit_stable(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("figure-data", "--out", str(out1))
        run_cli("figure-data", "--out", str(out2))
        name = "figure_nu0.2_a00.9_half-log.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestReport:
    def test_six_rows_with_formulas(self, tmp_path, capsys):
        assert run_cli("report", "--out", str(tmp_path)) == 0
        rows = asymptotics.report_rows()
        assert len(rows) == 6
        assert rows[5][1] == "M(s) = (1/nu)(1/Lambda(1-s) - 1/a0)"
        assert rows[5][2] == pytest.approx(0.828427, abs=1e-6)
        captured = capsys.readouterr().out
        assert "M(s)" in captured


class TestSolve:
    def test_solve_writes_rows_and_provenance(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0},
                "immigration": {"kind": "canonical", "delta": 0.4, "c": 0.1},
                "t": [1.0, 5.0],
                "s": [0.0, 0.5],
            },
        )
        assert run_cli("solve", "--config", config, "--out", str(tmp_path)) == 0
        lines = (tmp_path / "solve.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert "config_hash=" in lines[1]
        assert lines[2] == "t,s,F,R,G,P0"
        assert len(lines) == 3 + 4
        sidecar = json.loads((tmp_path / "solve.provenance.json").read_text())
        assert sidecar["command"] == "solve"
        assert "numpy" in sidecar["versions"]

    def test_floats_print_17_significant_digits(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0},
                "t": [10.0],
                "s": [0.0],
            },
        )
        run_cli("solve", "--config", config, "--out", str(tmp_path))
        data_line = (tmp_path / "solve.csv").read_text().splitlines()[3]
        f_printed = data_line.split(",")[2]
        assert float(f_printed) == pytest.approx(1.0 - 1.0 / 36.0, abs=1e-9)
        assert len(f_printed.replace("0.", "")) >= 16

    def test_horizon_below_min_step(self, tmp_path):
        # t = 1e-13 is below the stepper's smallest step; it used to exit 2 with a step size underflow
        config = write_config(
            tmp_path,
            {"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0}, "t": [1e-13], "s": [0.5]},
        )
        assert run_cli("solve", "--config", config, "--out", str(tmp_path)) == 0
        f_printed = (tmp_path / "solve.csv").read_text().splitlines()[3].split(",")[2]
        assert float(f_printed) == pytest.approx(0.5, abs=1e-12)

    def test_loose_tolerance_far_horizon(self, tmp_path):
        # large steps overshoot the gap below zero at inner stages; those steps are retried
        config = write_config(
            tmp_path,
            {"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0}, "t": [100.0], "s": [0.0], "tol": 0.5},
        )
        assert run_cli("solve", "--config", config, "--out", str(tmp_path)) == 0
        r_printed = (tmp_path / "solve.csv").read_text().splitlines()[3].split(",")[3]
        assert float(r_printed) == pytest.approx(1.0 / 51.0**2, rel=0.2)

    def test_provenance_carries_solver_totals(self, tmp_path):
        payload = {
            "offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0},
            "immigration": {"kind": "canonical", "delta": 0.4, "c": 0.1},
            "t": [1.0, 100.0],
            "s": [0.0, 0.9],
            "tol": 0.5,
        }
        assert run_cli("solve", "--config", write_config(tmp_path, payload), "--out", str(tmp_path)) == 0
        diagnostics = json.loads((tmp_path / "solve.provenance.json").read_text())["diagnostics"]
        offspring = offspring_from_config(payload["offspring"])
        immigration = immigration_from_config(payload["immigration"])
        sols = [immigration_gf(offspring, immigration, 0, t, s, 0.5) for t in payload["t"] for s in payload["s"]]
        keys = ("steps", "rejected", "gap_rejected", "rhs_evals")
        assert diagnostics == dict({key: sum(getattr(sol, key) for sol in sols) for key in keys}, points=4)
        assert diagnostics["gap_rejected"] > 0

    @pytest.mark.parametrize("tol", [None, 0.5])
    @pytest.mark.parametrize("immigration", [None, {"kind": "canonical", "delta": 0.4, "c": 0.1}])
    def test_marches_write_the_per_point_bytes(self, tmp_path, monkeypatch, immigration, tol):
        # each s is one march through an unsorted t list with a repeat, a zero and a
        # t below the stepper's smallest step; the sidecar counters stay per-point totals
        payload = {"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0},
                   "t": [50.0, 0.0, 1.0, 50.0, 1e-13, 7.5], "s": [0.9, 0.0, 0.3]}
        if immigration is not None:
            payload["immigration"] = immigration
        if tol is not None:
            payload["tol"] = tol
        config = write_config(tmp_path, payload)

        def outputs(out):
            assert run_cli("solve", "--config", config, "--out", str(out)) == 0
            sidecar = json.loads((out / "solve.provenance.json").read_text())
            return (out / "solve.csv").read_bytes(), sidecar["diagnostics"]

        marched = outputs(tmp_path / "march")
        # the same marches, with the reference stepper running each of their horizons alone
        monkeypatch.setattr(kolmogorov, "_Stepper", reference_stepper)
        assert marched == outputs(tmp_path / "reference")
        # a loop of solo solves on the reference stepper
        monkeypatch.setattr(kolmogorov, "_March", per_point)
        assert marched == outputs(tmp_path / "per-point")
        assert marched[1]["points"] == 18 and marched[1]["steps"] > 0

    def test_failing_grid_costs_no_more_than_the_per_point_loop(self, tmp_path, capsys, monkeypatch):
        # the first failing point in row-major order is (1e300, 0.5); the t = 1 row and
        # the s = 0 march past t = 100 are never needed
        payload = {"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0},
                   "immigration": {"kind": "canonical", "delta": 0.4, "c": 0.1},
                   "t": [100.0, 1e300, 1.0], "s": [0.5, 0.0]}
        config = write_config(tmp_path, payload)
        monkeypatch.setattr(kolmogorov, "_MAX_TRIES", 3000)
        calls = count_rate_calls(monkeypatch)

        def run():
            calls[0] = 0
            code = run_cli("solve", "--config", config, "--out", str(tmp_path))
            return code, capsys.readouterr().err, calls[0]

        code, err, marched = run()
        # a loop of solo solves on the reference stepper
        monkeypatch.setattr(kolmogorov, "_March", per_point)
        monkeypatch.setattr(kolmogorov, "_Stepper", reference_stepper)
        assert (code, err) == run()[:2]
        assert err.startswith("error: no progress in 3000 step attempts at t=")
        assert err.endswith(" at $.t[1] and $.s[0]\n")
        assert 0 < marched <= calls[0]
        assert not (tmp_path / "solve.csv").exists()


class TestOutputs:
    PAYLOAD = {"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0}, "t": [1.0, 5.0, 50.0], "s": [0.0, 0.5]}

    def solve(self, tmp_path, out, **change):
        config = write_config(tmp_path, dict(self.PAYLOAD, **change))
        assert run_cli("solve", "--config", config, "--out", str(out)) == 0
        return (out / "solve.csv").read_bytes()

    def test_rerun_into_one_out_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        assert self.solve(tmp_path, out) == self.solve(tmp_path, out)

    def test_shorter_rerun_leaves_no_stale_rows(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        long = self.solve(tmp_path, out)
        short = self.solve(tmp_path, out, t=[1.0])
        assert short == self.solve(tmp_path, fresh, t=[1.0])
        assert len(short.splitlines()) == 3 + 2 < len(long.splitlines())
        sidecar = json.loads((out / "solve.provenance.json").read_text())
        assert sidecar["effective_config"]["t"] == [1.0]

    def test_symlinked_output_is_replaced_and_its_target_kept(self, tmp_path):
        out, target = tmp_path / "out", tmp_path / "elsewhere.csv"
        out.mkdir()
        target.write_text("keep me\n")
        (out / "solve.csv").symlink_to(target)
        written = self.solve(tmp_path, out)
        assert not (out / "solve.csv").is_symlink()
        assert written.startswith(b"# criticalbranch solve\n")
        assert target.read_text() == "keep me\n"


class TestInvariant:
    def test_measure_coefficients(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0},
                "immigration": {"kind": "canonical", "delta": 0.4, "c": 0.1},
                "measures": ["M", "pi", "U", "V"],
                "order": 8,
            },
        )
        assert run_cli("invariant", "--config", config, "--out", str(tmp_path)) == 0
        lines = (tmp_path / "invariant.csv").read_text().splitlines()[3:]
        assert len(lines) == 4 * 9
        pi0 = [l for l in lines if l.startswith("pi,0,")][0]
        assert float(pi0.split(",")[2]) == 1.0


class TestSimulate:
    def test_simulate_emits_estimates(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "offspring": {"kind": "finite", "rates": [1.0, -2.0, 1.0]},
                "grid": [0.0, 2.0],
                "replicas": 2000,
                "seed": 7,
                "estimators": [{"kind": "survival", "t": 2.0}],
            },
        )
        assert run_cli("simulate", "--config", config, "--out", str(tmp_path)) == 0
        lines = (tmp_path / "simulate.csv").read_text().splitlines()
        value = float(lines[3].split(",")[3])
        assert value == pytest.approx(1.0 / 3.0, abs=0.04)

    def test_provenance_carries_engine_diagnostics(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0},
                "immigration": {"kind": "canonical", "delta": 0.4, "c": 0.1},
                "grid": [50.0],
                "replicas": 2000,
                "cap": 200,
                "seed": 8,
                "estimators": [{"kind": "p", "t": 50.0, "j": 0}],
            },
        )
        assert run_cli("simulate", "--config", config, "--out", str(tmp_path)) == 0
        diag = json.loads((tmp_path / "simulate.provenance.json").read_text())["diagnostics"]
        assert set(diag) == {"events", "straggler_events", "capped_paths", "table_size"}
        assert diag["table_size"] <= 202
        assert diag["events"] >= diag["straggler_events"] > 0
        capped = int((tmp_path / "simulate.csv").read_text().splitlines()[3].split(",")[6])
        assert diag["capped_paths"] == capped > 0

    def test_zero_replicas_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "offspring": {"kind": "finite", "rates": [1.0, -2.0, 1.0]},
                "grid": [1.0],
                "replicas": 0,
                "estimators": [{"kind": "survival", "t": 1.0}],
            },
        )
        assert run_cli("simulate", "--config", config, "--out", str(tmp_path)) == 2
        assert "replica" in capsys.readouterr().err


class TestSchemaValidation:
    def test_missing_field_named(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"offspring": {"kind": "canonical", "a0": 1.0}, "t": [1.0], "s": [0.0]},
        )
        assert run_cli("solve", "--config", config, "--out", str(tmp_path)) == 2
        assert "$.offspring.nu" in capsys.readouterr().err

    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0, "mystery": 3},
                "t": [1.0],
                "s": [0.0],
            },
        )
        assert run_cli("solve", "--config", config, "--out", str(tmp_path)) == 2
        assert "$.offspring.mystery" in capsys.readouterr().err

    def test_invalid_json_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli("solve", "--config", str(path), "--out", str(tmp_path)) == 2
        assert "JSON" in capsys.readouterr().err


class TestVerify:
    def test_fast_subset_passes(self, tmp_path, capsys):
        code = run_cli("verify", "--checks", "A1,A2,A10", "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 3
        assert "3/3" in out

    def test_unknown_check_rejected(self, tmp_path, capsys):
        assert run_cli("verify", "--checks", "A99") == 2

    @pytest.mark.parametrize("source", ["config", "option"])
    def test_unknown_check_named_at_its_source(self, tmp_path, capsys, monkeypatch, source):
        monkeypatch.setattr(cli.acceptance, "run", lambda *args: pytest.fail("checks started"))
        if source == "config":
            code, path = run_cli("verify", "--config", write_config(tmp_path, {"checks": ["A1", "A99"]})), "$.checks[1]"
        else:
            code, path = run_cli("verify", "--checks", "A1,A99"), "--checks"
        assert_one_line_error(code, capsys, f"got 'A99' at {path}")

    @pytest.mark.parametrize("source", ["config", "option"])
    def test_empty_selection_is_an_error(self, tmp_path, capsys, monkeypatch, source):
        # no selection runs every check; an empty one runs none and says where it came from
        monkeypatch.setattr(cli.acceptance, "run", lambda *args: pytest.fail("checks started"))
        if source == "config":
            code, path = run_cli("verify", "--config", write_config(tmp_path, {"checks": []})), "$.checks"
        else:
            code, path = run_cli("verify", "--checks", ""), "--checks"
        assert_one_line_error(code, capsys, f"no check selected at {path}")

    def test_library_run_of_no_checks_raises(self, monkeypatch):
        ran = []
        monkeypatch.setattr(cli.acceptance, "run_one", lambda ident: ran.append(ident) or ident)
        with pytest.raises(ValueError, match="^no check selected$"):
            cli.acceptance.run([])
        assert cli.acceptance.run() == cli.acceptance.run(None) == list(cli.acceptance.CHECK_IDS)
        assert ran == 2 * list(cli.acceptance.CHECK_IDS)


class TestFlags:
    def test_threads_env_var_default(self, tmp_path, monkeypatch):
        # the variable no longer sets anything, not even an unparseable value
        config = write_config(
            tmp_path,
            {
                "offspring": {"kind": "finite", "rates": [1.0, -2.0, 1.0]},
                "grid": [1.0],
                "replicas": 500,
                "estimators": [{"kind": "survival", "t": 1.0}],
            },
        )
        plain, with_env = tmp_path / "plain", tmp_path / "env"
        assert run_cli("simulate", "--config", config, "--out", str(plain)) == 0
        monkeypatch.setenv("CRITICALBRANCH_THREADS", "abc")
        assert run_cli("simulate", "--config", config, "--out", str(with_env)) == 0
        assert (with_env / "simulate.csv").read_bytes() == (plain / "simulate.csv").read_bytes()

    def test_figure_data_custom_config(self, tmp_path):
        config = write_config(
            tmp_path,
            {"nu": 0.5, "a0": 1.0, "normalizer": "log-power", "t_start": 5, "t_stop": 10, "t_step": 1},
        )
        assert run_cli("figure-data", "--config", config, "--out", str(tmp_path)) == 0
        lines = (tmp_path / "figure_nu0.5_a01.0_log-power.csv").read_text().splitlines()
        assert len(lines) == 3 + 6
        assert lines[3].split(",")[0] == "5"

    @pytest.mark.parametrize(
        "grid,times",
        [((5, 5.3, 0.5), [5.0]), ((0.1, 0.3, 0.1), [0.1, 0.2, 0.3]), ((5, 100, 0.5), [5.0 + 0.5 * k for k in range(191)])],
    )
    def test_figure_data_rows_stop_at_t_stop(self, tmp_path, grid, times):
        # a step count a rounding error short of whole still reaches t_stop, and no row passes it
        t_start, t_stop, t_step = grid
        config = write_config(tmp_path, {"nu": 0.5, "a0": 1.0, "t_start": t_start, "t_stop": t_stop, "t_step": t_step})
        assert run_cli("figure-data", "--config", config, "--out", str(tmp_path)) == 0
        lines = (tmp_path / "figure_nu0.5_a01.0_half-log.csv").read_text().splitlines()[3:]
        assert [float(line.split(",")[0]) for line in lines] == pytest.approx(times, rel=1e-12)
        assert float(lines[-1].split(",")[0]) <= t_stop


def assert_one_line_error(code, capsys, *needles):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(needle in err for needle in needles), (needles, err)


class TestInputErrors:
    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_config(self, tmp_path, capsys, where):
        config = tmp_path / "missing.json" if where == "missing" else tmp_path
        assert_one_line_error(run_cli("solve", "--config", str(config), "--out", str(tmp_path)), capsys, "--config")
        assert not (tmp_path / "solve.csv").exists()

    @pytest.mark.parametrize("command", sorted(cli._SCHEMAS))
    def test_every_command_reads_its_config(self, tmp_path, capsys, command):
        code = run_cli(command, "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.endswith(" at --config\n") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    def test_report_config_is_an_empty_object(self, tmp_path, capsys):
        code = run_cli("report", "--config", write_config(tmp_path, {"x": 1}), "--out", str(tmp_path))
        assert_one_line_error(code, capsys, "unknown key at $.x")
        assert not (tmp_path / "report.csv").exists()
        assert run_cli("report", "--config", write_config(tmp_path, {}, "empty.json"), "--out", str(tmp_path)) == 0
        assert (tmp_path / "report.csv").exists()

    def test_non_utf8_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"t": [1.0], "s": [0.5], "offspring": {"kind": "\xff"}}')
        code = run_cli("solve", "--config", str(path), "--out", str(tmp_path))
        assert_one_line_error(code, capsys, "UTF-8", "--config")

    @pytest.mark.parametrize("command", ["solve", "report"])
    def test_out_is_a_file(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.write_text("")
        config = write_config(tmp_path, {"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0}, "t": [1.0], "s": [0.5]})
        argv = ["--config", config] if command == "solve" else []
        code = run_cli(command, *argv, "--out", str(out))
        captured = capsys.readouterr()
        err = captured.err
        assert code == 2 and err.startswith("error: ") and err.endswith(" at --out\n") and err.count("\n") == 1
        assert out.read_text() == ""
        assert captured.out == ""  # report writes its files before it prints its table

    def test_integer_past_digit_limit_named(self, tmp_path, capsys):
        # Python refuses to convert an integer string of more than 4,300 digits;
        # the literal stays text, and the walk rejects it at its path
        path = tmp_path / "config.json"
        path.write_text(
            '{"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0}, "t": [1%s], "s": [0.5]}' % ("0" * 5000)
        )
        code = run_cli("solve", "--config", str(path), "--out", str(tmp_path))
        assert_one_line_error(code, capsys, "5001 characters", "$.t[0]")
        assert not (tmp_path / "solve.csv").exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, literal):
        path = tmp_path / "config.json"
        path.write_text(
            '{"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0}, "t": [%s], "s": [0.5]}' % literal
        )
        code = run_cli("solve", "--config", str(path), "--out", str(tmp_path))
        assert_one_line_error(code, capsys, literal)
        assert not (tmp_path / "solve.csv").exists()

    @pytest.mark.parametrize(
        "grid,path",
        [({"t_step": 0}, "$.t_step"), ({"t_step": -0.5}, "$.t_step"), ({"t_start": 10, "t_stop": 5}, "$.t_stop")],
    )
    def test_figure_grid_rejected(self, tmp_path, capsys, grid, path):
        config = write_config(tmp_path, {"nu": 0.5, "a0": 1.0, **grid})
        code = run_cli("figure-data", "--config", config, "--out", str(tmp_path))
        assert_one_line_error(code, capsys, path)
        assert not list(tmp_path.glob("figure_*.csv"))

    def test_ratio_without_denominator_paths(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "offspring": {"kind": "finite", "rates": [1.0, -2.0, 1.0]},
                "immigration": {"kind": "finite", "rates": [-1.0, 1.0]},
                "grid": [50.0],
                "replicas": 200,
                "seed": 16,
                "estimators": [{"kind": "ratio", "t": 50.0, "j": 1}],
            },
        )
        code = run_cli("simulate", "--config", config, "--out", str(tmp_path))
        assert_one_line_error(code, capsys, "below 100")

    @pytest.mark.parametrize("order", [-3, 1025])
    def test_invariant_order_bounded(self, tmp_path, capsys, order):
        config = write_config(
            tmp_path,
            {"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0}, "measures": ["M"], "order": order},
        )
        code = run_cli("invariant", "--config", config, "--out", str(tmp_path))
        assert_one_line_error(code, capsys, "$.order")

    def test_step_underflow(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0}, "t": [10.0], "s": [0.5], "tol": 1e-300},
        )
        code = run_cli("solve", "--config", config, "--out", str(tmp_path))
        assert_one_line_error(code, capsys, "step size underflow")
        assert not (tmp_path / "solve.csv").exists()

    @pytest.mark.parametrize(
        "law,path",
        [
            ({"nu": 0.0, "a0": 1.0}, "$.nu"),
            ({"nu": 1.5, "a0": 1.0}, "$.nu"),
            ({"nu": 0.5, "a0": -1.0}, "$.a0"),
            ({"nu": 0.5, "a0": 0}, "$.a0"),
            ({"nu": 0.5, "a0": 1.0, "normalizer": "cubic"}, "$.normalizer"),
        ],
    )
    def test_figure_law_rejected(self, tmp_path, capsys, law, path):
        config = write_config(tmp_path, law)
        code = run_cli("figure-data", "--config", config, "--out", str(tmp_path))
        assert_one_line_error(code, capsys, path)
        assert not list(tmp_path.glob("figure_*.csv"))

    @pytest.mark.parametrize("tol", [0, -1])
    def test_solve_tol_must_be_positive(self, tmp_path, capsys, tol):
        config = write_config(
            tmp_path,
            {
                "offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0},
                "immigration": {"kind": "canonical", "delta": 0.4, "c": 0.1},
                "t": [1.0],
                "s": [0.5],
                "tol": tol,
            },
        )
        code = run_cli("solve", "--config", config, "--out", str(tmp_path))
        assert_one_line_error(code, capsys, "$.tol")
        assert not (tmp_path / "solve.csv").exists()

    def test_integer_overflowing_float_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(
            '{"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0}, "t": [1%s], "s": [0.5]}' % ("0" * 400)
        )
        code = run_cli("solve", "--config", str(path), "--out", str(tmp_path))
        assert_one_line_error(code, capsys, "overflows a float", "$.t[0]")
        assert not (tmp_path / "solve.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "solve"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        # solve used to exit 0 and write seed=-1 into its CSV header
        payload = {"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0}}
        if command == "solve":
            payload.update(t=[1.0], s=[0.5])
        else:
            payload.update(grid=[0.0], replicas=10, estimators=[{"kind": "survival", "t": 0.0}])
        code = run_cli(command, "--config", write_config(tmp_path, payload), "--out", str(tmp_path), "--seed", "-1")
        assert_one_line_error(code, capsys, "--seed")
        assert not (tmp_path / f"{command}.csv").exists()

    @pytest.mark.parametrize("immigration", [None, {"kind": "canonical", "delta": 0.4, "c": 0.1}])
    def test_far_horizon_solve_fails_fast(self, tmp_path, capsys, immigration):
        # past t ~ 1e103 the rate R^(3/2) is subnormal and the step shrinks without end
        payload = {"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0}, "t": [1e300], "s": [0.5]}
        if immigration is not None:
            payload["immigration"] = immigration
        code = run_cli("solve", "--config", write_config(tmp_path, payload), "--out", str(tmp_path))
        assert_one_line_error(code, capsys, "no progress")
        assert not (tmp_path / "solve.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "offspring,t",
        [
            # the gap R ~ (nu t)^(-1/nu) goes subnormal; it used to end in a ZeroDivisionError traceback
            ({"kind": "canonical", "nu": 0.01, "a0": 1.0}, 1e6),
            # the same underflow in numpy floats used to print numpy's RuntimeWarning before the error
            ({"kind": "finite", "rates": [1.0, -1.5, 0.5]}, 2000.0),
        ],
    )
    def test_gap_underflow_fails_in_one_line(self, tmp_path, capsys, offspring, t):
        payload = {"offspring": offspring, "t": [t], "s": [0.5]}
        code = run_cli("solve", "--config", write_config(tmp_path, payload), "--out", str(tmp_path))
        assert_one_line_error(code, capsys, "non-finite stage value", "$.t[0]")
        assert not (tmp_path / "solve.csv").exists()

    @pytest.mark.parametrize(
        "law,path",
        [({"nu": 0.001, "a0": 1.0}, "$.nu"), ({"nu": 0.01, "a0": 1e-300}, "$.a0"), ({"nu": 1e-200, "a0": 1.0}, "$.nu")],
    )
    def test_figure_expansion_out_of_float_range(self, tmp_path, capsys, law, path):
        config = write_config(tmp_path, law)
        code = run_cli("figure-data", "--config", config, "--out", str(tmp_path))
        assert_one_line_error(code, capsys, path)
        assert not list(tmp_path.glob("figure_*.csv"))

    # each value is outside its domain (one past a bound such as cli.MAX_REPLICAS,
    # cli.MAX_GRID or cap, a choice not offered, a key its law kind does not take)
    # and is rejected before the simulation starts
    @pytest.mark.parametrize(
        "change,path",
        [
            ({"replicas": 10**6 + 1}, "$.replicas"),
            ({"grid": [0.01 * k for k in range(101)]}, "$.grid"),
            ({"estimators": [{"kind": "survival", "t": 0.0}, {"kind": "p", "t": 0.0, "j": -1}]}, "$.estimators[1].j"),
            ({"cap": 50, "estimators": [{"kind": "p", "t": 0.0, "j": 51}]}, "$.estimators[0].j"),
            ({"estimators": [{"kind": "median", "t": 0.0}]}, "$.estimators[0].kind"),
            ({"estimators": [{"kind": "survival", "t": 1.0}]}, "$.estimators[0].t"),
            ({"estimators": [{"kind": "p", "t": 0.0}]}, "$.estimators[0].j"),
            ({"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0, "rho": 0.3, "rates": [1, -2, 1]}}, "$.offspring.rho"),
            ({"offspring": {"kind": "finite", "rates": [1.0, -2.0, 2.0]}}, "$.offspring"),
            ({"cap": 0}, "$.cap"),
            ({"cap": 10**8}, "$.cap"),
            ({"start": -1}, "$.start"),
            ({"start": 10**19}, "$.start"),
            ({"seed": -1}, "$.seed"),
            ({"grid": [1.0, 0.0]}, "$.grid"),
            # each leaf in its domain, but the largest event rate 2000 * 1.5e305 overflows
            ({"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1e305}, "cap": 10_000, "start": 2000}, "$.cap"),
            # start above cap is SimConfig's rule; the message still names the key
            ({"start": 51, "cap": 50}, "$.start"),
        ],
    )
    def test_simulate_bounds(self, tmp_path, capsys, monkeypatch, change, path):
        monkeypatch.setattr(cli.montecarlo, "simulate", lambda cfg: pytest.fail("simulation started"))
        payload = {
            "offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0},
            "grid": [0.0],
            "replicas": 10,
            "estimators": [{"kind": "survival", "t": 0.0}],
            **change,
        }
        code = run_cli("simulate", "--config", write_config(tmp_path, payload), "--out", str(tmp_path))
        assert_one_line_error(code, capsys, path)
        assert not (tmp_path / "simulate.csv").exists()

    def test_figure_row_count_bounded(self, tmp_path, capsys):
        # 95 / 5e-4 = 190,000 rows, past the bound of 1e5
        config = write_config(tmp_path, {"nu": 0.5, "a0": 1.0, "t_start": 5.0, "t_stop": 100.0, "t_step": 5e-4})
        code = run_cli("figure-data", "--config", config, "--out", str(tmp_path))
        assert_one_line_error(code, capsys, "$.t_step")
        assert not list(tmp_path.glob("figure_*.csv"))

    @pytest.mark.parametrize(
        "command,payload,path",
        [
            ("solve", {"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0}, "t": [1.0], "s": [0.5, 1.5]}, "$.s[1]"),
            ("solve", {"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0}, "t": [-1], "s": [0.5]}, "$.t[0]"),
            ("invariant", {"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0}, "measures": ["M", "Q"], "order": 4},
             "$.measures[1]"),
            ("invariant", {"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0}, "measures": ["pi"], "order": 4},
             "$.measures[0]"),
            # pi_j grows like (c/a0)^j / j!, past the float range by j = 11 (it used to print inf)
            (
                "invariant",
                {
                    "offspring": {"kind": "canonical", "nu": 0.5, "a0": 1e-30},
                    "immigration": {"kind": "canonical", "delta": 0.4, "c": 0.1},
                    "measures": ["M", "pi"],
                    "order": 11,
                },
                "$.measures[1]",
            ),
            # with rho = 1e8 the slowly varying ratio reaches its limit only near u ~ 1e16, so
            # scipy cannot converge the tail integral; its warning used to pass U_0 = 1.0000000017,
            # below the bound U(0) >= e that the nonnegative integrand gives
            (
                "invariant",
                {
                    "offspring": {"kind": "perturbed", "nu": 0.5, "a0": 1.0, "rho": 1e8, "p": 0.5},
                    "immigration": {"kind": "canonical", "delta": 0.4, "c": 0.1},
                    "measures": ["U"],
                    "order": 8,
                },
                "$.measures[0]",
            ),
        ],
    )
    def test_domain_errors_name_their_path(self, tmp_path, capsys, command, payload, path):
        code = run_cli(command, "--config", write_config(tmp_path, payload), "--out", str(tmp_path))
        assert_one_line_error(code, capsys, path)
        assert not (tmp_path / f"{command}.csv").exists()


class TestColdStart:
    def test_solve_and_simulate_load_neither_scipy_linalg_nor_integrate(self, tmp_path):
        # only series solves need scipy.linalg and only quadrature scipy.integrate; together they
        # were about 0.5 s of every command's start
        solve = {"offspring": {"kind": "canonical", "nu": 0.5, "a0": 1.0},
                 "immigration": {"kind": "canonical", "delta": 0.4, "c": 0.1}, "t": [1.0, 10.0], "s": [0.0, 0.5]}
        simulate = {"offspring": {"kind": "finite", "rates": [1.0, -2.0, 1.0]}, "grid": [0.0, 2.0], "replicas": 200,
                    "seed": 7, "estimators": [{"kind": "survival", "t": 2.0}]}
        argv = [[command, "--config", write_config(tmp_path, payload, f"{command}.json"), "--out", str(tmp_path)]
                for command, payload in (("solve", solve), ("simulate", simulate))]
        probe = (
            "import json, sys, criticalbranch.cli as cli\n"
            "loaded = lambda: [m for m in ('scipy.linalg', 'scipy.integrate') if m in sys.modules]\n"
            f"seen = [loaded()] + [[cli.main(a)] + loaded() for a in {argv!r}]\n"
            "print(json.dumps(seen))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [[], [0], [0]]
