import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splitflow
from conftest import bump_problem
from splitflow import cli, hyperbolic, robustness
from splitflow.cli import load_config, main
from splitflow.errors import ConfigurationError


def run_cli(args):
    return main(args)


class TestConfigParsing:
    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            load_config("seed = 1\nnope = 2\n", "ou-check")

    def test_bad_value_names_field(self):
        with pytest.raises(ConfigurationError, match="n_paths"):
            load_config("n_paths = many\n", "ou-check")

    def test_duplicate_key(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            load_config("seed = 1\nseed = 2\n", "ou-check")

    def test_eta_grid_must_be_descending(self):
        with pytest.raises(ConfigurationError, match="descending"):
            load_config("eta_grid = 0.1,0.2\n", "hyperbolic")

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ConfigurationError, match="tolerance"):
            load_config("tol = 0\n", "hyperbolic")


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2

    def test_malformed_config_is_two(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("whatever = 1\n")
        assert run_cli(["ou-check", "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file_is_two(self, tmp_path):
        assert run_cli(["ou-check", "--config", str(tmp_path / "absent.cfg"),
                        "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, text", [
        ("robustness", "pert_step = nan\n"),
        ("robustness", "rotation = nan\n"),
        ("robustness", "pert_step = inf\n"),
        ("hyperbolic", "eta_grid = 0.2,nan\n"),
        ("ou-check", "checkpoints = 10,inf\n"),
    ])
    def test_non_finite_config_is_two(self, tmp_path, command, text):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert run_cli([command, "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


class TestOuCheck(object):
    def test_default_small_run(self, tmp_path):
        cfg = tmp_path / "ou.cfg"
        cfg.write_text("n_paths = 2000\nseed = 3\n")
        out = tmp_path / "out"
        assert run_cli(["ou-check", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "ou_check.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "check,value,target,band,passed"
        assert all(line.endswith("true") for line in lines[1:])

    def test_zero_path_diagnostics_are_zero(self, tmp_path):
        cfg = tmp_path / "ou.cfg"
        cfg.write_text("n_paths = 500\n")
        out = tmp_path / "out"
        run_cli(["ou-check", "--config", str(cfg), "--out", str(out)])
        rows = {line.split(",")[0]: line.split(",")
                for line in (out / "ou_check.csv").read_text().splitlines()[1:]}
        assert float(rows["zero_path_filter"][1]) == 0.0
        assert float(rows["shift_group_law"][1]) == 0.0


class TestRobustnessCmd:
    def test_bundled_instances_pass(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["robustness", "--out", str(out)]) == 0
        body = json.loads((out / "robustness.json").read_text())
        assert body["passed"] is True
        scalar = body["instances"][0]
        assert scalar["alpha_tilde"] <= -np.log(0.55) + 1e-9

    @pytest.mark.parametrize("half", [24, 48])
    def test_saddle_passes_on_long_windows(self, tmp_path, half):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(f"t_min = {-half}\nt_max = {half}\n")
        out = tmp_path / "out"
        assert run_cli(["robustness", "--config", str(cfg),
                        "--out", str(out)]) == 0
        body = json.loads((out / "robustness.json").read_text())
        assert [i["passed"] for i in body["instances"]] == [True, True]

    @pytest.mark.parametrize("t_min, t_max", [(3, -3), (0.2, 0.9)])
    def test_window_without_two_nodes_is_two(self, tmp_path, capsys, t_min,
                                             t_max):
        # reversed, or no integer node inside: a usage error, before any
        # instance runs
        cfg = tmp_path / "r.cfg"
        cfg.write_text(f"t_min = {t_min}\nt_max = {t_max}\n")
        out = tmp_path / "out"
        assert run_cli(["robustness", "--config", str(cfg),
                        "--out", str(out)]) == 2
        assert "at least two integer nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_delta_zero_collapses_constants(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("pert_step = 0.5\nrun_saddle = false\n")
        out = tmp_path / "out"
        assert run_cli(["robustness", "--config", str(cfg),
                        "--out", str(out)]) == 0
        body = json.loads((out / "robustness.json").read_text())
        consts = body["instances"][0]["constants"]
        assert consts["delta"] == 0.0
        assert consts["M"] == consts["K"]
        assert consts["alpha_tilde"] == consts["alpha"]
        assert consts["D1"] == 1.0 and consts["D2"] == 1.0

    def test_over_threshold_is_one_and_named(self, tmp_path):
        # the scalar instance, then the saddle instance, over its threshold
        for i, text in enumerate(("pert_step = 0.95\nrun_saddle = false\n",
                                  "rotation = 0.3\n")):
            cfg = tmp_path / f"r{i}.cfg"
            cfg.write_text(text)
            out = tmp_path / f"out{i}"
            assert run_cli(["robustness", "--config", str(cfg),
                            "--out", str(out)]) == 1
            body = json.loads((out / "robustness.json").read_text())
            entry = body["instances"][i]
            assert entry["threshold"] is not None
            assert entry["measured"] > entry["threshold"]
            assert "threshold" in entry["error"]


class TestHyperbolicCmd:
    def test_additive_model(self, tmp_path):
        cfg = tmp_path / "h.cfg"
        cfg.write_text("model = additive\neta_grid = 0.03,0.015\n"
                       "tol = 1e-9\nt_min = -70\nt_max = 70\n")
        out = tmp_path / "out"
        assert run_cli(["hyperbolic", "--config", str(cfg),
                        "--out", str(out)]) == 0
        lines = (out / "hyperbolic.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        hdr = lines[0].split(",")
        row = dict(zip(hdr, lines[1].split(",")))
        assert row["status"] == "certified"
        assert float(row["sup_distance"]) <= 0.03

    def test_failed_row_exits_one(self, tmp_path, monkeypatch):
        # the bump leaves the neighborhood lambda(eta) admitted it for
        monkeypatch.setattr(cli, "_hyperbolic_problem",
                            lambda cfg: bump_problem())
        cfg = tmp_path / "h.cfg"
        cfg.write_text("eta_grid = 1.0\n")
        out = tmp_path / "out"
        assert run_cli(["hyperbolic", "--config", str(cfg),
                        "--out", str(out)]) == 1
        row = json.loads((out / "hyperbolic.json").read_text())["rows"][0]
        assert row["status"] == "failed" and row["certified"] is False
        assert row["sup_distance"] > row["eps_used"]

    def test_error_row_exits_one(self, tmp_path):
        # eta = 5 is refused by the contraction budget: an error row is a
        # failed check, not a success
        cfg = tmp_path / "h.cfg"
        cfg.write_text("eta_grid = 5.0\n")
        out = tmp_path / "out"
        assert run_cli(["hyperbolic", "--config", str(cfg),
                        "--out", str(out)]) == 1
        row = json.loads((out / "hyperbolic.json").read_text())["rows"][0]
        assert row["status"] == "error" and row["certified"] is False
        assert row["error"]

    def test_bad_model_is_config_error(self, tmp_path):
        cfg = tmp_path / "h.cfg"
        cfg.write_text("model = pendulum\n")
        assert run_cli(["hyperbolic", "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == 2


class TestWaveCmd:
    def test_small_run_and_determinism(self, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("n_modes = 2\nt_min = -58\nt_max = 58\n"
                       "eta_grid = 1e-4,0.0\nn_half = 2\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli(["wave", "--config", str(cfg), "--out", str(out1),
                        "--seed", "9"]) == 0
        assert run_cli(["wave", "--config", str(cfg), "--out", str(out2),
                        "--seed", "9"]) == 0
        assert (out1 / "wave.csv").read_bytes() == (out2 / "wave.csv").read_bytes()
        assert (out1 / "wave.json").read_bytes() == (out2 / "wave.json").read_bytes()
        rows = (out1 / "wave.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 2

    def test_failed_row_exits_one(self, tmp_path, monkeypatch):
        # every trajectory reported failed: no row is certified, and the
        # run is a scientific failure
        find = hyperbolic.find_hyperbolic_solution

        def failing(*args, **kwargs):
            sol = find(*args, **kwargs)
            sol.status = hyperbolic.STATUS_FAILED
            return sol

        monkeypatch.setattr(hyperbolic, "find_hyperbolic_solution", failing)
        cfg = tmp_path / "w.cfg"
        cfg.write_text("n_modes = 2\nt_min = -58\nt_max = 58\n"
                       "eta_grid = 1e-4,0.0\nn_half = 2\n")
        out = tmp_path / "out"
        assert run_cli(["wave", "--config", str(cfg), "--out", str(out)]) == 1
        rows = json.loads((out / "wave.json").read_text())["rows"]
        assert [r["status"] for r in rows] == ["failed", "failed"]
        assert not any(r["certified"] for r in rows)

    def test_non_hyperbolic_config_is_scientific_failure(self, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(f"f_linear_coeff = {np.pi ** 2!r}\n")
        out = tmp_path / "out"
        assert run_cli(["wave", "--config", str(cfg), "--out", str(out)]) == 1
        body = json.loads((out / "wave.json").read_text())
        assert "not hyperbolic" in body["error"]

    @pytest.mark.parametrize("text, message", [
        ("n_modes = 0\n", "need n_modes >= 1"),
        ("beta_damping = 0\n", "need positive damping"),
    ])
    def test_bad_model_config_is_two(self, tmp_path, capsys, text, message):
        # a config the wave model refuses is a config error, not a
        # scientific failure: exit 2 and no wave.json
        cfg = tmp_path / "w.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run_cli(["wave", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (out / "wave.json").exists()


@pytest.mark.parametrize("command, half", [("hyperbolic", 4), ("wave", 3)])
def test_default_rows_certify_inside_the_window(tmp_path, monkeypatch,
                                                command, half):
    # at defaults every certified row covers [-n_half, n_half], and the
    # impulse span [lo, hi] of its linearization, whose last unit flow ends
    # at hi + 1, lies inside the trajectory window
    spans, certified = [], []
    span_rule, certify = robustness._impulse_span, hyperbolic.certify_hyperbolic

    def recorded_span(*args):
        spans.append(span_rule(*args))
        return spans[-1]

    def recorded_certify(p, sol, **kwargs):
        start = len(spans)
        certify(p, sol, **kwargs)
        if sol.status == hyperbolic.STATUS_CERTIFIED:
            certified.append((sol, spans[start:]))
        return sol

    monkeypatch.setattr(robustness, "_impulse_span", recorded_span)
    monkeypatch.setattr(hyperbolic, "certify_hyperbolic", recorded_certify)
    out = tmp_path / "out"
    assert run_cli([command, "--out", str(out), "--seed", "12345"]) == 0
    rows = json.loads((out / f"{command}.json").read_text())["rows"]
    assert len(certified) == sum(r["certified"] for r in rows) > 0
    for sol, ((lo, hi),) in certified:
        assert sol.linearization_certificate.meta["window"] == [-half, half]
        assert sol.times[0] <= lo and hi + 1 <= sol.times[-1]


def test_outputs_use_lf_endings(tmp_path):
    cfg = tmp_path / "ou.cfg"
    cfg.write_text("n_paths = 200\n")
    out = tmp_path / "out"
    run_cli(["ou-check", "--config", str(cfg), "--out", str(out)])
    raw = (out / "ou_check.csv").read_bytes()
    assert b"\r" not in raw


def _fresh_interpreter(code, tmp_path):
    """Standard output of ``code`` run by a fresh interpreter on this
    checkout's package, in ``tmp_path``."""
    src = str(Path(splitflow.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          cwd=tmp_path, capture_output=True, text=True).stdout


def test_cold_import_loads_no_scipy(tmp_path):
    # the package runs on numpy alone; importing scipy.linalg took about
    # half of every start-up
    loaded = _fresh_interpreter(
        "import sys, splitflow.cli; "
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        tmp_path).split()
    assert loaded == []


def test_run_imports_nothing(tmp_path):
    # every module a run needs is loaded at start-up: a lazy import inside
    # a run (numpy.random, numpy.fft, locale) would be timed as
    # run time
    configs = {
        "hyperbolic": "eta_grid = 0.1\n",
        "wave": "n_modes = 2\nt_min = -58\nt_max = 58\n"
                "eta_grid = 1e-4,0.0\nn_half = 2\n",
        "robustness": "t_min = -4\nt_max = 4\n",
    }
    for command, text in configs.items():
        (tmp_path / f"{command}.cfg").write_text(text)
    code = (
        "import sys\n"
        "from splitflow import cli\n"
        "before = set(sys.modules)\n"
        f"for c in {sorted(configs)!r}:\n"
        "    assert cli.main([c, '--config', c + '.cfg', '--out', c]) == 0, c\n"
        "print('gained', *sorted(set(sys.modules) - before))\n")
    assert _fresh_interpreter(code, tmp_path).splitlines()[-1] == "gained"
