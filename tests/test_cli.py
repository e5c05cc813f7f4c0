import json

import pytest

from delaybandit import config as config_mod
from delaybandit.analysis import analyze_config
from delaybandit.cli import main
from delaybandit.config import config_from_dict
from delaybandit.design import DesignMatrix
from delaybandit.errors import DesignUpdateError

CONFIG_YAML = """\
experiment:
  horizon: 5
  arms: 2
  seeds: [1, 2]
policy:
  algorithm: lin-ucb
environment:
  source: synthetic
  synthetic_h: linear
  synthetic_dim: 4
  delay: none
"""

DIVERGING_YAML = """\
experiment:
  horizon: 6
  arms: 2
  seeds: [1]
policy:
  algorithm: delayed-neural-ucb
  design_mode: diag
network:
  width: 8
train:
  eta: 1000.0
environment:
  source: synthetic
  synthetic_dim: 4
  delay: none
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(CONFIG_YAML)
    return path


class TestCli:
    def test_validate(self, config_file, capsys):
        assert main(["validate", "--config", str(config_file)]) == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo["algorithm"] == "lin-ucb"
        assert echo["delay_distribution"] == "None"

    @pytest.mark.parametrize("sections,field", [
        ({"experiment": {"horizon": -3}}, "experiment.horizon"),
        ({"train": {"batch_size": 0}}, "train.batch_size"),
        ({"policy": {"nu": -1}}, "policy.nu"),
    ], ids=["horizon", "batch_size", "nu"])
    def test_validate_bad_config(self, tmp_path, capsys, sections, field):
        # validate rejects what run would reject, and run exits as validate does
        path = self._config(tmp_path, "delayed-neural-ucb", **sections)
        assert main(["validate", "--config", path]) == 1
        assert field in capsys.readouterr().err
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and err.count("\n") == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.yaml")]) == 1

    def test_run_and_force(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--config", str(config_file), "--out", str(out)]
        assert main(argv) == 0
        assert (out / "run_1.csv").exists() and (out / "run_2.csv").exists()
        assert main(argv) == 2  # refuses to overwrite
        assert main(argv + ["--force"]) == 0

    def test_run_seed_override(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file),
                     "--out", str(out), "--seeds", "7"]) == 0
        assert (out / "run_7.csv").exists()
        assert not (out / "run_1.csv").exists()

    def test_diverged_training_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "diverge.yaml"
        path.write_text(DIVERGING_YAML)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training loss became non-finite at step")
        assert err.count("\n") == 1

    def test_design_update_error_exits_2_with_one_line(self, config_file, tmp_path,
                                                       capsys, monkeypatch):
        def reject(self, u):
            raise DesignUpdateError("design-matrix update vector is not finite")

        monkeypatch.setattr(DesignMatrix, "rank1_update", reject)
        assert main(["run", "--config", str(config_file),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: design-matrix update vector is not finite\n"

    @staticmethod
    def _config(tmp_path, algorithm, **sections):
        raw = {"experiment": {"horizon": 3, "arms": 2, "seeds": [1]},
               "policy": {"algorithm": algorithm},
               "network": {"width": 8},
               "environment": {"source": "synthetic", "synthetic_dim": 4,
                               "delay": "none"}}
        for section, values in sections.items():
            raw.setdefault(section, {}).update(values)
        lines = []
        for section, values in raw.items():
            lines.append(f"{section}:")
            lines += [f"  {key}: {value}" for key, value in values.items()]
        path = tmp_path / "cfg.yaml"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_unsigned_exponent_is_a_number(self, tmp_path, capsys):
        # YAML 1.1 reads 1.0e3 as a string; validate used to crash comparing it
        path = self._config(tmp_path, "delayed-neural-ucb", train={"eta": "1.0e3"})
        assert main(["validate", "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["train"]["eta"] == 1000.0

    @pytest.mark.parametrize("value", ["fast", "true", "[1.0]"])
    def test_non_numeric_float_field_exits_1_with_one_line(self, tmp_path, capsys, value):
        path = self._config(tmp_path, "delayed-neural-ucb", train={"eta": value})
        assert main(["validate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: train.eta: expected a number")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("sections,field", [
        ({"network": {"width": 7}}, "network.width"),
        ({"environment": {"synthetic_dim": 3}}, "context dimension 3"),
    ])
    def test_odd_network_shape_rejected_for_neural_only(self, tmp_path, capsys,
                                                        sections, field):
        path = self._config(tmp_path, "delayed-neural-ucb", **sections)
        assert main(["validate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and err.count("\n") == 1
        # the linear baselines build no network
        assert main(["validate", "--config", self._config(tmp_path, "lin-ucb", **sections)]) == 0

    @pytest.mark.parametrize("sections,message", [
        ({"network": {"width": '"8"'}}, "network.width: expected an integer, got '8'"),
        ({"experiment": {"horizon": '"5"'}}, "experiment.horizon: expected an integer"),
        ({"train": {"steps": 2.5}}, "train.steps: expected an integer"),
        ({"train": {"batch_size": "true"}}, "train.batch_size: expected an integer"),
        ({"policy": {"warm_start": '"no"'}}, "policy.warm_start: expected true or false"),
        ({"policy": {"algorithm": 5}}, "policy.algorithm: expected a string"),
        ({"experiment": {"seeds": "[x]"}}, "experiment.seeds: expected a list of integers"),
        ({"experiment": {"seeds": 3}}, "experiment.seeds: expected a list of integers"),
    ], ids=["width-string", "horizon-string", "steps-float", "batch-bool",
            "warm-start-string", "algorithm-int", "seeds-strings", "seeds-int"])
    def test_mistyped_field_exits_1_with_one_line(self, tmp_path, capsys, sections, message):
        path = self._config(tmp_path, "delayed-neural-ucb", **sections)
        assert main(["validate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_optional_field_takes_null(self, tmp_path, capsys):
        path = self._config(tmp_path, "delayed-neural-ucb", train={"batch_size": "null"})
        assert main(["validate", "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["train"]["batch_size"] is None

    @pytest.mark.parametrize("option,message", [
        (["--seeds", "x"], "error: --seeds: expected comma-separated integers, got 'x'"),
        (["--seeds", "1,,2"], "error: --seeds: expected comma-separated integers"),
        (["--jobs", "0"], "error: --jobs: must be >= 1, got 0"),
        (["--jobs", "-2"], "error: --jobs: must be >= 1, got -2"),
    ], ids=["seeds-letter", "seeds-empty-item", "jobs-zero", "jobs-negative"])
    def test_bad_run_option_exits_1_with_one_line(self, config_file, tmp_path, capsys,
                                                  option, message):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)] + option) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()

    def test_configuration_error_in_run_exits_1_with_one_line(self, tmp_path, capsys,
                                                              monkeypatch):
        # a check that only the run makes, here the initializer's even width
        monkeypatch.setattr(config_mod, "validate", lambda cfg, errors: None)
        path = self._config(tmp_path, "delayed-neural-ucb", network={"width": 7})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: symmetric init needs even width")
        assert err.count("\n") == 1

    def test_analyze(self, config_file, capsys):
        assert main(["analyze", "--config", str(config_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["d_tilde"] > 0
        assert report["D_plus"] >= 1.0
        assert len(report["bound_curve"]) > 0


class TestAnalysis:
    def test_analysis_fields(self):
        cfg = config_from_dict({
            "experiment": {"horizon": 50, "arms": 2, "seeds": [1]},
            "policy": {"algorithm": "delayed-neural-ucb"},
            "network": {"width": 8},
            "environment": {"source": "synthetic", "synthetic_dim": 4,
                            "delay": "uniform", "expected_delay": 3},
            "analysis": {"n_contexts": 12, "alpha": 3.0},
        })
        report = analyze_config(cfg)
        assert report["n_contexts"] == 12
        assert report["gram_min_eigenvalue"] > 0  # Assumption-3 embedded contexts
        assert 0 < report["d_tilde"] <= 12
        bounds = [b for _, b in report["bound_curve"]]
        assert all(b > 0 for b in bounds)
