import json

import pytest

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

    def test_validate_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("experiment:\n  horizon: -3\n")
        assert main(["validate", "--config", str(path)]) == 1
        assert "horizon" in capsys.readouterr().err

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
