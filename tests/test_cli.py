import json
import math
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Literal, get_origin

import numpy as np
import pytest

from delaybandit import analysis as analysis_mod
from delaybandit import cli as cli_mod
from delaybandit import config as config_mod
from delaybandit.analysis import analyze_config
from delaybandit.cli import main
from delaybandit.config import ExperimentConfig, config_from_dict, resolved_summary
from delaybandit.data import assumption3_embed
from delaybandit.design import DesignMatrix
from delaybandit.errors import DesignUpdateError
from delaybandit.harness import build_environment
from delaybandit.ntk import DelayBoundParams, d_plus, effective_dimension, ntk_gram

from test_data import write_idx_images, write_idx_labels

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
        assert echo["analysis"] == {"n_contexts": 40}

    @pytest.mark.parametrize("sections,field", [
        ({"experiment": {"horizon": -3}}, "experiment.horizon"),
        ({"train": {"batch_size": 0}}, "train.batch_size"),
        ({"policy": {"nu": -1}}, "policy.nu"),
        ({"analysis": {"n_contexts": 0}}, "analysis.n_contexts"),
        ({"analysis": {"n_contexts": -3}}, "analysis.n_contexts"),
        ({"environment": {"synthetic_dim": -2}}, "environment.synthetic_dim"),
        ({"environment": {"delay_seed": -1}}, "environment.delay_seed"),
        ({"experiment": {"seeds": [-1]}}, "experiment.seeds"),
        ({"policy": {"algorithm": "neural-ucb"},
          "environment": {"delay": "uniform", "expected_delay": 3}}, "environment.delay"),
        ({"policy": {"algorithm": "lin-ucb"},
          "environment": {"delay": "exponential", "expected_delay": 3}}, "environment.delay"),
        ({"environment": {"delay": "uniform", "expected_delay": ".inf"}},
         "environment.expected_delay"),
        ({"environment": {"source": "mushroom"}}, "environment.dataset_path"),
        ({"environment": {"source": "mnist", "dataset_path": "images.idx"}},
         "environment.labels_path"),
        # the confidence level and the norm bound are the reference setup's constants
        ({"policy": {"S": 1e-4}}, "policy.S: unknown field"),
        ({"policy": {"delta": 0.05}}, "policy.delta: unknown field"),
        # run used to play seed 3 twice and write one run_3.csv for both
        ({"experiment": {"seeds": [3, 1, 3]}},
         "experiment.seeds: must be nonempty and >= 0, with no seed repeated, got (3, 1, 3)"),
        # removed settings: every run used their defaults, now the only behaviour
        ({"policy": {"retrain_trigger": "on-reveal"}}, "policy.retrain_trigger: unknown field"),
        ({"policy": {"sqrt_lambda_s": "joint"}}, "policy.sqrt_lambda_s: unknown field"),
        ({"environment": {"wrong_class_reward": 0.25}},
         "environment.wrong_class_reward: unknown field"),
        # the analysis's constants are taken as 1, and a Pareto delay is the classic one
        ({"policy": {"C1": 1.0}}, "policy.C1: unknown field"),
        ({"policy": {"C2": 1.0}}, "policy.C2: unknown field"),
        ({"policy": {"C3": 1.0}}, "policy.C3: unknown field"),
        ({"analysis": {"C4": 1.0}}, "analysis.C4: unknown field"),
        ({"environment": {"delay": "pareto", "expected_delay": 3, "delay_lomax": True}},
         "environment.delay_lomax: unknown field"),
        # the delay's tail constants follow from its distribution
        ({"analysis": {"alpha": 1.0}}, "analysis.alpha: unknown field"),
        ({"analysis": {"b": 1.0}}, "analysis.b: unknown field"),
    ], ids=["horizon", "batch_size", "nu", "n_contexts-zero", "n_contexts-negative",
            "synthetic_dim", "delay_seed", "seeds-negative",
            "neural-ucb-delayed", "lin-ucb-delayed", "infinite-expected-delay",
            "no-dataset-path", "no-labels-path", "S", "delta", "seeds-repeated", "retrain_trigger",
            "sqrt_lambda_s", "wrong_class_reward", "C1", "C2", "C3", "C4", "delay_lomax",
            "analysis-alpha", "analysis-b"])
    def test_validate_bad_config(self, tmp_path, capsys, sections, field):
        # validate rejects what run and analyze would reject, and they exit as validate does
        path = self._config(tmp_path, "delayed-neural-ucb", **sections)
        assert main(["validate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and err.count("\n") == 1
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == err
        assert main(["analyze", "--config", path]) == 1
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("algorithm", ["neural-ucb", "lin-ucb"])
    @pytest.mark.parametrize("delay,expected_delay", [("uniform", 0), ("none", 30)])
    def test_undelayed_algorithm_takes_a_delay_that_resolves_to_none(
            self, tmp_path, capsys, algorithm, delay, expected_delay):
        path = self._config(tmp_path, algorithm, environment={
            "delay": delay, "expected_delay": expected_delay})
        assert main(["validate", "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["delay_distribution"] == "None"

    def test_every_enum_field_rejects_an_unknown_value(self, tmp_path, capsys):
        # found through the dataclasses, so an enum added later is covered too
        blocks = [f.type for f in fields(ExperimentConfig) if is_dataclass(f.type)]
        cases = [(cls.section, f.metadata.get("key") or f.name)
                 for cls in (ExperimentConfig, *blocks)
                 for f in fields(cls) if get_origin(f.type) is Literal]
        assert len(cases) >= 7
        for section, key in cases:
            path = self._config(tmp_path, "delayed-neural-ucb", **{section: {key: "bogus"}})
            errs = []
            for argv in (["validate"], ["run", "--out", str(tmp_path / "out")], ["analyze"]):
                assert main(argv + ["--config", path]) == 1, (section, key)
                errs.append(capsys.readouterr().err)
            assert errs[0].startswith(f"error: {section}.{key}: expected one of ")
            assert errs[0].endswith(", got 'bogus'\n") and errs[0].count("\n") == 1
            assert errs == [errs[0]] * 3
            assert not (tmp_path / "out").exists()

    def test_every_float_field_rejects_a_non_finite_value(self, tmp_path, capsys):
        # found through the dataclasses, so a float field added later is covered too
        blocks = [f.type for f in fields(ExperimentConfig) if is_dataclass(f.type)]
        cases = [(cls.section, f.metadata.get("key") or f.name)
                 for cls in (ExperimentConfig, *blocks)
                 for f in fields(cls) if f.type is float]
        assert len(cases) >= 7
        for section, key in cases:
            for text, shown in [(".nan", "nan"), (".inf", "inf"), ("-.inf", "-inf")]:
                path = self._config(tmp_path, "delayed-neural-ucb", **{section: {key: text}})
                errs = []
                for argv in (["validate"], ["run", "--out", str(tmp_path / "out")],
                             ["analyze"]):
                    assert main(argv + ["--config", path]) == 1, (section, key, text)
                    errs.append(capsys.readouterr().err)
                assert errs == [f"error: {section}.{key}: must be finite, got {shown}\n"] * 3
                assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,code,message", [
        ("policy:\n", 0, ""),
        ("policy: 5\n", 1, "error: policy: expected a mapping, got 5\n"),
    ], ids=["empty-section", "scalar-section"])
    def test_section_that_is_not_a_mapping(self, tmp_path, capsys, text, code, message):
        path = tmp_path / "cfg.yaml"
        path.write_text(CONFIG_YAML + text)
        assert main(["validate", "--config", str(path)]) == code
        assert capsys.readouterr().err == message

    def test_empty_config_file_validates_to_the_defaults(self, tmp_path, capsys):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert main(["validate", "--config", str(path)]) == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo == json.loads(json.dumps(resolved_summary(ExperimentConfig())))

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
        assert json.loads((out / "summary.json").read_text())["config"]["seeds"] == [7]

    def test_forced_rerun_leaves_no_file_of_the_earlier_run(self, config_file, tmp_path):
        out = tmp_path / "out"
        argv = ["run", "--config", str(config_file), "--out", str(out)]
        assert main(argv) == 0
        assert main(argv + ["--seeds", "1", "--force"]) == 0
        assert sorted(f.name for f in out.iterdir()) == ["mean.csv", "run_1.csv",
                                                          "summary.json"]
        assert [run["seed"] for run in json.loads((out / "summary.json").read_text())["runs"]] \
            == [1]
        # nor any staging directory beside it
        assert sorted(f.name for f in tmp_path.iterdir()) == [config_file.name, "out"]

    def test_jobs_2_writes_the_bytes_of_jobs_1(self, tmp_path):
        # a synthetic run, an IDX one whose Dataset the workers receive pickled,
        # and a UCB run whose full design passes the switch at p = 8 * 4 + 8 = 40
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        rng = np.random.default_rng(3)
        write_idx_images(images, rng.integers(0, 256, size=(20, 4, 4)))
        write_idx_labels(labels, list(rng.integers(0, 2, size=20)))
        mnist = {"source": "mnist", "dataset_path": images, "labels_path": labels,
                 "embed_assumption3": "true"}
        cases = (("synthetic", "delayed-neural-ts", 30, {}),
                 ("mnist", "delayed-neural-ts", 30, mnist),
                 ("primal", "delayed-neural-ucb", 60, {"embed_assumption3": "false"}))
        for source, algorithm, horizon, environment in cases:
            path = self._config(tmp_path, algorithm,
                                experiment={"horizon": horizon, "seeds": [1, 2, 3]},
                                environment={"delay": "uniform", "expected_delay": 3,
                                             **environment})
            outs = [tmp_path / source / jobs for jobs in ("1", "2")]
            for jobs, out in zip(("1", "2"), outs):
                assert main(["run", "--config", path, "--out", str(out), "--jobs", jobs]) == 0
            names = ["mean.csv"] + [f"run_{seed}.csv" for seed in (1, 2, 3)]
            for name in names:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            summaries = [json.loads((out / "summary.json").read_text()) for out in outs]
            for summary in summaries:
                for run in summary["runs"]:
                    assert run.pop("wall_time_s") > 0
            assert summaries[0] == summaries[1]

    def test_diverged_training_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "diverge.yaml"
        path.write_text(DIVERGING_YAML)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training loss became non-finite at step")
        assert err.count("\n") == 1

    def test_lin_ts_at_a_tiny_lambda_on_embedded_contexts_exits_0(self, tmp_path, capsys):
        # embedded contexts have equal halves, so Z = lam I + G^T G is
        # ill-conditioned at a tiny lambda; LinTS draws from the square root
        # W^T W = Z^{-1}, which is positive semidefinite however Z is conditioned
        path = self._config(tmp_path, "lin-ts", experiment={"horizon": 100},
                            policy={"lambda": 1.0e-8},
                            environment={"embed_assumption3": "true"})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        assert len((tmp_path / "out" / "run_1.csv").read_text().splitlines()) == 101

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_scores_exit_2_with_one_line_and_no_warning(self, tmp_path, capsys):
        # warm-started training at eta = 0.1 on rewards of variance 1e12 leaves theta
        # finite (max |theta| about 1e209 at round 5), but the forward pass of
        # scoring overflows; it used to warn three times before the run failed
        path = self._config(
            tmp_path, "delayed-neural-ts", experiment={"horizon": 8, "seeds": "[1]"},
            policy={"lambda": 1.4e5, "nu": 0, "warm_start": "true"},
            train={"eta": 0.1, "steps": 1, "steps_schedule": "fixed"},
            environment={"noise_variance": "1.0e12"})
        assert main(["validate", "--config", path]) == 0
        capsys.readouterr()
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: round 6: the gradient norm of an arm is inf, not finite\n"
        assert not (tmp_path / "out").exists()

    def test_singular_design_at_the_primal_switch_exits_2_with_one_line(self, tmp_path,
                                                                         capsys):
        # found by the config fuzzer: at eta = 1 the gradient features of the p = 6
        # parameters blow up until Z = lam I + G^T G is singular to working
        # precision, and the LinAlgError used to escape with a traceback
        path = self._config(tmp_path, "delayed-neural-ucb",
                            experiment={"horizon": 6, "seeds": "[3]"}, network={"width": 2},
                            environment={"synthetic_dim": 2}, train={"eta": 1.0})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("error: design matrix Z is not positive definite "
                                           "to working precision after 6 updates\n")

    def test_out_of_memory_exits_2_with_one_line(self, config_file, tmp_path, capsys,
                                                 monkeypatch):
        # numpy's MemoryError names the array; a bare one has no message
        for exc, line in ((MemoryError("Unable to allocate 610. MiB for an array with shape "
                                       "(20000000, 4) and data type float64"),
                           "error: out of memory: Unable to allocate 610. MiB for an array "
                           "with shape (20000000, 4) and data type float64\n"),
                          (MemoryError(), "error: out of memory\n")):
            def fail(cfg, jobs=1, exc=exc):
                raise exc

            monkeypatch.setattr(cli_mod, "run_experiment", fail)
            assert main(["run", "--config", str(config_file),
                         "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == line
            assert not (tmp_path / "out").exists()

    # the largest E[tau] whose largest draw is finite (see test_delay) and the next float
    @pytest.mark.parametrize("kind,limit", [
        ("uniform", math.nextafter(2.0**1023, 0.0)), ("exponential", 4.893439567369806e306)])
    def test_expected_delay_whose_draw_overflows_exits_1(self, tmp_path, capsys, kind, limit):
        environment = {"delay": kind, "expected_delay": repr(limit)}
        path = self._config(tmp_path, "delayed-neural-ucb", environment=environment)
        assert main(["validate", "--config", path]) == 0
        capsys.readouterr()
        above = math.nextafter(limit, math.inf)
        environment["expected_delay"] = repr(above)
        path = self._config(tmp_path, "delayed-neural-ucb", environment=environment)
        for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert main([*command, "--config", path]) == 1
            assert capsys.readouterr().err == (
                f"error: environment.expected_delay: E[tau] = {above!r} lets the {kind} "
                "delay reach inf; its largest draw must be finite\n")
        assert not (tmp_path / "out").exists()

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

    def test_float_field_holds_an_integer_as_a_float(self, tmp_path, capsys):
        path = self._config(tmp_path, "delayed-neural-ucb", policy={"alpha": 1},
                            environment={"delay": "constant", "expected_delay": 30})
        assert main(["validate", "--config", path]) == 0
        out = capsys.readouterr().out
        assert '"expected_delay": 30.0,' in out and '"alpha": 1.0,' in out
        assert json.loads(out)["delay_distribution"] == "Constant(30.0)"
        # an integer past the float range is out of range as .inf is
        path = self._config(tmp_path, "delayed-neural-ucb", train={"eta": "1" + "0" * 400})
        assert main(["validate", "--config", path]) == 1
        assert capsys.readouterr().err == "error: train.eta: must be finite, got inf\n"

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

    # MNIST's size: 784 pixels, 10 arms, embedded, width 128, so p = 2 007 168; a
    # gradient row keeps its per-layer factors, (128 + 15 680) + 128 floats
    MNIST_SIZE = {"experiment": {"horizon": 16535, "arms": 10}, "network": {"width": 128}}
    MNIST_P = 128 * 784 * 10 * 2 + 128
    MNIST_ROW = 784 * 10 * 2 + 2 * 128

    def test_full_design_over_the_memory_cap_exits_1(self, tmp_path, capsys):
        # 16 535 dual rows and their 16 535 x 16 535 factor W pass the cap by
        # 0.3 MB: refused before the first round
        path = self._config(tmp_path, "delayed-neural-ucb", **self.MNIST_SIZE,
                            environment={"synthetic_dim": 7840, "embed_assumption3": "true"})
        held = 8 * (16535 * self.MNIST_ROW + 16535**2)
        assert main(["validate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: policy.design_mode: a full design at p = {self.MNIST_P} may "
                       f"hold {held} bytes (4.0 GiB) over 16535 rounds, above the cap of "
                       f"{4 * 2**30} bytes (4 GiB); use design_mode: diag or a shorter "
                       "horizon\n")
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out").exists()
        # the diagonal design holds p floats; a full one over 16 534 rounds
        # stays 0.1 MB below the cap, and over 2000 rounds holds 0.27 GiB
        for sections, code in (({"policy": {"design_mode": "diag"}}, 0),
                               ({"experiment": {"horizon": 16534, "arms": 10}}, 0),
                               ({"experiment": {"horizon": 2000, "arms": 10}}, 0)):
            path = self._config(tmp_path, "delayed-neural-ucb", **{
                **self.MNIST_SIZE, **sections,
                "environment": {"synthetic_dim": 7840, "embed_assumption3": "true"}})
            assert main(["validate", "--config", path]) == code
        capsys.readouterr()
        # a linear baseline's design is always full, at p = the context dimension:
        # 15 680 rounds go primal at p = 15 680, 11.1 GiB; 15 679 rounds stay dual,
        # 3.7 GiB, and LinTS draws from the design without a p x p array
        p = 15680
        held = 8 * (6 * p * p + (512 + 256) * p)
        for algorithm, horizon, code in (("lin-ucb", p - 1, 0), ("lin-ts", p - 1, 0),
                                         ("lin-ucb", p, 1)):
            path = self._config(tmp_path, algorithm, experiment={"horizon": horizon},
                                environment={"synthetic_dim": p})
            assert main(["validate", "--config", path]) == code
        err = capsys.readouterr().err
        assert err == (f"error: policy.algorithm: a full design at p = {p} may hold "
                       f"{held} bytes (11.1 GiB) over 15680 rounds, above the cap of "
                       f"{4 * 2**30} bytes (4 GiB); use a shorter horizon\n")
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    def test_mnist_full_design_over_the_memory_cap_exits_1_at_run(self, tmp_path, capsys):
        # p depends on the image size, which only the run reads
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx_images(images, np.ones((10, 28, 28)))
        write_idx_labels(labels, list(range(10)))
        path = self._config(tmp_path, "delayed-neural-ucb", **self.MNIST_SIZE, environment={
            "source": "mnist", "dataset_path": images, "labels_path": labels,
            "embed_assumption3": "true"})
        assert main(["validate", "--config", path]) == 0
        capsys.readouterr()
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: policy.design_mode: a full design at p = {self.MNIST_P} ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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

    RUN = ["run", "--config", "{config}", "--out", "{out}"]

    @pytest.mark.parametrize("argv,message", [
        (RUN + ["--seeds", "x"], "error: --seeds: expected comma-separated integers, got 'x'"),
        (RUN + ["--seeds", "1,,2"], "error: --seeds: expected comma-separated integers"),
        (RUN + ["--seeds", "-1"], "error: experiment.seeds: must be nonempty and >= 0"),
        (RUN + ["--seeds", ""], "error: --seeds: expected comma-separated integers, got ''"),
        (RUN + ["--seeds", "3,3"], "error: experiment.seeds: must be nonempty and >= 0, "
                                   "with no seed repeated, got (3, 3)"),
        (RUN + ["--seeds", "3,3", "--jobs", "2"], "error: experiment.seeds: must be "
                                                  "nonempty and >= 0, with no seed repeated"),
        (RUN + ["--jobs", "0"], "error: --jobs: must be >= 1, got 0"),
        (RUN + ["--jobs", "-2"], "error: --jobs: must be >= 1, got -2"),
        (RUN + ["--jobs", "abc"], "error: argument --jobs: invalid int value: 'abc'"),
        (["bogus", "--config", "{config}"], "error: argument command: invalid choice: 'bogus'"),
        (["run", "--out", "{out}"], "error: the following arguments are required: --config"),
    ], ids=["seeds-letter", "seeds-empty-item", "seeds-negative", "seeds-empty",
            "seeds-repeated", "seeds-repeated-jobs-2", "jobs-zero", "jobs-negative",
            "jobs-letters", "unknown-command", "no-config"])
    def test_bad_run_option_exits_1_with_one_line(self, config_file, tmp_path, capsys,
                                                  argv, message):
        out = tmp_path / "out"
        argv = [arg.format(config=config_file, out=out) for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["-h"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: delaybandit")

    def test_configuration_error_in_run_exits_1_with_one_line(self, tmp_path, capsys,
                                                              monkeypatch):
        # a check that only the run makes, here the initializer's even width
        monkeypatch.setattr(config_mod, "validate", lambda cfg, errors: None)
        path = self._config(tmp_path, "delayed-neural-ucb", network={"width": 7})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: symmetric init needs even width")
        assert err.count("\n") == 1

    def test_label_without_an_arm_exits_1_with_one_line(self, tmp_path, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx_images(images, np.zeros((4, 2, 2)))
        write_idx_labels(labels, [0, 5, 1, 9])
        path = self._config(tmp_path, "lin-ucb", environment={
            "source": "mnist", "dataset_path": images, "labels_path": labels})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset label 5 has no arm: experiment.arms is 2")
        assert err.count("\n") == 1

    def test_short_label_file_exits_2_with_one_line(self, tmp_path, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx_images(images, np.zeros((4, 2, 2)))
        write_idx_labels(labels, [0, 1, 1, 0])
        labels.write_bytes(labels.read_bytes()[:-1])  # one label short
        path = self._config(tmp_path, "lin-ucb", environment={
            "source": "mnist", "dataset_path": images, "labels_path": labels})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {labels}: payload is 3 bytes at byte 8, expected 4\n")
        assert not (tmp_path / "out").exists()

    def test_dataset_without_rows_exits_2_with_one_line(self, tmp_path, capsys):
        csv = tmp_path / "empty.csv"
        csv.write_text("\n")
        path = self._config(tmp_path, "lin-ucb", environment={
            "source": "mushroom", "dataset_path": csv})
        assert main(["validate", "--config", path]) == 0  # the file is read only by run
        capsys.readouterr()
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {csv}: no data rows\n"

    @pytest.mark.parametrize("content,message", [
        (b"experiment: {horizon: [1\n",
         ", line 2, column 1: expected ',' or ']', but got '<stream end>'\n"),
        (b"experiment:\n  horizon: 5\n\xff\n", ", line 3: byte 0xff is not UTF-8 text\n"),
        (b"- experiment\n- policy\n", ": top level must be a mapping\n"),
    ], ids=["unclosed-flow", "not-utf8", "top-level-list"])
    @pytest.mark.parametrize("command", ["validate", "run", "analyze"])
    def test_malformed_config_file_exits_1_with_one_line(self, tmp_path, capsys, command,
                                                          content, message):
        path = tmp_path / "bad.yaml"
        path.write_bytes(content)
        argv = [command, "--config", str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}{message}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["analyze"], ["run", "--analyze", "--out", "out"]])
    def test_analyze_without_a_nonzero_context_exits_2(self, tmp_path, command):
        # every attribute of every row is the column's only category, so every
        # context is zero; the search for a nonzero one used to loop forever,
        # hence the subprocess and its timeout
        csv = tmp_path / "flat.csv"
        csv.write_text(("e," + ",".join("a" * 22) + "\n") * 5)
        path = self._config(tmp_path, "lin-ucb", environment={
            "source": "mushroom", "dataset_path": csv})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                          env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "delaybandit.cli", *command,
                               "--config", path], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr == ("error: the mushroom data holds no nonzero context "
                               "in its 5 rows\n")
        assert not (tmp_path / "out").exists()

    def test_run_analyze_writes_the_analysis_beside_the_same_runs(self, config_file,
                                                                  tmp_path, capsys):
        plain, analyzed = tmp_path / "plain", tmp_path / "analyzed"
        assert main(["run", "--config", str(config_file), "--out", str(plain)]) == 0
        assert main(["run", "--config", str(config_file), "--out", str(analyzed),
                     "--analyze"]) == 0
        capsys.readouterr()
        assert main(["analyze", "--config", str(config_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert json.loads((analyzed / "summary.json").read_text())["analysis"] == report
        assert "analysis" not in json.loads((plain / "summary.json").read_text())
        for name in ("run_1.csv", "run_2.csv", "mean.csv"):
            assert (analyzed / name).read_bytes() == (plain / name).read_bytes()

    @pytest.mark.parametrize("sections", [
        {"policy": {"lambda": "1.0e300"}},  # log(1 + n/lam) rounded to 0
        # alpha = E[tau] for a uniform delay, and alpha ** 2 overflowed
        {"environment": {"delay": "uniform", "expected_delay": "1.0e300"}},
    ], ids=["lambda", "alpha"])
    def test_analyze_at_an_extreme_constant_prints_finite_numbers(self, tmp_path, capsys,
                                                                  sections):
        path = self._config(tmp_path, "delayed-neural-ucb",
                            experiment={"horizon": 12}, **sections)
        assert main(["analyze", "--config", path]) == 0
        printed = capsys.readouterr()
        assert printed.err == ""

        def refuse(constant):
            raise AssertionError(f"analyze printed {constant}")

        report = json.loads(printed.out, parse_constant=refuse)
        if "environment" in sections:  # sqrt(2 alpha^2 log(3T / 2 delta)), as alpha sqrt(...)
            assert report["D_tau"] == pytest.approx(1e300 * math.sqrt(2 * math.log(360)))

    def test_analyze_with_a_bound_past_the_float_range_exits_2_with_one_line(self, tmp_path,
                                                                              capsys):
        for sections in ({"policy": {"nu": "1.0e300"},
                          "environment": {"delay": "uniform", "expected_delay": "1.0e300"}},
                         {"policy": {"lambda": "1.0e-300"}}):  # lambda ** (-7/6) in gamma_T
            path = self._config(tmp_path, "delayed-neural-ucb", experiment={"horizon": 12},
                                **sections)
            for command in (["analyze"], ["run", "--analyze", "--out", str(tmp_path / "out")]):
                assert main([*command, "--config", path]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: analysis: d_tilde ") and err.endswith(
                    " or a point of the regret-bound curve is not finite\n")
            assert not (tmp_path / "out").exists()

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
            "analysis": {"n_contexts": 12},
        })
        report = analyze_config(cfg)
        assert report["n_contexts"] == 12
        assert report["gram_min_eigenvalue"] > 0  # Assumption-3 embedded contexts
        assert 0 < report["d_tilde"] <= 12
        bounds = [b for _, b in report["bound_curve"]]
        assert all(b > 0 for b in bounds)

    def test_the_delay_tail_follows_from_the_distribution(self):
        # 4 arms, dim 20 embedded, width 64, lambda = nu = 0.1, 10 fixed steps, E[tau] = 30
        def report(delay):
            return analyze_config(config_from_dict({
                "experiment": {"horizon": 2000, "arms": 4, "seeds": [1]},
                "policy": {"algorithm": "delayed-neural-ucb", "lambda": 0.1, "nu": 0.1},
                "network": {"width": 64},
                "train": {"steps": 10, "steps_schedule": "fixed", "eta": 1e-4},
                "environment": {"source": "synthetic", "synthetic_dim": 20,
                                "embed_assumption3": True,
                                "delay": delay, "expected_delay": 30},
            }))

        reports = {delay: report(delay)
                   for delay in ("constant", "uniform", "exponential", "pareto")}
        expected = {"constant": (0.0, 0.0, 0.0, 127.055),
                    "uniform": (30.0, 0.0, 140.726, 267.781),
                    "exponential": (60.0, 60.0, 281.452, 408.507)}
        for delay, (alpha, b, d_tau, d_plus_value) in expected.items():
            r = reports[delay]
            assert (r["delay_alpha"], r["delay_b"]) == (alpha, b)
            assert r["D_tau"] == pytest.approx(d_tau, abs=5e-4)
            assert r["D_plus"] == pytest.approx(d_plus_value, abs=5e-4)
            exact = d_plus(DelayBoundParams(2000, 0.05, 30.0, alpha, b))
            assert r["D_plus"] == pytest.approx(exact[0], rel=1e-12, abs=0)
        # a Pareto tail is not sub-exponential: no D_+ and no bound, the rest stays
        pareto = reports["pareto"]
        for key in ("delay_alpha", "delay_b", "D_plus", "D_tau", "bound_curve"):
            assert pareto[key] is None, key
        for key in ("psi_tau", "d_tilde", "gamma_T"):
            assert pareto[key] == reports["constant"][key], key

    def test_delay_none_ignores_expected_delay(self):
        # delay: none draws no delay whatever expected_delay says, so its D_+
        # is that of no delay
        def report(expected_delay):
            return analyze_config(config_from_dict({
                "experiment": {"horizon": 50, "arms": 2, "seeds": [1]},
                "policy": {"algorithm": "delayed-neural-ucb"},
                "network": {"width": 8},
                "environment": {"source": "synthetic", "synthetic_dim": 4,
                                "delay": "none", "expected_delay": expected_delay},
                "analysis": {"n_contexts": 12},
            }))

        ignored, zero = report(30), report(0)
        for key in ("D_plus", "D_tau", "psi_tau", "bound_curve"):
            assert ignored[key] == zero[key], key

    @pytest.mark.parametrize("embed", [True, False], ids=["embedded", "plain"])
    def test_contexts_are_embedded_once(self, mushroom_csv, monkeypatch, embed):
        # the criterion-8 mushroom config, with and without embedding in the environment
        cfg = config_from_dict({
            "experiment": {"horizon": 2000, "arms": 2, "seeds": [1]},
            "policy": {"algorithm": "delayed-neural-ucb", "lambda": 0.1},
            "network": {"width": 64},
            "environment": {"source": "mushroom", "dataset_path": str(mushroom_csv),
                            "embed_assumption3": embed,
                            "delay": "uniform", "expected_delay": 30},
        })
        seen = []

        def spy(contexts, depth):
            seen.append(contexts)
            return ntk_gram(contexts, depth)

        monkeypatch.setattr(analysis_mod, "ntk_gram", spy)
        report = analyze_config(cfg)
        contexts, = seen
        context_dim = build_environment(cfg, 1).context_dim
        assert contexts.shape == (40, context_dim if embed else 2 * context_dim)
        # embedding an embedded context again keeps every inner product
        twice = np.stack([assumption3_embed(x) for x in contexts]) if embed else contexts
        embedded_twice = effective_dimension(ntk_gram(twice, cfg.network.depth),
                                             cfg.policy.lam, cfg.horizon * cfg.arms)
        assert report["d_tilde"] == pytest.approx(embedded_twice, rel=1e-12, abs=0)
