import gc
import json
import re
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import Literal, get_args, get_origin

import numpy as np
import pytest
import yaml

from delaybandit import harness
from delaybandit.config import (ExperimentConfig, PolicyBlock, TrainBlock, config_from_dict,
                                load_config, resolved_summary)
from delaybandit.delay import DelayDistribution
from delaybandit.errors import ConfigurationError, DivergedTrainingError
from delaybandit.harness import (aggregate, build_environment, emit,
                                 run_experiment, run_single)
from delaybandit.policies import Bandit


def synthetic_config(**overrides):
    raw = {
        "experiment": {"horizon": 5, "arms": 2, "seeds": [1],
                       "output": "unused"},
        "policy": {"algorithm": "lin-ucb"},
        "environment": {"source": "synthetic", "synthetic_h": "linear",
                        "synthetic_dim": 4, "delay": "none"},
    }
    for section, vals in overrides.items():
        raw.setdefault(section, {}).update(vals)
    return config_from_dict(raw)


class TestConfig:
    def test_defaults_mirror_reference_setup(self):
        cfg = ExperimentConfig()
        assert cfg.network.width == 128 and cfg.network.depth == 2
        assert cfg.policy.nu == 1.0 and cfg.policy.lam == 1.0
        assert cfg.policy.delta == 0.05 and cfg.policy.norm_s == 1e-4
        assert cfg.train.batch_size == 64 and cfg.train.eta == 0.001
        assert cfg.train.steps_schedule == "round"

    @pytest.mark.xfail(strict=True, raises=DivergedTrainingError,
                       reason="known bug, see ROADMAP.md: training diverges at the defaults")
    def test_a_near_empty_config_runs(self):
        cfg = config_from_dict({"experiment": {"seeds": [1], "horizon": 150}})
        [result] = run_experiment(cfg)
        assert len(result.rows) == 150

    def test_steps_at_follows_the_schedule(self):
        assert TrainBlock(steps=7, steps_schedule="fixed").steps_at(40) == 7
        assert TrainBlock(steps=7, steps_schedule="round").steps_at(40) == 40

    def test_validation_collects_all_errors(self):
        raw = {"experiment": {"horizon": 0, "arms": 1, "seeds": []},
               "policy": {"algorithm": "bogus", "delta": 2.0}}
        with pytest.raises(ConfigurationError) as err:
            config_from_dict(raw)
        msg = str(err.value)
        for field in ("horizon", "arms", "seeds", "algorithm", "delta"):
            assert field in msg

    def test_blocks_check_their_fields_when_built(self):
        with pytest.raises(ConfigurationError, match=r"^train\.eta: must be > 0, got 0$"):
            TrainBlock(eta=0)
        with pytest.raises(ConfigurationError) as err:
            PolicyBlock(lam=0.0, gamma_mode="bogus")
        assert str(err.value) == ("policy.lambda: must be > 0, got 0.0; policy.gamma_mode: "
                                  "expected one of 'simple', 'constant', got 'bogus'")

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            config_from_dict({"policy": {"exploration_bonus": 3}})

    def test_delay_shorthand_resolution(self):
        cfg = synthetic_config(policy={"algorithm": "delayed-neural-ucb"},
                               environment={"delay": "exponential", "expected_delay": 30})
        assert cfg.delay_distribution() == DelayDistribution("exponential", 30)
        echo = resolved_summary(cfg)
        assert echo["delay_distribution"] == f"Exponential(rate={1 / 30!r})"

    def test_readme_example_builds(self):
        # the documented config must pass the rules that validate enforces
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
        cfg = config_from_dict(yaml.safe_load(example))
        assert cfg.delay_distribution() == DelayDistribution("uniform", 30)
        assert cfg.policy.algorithm == "delayed-neural-ucb"

    def test_readme_enum_table_lists_every_literal_field(self):
        # one row per Literal field of the config blocks, its values default first
        # and then in Literal order; a value's gloss in parentheses and what
        # follows a ';' are prose
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("fixed set of values:\n\n", 1)[1].split("\n\n", 1)[0]
        rows = {}
        for line in table.splitlines()[2:]:
            name, values = line.strip("|").split("|")
            values = re.sub(r"\([^)]*\)", "", values).split(";")[0]
            rows[name.strip().strip("`")] = re.findall(r"`([^`]+)`", values)
        blocks = [f.type for f in fields(ExperimentConfig) if is_dataclass(f.type)]
        expected = {}
        for cls in (ExperimentConfig, *blocks):
            for f in fields(cls):
                if get_origin(f.type) is Literal:
                    rest = [value for value in get_args(f.type) if value != f.default]
                    expected[f"{cls.section}.{f.metadata.get('key') or f.name}"] = \
                        [f.default, *rest]
        assert rows == expected

    def test_readme_names_only_config_keys(self):
        # a backticked `section.key` of a config section must name one of its
        # keys, so a setting removed from the config leaves no stale mention
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = [f.type for f in fields(ExperimentConfig) if is_dataclass(f.type)]
        keys = {cls.section: {f.metadata.get("key") or f.name for f in fields(cls)
                              if not is_dataclass(f.type)}
                for cls in (ExperimentConfig, *blocks)}
        named = re.findall(rf"`({'|'.join(keys)})\.(\w+)`", readme)
        assert len(named) >= 10
        assert [f"{section}.{key}" for section, key in named if key not in keys[section]] == []

    def test_readme_python_blocks_run(self, tmp_path, monkeypatch, mushroom_csv):
        # the documented library calls, in order and in one namespace: a
        # one-seed experiment, then the loop that run_single runs
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "experiment.yaml").write_text(yaml.safe_dump({
            "experiment": {"horizon": 30, "arms": 2, "seeds": [1]},
            "policy": {"algorithm": "delayed-neural-ucb", "design_mode": "diag"},
            "network": {"width": 8},
            "train": {"steps": 2, "steps_schedule": "fixed"},
            "environment": {"source": "mushroom", "dataset_path": str(mushroom_csv),
                            "embed_assumption3": True,
                            "delay": "uniform", "expected_delay": 3}}))
        actions = []
        select_action = Bandit.select_action

        def recording(self, contexts):
            action, diagnostics = select_action(self, contexts)
            actions.append(action)
            return action, diagnostics

        namespace = {}
        exec(blocks[0], namespace)
        assert (tmp_path / "results" / "run_1.csv").is_file()
        monkeypatch.setattr(Bandit, "select_action", recording)
        for block in blocks[1:]:
            exec(block, namespace)
        monkeypatch.undo()
        cfg = load_config(tmp_path / "experiment.yaml")
        assert actions == [row[1] for row in run_single(cfg, 1).rows]

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "experiment:\n  horizon: 7\n  seeds: [3]\n"
            "policy:\n  algorithm: lin-ts\n  lambda: 2.0\n"
            "environment:\n  source: synthetic\n")
        cfg = load_config(path)
        assert cfg.horizon == 7
        assert cfg.policy.algorithm == "lin-ts"
        assert cfg.policy.lam == 2.0

    def test_data_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DELAYED_BANDIT_DATA", str(tmp_path))
        cfg = synthetic_config(environment={"source": "mushroom",
                                            "dataset_path": "shrooms.csv"})
        assert cfg.resolve_data_path("shrooms.csv") == tmp_path / "shrooms.csv"


class TestRun:
    def test_smoke_contract(self):
        cfg = synthetic_config()
        result = run_single(cfg, seed=1)
        assert len(result.rows) == 5
        cum = result.cum_regret
        assert np.all(np.isfinite(cum))
        assert np.all(np.diff(cum) >= 0)

    def test_per_row_consistency(self):
        cfg = synthetic_config(
            experiment={"horizon": 30},
            policy={"algorithm": "delayed-neural-ucb"},
            network={"width": 4},
            train={"steps": 1, "steps_schedule": "fixed", "batch_size": None},
            environment={"delay": "uniform", "expected_delay": 3})
        result = run_single(cfg, seed=2)
        prev_cum = 0.0
        for t, arm, regret, cum, revealed, pending, gamma in result.rows:
            assert revealed + pending == t
            assert cum == prev_cum + regret
            prev_cum = cum

    def test_never_revealed_with_huge_constant_delay(self):
        cfg = synthetic_config(
            experiment={"horizon": 20},
            policy={"algorithm": "delayed-neural-ucb"},
            network={"width": 4},
            train={"steps": 1, "steps_schedule": "fixed"},
            environment={"delay": "constant", "expected_delay": 1e6})
        result = run_single(cfg, seed=1)
        gammas = {row[6] for row in result.rows}
        assert all(row[4] == 0 for row in result.rows)  # |I_t| = 0
        assert len(gammas) == 1  # gamma never moves

    def test_determinism(self):
        cfg = synthetic_config(policy={"algorithm": "delayed-neural-ts"},
                               network={"width": 4},
                               train={"steps": 2, "steps_schedule": "fixed"},
                               environment={"delay": "uniform",
                                            "expected_delay": 2})
        r1 = run_single(cfg, seed=9)
        r2 = run_single(cfg, seed=9)
        assert r1.rows == r2.rows

    def test_seed_order_independent(self):
        cfg = synthetic_config(experiment={"seeds": [1, 2]})
        forward_order = run_experiment(cfg)
        reverse_order = run_experiment(replace(cfg, seeds=(2, 1)))
        assert forward_order[0].rows == reverse_order[1].rows
        assert forward_order[1].rows == reverse_order[0].rows

    @pytest.mark.parametrize("seeds,jobs,workers", [
        ((1, 2, 3), 1000, [3]), ((1, 2, 3), 2, [2]), ((4,), 8, []), ((1, 2), 1, [])])
    def test_jobs_start_at_most_one_worker_per_seed(self, monkeypatch, seeds, jobs, workers):
        # a stand-in pool that runs in this process and records its size, so
        # a large jobs value starts no process
        import concurrent.futures

        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        cfg = synthetic_config(experiment={"seeds": list(seeds)})
        results = run_experiment(cfg, jobs=jobs)
        assert started == workers
        assert [r.rows for r in results] == [run_single(cfg, seed).rows for seed in seeds]

    def test_delay_seed_separation(self):
        delayed = {"algorithm": "delayed-neural-ucb"}
        base = synthetic_config(policy=delayed,
                                environment={"delay": "exponential", "expected_delay": 5})
        other = synthetic_config(policy=delayed,
                                 environment={"delay": "exponential", "expected_delay": 5,
                                              "delay_seed": 777})
        env_a = build_environment(base, seed=1)
        env_b = build_environment(other, seed=1)
        ctx_a = [env_a.round_contexts(t).copy() for t in range(1, 6)]
        ctx_b = [env_b.round_contexts(t).copy() for t in range(1, 6)]
        assert all(np.array_equal(a, b) for a, b in zip(ctx_a, ctx_b))
        taus_a = [env_a.step(t, 1).delay for t in range(1, 6)]
        # replay contexts to keep the protocol aligned
        for t in range(1, 6):
            env_b.round_contexts(t + 5)
        taus_b = [env_b.step(t, 1).delay for t in range(1, 6)]
        assert taus_a != taus_b

    @pytest.mark.parametrize("action", [0, 3])
    def test_step_rejects_an_action_out_of_range(self, action):
        env = build_environment(synthetic_config(), seed=1)
        env.round_contexts(1)
        with pytest.raises(ValueError, match=rf"^action {action} out of range \[1, 2\]$"):
            env.step(1, action)

    def test_zero_delay_equivalence_small(self):
        delayed = synthetic_config(
            experiment={"horizon": 40, "arms": 3},
            policy={"algorithm": "delayed-neural-ucb"},
            network={"width": 4},
            train={"steps": 2, "steps_schedule": "fixed"},
            environment={"delay": "none"})
        undelayed = config_from_dict({
            **json_roundtrip_raw(delayed), "policy": undelayed_policy(delayed)})
        r_delayed = run_single(delayed, seed=5)
        r_undelayed = run_single(undelayed, seed=5)
        assert [row[1] for row in r_delayed.rows] == [row[1] for row in r_undelayed.rows]
        assert r_delayed.rows == r_undelayed.rows


def json_roundtrip_raw(cfg):
    return {
        "experiment": {"horizon": cfg.horizon, "arms": cfg.arms,
                       "seeds": list(cfg.seeds), "output": cfg.output},
        "policy": {"algorithm": cfg.policy.algorithm},
        "network": {"width": cfg.network.width, "depth": cfg.network.depth},
        "train": {"steps": cfg.train.steps,
                  "steps_schedule": cfg.train.steps_schedule,
                  "batch_size": cfg.train.batch_size},
        "environment": {"source": "synthetic", "synthetic_h": "linear",
                        "synthetic_dim": 4, "delay": "none"},
    }


class TestRunColumns:
    def test_rows_view_yields_python_tuples(self):
        cfg = synthetic_config(
            experiment={"horizon": 30},
            policy={"algorithm": "delayed-neural-ucb"},
            network={"width": 4},
            train={"steps": 1, "steps_schedule": "fixed", "batch_size": None},
            environment={"delay": "uniform", "expected_delay": 3})
        result = run_single(cfg, seed=2)
        rows = result.rows
        assert len(rows) == 30 and rows[-1] == rows[29] == list(rows)[-1]
        with pytest.raises(IndexError):
            rows[30]
        for row in rows:
            assert list(map(type, row)) == [int, int, float, float, int, int, float]
        assert rows == list(rows) and rows != list(rows)[:-1]
        assert result.summary["revealed"] == rows[-1][4] > 0
        assert result.summary["pending"] == rows[-1][5]
        cum = result.cum_regret
        assert cum.tolist() == [row[3] for row in rows] and not cum.flags.writeable

    def test_run_and_emit_memory_per_round(self, tmp_path):
        # the columns keep 40 bytes a round; emit streams rows rather than
        # holding each CSV as lines and one joined string
        horizon = 5000
        cfg = synthetic_config(experiment={"horizon": horizon})
        emit([run_single(cfg, 1)], tmp_path / "warm", cfg)  # lazy imports and caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_single(cfg, 1)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            emit([result], tmp_path / "out", cfg)
            emit_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert retained <= 64 * horizon
        assert emit_peak <= 100 * horizon


def undelayed_policy(cfg):
    return {"algorithm": cfg.policy.algorithm.removeprefix("delayed-")}


class TestAggregateEmit:
    def make_results(self, seeds=(1, 2)):
        cfg = synthetic_config(experiment={"seeds": list(seeds)})
        return cfg, run_experiment(cfg)

    def test_identical_runs_mean_equals_run(self):
        cfg = synthetic_config()
        results = [run_single(cfg, 1), run_single(cfg, 1)]
        mean, lo, hi = aggregate(results)
        assert np.array_equal(mean, results[0].cum_regret)
        assert np.array_equal(lo, hi)

    def test_mean_arithmetic(self):
        cfg, results = self.make_results()
        mean, lo, hi = aggregate(results)
        manual = (results[0].cum_regret + results[1].cum_regret) / 2
        assert mean == pytest.approx(manual)
        assert np.all(lo <= mean) and np.all(mean <= hi)

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_mismatched_horizons_rejected(self):
        cfg_a = synthetic_config()
        cfg_b = synthetic_config(experiment={"horizon": 7})
        with pytest.raises(ValueError):
            aggregate([run_single(cfg_a, 1), run_single(cfg_b, 1)])

    def test_emit_files(self, tmp_path):
        cfg, results = self.make_results()
        out = tmp_path / "out"
        emit(results, out, cfg)
        csv = (out / "run_1.csv").read_text()
        lines = csv.strip().split("\n")
        assert lines[0] == "round,arm,regret,cum_regret,revealed,pending,gamma"
        assert len(lines) == 6  # header + 5 rows
        assert (out / "mean.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["algorithm"] == "lin-ucb"
        assert len(summary["runs"]) == 2

    @pytest.mark.parametrize("algorithm", ["lin-ucb", "lin-ts", "neural-ucb"])
    def test_summary_grad_norm_only_for_neural_runs(self, tmp_path, algorithm):
        # the linear baselines compute no gradient features, so they report none
        cfg = synthetic_config(policy={"algorithm": algorithm}, network={"width": 4})
        emit(run_experiment(cfg), tmp_path, cfg)
        run, = json.loads((tmp_path / "summary.json").read_text())["runs"]
        if algorithm.startswith("lin-"):
            assert run["max_scaled_grad_norm"] is None
        else:
            assert run["max_scaled_grad_norm"] > 0

    def test_emit_refuses_existing_without_force(self, tmp_path):
        cfg, results = self.make_results()
        out = tmp_path / "out"
        emit(results, out, cfg)
        with pytest.raises(FileExistsError):
            emit(results, out, cfg)
        emit(results, out, cfg, force=True)

    def test_failed_emit_leaves_earlier_output(self, tmp_path, monkeypatch):
        cfg, results = self.make_results()
        out = tmp_path / "out"
        emit(results, out, cfg)
        before = {f.name: f.read_bytes() for f in out.iterdir()}

        def fail(cfg):
            raise RuntimeError("disk full")

        monkeypatch.setattr(harness, "resolved_summary", fail)
        with pytest.raises(RuntimeError):
            emit(results[:1], out, cfg, force=True)
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before
        assert [f.name for f in tmp_path.iterdir()] == ["out"]

    def test_forced_emit_keeps_other_files(self, tmp_path):
        cfg, results = self.make_results(seeds=(1, 2, 3))
        out = tmp_path / "out"
        emit(results, out, cfg)
        (out / "cfg.yaml").write_text("policy: {}\n")
        (out / "notes").mkdir()
        emit(results[:1], out, replace(cfg, seeds=(1,)), force=True)
        assert sorted(f.name for f in out.iterdir()) == ["cfg.yaml", "mean.csv", "notes",
                                                          "run_1.csv", "summary.json"]
        assert (out / "cfg.yaml").read_text() == "policy: {}\n"

    def test_reemit_byte_identical(self, tmp_path):
        cfg, _ = self.make_results()
        a, b = tmp_path / "a", tmp_path / "b"
        emit(run_experiment(cfg), a, cfg)
        emit(run_experiment(cfg), b, cfg)
        assert (a / "run_1.csv").read_bytes() == (b / "run_1.csv").read_bytes()
        assert (a / "mean.csv").read_bytes() == (b / "mean.csv").read_bytes()
