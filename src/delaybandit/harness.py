"""Experiment runner: wire environment and policy, aggregate, emit CSV/JSON."""

import json
import math
import os
import re
import shutil
import tempfile
import time
from array import array
from dataclasses import dataclass
from itertools import count, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import ExperimentConfig, check_design_memory, resolved_summary
from .data import load_idx, load_mushroom_csv
from .delay import RevealQueue
from .environment import DatasetSource, Environment, SyntheticSource
from .network import NetworkShape
from .policies import BanditRecord, LinearBandit, NeuralBandit


class RunColumns(NamedTuple):
    """A run's per-round results, one fixed-width column each (8 bytes a round).

    Row i is round t = i + 1; its pending count is t - revealed.
    """

    arm: array
    regret: array
    cum_regret: array
    revealed: array
    gamma: array

    @classmethod
    def empty(cls) -> "RunColumns":
        return cls(array("q"), array("d"), array("d"), array("q"), array("d"))


def _rows(columns: RunColumns):
    """Yield the (round, arm, regret, cum_regret, revealed, pending, gamma) tuple of
    each round, as Python ints and floats, from the columns as they are read."""
    for t, arm, regret, cum, revealed, gamma in zip(count(1), *columns):
        yield t, arm, regret, cum, revealed, t - revealed, gamma


@dataclass
class RunResult:
    seed: int
    columns: RunColumns
    summary: dict

    @property
    def rows(self) -> list[tuple]:
        """The round tuples that run_<seed>.csv holds, as a new list on each access."""
        return list(_rows(self.columns))

    @property
    def cum_regret(self) -> np.ndarray:
        """The cumulative-regret column as a read-only float64 array, without a copy."""
        view = np.frombuffer(self.columns.cum_regret, dtype=np.float64)
        view.flags.writeable = False
        return view


def _stream(seed: int, label: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, label])))


def _load_dataset(cfg: ExperimentConfig):
    env = cfg.environment
    if env.source == "mushroom":
        return load_mushroom_csv(cfg.resolve_data_path(env.dataset_path))
    if env.source == "mnist":
        return load_idx(cfg.resolve_data_path(env.dataset_path),
                        cfg.resolve_data_path(env.labels_path))
    return None


def build_environment(cfg: ExperimentConfig, seed: int, dataset=None) -> Environment:
    env = cfg.environment
    context_rng = _stream(seed, 1)
    noise_rng = _stream(seed, 2)
    delay_rng = _stream(env.delay_seed if env.delay_seed is not None else seed, 3)
    if env.source == "synthetic":
        source = SyntheticSource(env.synthetic_h, env.synthetic_dim, cfg.arms,
                                 context_rng, embed=env.embed_assumption3)
    else:
        if dataset is None:
            dataset = _load_dataset(cfg)
        source = DatasetSource(dataset, cfg.arms, context_rng,
                               embed=env.embed_assumption3)
    return Environment(source, cfg.delay_distribution(),
                       math.sqrt(env.noise_variance), noise_rng, delay_rng)


def build_policy(cfg: ExperimentConfig, context_dim: int, seed: int):
    rng = _stream(seed, 4)
    check_design_memory(cfg, context_dim)  # an mnist run learns its context_dim only here
    if cfg.policy.algorithm.startswith("lin-"):
        return LinearBandit(cfg.policy, context_dim, rng)
    shape = NetworkShape(cfg.network.depth, cfg.network.width, context_dim)
    return NeuralBandit(cfg.policy, cfg.train, shape, rng)


def run_single(cfg: ExperimentConfig, seed: int, dataset=None) -> RunResult:
    """One seeded replicate of the full interaction loop."""
    started = time.perf_counter()
    env = build_environment(cfg, seed, dataset=dataset)
    policy = build_policy(cfg, env.context_dim, seed)
    queue = RevealQueue()
    columns = RunColumns.empty()
    arms, regrets, cum_regrets, reveals, gammas = (column.append for column in columns)
    cum_regret = 0.0
    for t in range(1, cfg.horizon + 1):
        action, _ = policy.select_action(env.round_contexts(t))
        outcome = env.step(t, action)
        queue.schedule(t, outcome.delay, BanditRecord(t, outcome.reward))
        policy.ingest_revealed(queue.pop_revealed(t))
        cum_regret += outcome.regret
        arms(action)
        regrets(outcome.regret)
        cum_regrets(cum_regret)
        reveals(policy.revealed_count)
        gammas(policy.gamma)
    revealed = columns.revealed[-1]
    summary = {
        "seed": seed,
        "final_cum_regret": cum_regret,
        "revealed": revealed,
        "pending": cfg.horizon - revealed,
        "max_scaled_grad_norm": policy.max_scaled_grad_norm,
        "wall_time_s": time.perf_counter() - started,
    }
    return RunResult(seed, columns, summary)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> list[RunResult]:
    """Run every seed of cfg, in seed order, in up to ``jobs`` processes, one
    per seed at most; with one, in this process."""
    dataset = _load_dataset(cfg)
    workers = min(jobs, len(cfg.seeds))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: costs start-up

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_single, repeat(cfg), cfg.seeds, repeat(dataset)))
    return [run_single(cfg, seed, dataset) for seed in cfg.seeds]


def aggregate(results: list[RunResult]):
    """Pointwise mean plus min/max envelope of the cumulative-regret curves."""
    if not results:
        raise ValueError("no results to aggregate")
    horizons = {len(r.columns.cum_regret) for r in results}
    if len(horizons) > 1:
        raise ValueError(f"results have mismatched horizons {sorted(horizons)}")
    curves = np.stack([r.cum_regret for r in results])
    return curves.mean(axis=0), curves.min(axis=0), curves.max(axis=0)


CSV_HEADER = "round,arm,regret,cum_regret,revealed,pending,gamma"
_RUN_CSV = re.compile(r"run_\d+\.csv")


def _fmt(value) -> str:
    return repr(float(value))


def emit(results: list[RunResult], out_dir, cfg: ExperimentConfig,
         force: bool = False, analysis: dict | None = None) -> None:
    """Write run_<seed>.csv per seed, mean.csv and summary.json into out_dir.

    The files are written into a temporary directory inside out_dir, then
    moved into place, and an earlier run_<seed>.csv of a seed not written now
    is removed; any other file in out_dir is kept. A write that fails leaves
    the earlier output as it was.
    """
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()) and not force:
        raise FileExistsError(f"{out} already contains output; pass --force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".emit-", dir=out))
    try:
        _write_outputs(results, staging, cfg, analysis)
        written = {path.name for path in staging.iterdir()}
        for name in written:
            os.replace(staging / name, out / name)
        for path in out.iterdir():
            if path.name not in written and _RUN_CSV.fullmatch(path.name) and path.is_file():
                path.unlink()
    finally:
        shutil.rmtree(staging)


def _write_lines(path: Path, header: str, lines) -> None:
    """Write header and then each line as it is made, one newline after each."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def _write_outputs(results, out: Path, cfg: ExperimentConfig, analysis) -> None:
    for result in results:
        _write_lines(out / f"run_{result.seed}.csv", CSV_HEADER, (
            f"{t},{arm},{_fmt(regret)},{_fmt(cum)},{revealed},{pending},{_fmt(gamma)}"
            for t, arm, regret, cum, revealed, pending, gamma in _rows(result.columns)))
    mean, lo, hi = aggregate(results)
    _write_lines(out / "mean.csv", "round,mean_cum_regret,min_cum_regret,max_cum_regret", (
        f"{t},{_fmt(m)},{_fmt(low)},{_fmt(high)}"
        for t, m, low, high in zip(count(1), mean, lo, hi)))
    summary = {
        "config": resolved_summary(cfg),
        "runs": [r.summary for r in results],
        "mean_final_cum_regret": float(mean[-1]),
    }
    if analysis:
        summary["analysis"] = analysis
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n",
                                      encoding="utf-8", newline="\n")
