"""Experiment runner: wire environment and policy, aggregate, emit CSV/JSON."""

import json
import math
import os
import re
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, resolved_summary
from .data import load_idx, load_mushroom_csv
from .delay import RevealQueue
from .environment import DatasetSource, Environment, SyntheticSource
from .network import NetworkShape
from .policies import BanditRecord, LinearBandit, NeuralBandit, exploration_of


@dataclass
class RunResult:
    seed: int
    rows: list  # (round, arm, regret, cum_regret, revealed, pending, gamma)
    summary: dict

    @property
    def cum_regret(self) -> np.ndarray:
        return np.array([row[3] for row in self.rows])


def _stream(seed: int, label: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, label])))


def _load_samples(cfg: ExperimentConfig):
    env = cfg.environment
    if env.source == "mushroom":
        return load_mushroom_csv(cfg.resolve_data_path(env.dataset_path))
    if env.source == "mnist":
        return load_idx(cfg.resolve_data_path(env.dataset_path),
                        cfg.resolve_data_path(env.labels_path))
    return None


def build_environment(cfg: ExperimentConfig, seed: int, samples=None) -> Environment:
    env = cfg.environment
    context_rng = _stream(seed, 1)
    noise_rng = _stream(seed, 2)
    delay_rng = _stream(env.delay_seed if env.delay_seed is not None else seed, 3)
    if env.source == "synthetic":
        source = SyntheticSource(env.synthetic_h, env.synthetic_dim, cfg.arms,
                                 context_rng, embed=env.embed_assumption3)
    else:
        if samples is None:
            samples = _load_samples(cfg)
        source = DatasetSource(samples, cfg.arms, context_rng,
                               embed=env.embed_assumption3,
                               wrong_class_reward=env.wrong_class_reward)
    return Environment(source, cfg.delay_distribution(),
                       math.sqrt(env.noise_variance), noise_rng, delay_rng)


def build_policy(cfg: ExperimentConfig, context_dim: int, seed: int):
    rng = _stream(seed, 4)
    if cfg.policy.algorithm.startswith("lin-"):
        return LinearBandit(context_dim, rng, lam=cfg.policy.lam,
                            alpha=cfg.policy.alpha, nu=cfg.policy.nu,
                            exploration=exploration_of(cfg.policy.algorithm))
    shape = NetworkShape(cfg.network.depth, cfg.network.width, context_dim)
    return NeuralBandit(cfg.policy, cfg.train, shape, rng)


def run_single(cfg: ExperimentConfig, seed: int, samples=None) -> RunResult:
    """One seeded replicate of the full interaction loop."""
    started = time.perf_counter()
    env = build_environment(cfg, seed, samples=samples)
    policy = build_policy(cfg, env.context_dim, seed)
    delayed = cfg.policy.algorithm.startswith("delayed-")
    queue = RevealQueue()
    rows = []
    cum_regret = 0.0
    for t in range(1, cfg.horizon + 1):
        contexts = env.round_contexts(t)
        action, _ = policy.select_action(contexts)
        outcome = env.step(t, action)
        record = BanditRecord(t, contexts[action - 1], action, outcome.reward)
        if delayed:
            queue.schedule(t, outcome.delay, record)
            batch = queue.pop_revealed(t)
        else:
            batch = [record]
        policy.ingest_revealed(batch)
        cum_regret += outcome.regret
        revealed = policy.revealed_count
        rows.append((t, action, outcome.regret, cum_regret,
                     revealed, t - revealed, policy.gamma))
    summary = {
        "seed": seed,
        "final_cum_regret": cum_regret,
        "revealed": rows[-1][4],
        "pending": rows[-1][5],
        "max_scaled_grad_norm": policy.max_scaled_grad_norm,
        "wall_time_s": time.perf_counter() - started,
    }
    return RunResult(seed, rows, summary)


def _run_single_star(args):
    return run_single(*args)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> list[RunResult]:
    """Run every seed of cfg (optionally in parallel processes), in seed order."""
    samples = _load_samples(cfg)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: costs start-up

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_single_star,
                                 [(cfg, seed, samples) for seed in cfg.seeds]))
    return [run_single(cfg, seed, samples) for seed in cfg.seeds]


def aggregate(results: list[RunResult]):
    """Pointwise mean plus min/max envelope of the cumulative-regret curves."""
    if not results:
        raise ValueError("no results to aggregate")
    horizons = {len(r.rows) for r in results}
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


def _write_outputs(results, out: Path, cfg: ExperimentConfig, analysis) -> None:
    for result in results:
        lines = [CSV_HEADER]
        for t, arm, regret, cum, revealed, pending, gamma in result.rows:
            lines.append(f"{t},{arm},{_fmt(regret)},{_fmt(cum)},"
                         f"{revealed},{pending},{_fmt(gamma)}")
        (out / f"run_{result.seed}.csv").write_text("\n".join(lines) + "\n",
                                                    encoding="utf-8", newline="\n")
    mean, lo, hi = aggregate(results)
    lines = ["round,mean_cum_regret,min_cum_regret,max_cum_regret"]
    for t in range(len(mean)):
        lines.append(f"{t + 1},{_fmt(mean[t])},{_fmt(lo[t])},{_fmt(hi[t])}")
    (out / "mean.csv").write_text("\n".join(lines) + "\n",
                                  encoding="utf-8", newline="\n")
    summary = {
        "config": resolved_summary(cfg),
        "runs": [r.summary for r in results],
        "mean_final_cum_regret": float(mean[-1]),
    }
    if analysis:
        summary["analysis"] = analysis
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n",
                                      encoding="utf-8", newline="\n")
