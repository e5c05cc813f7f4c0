"""Rounds per second and peak memory of an MNIST-size neural round, and the
time of the neural round's layers at the mushroom size, for two commits.

Usage: python3 benchmarks/bench_mnist_round.py --parent REV [--pairs N] [--rounds R]
                                              [--repeat N] [--out PATH]

For this checkout and for git revision REV (exported with ``git archive`` into
a temporary directory), N pairs of fresh processes, the first side alternating
from pair to pair, each run:

- the stand-in for an MNIST round: delayed NeuralUCB with the diagonal design
  on synthetic contexts of 7 840 features embedded to d = 15 680, K = 10 arms,
  width 128 (p = 2 007 168), 10 steps at batch 64 and a uniform delay with
  E[tau] = 5, for R rounds of ``harness.run_single``. It reports
  ``rounds_per_s`` (R over the wall time of run_single) and ``peak_rss_mib``
  (the process's peak resident set, from getrusage);
- at the mushroom size (width 64 on 88-dimensional contexts, p = 5 696, K = 2),
  microseconds per call, the least of --repeat timed calls, of
  ``NeuralBandit._score`` and of an ``ingest_revealed`` of one record that
  trains no step, with 100 rewards revealed, in both design modes, and of one
  ``train_nn`` step at batch 64 on 200 rows (a 10-step call over 10).

The result goes to ``BENCH_mnist_round.json`` at the repository root, with the
median of each side's N values and the change-over-parent ratio of the medians.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# runs in a fresh interpreter with the package under test first on sys.path;
# argv: rounds, repeat
PROBE = r"""
import json, math, resource, sys, time, timeit
import numpy as np
from delaybandit.config import PolicyBlock, TrainBlock, config_from_dict
from delaybandit.harness import run_single
from delaybandit.network import NetworkShape, init_symmetric, train_nn
from delaybandit.policies import BanditRecord, NeuralBandit

rounds, repeat = map(int, sys.argv[1:3])
report = {}

# the mushroom-size layers first, before the MNIST-size run grows the heap
rng = np.random.default_rng(5)
unit = lambda a: a / np.linalg.norm(a, axis=-1, keepdims=True)
shape = NetworkShape(2, 64, 88)
for mode in ("diag", "full"):
    policy = NeuralBandit(
        PolicyBlock(algorithm="delayed-neural-ucb", design_mode=mode, gamma_mode="constant",
                    gamma_const=0.1, nu=0.1, lam=0.1),
        TrainBlock(eta=1e-4, steps=0, steps_schedule="fixed", batch_size=64), shape,
        np.random.default_rng(6))
    for t in range(1, 101):
        policy.select_action(unit(rng.standard_normal((2, 88))))
        policy.ingest_revealed([BanditRecord(t, float(rng.random()))])
    contexts = unit(rng.standard_normal((2, 88)))
    report[f"score_us_{mode}"] = 1e6 * min(timeit.repeat(
        lambda: policy._score(contexts), number=1, repeat=repeat))
    times = []
    for _ in range(repeat):
        policy.select_action(contexts)
        record = [BanditRecord(policy.t, 0.5)]
        started = time.perf_counter()
        policy.ingest_revealed(record)
        times.append(time.perf_counter() - started)
    report[f"ingest_us_{mode}"] = 1e6 * min(times)
theta0 = init_symmetric(shape, rng)
xs, rs = unit(rng.standard_normal((200, 88))), rng.random(200)
train_rng = np.random.default_rng(7)
report["train_step_us"] = 1e5 * min(timeit.repeat(
    lambda: train_nn(theta0, shape, xs, rs, 0.1, 1e-4, 10, 64, train_rng, theta0),
    number=1, repeat=repeat))

cfg = config_from_dict({
    "experiment": {"horizon": rounds, "arms": 10, "seeds": [1]},
    "policy": {"algorithm": "delayed-neural-ucb", "design_mode": "diag",
               "gamma_mode": "constant", "gamma_const": 0.1, "nu": 0.1, "lambda": 0.1},
    "network": {"width": 128},
    "train": {"steps": 10, "steps_schedule": "fixed", "batch_size": 64, "eta": 1e-4},
    "environment": {"source": "synthetic", "synthetic_dim": 7840, "embed_assumption3": True,
                    "delay": "uniform", "expected_delay": 5},
})
started = time.perf_counter()
run_single(cfg, 1)
report["rounds_per_s"] = rounds / (time.perf_counter() - started)
report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(report))
"""

METRICS = ("rounds_per_s", "peak_rss_mib", "score_us_diag", "score_us_full",
           "ingest_us_diag", "ingest_us_full", "train_step_us")


def measure(src: Path, rounds: int, repeat: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", PROBE, str(rounds), str(repeat)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare with")
    parser.add_argument("--pairs", type=int, default=3, help="fresh-process pairs")
    parser.add_argument("--rounds", type=int, default=30, help="rounds of the MNIST-size run")
    parser.add_argument("--repeat", type=int, default=200, help="timed calls per layer")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_mnist_round.json")
    args = parser.parse_args(argv)
    parent_rev = git("rev-parse", args.parent)
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-mnist-") as tmp:
        parent_dir = Path(tmp)
        archive = subprocess.run(["git", "archive", parent_rev, "src"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_dir)], input=archive, check=True)
        srcs = {"parent": parent_dir / "src", "change": ROOT / "src"}
        # both sides run back to back, the first side alternating, so that a
        # drift in the machine's load falls on both
        for i in range(args.pairs):
            for side in ("parent", "change")[::1 if i % 2 == 0 else -1]:
                runs[side].append(measure(srcs[side], args.rounds, args.repeat))
                print(f"pair {i + 1} {side}: {runs[side][-1]}", flush=True)
    medians = {side: {key: statistics.median(run[key] for run in values) for key in METRICS}
               for side, values in runs.items()}
    report = {
        "benchmark": "benchmarks/bench_mnist_round.py",
        "pairs": args.pairs,
        "rounds": args.rounds,
        "repeat": args.repeat,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpus": os.cpu_count(), "platform": platform.platform()},
        "parent": {"rev": parent_rev, "median": medians["parent"], "runs": runs["parent"]},
        # the change is this checkout's src/: HEAD, plus any uncommitted edits to it
        "change": {"head": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain", "src")),
                   "median": medians["change"], "runs": runs["change"]},
        "change_over_parent": {key: medians["change"][key] / medians["parent"][key]
                               for key in METRICS},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for key in METRICS:
        print(f"{key}: {medians['parent'][key]:.4g} -> {medians['change'][key]:.4g} "
              f"({report['change_over_parent'][key]:.3f}x)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
