"""Rounds per second and peak memory of an MNIST-size neural round, and the
time of the neural round's layers at the mushroom size.

Usage: python3 benchmarks/probe_mnist_round.py WORK   (run by ``pairs.py mnist-round``)

- the stand-in for an MNIST round: delayed NeuralUCB with the diagonal design
  on synthetic contexts of 7 840 features embedded to d = 15 680, K = 10 arms,
  width 128 (p = 2 007 168), 10 steps at batch 64 and a uniform delay with
  E[tau] = 5, for 30 rounds of ``harness.run_single``. It reports
  ``rounds_per_s`` (30 over the wall time of run_single) and
  ``peak_rss_mib`` (the process's peak resident set, from getrusage);
- at the mushroom size (width 64 on 88-dimensional contexts, p = 5 696, K = 2),
  microseconds per call, the least of 200 timed calls after 20 untimed ones,
  of ``NeuralBandit._score`` and of an ``ingest_revealed`` of one record that
  trains no step, with 100 rewards revealed, in both design modes, and of one
  ``train_nn`` step at batch 64 on 200 rows (a 10-step call over 10). The
  policies are built by ``harness.build_policy``, as a run builds them.

Prints one JSON line. WORK is unused: the probe generates its inputs.
"""

import json, resource, time, timeit
import numpy as np
from delaybandit.config import config_from_dict
from delaybandit.harness import build_policy, run_single
from delaybandit.network import NetworkShape, init_symmetric, train_nn
from delaybandit.policies import BanditRecord

rounds, repeat, warm = 30, 200, 20
report = {}

# the mushroom-size layers first, before the MNIST-size run grows the heap
rng = np.random.default_rng(5)
unit = lambda a: a / np.linalg.norm(a, axis=-1, keepdims=True)
shape = NetworkShape(2, 64, 88)
for mode in ("diag", "full"):
    policy = build_policy(config_from_dict({
        "experiment": {"horizon": 100 + warm + repeat},
        "policy": {"algorithm": "delayed-neural-ucb", "design_mode": mode,
                   "gamma_mode": "constant", "gamma_const": 0.1, "nu": 0.1, "lambda": 0.1},
        "network": {"width": 64},
        "train": {"steps": 0, "steps_schedule": "fixed", "batch_size": 64, "eta": 1e-4},
        "environment": {"synthetic_dim": 88},
    }), 88, 6)
    for t in range(1, 101):
        policy.select_action(unit(rng.standard_normal((2, 88))))
        policy.ingest_revealed([BanditRecord(t, float(rng.random()))])
    contexts = unit(rng.standard_normal((2, 88)))
    for _ in range(warm):
        policy._score(contexts)
    report[f"score_us_{mode}"] = 1e6 * min(timeit.repeat(
        lambda: policy._score(contexts), number=1, repeat=repeat))
    times = []
    for _ in range(warm + repeat):
        policy.select_action(contexts)
        record = [BanditRecord(policy.t, 0.5)]
        started = time.perf_counter()
        policy.ingest_revealed(record)
        times.append(time.perf_counter() - started)
    report[f"ingest_us_{mode}"] = 1e6 * min(times[warm:])
theta0 = init_symmetric(shape, rng)
xs, rs = unit(rng.standard_normal((200, 88))), rng.random(200)
train_rng = np.random.default_rng(7)
step = lambda: train_nn(theta0, shape, xs, rs, 0.1, 1e-4, 10, 64, train_rng, theta0)
for _ in range(warm):
    step()
report["train_step_us"] = 1e5 * min(timeit.repeat(step, number=1, repeat=repeat))

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
