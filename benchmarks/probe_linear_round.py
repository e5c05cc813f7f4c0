"""Memory and time of one LinUCB and one LinTS round.

Usage: python3 benchmarks/probe_linear_round.py WORK   (run by ``pairs.py linear-round``)

For each case in CASES it builds a ``LinearBandit`` of the case's algorithm on
p-dimensional contexts by ``harness.build_policy``, for as many rounds as the
case plays, reveals the case's number of seeded rewards through
``ingest_revealed`` and then measures one ``select_action`` on K = ARMS seeded
contexts and one ``DesignMatrix.solve`` of the reward vector b:

- ``peak_bytes``: the peak that ``tracemalloc`` traces during select_action;
- ``select_us``: microseconds per select_action, the least of REPEAT timed calls;
- ``solve_us``: microseconds per solve, the least of REPEAT timed calls.

REVEALS rewards keep the design in its dual form; p + REVEALS take it past the
switch to the primal form. Prints one JSON line, keyed by case. WORK is unused.
"""

import json, timeit, tracemalloc
import numpy as np
from delaybandit.config import config_from_dict
from delaybandit.harness import build_policy
from delaybandit.policies import BanditRecord

ARMS = 10
REVEALS = 100
REPEAT = 30
# (algorithm, p, reveals). LinTS and the primal form run at p = 2000 only: the
# switch at p = 8000 holds six p x p arrays, 3 GB, too much for a small machine,
# and an older LinTS, as a parent, factors a p x p Z^{-1} every round.
CASES = (("lin-ucb", 2000, REVEALS), ("lin-ucb", 8000, REVEALS),
         ("lin-ucb", 2000, 2000 + REVEALS), ("lin-ts", 2000, REVEALS),
         ("lin-ts", 2000, 2000 + REVEALS))


def measure(algorithm, p, reveals):
    rng = np.random.default_rng(p)
    # the reveals, a warm-up, the traced round and the timed ones
    policy = build_policy(config_from_dict({
        "experiment": {"horizon": reveals + 2 + REPEAT}, "policy": {"algorithm": algorithm},
        "environment": {"synthetic_dim": p}}), p, p)
    # play each revealed context as its round, without scoring K arms for it
    for t in range(1, reveals + 1):
        policy.t = t
        policy.pending[t] = rng.standard_normal(p)
        policy.ingest_revealed([BanditRecord(t, float(rng.standard_normal()))])
    contexts = rng.standard_normal((ARMS, p))
    policy.select_action(contexts)  # warm-up
    tracemalloc.start()
    policy.select_action(contexts)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    select = min(timeit.repeat(lambda: policy.select_action(contexts), number=1, repeat=REPEAT))
    solve = min(timeit.repeat(lambda: policy.design.solve(policy.b), number=1, repeat=REPEAT))
    return {"peak_bytes": peak, "select_us": select * 1e6, "solve_us": solve * 1e6}


print(json.dumps({f"{algorithm}/p{p}/{'primal' if reveals >= p else 'dual'}":
                  measure(algorithm, p, reveals) for algorithm, p, reveals in CASES}))
