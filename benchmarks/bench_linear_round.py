"""Memory and time of one LinUCB and one LinTS round, for two commits.

Usage: python3 benchmarks/bench_linear_round.py --parent REV [--repeat N] [--out PATH]

For this checkout and for git revision REV (exported with ``git archive`` into
a temporary directory), one after the other with the first alternating from
case to case, and for each case in CASES, a fresh process builds a
``LinearBandit`` of the case's algorithm on p-dimensional contexts, reveals
the case's number of seeded rewards through ``ingest_revealed`` and then
measures one ``select_action`` on K = ARMS seeded contexts and one
``DesignMatrix.solve`` of the reward vector b:

- ``peak_bytes``: the peak that ``tracemalloc`` traces during select_action;
- ``select_us``: microseconds per select_action, the least of N timed calls;
- ``solve_us``: microseconds per solve, the least of N timed calls.

REVEALS rewards keep the design in its dual form; p + REVEALS take it past the
switch to the primal form. The result goes to ``BENCH_linear_round.json`` at
the repository root.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ARMS = 10
REVEALS = 100
# (algorithm, p, reveals). LinTS and the primal form run at p = 2000 only: the
# parent's LinTS factors a p x p Z^{-1} every round, and the switch at p = 8000
# holds six p x p arrays, 3 GB, either of which is too much for a small machine.
CASES = (("lin-ucb", 2000, REVEALS), ("lin-ucb", 8000, REVEALS),
         ("lin-ucb", 2000, 2000 + REVEALS), ("lin-ts", 2000, REVEALS),
         ("lin-ts", 2000, 2000 + REVEALS))

# runs in a fresh interpreter with the package under test first on sys.path;
# argv: algorithm, p, arms, reveals, repeat
PROBE = r"""
import json, sys, timeit, tracemalloc
import numpy as np
from delaybandit.config import PolicyBlock
from delaybandit.policies import BanditRecord, LinearBandit

algorithm = sys.argv[1]
p, arms, reveals, repeat = map(int, sys.argv[2:6])
rng = np.random.default_rng(p)
policy = LinearBandit(PolicyBlock(algorithm=algorithm), p, rng)
# play each revealed context as its round, without scoring K arms for it
for t in range(1, reveals + 1):
    policy.t = t
    policy.pending[t] = rng.standard_normal(p)
    policy.ingest_revealed([BanditRecord(t, float(rng.standard_normal()))])
contexts = rng.standard_normal((arms, p))
policy.select_action(contexts)  # warm-up
tracemalloc.start()
policy.select_action(contexts)
_, peak = tracemalloc.get_traced_memory()
tracemalloc.stop()
select = min(timeit.repeat(lambda: policy.select_action(contexts), number=1, repeat=repeat))
solve = min(timeit.repeat(lambda: policy.design.solve(policy.b), number=1, repeat=repeat))
print(json.dumps({"peak_bytes": peak, "select_us": select * 1e6, "solve_us": solve * 1e6}))
"""


def case_name(algorithm: str, p: int, reveals: int) -> str:
    return f"{algorithm}/p{p}/{'primal' if reveals >= p else 'dual'}"


def measure(src: Path, case: tuple, repeat: int) -> dict:
    algorithm, p, reveals = case
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", PROBE, algorithm, str(p), str(ARMS),
                          str(reveals), str(repeat)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare with")
    parser.add_argument("--repeat", type=int, default=30, help="timed calls per case")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_linear_round.json")
    args = parser.parse_args(argv)
    parent_rev = git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory(prefix="bench-linear-") as tmp:
        parent_dir = Path(tmp)
        archive = subprocess.run(["git", "archive", parent_rev, "src"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_dir)], input=archive, check=True)
        srcs = {"parent": parent_dir / "src", "change": ROOT / "src"}
        sides = {"parent": {}, "change": {}}
        # both sides run each case back to back, the first side alternating, so
        # that a drift in the machine's load falls on both
        for i, case in enumerate(CASES):
            for side in ("parent", "change")[::1 if i % 2 == 0 else -1]:
                sides[side][case_name(*case)] = measure(srcs[side], case, args.repeat)
    sides["parent"]["rev"] = parent_rev
    # the change is this checkout's src/: HEAD, plus any uncommitted edits to it
    sides["change"]["head"] = git("rev-parse", "HEAD")
    sides["change"]["uncommitted_changes"] = bool(git("status", "--porcelain", "src"))
    report = {
        "benchmark": "benchmarks/bench_linear_round.py",
        "arms": ARMS,
        "reveals": REVEALS,
        "repeat": args.repeat,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpus": os.cpu_count(), "platform": platform.platform()},
        **sides,
        "change_over_parent": {
            name: {key: sides["change"][name][key] / sides["parent"][name][key]
                   for key in ("peak_bytes", "select_us", "solve_us")}
            for name in (case_name(*case) for case in CASES)},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for case in CASES:
        name = case_name(*case)
        before, after = sides["parent"][name], sides["change"][name]
        print(f"{name}: peak_bytes {before['peak_bytes']} -> {after['peak_bytes']}, "
              f"select_us {before['select_us']:.1f} -> {after['select_us']:.1f}, "
              f"solve_us {before['solve_us']:.1f} -> {after['solve_us']:.1f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
