"""Memory and time of one LinUCB round in the dual form, for two commits.

Usage: python3 benchmarks/bench_linear_round.py --parent REV [--repeat N] [--out PATH]

For this checkout and for git revision REV (exported with ``git archive`` into
a temporary directory), and at each p in P_VALUES, a fresh process builds a
``lin-ucb`` ``LinearBandit`` on p-dimensional contexts, reveals REVEALS
seeded rewards through ``ingest_revealed`` (fewer than p, so the design stays
in its dual form) and then measures one ``select_action`` on K = ARMS seeded
contexts:

- ``peak_bytes``: the peak that ``tracemalloc`` traces during the call;
- ``select_us``: microseconds per call, the least of N timed calls.

The result goes to ``BENCH_linear_round.json`` at the repository root.
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
P_VALUES = (2000, 8000)
ARMS = 10
REVEALS = 100

# runs in a fresh interpreter with the package under test first on sys.path;
# argv: p, arms, reveals, repeat
PROBE = r"""
import json, sys, timeit, tracemalloc
import numpy as np
from delaybandit.config import PolicyBlock
from delaybandit.policies import BanditRecord, LinearBandit

p, arms, reveals, repeat = map(int, sys.argv[1:5])
rng = np.random.default_rng(p)
policy = LinearBandit(PolicyBlock(algorithm="lin-ucb"), p, rng)
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
seconds = min(timeit.repeat(lambda: policy.select_action(contexts), number=1, repeat=repeat))
print(json.dumps({"peak_bytes": peak, "select_us": seconds * 1e6}))
"""


def measure(src: Path, repeat: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    result = {}
    for p in P_VALUES:
        out = subprocess.run([sys.executable, "-c", PROBE, str(p), str(ARMS), str(REVEALS),
                              str(repeat)],
                             env=env, check=True, capture_output=True, text=True).stdout
        result[f"p{p}"] = json.loads(out)
    return result


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare with")
    parser.add_argument("--repeat", type=int, default=5, help="timed calls per p")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_linear_round.json")
    args = parser.parse_args(argv)
    parent_rev = git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory(prefix="bench-linear-") as tmp:
        parent_dir = Path(tmp)
        archive = subprocess.run(["git", "archive", parent_rev, "src"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_dir)], input=archive, check=True)
        sides = {"parent": measure(parent_dir / "src", args.repeat),
                 "change": measure(ROOT / "src", args.repeat)}
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
            f"p{p}": {key: sides["change"][f"p{p}"][key] / sides["parent"][f"p{p}"][key]
                      for key in ("peak_bytes", "select_us")}
            for p in P_VALUES},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for p in P_VALUES:
        before, after = sides["parent"][f"p{p}"], sides["change"][f"p{p}"]
        print(f"p = {p}: peak_bytes {before['peak_bytes']} -> {after['peak_bytes']}, "
              f"select_us {before['select_us']:.1f} -> {after['select_us']:.1f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
