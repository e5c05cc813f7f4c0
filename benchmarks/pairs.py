"""Compare this checkout with a parent commit on one probe, in alternating pairs.

Usage: python3 benchmarks/pairs.py PROBE --parent REV [--pairs N] [--out PATH]

PROBE is ``mnist-round``, ``linear-round`` or ``dataset-memory``, the script
``benchmarks/probe_<name>.py`` of this checkout, run as ``python3 SCRIPT WORK``
with the side's ``src/`` as ``PYTHONPATH`` (WORK is a directory both sides
share, where a probe may write its inputs once); or ``perfbench:<workload>``,
this checkout's ``perfbench/run.py --trace 0`` on a workload of
``BENCHMARK.json`` for its ``run_seconds``, with the pair number as seed, run
from a copy of ``perfbench/`` beside the side's ``src/``. A probe prints one
JSON object as its last line; nested keys are joined with ``.``.

Both sides run from fresh trees in a temporary directory: the parent's
``src/`` from ``git archive REV``, the change's as a copy of this working
tree's ``src/``, uncommitted edits included. Neither holds a bytecode cache,
and every probe runs under ``PYTHONDONTWRITEBYTECODE=1``. Each of the N pairs
runs both sides back to back in fresh processes, the parent first in odd
pairs and the change first in even ones, so that a drift in the machine's
speed falls on both. A probe that exits non-zero or prints no JSON object
last stops the driver with exit code 2.

``--out`` (default ``BENCH_<probe>.json`` at the repository root) gets, for
every metric, each side's values, median and quartiles, the change's wins
(ties count for neither side) and the verdicts of the simplicity-review rules:

- ``gain``: of at least 10 pairs, the change wins at least 9 in 10 and the
  medians differ, in its favour, by more than the parent's quartile distance;
- ``regression`` (metrics with a bound only): the change's median is worse
  than the parent's by more than the bound, relative to the parent's median;
- ``unresolved`` (the same metrics): no regression, but the parent's
  quartile distance over its median is wider than the bound and not every
  change run beats every parent run.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PERFBENCH = "perfbench:"
SIDES = ("parent", "change")
MIN_PAIRS = 10  # the fewest pairs on which a gain may be claimed


class ProbeFailed(Exception):
    pass


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def probe_names():
    scripts = sorted(p.stem[len("probe_"):].replace("_", "-") for p in HERE.glob("probe_*.py"))
    return scripts + [PERFBENCH + w["name"] for w in benchmark_spec()["workloads"]]


def rule(probe, metric):
    """(better, bound) of a metric: BENCHMARK.json's for a perfbench metric; else
    "higher" for a name ending in ``_per_s``, "lower" for any other, and no bound."""
    if probe.startswith(PERFBENCH):
        for m in benchmark_spec()["end_to_end"]:
            if m["name"] == metric:
                return m["better"], m["bound"]
    return ("higher" if metric.endswith("_per_s") else "lower"), None


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, dest, perfbench):
    """A fresh tree at ``dest``: ``src/`` of ``rev`` (None: this working tree's) and,
    if ``perfbench``, a copy of this checkout's ``perfbench/``, without caches."""
    dest.mkdir(parents=True)
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", "out")
    if rev is None:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    else:
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    if perfbench:
        shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=skip)
    return dest


def flatten(report, prefix=""):
    flat = {}
    for key, value in report.items():
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def run_probe(probe, tree, work, pair):
    """One run of ``probe`` against the tree at ``tree``: its metrics by name."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    if probe.startswith(PERFBENCH):
        cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
               probe[len(PERFBENCH):], "--seed", str(pair), "--seconds",
               str(benchmark_spec()["run_seconds"]), "--trace", "0"]
    else:
        cmd = [sys.executable, str(HERE / f"probe_{probe.replace('-', '_')}.py"), str(work)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = None
    if proc.returncode != 0 or not isinstance(report, dict):
        why = (f"exited with code {proc.returncode}" if proc.returncode
               else "printed no JSON object as its last line")
        raise ProbeFailed(why + "".join(f"\n  {line}" for line in proc.stderr.splitlines()[-5:]))
    if probe.startswith(PERFBENCH):
        return {name: metric["value"] for name, metric in report["metrics"].items()}
    return flatten(report)


def compare(parent, change, better, bound=None):
    """The verdicts on one metric from its paired values, pair i in place i. The
    quartiles are ``statistics.quantiles``' (its default method), whose middle
    one is the median."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = statistics.quantiles(parent, n=4)
    c1, cm, c3 = statistics.quantiles(change, n=4)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    verdict = {
        "better": better,
        "parent": {"values": parent, "median": pm, "q1": p1, "q3": p3},
        "change": {"values": change, "median": cm, "q1": c1, "q3": c3},
        "change_over_parent": cm / pm if pm else None,
        "change_wins": wins,
        "gain": (len(parent) >= MIN_PAIRS and 10 * wins >= 9 * len(parent)
                 and sign * (cm - pm) > p3 - p1),
    }
    if bound is not None:
        worse = -sign * (cm - pm) / abs(pm)
        every_run_better = all(sign * (c - p) > 0 for p in parent for c in change)
        verdict["bound"] = bound
        verdict["regression"] = worse > bound
        verdict["unresolved"] = worse <= bound and (p3 - p1) / abs(pm) > bound \
            and not every_run_better
    return verdict


def run_environment():
    """What the numbers depend on besides the code; perfbench's own record of it."""
    import numpy

    # importing perfbench/run.py must leave no bytecode cache in this checkout
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode
    try:
        from run import run_environment as perfbench_environment
    finally:
        sys.path.pop(0)
        sys.dont_write_bytecode = saved
    env = perfbench_environment(numpy, None)
    env.pop("numba_in_use")  # a property of the package under test, not of the machine
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("probe", choices=probe_names())
    parser.add_argument("--parent", required=True, help="git revision to compare with")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS, help="parent/change pairs")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default: BENCH_<probe>.json at the root)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    try:
        parent_rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"--parent {args.parent!r} names no commit")
    slug = args.probe.replace(":", "_").replace("-", "_")
    out = args.out or ROOT / f"BENCH_{slug}.json"
    perfbench = args.probe.startswith(PERFBENCH)
    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        tmp = Path(tmp)
        trees = {"parent": export(parent_rev, tmp / "parent", perfbench),
                 "change": export(None, tmp / "change", perfbench)}
        (tmp / "work").mkdir()
        for pair in range(1, args.pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                try:
                    runs[side].append(run_probe(args.probe, trees[side], tmp / "work", pair))
                except ProbeFailed as failure:
                    print(f"pairs: {args.probe} on the {side} side, pair {pair}: {failure}",
                          file=sys.stderr)
                    return 2
                print(f"pair {pair} {side}: {json.dumps(runs[side][-1])}", flush=True)
    metrics = {name: compare([r[name] for r in runs["parent"]],
                             [r[name] for r in runs["change"]], *rule(args.probe, name))
               for name in runs["parent"][0]}
    report = {
        "probe": args.probe,
        "pairs": args.pairs,
        "environment": {**run_environment(), "PYTHONDONTWRITEBYTECODE": "1",
                        "bytecode_cache": "none: both trees are fresh copies"},
        "parent": {"rev": parent_rev},
        "change": {"head": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain", "src"))},
        "gains": [name for name, m in metrics.items() if m["gain"]],
        "regressions": [name for name, m in metrics.items() if m.get("regression")],
        "unresolved": [name for name, m in metrics.items() if m.get("unresolved")],
        "metrics": metrics,
    }
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        p, c = m["parent"], m["change"]
        flags = [flag for flag in ("gain", "regression", "unresolved") if m.get(flag)]
        print(f"{name}: {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> {c['median']:.4g} "
              f"[{c['q1']:.4g}, {c['q3']:.4g}], change wins {m['change_wins']}/{args.pairs}"
              + "".join(f" ({flag})" for flag in flags))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    # SystemExit, unlike the default SIGTERM action, kills the running probe
    # and removes the temporary trees on its way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
