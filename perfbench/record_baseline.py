#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and record the figures.

Usage (from the repository root):

    python3 perfbench/record_baseline.py [--out perfbench/baseline.json] [--compare OLD.json]

For each workload in ``BENCHMARK.json``, runs ``perfbench/run.py --trace 0``
once on each of the seeds 1 to 10 and ``--trace 1`` once on seed 1. It then
writes every run's metrics, each end-to-end metric's median, quartiles and
spread (quartile distance over the median, as ``statistics.quantiles(values,
n=4)`` gives them), the traced run's per-layer metrics and the run
environment to ``--out``. With
``--compare``, also checks that the new medians are no worse than the old
ones by more than each metric's bound, and that the traced counts and
``final_cum_regret`` repeat exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    tagged = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("environment", "largest_self_time"):
            tagged[tag] = json.loads(rest)
    return json.loads(lines[-1]), tagged


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def roadmap_check(workloads):
    """The re-anchor profile: train_nn ~95 % on -diag; rank1 ~0.28 s and ~800 MB on -full."""
    check = {}
    diag = workloads.get("mushroom-delayed-diag")
    if diag:
        check["diag_train_nn_share_pct"] = diag["trace"]["network.train_nn.share"]["value"]
        check["diag_grad_batch_share_pct"] = diag["trace"]["kernels.grad_batch.share"]["value"]
    full = workloads.get("mushroom-delayed-full")
    if full:
        check["full_rank1_update_p50_s"] = full["trace"]["design.rank1_update.p50_ms"]["value"] / 1e3
        check["full_peak_rss_mb"] = full["end_to_end"]["peak_rss_mb"]["median"]
    return check


def compare(old, new, bounds, better):
    problems = []
    for name, work in new["workloads"].items():
        before = old["workloads"].get(name)
        if before is None:
            continue
        for metric, stats in work["end_to_end"].items():
            was, now = before["end_to_end"][metric]["median"], stats["median"]
            worse = (was - now) / was if better[metric] == "higher" else (now - was) / was
            status = "ok" if worse <= bounds[metric] else "WORSE"
            print(f"{name} {metric}: {was:.6g} -> {now:.6g} ({-worse:+.1%}) {status}")
            if status != "ok":
                problems.append(f"{name} {metric}")
        for metric, value in work["trace"].items():
            if value["unit"] in ("count", "bytes", "regret") and \
                    value["value"] != before["trace"][metric]["value"]:
                problems.append(f"{name} {metric}: {before['trace'][metric]['value']} "
                                f"-> {value['value']}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    parser.add_argument("--compare", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            result, tagged = run_once(name, seed, spec["run_seconds"], 0)
            record["environment"] = tagged["environment"]
            runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()},
                         "attempted": result["attempted"], "failed": result["failed"]})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        end_to_end = {}
        for metric in bounds:
            stats = spread([run[metric] for run in runs])
            stats["bound"] = bounds[metric]
            end_to_end[metric] = stats
            print(f"{name} {metric}: median {stats['median']:.6g} spread {stats['spread']:.4f} "
                  f"(bound {bounds[metric]}, a third is {bounds[metric] / 3:.4f})", flush=True)
        traced, tagged = run_once(name, SEEDS[0], spec["run_seconds"], 1)
        record["workloads"][name] = {
            "end_to_end": end_to_end, "runs": runs,
            "failed_run_share": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "trace_seed": SEEDS[0], "trace": traced["metrics"],
            "largest_self_time_pct": tagged["largest_self_time"]}
    record["roadmap_check"] = roadmap_check(record["workloads"])
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record["roadmap_check"]))
    if args.compare:
        old = json.loads(Path(args.compare).read_text(encoding="utf-8"))
        problems = compare(old, record, bounds, better)
        for problem in problems:
            print(f"mismatch: {problem}")
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
