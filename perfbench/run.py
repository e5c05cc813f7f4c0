#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the delayed bandit simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload (see ``workloads.py``) in a closed loop: it
calls ``harness.run_single`` on the same seed again and again, one simulated round at a time and with nothing in parallel,
until the next run would overrun ``--seconds``. Every run is emitted with
``harness.emit`` and its ``run_<seed>.csv`` checked; every rerun must
reproduce the first run's bytes.

``--trace 0`` reports the end-to-end metrics: the median ``rounds_per_s``,
``setup_s`` (median over fresh processes of the time from process start to
the first ``run_single`` call) and ``peak_rss_mb``. ``--trace 1`` alternates
untraced runs and runs with spans around each layer (``tracer.py``) and
reports the per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; ``failed`` counts
runs that raised or failed a check. Spans of the last traced run go to
``perfbench/out/``.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import ROOT, WORKLOADS, config_dict, use_checkout_package, write_mushroom_csv

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


class SetupProbes:
    """Fresh processes timed from start until ready for ``run_single``, for ``setup_s``.

    Probes are spread over the measured window, one after each timed run, so
    that their median does not hang on the machine's speed at one moment.
    """

    def __init__(self, workload_name, csv_path, seed):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), workload_name,
                    str(csv_path), str(seed)]
        self.totals, self.phases = [], []

    def probe(self):
        started = time.perf_counter()
        with subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"setup probe exited with code {proc.returncode}")
        self.totals.append(ready - started)
        self.phases.append(json.loads(line))

    def median(self):
        """Median total and per-phase seconds, probing until there are ``SETUP_PROBES``."""
        while len(self.totals) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.totals), {
            key: statistics.median(p[key] for p in self.phases) for key in self.phases[0]}


def check_csv(text, horizon):
    """Problems with one ``run_<seed>.csv``: row count, reveal accounting, regret."""
    lines = text.splitlines()
    header = lines[0].split(",")
    col = {name: header.index(name) for name in ("round", "cum_regret", "revealed", "pending")}
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    if len(rows) != horizon:
        problems.append(f"{len(rows)} rows, expected {horizon}")
    previous = 0.0
    for t, row in enumerate(rows, start=1):
        revealed, pending = int(row[col["revealed"]]), int(row[col["pending"]])
        cum = float(row[col["cum_regret"]])
        if int(row[col["round"]]) != t or revealed + pending != t:
            problems.append(f"row {t}: round {row[col['round']]}, "
                            f"revealed {revealed} + pending {pending}")
        if not math.isfinite(cum) or cum < previous:
            problems.append(f"row {t}: cum_regret {cum} after {previous}")
        previous = cum
        if len(problems) > 5:
            break
    return problems


def check_trace(trace, result, workload):
    """Counts that must match the run summary exactly."""
    problems = []
    revealed = result.summary["revealed"]
    if trace.calls("design.rank1_update") != revealed:
        problems.append(f"design.rank1_update.calls {trace.calls('design.rank1_update')} "
                        f"!= revealed {revealed}")
    # these configs retrain every round once any reward is revealed
    expected = sum(1 for row in result.rows if row[4] > 0) if workload.neural else 0
    if trace.calls("network.train_nn") != expected:
        problems.append(f"network.train_nn.calls {trace.calls('network.train_nn')} "
                        f"!= rounds from the first reveal {expected}")
    return problems


class Runner:
    """Runs, emits and checks one seed repeatedly; keeps the tallies."""

    def __init__(self, harness, cfg, seed, samples, workload, work):
        self.harness = harness
        self.cfg = cfg
        self.seed = seed
        self.samples = samples
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.first_csv = None
        self.regret = None
        self.emit_bytes = None

    def run(self, tracer=None):
        """One run; returns (rounds per second, its trace), or (None, None) if it failed."""
        self.attempted += 1
        out = self.work / f"emit-{self.attempted}"
        trace = None
        try:
            started = time.perf_counter()
            result = self.harness.run_single(self.cfg, self.seed, self.samples)
            rate = self.workload.horizon / (time.perf_counter() - started)
            self.harness.emit([result], out, self.cfg)
            # summary.json holds the run's wall time, so only the CSVs have fixed sizes
            self.emit_bytes = sum(f.stat().st_size for f in out.glob("*.csv"))
            csv = (out / f"run_{self.seed}.csv").read_bytes()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None, None
        finally:
            shutil.rmtree(out, ignore_errors=True)
            if tracer is not None:
                trace = tracer.take_run()
        problems = check_csv(csv.decode("utf-8"), self.workload.horizon)
        if self.first_csv is None:
            self.first_csv = csv
            self.regret = result.summary["final_cum_regret"]
        elif csv != self.first_csv:
            problems.append("run_<seed>.csv differs from the first run of the same seed")
        if trace is not None:
            problems += check_trace(trace, result, self.workload)
        if problems:
            print(f"perfbench: run {self.attempted} failed: {'; '.join(problems)}",
                  file=sys.stderr)
            self.failed += 1
            return None, None
        return rate, trace

    def measure(self, seconds, tracer=None, between=None):
        """Run until another run would overrun ``seconds``.

        There are at least two runs, so that a rerun is always compared with
        the first. With a ``tracer``, untraced and traced runs alternate, so
        that both kinds see the machine in the same state. ``between`` is
        called after each run, inside the window but untimed. Returns the
        untraced rates, the traced rates and the traces.
        """
        plain, traced, traces = [], [], []
        started = time.perf_counter()
        runs = 0
        while True:
            if runs % 2 == 1 and tracer is not None:
                tracer.install()
                try:
                    rate, trace = self.run(tracer)
                finally:
                    tracer.uninstall()
                if rate is not None:
                    traced.append(rate)
                    traces.append(trace)
            else:
                rate, _ = self.run()
                if rate is not None:
                    plain.append(rate)
            runs += 1
            if between is not None:
                between()
            elapsed = time.perf_counter() - started
            if runs >= 2 and elapsed * (runs + 1) / runs > seconds:
                return plain, traced, traces


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and ".so" in line})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_environment(numpy, package):
    """What the numbers depend on besides the code: interpreter, BLAS, cores."""
    import importlib.util

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    kernels = getattr(package, "kernels", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_in_use": bool(getattr(kernels, "USE_NUMBA", False)),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def layer_metrics(traces, setup_phases, regret, emit_bytes, overhead):
    """Per-layer metrics from the traced runs; counts are per ``run_single`` call."""
    first = traces[0]
    run_total = sum(t.total("harness.run_single") for t in traces)

    def share(name):
        return 100.0 * sum(t.total(name) for t in traces) / run_total

    def self_share(name):
        return 100.0 * sum(t.self_total(name) for t in traces) / run_total

    def pct_ms(name, q):
        import numpy as np

        durations = np.concatenate([t.durations_of(name) for t in traces])
        return 1e3 * float(np.percentile(durations, q)) if len(durations) else 0.0

    def median_s(name):
        return statistics.median(float(d) for t in traces for d in t.durations_of(name))

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("harness.run_single.s", median_s("harness.run_single"), "s")
    put("harness.run_single.self_share", self_share("harness.run_single"), "%")
    put("harness.build_policy.s", median_s("harness.build_policy"), "s")
    put("harness.build_policy.share", share("harness.build_policy"), "%")
    put("harness.emit.s", median_s("harness.emit"), "s")
    put("harness.emit.bytes", emit_bytes, "bytes")
    for name in ("policies.select_action", "policies.ingest_revealed"):
        put(f"{name}.calls", first.calls(name), "count")
        put(f"{name}.share", share(name), "%")
        put(f"{name}.self_share", self_share(name), "%")
        put(f"{name}.p50_ms", pct_ms(name, 50), "ms")
        put(f"{name}.p99_ms", pct_ms(name, 99), "ms")
    put("network.train_nn.calls", first.calls("network.train_nn"), "count")
    put("network.train_nn.share", share("network.train_nn"), "%")
    put("network.train_nn.self_share", self_share("network.train_nn"), "%")
    put("network.train_nn.p50_ms", pct_ms("network.train_nn", 50), "ms")
    put("network.train_nn.p99_ms", pct_ms("network.train_nn", 99), "ms")
    for caller in ("train", "select", "ingest"):
        name = f"network.gradient_many.{caller}"
        put(f"{name}.calls", first.calls(name), "count")
        put(f"{name}.rows", first.counts.get(f"{name}.rows", 0), "count")
        put(f"{name}.share", share(name), "%")
    put("kernels.grad_batch.calls", first.calls("kernels.grad_batch"), "count")
    put("kernels.grad_batch.share", share("kernels.grad_batch"), "%")
    put("kernels.grad_batch.p50_ms", pct_ms("kernels.grad_batch", 50), "ms")
    put("kernels.grad_batch.p99_ms", pct_ms("kernels.grad_batch", 99), "ms")
    put("kernels.grad_batch.out_bytes", first.counts.get("kernels.grad_batch.out_bytes", 0),
        "bytes")
    for name in ("design.rank1_update", "design.quad_form"):
        put(f"{name}.calls", first.calls(name), "count")
        put(f"{name}.share", share(name), "%")
        put(f"{name}.p50_ms", pct_ms(name, 50), "ms")
        put(f"{name}.p99_ms", pct_ms(name, 99), "ms")
    put("design.logdet_ratio.calls", first.calls("design.logdet_ratio"), "count")
    put("design.logdet_ratio.share", share("design.logdet_ratio"), "%")
    put("design.refreshes", first.counts.get("design.refreshes", 0), "count")
    for name in ("environment.round_contexts", "environment.step"):
        put(f"{name}.share", share(name), "%")
        put(f"{name}.p50_ms", pct_ms(name, 50), "ms")
    for name in ("delay.schedule", "delay.pop_revealed"):
        put(f"{name}.calls", first.calls(name), "count")
        put(f"{name}.share", share(name), "%")
    for name in ("delay.reveals_per_round.max", "delay.pending.max"):
        put(name, first.counts.get(name, 0), "count")
    put("data.load_mushroom_csv.s", setup_phases["load_s"], "s")
    put("config.config_from_dict.s", setup_phases["config_s"], "s")
    put("trace.overhead", overhead, "ratio")
    put("final_cum_regret", regret, "regret")
    return m


def self_time_ranking(traces, top=5):
    """The ``top`` span names by self time, as % of ``harness.run_single`` time."""
    run_total = sum(t.total("harness.run_single") for t in traces)
    shares = {name: 100.0 * sum(t.self_total(name) for t in traces) / run_total
              for name in traces[0].names}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1])[:top])


def report_setup(probes):
    setup_s, phases = probes.median()
    print(f"setup_s {setup_s:.4f} (median of {len(probes.totals)} processes; phases "
          + ", ".join(f"{k} {v:.4f}" for k, v in phases.items()) + ")")
    return setup_s, phases


def bench(args, work):
    workload = WORKLOADS[args.workload]
    use_checkout_package()
    import numpy

    import delaybandit
    from delaybandit import config, data, harness

    from tracer import Tracer

    csv_path = write_mushroom_csv(work / "agaricus-lepiota.data", args.seed)
    probes = SetupProbes(args.workload, csv_path, args.seed)
    cfg = config.config_from_dict(config_dict(workload, csv_path, args.seed))
    samples = data.load_mushroom_csv(cfg.resolve_data_path(cfg.environment.dataset_path))
    runner = Runner(harness, cfg, args.seed, samples, workload, work)

    env = run_environment(numpy, delaybandit)
    print(f"perfbench {args.workload} seed {args.seed}: {workload.why}")
    print(f"environment {json.dumps(env, sort_keys=True)}")

    if args.trace == 0:
        rates, _, _ = runner.measure(args.seconds, between=probes.probe)
        setup_s, _ = report_setup(probes)
        q1, q2, q3 = quartiles(rates) if rates else (0.0, 0.0, 0.0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"rounds_per_s median {q2:.3f} q1 {q1:.3f} q3 {q3:.3f} over {len(rates)} runs "
              f"of {workload.horizon} rounds: " + " ".join(f"{r:.4g}" for r in rates))
        print(f"peak_rss_mb {peak_rss_mb:.1f}  final_cum_regret {runner.regret!r}  "
              f"failed_run_share {runner.failed / runner.attempted:.4f} "
              f"of {runner.attempted} runs")
        metrics = {"rounds_per_s": {"value": q2, "unit": "1/s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"}}
    else:
        plain, traced, traces = runner.measure(args.seconds, Tracer(delaybandit),
                                               between=probes.probe)
        _, setup_phases = report_setup(probes)
        if not plain or not traced:
            print("perfbench: no complete traced and untraced run", file=sys.stderr)
            return 1
        if any(t.counts != traces[0].counts for t in traces):
            print("perfbench: traced runs of one seed counted differently", file=sys.stderr)
            runner.failed += 1
        overhead = statistics.median(traced) / statistics.median(plain)
        metrics = layer_metrics(traces, setup_phases, runner.regret, runner.emit_bytes,
                                overhead)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        traces[-1].write_csv(spans)
        print(f"{len(plain)} untraced and {len(traces)} traced runs of {workload.horizon} "
              f"rounds; trace.overhead {overhead:.4f}; spans of the last run in "
              f"{spans.relative_to(ROOT)}")
        print(f"largest_self_time {json.dumps(self_time_ranking(traces))}")
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']!r} {metric['unit']}")

    correct = runner.failed == 0 and runner.attempted >= 2
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    # the benchmark writes only inside its checkout, so its scratch files go under out/
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
