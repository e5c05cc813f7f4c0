"""Memory and time of loading a dataset, at MNIST's size, for two commits.

Usage: python3 benchmarks/bench_dataset_memory.py --parent REV [--rows N] [--out PATH]

Writes a seeded N x 28 x 28 IDX pair (default N = 60 000, MNIST's training
set) and an 8 124-row mushroom-format CSV into a temporary directory, then
measures, each in a fresh process, for this checkout and for git revision REV
(exported with ``git archive`` into the same temporary directory):

- ``load``: seconds of ``load_idx``, the peak RSS of the process and its
  resident RSS once the dataset is loaded, beside the resident RSS after the
  imports;
- ``pickle``: the bytes the loaded ``Dataset`` pickles to, which ``run
  --jobs N`` sends to each worker process;
- ``decode``: microseconds per call of getting one sample's float features
  as ``DatasetSource`` does each round, and of a whole ``round_data`` call,
  at d = 22 (mushroom, 2 arms) and d = 784 (the IDX, 10 arms), both embedded.

The result goes to ``BENCH_dataset_memory.json`` at the repository root.
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

# runs in a fresh interpreter with the package under test first on sys.path;
# argv: probe name, IDX images, IDX labels, mushroom CSV
PROBE = r"""
import json, pickle, resource, sys, time, timeit

def rss_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0

import numpy as np
from delaybandit.data import load_idx, load_mushroom_csv
from delaybandit.environment import DatasetSource

probe, images, labels, csv = sys.argv[1:5]
result = {}
if probe == "load":
    result["import_rss_mb"] = rss_mb()
    started = time.perf_counter()
    dataset = load_idx(images, labels)
    result["load_s"] = time.perf_counter() - started
    result["resident_rss_mb"] = rss_mb()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
elif probe == "pickle":
    class Counter:
        size = 0

        def write(self, data):
            self.size += memoryview(data).nbytes

    sink = Counter()
    pickle.dump(load_idx(images, labels), sink, protocol=pickle.HIGHEST_PROTOCOL)
    result["pickled_bytes"] = sink.size
else:
    for name, dataset, arms in (("d22", load_mushroom_csv(csv), 2),
                                ("d784", load_idx(images, labels), 10)):
        source = DatasetSource(dataset, arms, np.random.default_rng(0), embed=True)
        # a decoding dataset has a features(rows) method, an older one a float matrix
        row = dataset.features if callable(dataset.features) else dataset.features.__getitem__
        rows = source.order[:1000].tolist()
        calls = [lambda: [row(i) for i in rows],
                 lambda: [source.round_data(t) for t in range(1, 1001)]]
        row_us, round_us = (min(timeit.repeat(call, number=1, repeat=7)) * 1e3
                            for call in calls)  # seconds per 1000 calls, as us per call
        result[name] = {"row_us": row_us, "round_data_us": round_us}
print(json.dumps(result))
"""


def write_inputs(work: Path, rows: int):
    rng = np.random.default_rng(20240817)
    images, labels = work / "images.idx", work / "labels.idx"
    with open(images, "wb") as fh:
        fh.write(np.array([0x803, rows, 28, 28], dtype=">i4").tobytes())
        for start in range(0, rows, 10000):  # in chunks, so this process stays small
            count = min(10000, rows - start)
            fh.write(rng.integers(0, 256, size=(count, 784), dtype=np.uint8).tobytes())
    with open(labels, "wb") as fh:
        fh.write(np.array([0x801, rows], dtype=">i4").tobytes())
        fh.write(rng.integers(0, 10, size=rows, dtype=np.uint8).tobytes())
    letters = np.frombuffer(b"abcdefghijkl", dtype=np.uint8)
    grid = np.full((8124, 45), ord(","), dtype=np.uint8)
    grid[:, 0] = np.where(rng.random(8124) < 0.5, ord("e"), ord("p"))
    grid[:, 2::2] = letters[rng.integers(0, len(letters), size=(8124, 22))]
    csv = work / "agaricus-lepiota.data"
    csv.write_bytes(b"\n".join(bytes(line) for line in grid) + b"\n")
    return images, labels, csv


def measure(src: Path, inputs) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    result = {}
    for probe in ("load", "pickle", "decode"):
        out = subprocess.run([sys.executable, "-c", PROBE, probe, *map(str, inputs)],
                             env=env, check=True, capture_output=True, text=True).stdout
        result.update(json.loads(out))
    return result


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare with")
    parser.add_argument("--rows", type=int, default=60000, help="images in the IDX file")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_dataset_memory.json")
    args = parser.parse_args(argv)
    parent_rev = git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory(prefix="bench-dataset-") as tmp:
        work = Path(tmp)
        inputs = write_inputs(work, args.rows)
        parent_dir = work / "parent"
        parent_dir.mkdir()
        archive = subprocess.run(["git", "archive", parent_rev, "src"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_dir)], input=archive, check=True)
        sides = {"parent": measure(parent_dir / "src", inputs),
                 "change": measure(ROOT / "src", inputs)}
    sides["parent"]["rev"] = parent_rev
    # the change is this checkout's src/: HEAD, plus any uncommitted edits to it
    sides["change"]["head"] = git("rev-parse", "HEAD")
    sides["change"]["uncommitted_changes"] = bool(git("status", "--porcelain", "src"))
    report = {
        "benchmark": "benchmarks/bench_dataset_memory.py",
        "rows": args.rows,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpus": os.cpu_count(), "platform": platform.platform()},
        **sides,
        "change_over_parent": {
            key: sides["change"][key] / sides["parent"][key]
            for key in ("load_s", "peak_rss_mb", "resident_rss_mb", "pickled_bytes")},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for key, ratio in report["change_over_parent"].items():
        print(f"{key}: parent {sides['parent'][key]:.6g}, change {sides['change'][key]:.6g}"
              f" ({ratio:.3f}x)")
    for d in ("d22", "d784"):
        print(f"{d}: row_us {sides['parent'][d]['row_us']:.2f} -> "
              f"{sides['change'][d]['row_us']:.2f}, round_data_us "
              f"{sides['parent'][d]['round_data_us']:.2f} -> "
              f"{sides['change'][d]['round_data_us']:.2f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
