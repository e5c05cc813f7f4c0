"""Memory and time of loading a dataset, at MNIST's size.

Usage: python3 benchmarks/probe_dataset_memory.py WORK   (run by ``pairs.py dataset-memory``)

Reads a seeded ROWS x 28 x 28 IDX pair (60 000 rows, MNIST's training set) and
an 8 124-row mushroom-format CSV from WORK; the first run writes them there,
from a child process, so that its own memory figures start as clean as the
next run's. It then measures:

- ``load``: seconds of ``load_idx``, the peak RSS of the process and its
  resident RSS once the dataset is loaded, beside the resident RSS after the
  imports;
- ``pickle``: the bytes the loaded ``Dataset`` pickles to, which ``run
  --jobs N`` sends to each worker process;
- ``decode``: microseconds per call of getting one sample's float features
  as ``DatasetSource`` does each round, and of a whole ``round_data`` call,
  at d = 22 (mushroom, 2 arms) and d = 784 (the IDX, 10 arms), both embedded.

Prints one JSON line.
"""

import json, pickle, resource, subprocess, sys, time, timeit
from pathlib import Path

import numpy as np

ROWS = 60000


def write_inputs(images, labels, csv):
    rng = np.random.default_rng(20240817)
    with open(images, "wb") as fh:
        fh.write(np.array([0x803, ROWS, 28, 28], dtype=">i4").tobytes())
        for start in range(0, ROWS, 10000):  # in chunks, so this process stays small
            count = min(10000, ROWS - start)
            fh.write(rng.integers(0, 256, size=(count, 784), dtype=np.uint8).tobytes())
    with open(labels, "wb") as fh:
        fh.write(np.array([0x801, ROWS], dtype=">i4").tobytes())
        fh.write(rng.integers(0, 10, size=ROWS, dtype=np.uint8).tobytes())
    letters = np.frombuffer(b"abcdefghijkl", dtype=np.uint8)
    grid = np.full((8124, 45), ord(","), dtype=np.uint8)
    grid[:, 0] = np.where(rng.random(8124) < 0.5, ord("e"), ord("p"))
    grid[:, 2::2] = letters[rng.integers(0, len(letters), size=(8124, 22))]
    # the CSV last: once it exists, every input is whole
    csv.write_bytes(b"\n".join(bytes(line) for line in grid) + b"\n")


def rss_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0


work = Path(sys.argv[1])
images, labels, csv = work / "images.idx", work / "labels.idx", work / "agaricus-lepiota.data"
if sys.argv[2:] == ["write"]:
    write_inputs(images, labels, csv)
    sys.exit()
if not csv.exists():
    subprocess.run([sys.executable, __file__, str(work), "write"], check=True)

from delaybandit.data import load_idx, load_mushroom_csv  # noqa: E402
from delaybandit.environment import DatasetSource  # noqa: E402

result = {}
result["import_rss_mb"] = rss_mb()
started = time.perf_counter()
dataset = load_idx(images, labels)
result["load_s"] = time.perf_counter() - started
result["resident_rss_mb"] = rss_mb()
result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Counter:
    size = 0

    def write(self, data):
        self.size += memoryview(data).nbytes


sink = Counter()
pickle.dump(dataset, sink, protocol=pickle.HIGHEST_PROTOCOL)
result["pickled_bytes"] = sink.size

for name, dataset, arms in (("d22", load_mushroom_csv(csv), 2), ("d784", dataset, 10)):
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
