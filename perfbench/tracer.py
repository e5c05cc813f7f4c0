"""In-memory spans around the package's public functions, for the traced run.

``Tracer.install`` replaces each traced function where the package looks it
up (module globals for functions imported by name, class attributes for
methods) with a wrapper that records a span: name, start, end and the index
of the enclosing span. Nothing under ``src/`` changes; ``uninstall`` puts the
originals back. Spans stay in flat arrays until ``take_run`` summarises one
``run_single`` call and starts the next.
"""

import time
from array import array

import numpy as np

# (owner, attribute, span name); the wrapper replaces owner.attribute
TARGETS = [
    ("design.DesignMatrix", "rank1_update", "design.rank1_update"),
    ("design.DesignMatrix", "quad_form", "design.quad_form"),
    ("design.DesignMatrix", "logdet_ratio", "design.logdet_ratio"),
    ("delay.RevealQueue", "schedule", "delay.schedule"),
    ("delay.RevealQueue", "pop_revealed", "delay.pop_revealed"),
    ("environment.Environment", "round_contexts", "environment.round_contexts"),
    ("environment.Environment", "step", "environment.step"),
    ("policies.NeuralBandit", "select_action", "policies.select_action"),
    ("policies.NeuralBandit", "ingest_revealed", "policies.ingest_revealed"),
    ("policies.LinearBandit", "select_action", "policies.select_action"),
    ("policies.LinearBandit", "ingest_revealed", "policies.ingest_revealed"),
    # policies imports train_nn and gradient_many by name; network calls its
    # own gradient_many (from train_nn) and the grad_batch it imported from kernels
    ("policies", "train_nn", "network.train_nn"),
    ("policies", "gradient_many", "network.gradient_many"),
    ("network", "gradient_many", "network.gradient_many.train"),
    ("network", "grad_batch", "kernels.grad_batch"),
    ("harness", "build_policy", "harness.build_policy"),
    ("harness", "run_single", "harness.run_single"),
    ("harness", "emit", "harness.emit"),
]

# policies.gradient_many spans are named after the policy method calling them
CALLER_SPLIT = {"policies.select_action": "network.gradient_many.select",
                "policies.ingest_revealed": "network.gradient_many.ingest"}


def _resolve(package, dotted):
    obj = package
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._installed = []
        self._refresh_period = None
        self._reset()

    def _reset(self):
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._designs: dict[int, object] = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _peak(self, key, n):
        self.counts[key] = max(self.counts.get(key, 0), n)

    def _span(self, name_id, fn, args, kwargs):
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        if name == "network.gradient_many":
            return self._wrap_policy_gradient(fn)
        name_id = self._id(name)
        after = {
            "network.gradient_many.train":
                lambda args, result: self._add(name + ".rows", len(args[2])),
            "kernels.grad_batch":
                lambda args, result: self._add(name + ".out_bytes", result[0].nbytes),
            "delay.pop_revealed": self._after_pop,
            "design.rank1_update":
                lambda args, result: self._designs.setdefault(id(args[0]), args[0]),
        }.get(name)

        def traced(*args, **kwargs):
            result = self._span(name_id, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _wrap_policy_gradient(self, fn):
        split = {self._id(caller): self._id(name) for caller, name in CALLER_SPLIT.items()}
        other = self._id("network.gradient_many.other")

        def traced(theta, shape, xs):
            caller = self.name_ids[self._stack[-1]] if self._stack else -1
            name_id = split.get(caller, other)
            self._add(self.names[name_id] + ".rows", len(xs))
            return self._span(name_id, fn, (theta, shape, xs), {})

        return traced

    def _after_pop(self, args, result):
        self._peak("delay.reveals_per_round.max", len(result))
        self._peak("delay.pending.max", args[0].pending_count)

    def install(self):
        """Wrap every traced function; a target the package lacks raises AttributeError."""
        self._refresh_period = self.package.design.REFRESH_PERIOD
        for owner_path, attr, name in TARGETS:
            owner = _resolve(self.package, owner_path)
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def take_run(self) -> "RunTrace":
        """Summarise the spans recorded since the last call and start afresh."""
        counts = dict(self.counts)
        counts["design.refreshes"] = sum(
            d.update_count // self._refresh_period
            for d in self._designs.values() if d.mode == "full")
        run = RunTrace(self.names, np.array(self.name_ids, dtype=np.int64),
                       np.array(self.starts), np.array(self.ends),
                       np.array(self.parents, dtype=np.int64), counts)
        self._reset()
        return run


class RunTrace:
    """The spans and counters of one traced ``run_single`` call and its emit."""

    def __init__(self, names, name_ids, starts, ends, parents, counts):
        self.names = list(names)
        self.name_ids = name_ids
        self.starts = starts
        self.ends = ends
        self.parents = parents
        self.counts = counts
        self.durations = ends - starts
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=self.durations[nested],
                                 minlength=len(starts))
        self.self_times = self.durations - child_time

    def _mask(self, name):
        if name not in self.names:
            return np.zeros(len(self.starts), dtype=bool)
        return self.name_ids == self.names.index(name)

    def calls(self, name) -> int:
        return int(self._mask(name).sum())

    def total(self, name) -> float:
        return float(self.durations[self._mask(name)].sum())

    def self_total(self, name) -> float:
        return float(self.self_times[self._mask(name)].sum())

    def durations_of(self, name) -> np.ndarray:
        return self.durations[self._mask(name)]

    def write_csv(self, path):
        """One line per span: index, name, start and end in s from the first span, parent."""
        origin = self.starts.min() if len(self.starts) else 0.0
        lines = ["span,name,start_s,end_s,parent"]
        for i, (name_id, start, end, parent) in enumerate(zip(
                self.name_ids.tolist(), (self.starts - origin).tolist(),
                (self.ends - origin).tolist(), self.parents.tolist())):
            lines.append(f"{i},{self.names[name_id]},{start!r},{end!r},{parent}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
