import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import delaybandit
import delaybandit.harness  # perfbench traces it; the package does not import it
from delaybandit.config import config_from_dict
from delaybandit.data import load_mushroom_csv

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _run_in_fresh_interpreter(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_package_import_does_not_load_scipy():
    # importing scipy.linalg costs about 0.9 s of start-up; the package is numpy-only
    _run_in_fresh_interpreter("import delaybandit, sys; assert 'scipy' not in sys.modules")


def test_harness_and_config_defer_optional_imports():
    # yaml is needed only to read a config file and the process pool only for
    # jobs > 1; importing either at start-up costs every run that needs neither
    _run_in_fresh_interpreter(
        "import sys, delaybandit.harness, delaybandit.config\n"
        "loaded = {'yaml', 'concurrent.futures', 'multiprocessing'} & set(sys.modules)\n"
        "assert not loaded, loaded")


def _perfbench_module(name):
    """perfbench/<name>.py, loaded from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_perfbench_traces_resolves():
    # `perfbench/run.py --trace 1` wraps each TARGETS entry; a rename in the
    # package would otherwise surface only as an AttributeError in a traced run
    tracer = _perfbench_module("tracer")
    for owner_path, attr, name in tracer.TARGETS:
        owner = tracer._resolve(delaybandit, owner_path)
        assert callable(getattr(owner, attr)), name
    assert isinstance(delaybandit.design.REFRESH_PERIOD, int)


def test_every_perfbench_workload_runs(tmp_path):
    # a policy or config change that would fail every benchmark run fails here
    # first: each workload's own config, on its own generated data, 40 rounds
    workloads = _perfbench_module("workloads")
    csv = workloads.write_mushroom_csv(tmp_path / "agaricus-lepiota.data", 1)
    dataset = load_mushroom_csv(csv)
    for name, workload in workloads.WORKLOADS.items():
        cfg = config_from_dict(workloads.config_dict(replace(workload, horizon=40), csv, 1))
        rows = delaybandit.harness.run_single(cfg, 1, dataset).rows
        assert [row[0] for row in rows] == list(range(1, 41)), name
        assert all(revealed + pending == t
                   for t, _, _, _, revealed, pending, _ in rows), name
        revealed = rows[-1][4]
        assert (revealed == 40) if workload.delay == "none" else (0 < revealed < 40), name
