import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import delaybandit
import delaybandit.harness  # perfbench traces it; the package does not import it

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


def test_every_name_perfbench_traces_resolves():
    # `perfbench/run.py --trace 1` wraps each TARGETS entry; a rename in the
    # package would otherwise surface only as an AttributeError in a traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for owner_path, attr, name in tracer.TARGETS:
        owner = tracer._resolve(delaybandit, owner_path)
        assert callable(getattr(owner, attr)), name
    assert isinstance(delaybandit.design.REFRESH_PERIOD, int)
