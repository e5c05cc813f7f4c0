import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_import_does_not_load_scipy():
    # importing scipy.linalg costs about 0.9 s of start-up; the package is numpy-only
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import delaybandit, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True, timeout=60)
