"""One set-up of a benchmark process, timed by phase, for ``setup_s``.

Usage: python3 perfbench/setup_probe.py WORKLOAD CSV SEED

Imports the package, validates the workload config and parses the dataset,
which is what a process does before its first ``run_single`` call. Prints one
JSON line with the seconds each phase took, then exits.
"""

import json
import sys
import time

started = time.perf_counter()
from workloads import WORKLOADS, config_dict, use_checkout_package  # noqa: E402

use_checkout_package()
from delaybandit import config, data, harness  # noqa: E402,F401

imported = time.perf_counter()
name, csv_path, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
cfg = config.config_from_dict(config_dict(WORKLOADS[name], csv_path, seed))
validated = time.perf_counter()
data.load_mushroom_csv(cfg.resolve_data_path(cfg.environment.dataset_path))
loaded = time.perf_counter()
print(json.dumps({"import_s": imported - started,
                  "config_s": validated - imported,
                  "load_s": loaded - validated}), flush=True)
