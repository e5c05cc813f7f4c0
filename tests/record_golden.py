"""Re-record tables of tests/golden_outputs.json from the code as it is.

    python3 tests/record_golden.py TABLE...

TABLE is one of desk_scale, perfbench, lin_ts and paths. Each named table is
rebuilt by the digest function that tests/test_acceptance.py checks it with;
the other tables are kept as they are. The digests hold only for the numpy
and BLAS they were recorded with, so a platform other than the recorded one
must re-record every table at once, and the platform is then recorded too.
desk_scale runs on the generated mushroom CSV that the tests use without a
real one, and records its digest.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import test_acceptance as acceptance  # noqa: E402  (needs the paths above)
from conftest import make_mushroom_like_csv  # noqa: E402
from delaybandit.harness import run_experiment  # noqa: E402

GOLDEN_PATH = HERE / "golden_outputs.json"


def _desk_scale(tmp: Path, golden: dict) -> dict:
    csv = make_mushroom_like_csv(tmp / "agaricus-lepiota.data")
    golden["mushroom_csv"] = acceptance._sha256(csv)
    configs = acceptance.desk_scale_configs(csv)
    results = {name: run_experiment(cfg) for name, cfg in configs.items()}
    return acceptance.desk_scale_digests(configs, results, tmp)


TABLES = {
    "desk_scale": _desk_scale,
    "perfbench": lambda tmp, golden: acceptance.perfbench_digests(tmp),
    "lin_ts": lambda tmp, golden: acceptance.lin_ts_digests(tmp),
    "paths": lambda tmp, golden: acceptance.paths_digests(tmp),
}


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in TABLES]
    if not names or unknown:
        print(f"usage: record_golden.py TABLE...; TABLE is one of {', '.join(TABLES)}",
              file=sys.stderr)
        return 1
    golden = json.loads(GOLDEN_PATH.read_text())
    platform = acceptance._platform()
    if platform != golden["platform"]:
        if set(names) != set(TABLES):
            print(f"the table was recorded with {golden['platform']}, not {platform}; "
                  "re-record every table", file=sys.stderr)
            return 1
        golden["platform"] = platform
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            golden[name] = TABLES[name](Path(tmp), golden)
        print(f"recorded {name}")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
