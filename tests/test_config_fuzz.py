"""Config-space fuzz test: ``validate``, ``analyze`` and ``run`` held to one contract.

Hypothesis draws config files from the fields of the config blocks: every
option of a Literal field, the edges of the range checks, non-finite values,
integers in float fields, and any algorithm with any delay. Each file goes
through ``cli.main`` in this process, ``validate``, ``analyze`` and then
``run``, with ``--analyze`` or without as drawn:

- ``validate`` exits 0 exactly when ``analyze`` and ``run`` do not exit 1;
- ``run --analyze`` fails as ``analyze`` does, if it does;
- every nonzero exit prints exactly one ``error:`` line on stderr, and exit 0
  prints nothing there;
- nothing leaves ``main``: it catches the package's errors and ``OSError``, so
  any exception out of it is a bug, and pytest's ``error::RuntimeWarning``
  makes a ``RuntimeWarning`` one;
- an ``analyze`` that exits 0 prints no NaN or Infinity, and a run that exits 0
  writes no nan or inf.

A deterministic sweep beside it sets each float field in turn to 1e300,
-1e300 and 1e-300, the float edges that random draws reach only rarely, and
holds those configs to the same contract.

The runs are kept tiny (horizon <= 12, width <= 8). A dataset source reads
small mushroom CSV and IDX files written here, whose labels are 0 and 1; a
label without an arm and an MNIST design over the memory cap are the checks
that only a run can make, and tests/test_cli.py covers them.
"""

import json
import math
import shutil
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Literal, get_args, get_origin

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_mushroom_like_csv
from delaybandit.cli import main
from delaybandit.config import ExperimentConfig
from test_data import write_idx_images, write_idx_labels

BLOCKS = [ExperimentConfig] + [f.type for f in fields(ExperimentConfig) if is_dataclass(f.type)]

# the edges of every range check (> 0, >= 0, in (0, 1)), values far from 1 on
# both sides, the non-finite values, a few ordinary ones and integers, which a
# float field holds as floats
FLOATS = [0.0, -0.0, 1.0, -1.0, 1e-9, -1e-9, 1.0 - 1e-9, 1.0 + 1e-9, 1e-300,
          1e12, -1e12, 1e300, -1e300, math.inf, -math.inf, math.nan,
          0.05, 0.5, 2.5, 7.0, *range(-3, 4)]

# the fields that set the size of a run: every file sets them to a tiny value,
# which a file may then override as it may any other field
SIZES = {("experiment", "horizon"): st.integers(1, 12),
         ("experiment", "seeds"): st.lists(st.integers(0, 3), min_size=1, max_size=2,
                                           unique=True),
         ("network", "width"): st.sampled_from([8, 4, 2]),
         ("environment", "synthetic_dim"): st.sampled_from([4, 2, 6])}


def _key(f) -> str:
    return f.metadata.get("key") or f.name


# a field a file does not set keeps its default
FIELDS = [(cls.section, f) for cls in BLOCKS for f in fields(cls)
          if not is_dataclass(f.type) and f.name != "output"]


def _passes(f, value) -> bool:
    """Whether value passes the checks of field f alone: finite and in range."""
    check = f.metadata.get("check")
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return value is None or check is None or check[0](value)


def _values(f, files: dict, wild: bool):
    """The values drawn for field f: any of them if wild, else those that pass
    its own checks, so that more of the fields a file sets can reach a run."""
    if get_origin(f.type) is Literal:
        return st.sampled_from(get_args(f.type))
    kinds = get_args(f.type) or (f.type,)
    if str in kinds:  # the dataset paths: the files written here, or one that is not there
        return st.sampled_from([None, *files.values()])
    if bool in kinds:
        return st.booleans()
    if get_origin(f.type) is tuple:  # the seeds
        return st.lists(st.integers(-1, 3), max_size=2).filter(
            lambda seeds: wild or _passes(f, seeds))
    if float in kinds:
        candidates = FLOATS
    else:
        candidates = [None] * (type(None) in kinds) + list(range(-1, 9))
    if not wild:
        return st.sampled_from([value for value in candidates if _passes(f, value)])
    if float in kinds:
        return st.sampled_from(candidates) | st.floats(-10.0, 10.0)
    return st.sampled_from(candidates)


@st.composite
def config_files(draw, files):
    """A config mapping. A wild file sets up to six fields to any values; a
    sparse one sets up to six, a dense one every field, to values that pass
    each field's own checks, so that the fields meet in the runs."""
    raw = {}
    for (section, key), size in SIZES.items():
        raw.setdefault(section, {})[key] = draw(size)
    mode = draw(st.sampled_from(["sparse", "dense", "wild"]))
    chosen = FIELDS if mode == "dense" else draw(
        st.lists(st.sampled_from(FIELDS), max_size=6, unique=True))
    for section, f in chosen:
        raw.setdefault(section, {})[_key(f)] = draw(_values(f, files, mode == "wild"))
    return raw


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-data")
    rng = np.random.default_rng(5)
    write_idx_images(root / "images.idx", rng.integers(0, 256, size=(12, 4, 4)))
    write_idx_labels(root / "labels.idx", list(rng.integers(0, 2, size=12)))
    return {"csv": str(make_mushroom_like_csv(root / "mushroom.csv", n_rows=30)),
            "images": str(root / "images.idx"), "labels": str(root / "labels.idx"),
            "missing": str(root / "missing.csv")}


def _refuse(constant):
    raise AssertionError(f"the output holds {constant}")


def _finite_outputs(out: Path) -> None:
    """Every number in the CSV files and summary.json of a run is finite."""
    for csv in out.glob("*.csv"):
        for line in csv.read_text().splitlines()[1:]:
            assert all(math.isfinite(float(x)) for x in line.split(",")), (csv.name, line)
    json.loads((out / "summary.json").read_text(), parse_constant=_refuse)


def _keeps_the_contract(raw: dict, run_analyzes: bool, work: Path, capsys) -> None:
    """Hold validate, analyze and run (with --analyze if run_analyzes) on the
    config raw, written into the empty directory work, to the contract above."""
    path, out = work / "cfg.yaml", work / "out"
    path.write_text(yaml.safe_dump(raw))
    capsys.readouterr()
    codes, errs = {}, {}
    for command in ("validate", "analyze", "run"):
        argv = [command, "--config", str(path)]
        if command == "run":
            argv += ["--out", str(out)] + ["--analyze"] * run_analyzes
        codes[command] = main(argv)
        printed = capsys.readouterr()
        errs[command] = printed.err
        if codes[command]:
            assert printed.err.startswith("error: ") and \
                printed.err.count("\n") == 1, printed.err
        else:
            assert printed.err == ""
        if command == "analyze" and codes[command] == 0:
            json.loads(printed.out, parse_constant=_refuse)
    for command in ("analyze", "run"):
        assert (codes["validate"] == 0) == (codes[command] != 1), (codes, errs)
    if run_analyzes and codes["analyze"]:
        assert (codes["run"], errs["run"]) == (codes["analyze"], errs["analyze"])
    if codes["run"] == 0:
        _finite_outputs(out)


def test_validate_analyze_and_run_keep_one_contract(data_files, capsys):
    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config_files(data_files), st.booleans())
    def check(raw, run_analyzes):
        work = Path(tempfile.mkdtemp(prefix="fuzz-", dir=Path(data_files["csv"]).parent))
        try:
            _keeps_the_contract(raw, run_analyzes, work, capsys)
        finally:
            shutil.rmtree(work)

    check()


@pytest.mark.parametrize("value", [1e300, -1e300, 1e-300])
def test_every_float_field_at_a_float_edge_keeps_the_contract(tmp_path, capsys, value):
    # the draws above reached float edges such as policy.lambda: 1e300 with
    # analyze only at about 1 500 examples; here each float field takes each edge
    # in a config of the smallest run sizes, with run --analyze as well as run
    cases = [(section, f) for section, f in FIELDS if f.type is float]
    assert len(cases) >= 9
    for i, (section, f) in enumerate(cases):
        raw = {"experiment": {"horizon": 3, "seeds": [1]}, "network": {"width": 8},
               "environment": {"synthetic_dim": 4}}
        raw.setdefault(section, {})[_key(f)] = value
        for run_analyzes in (False, True):
            work = tmp_path / f"{i}-{run_analyzes}"
            work.mkdir()
            _keeps_the_contract(raw, run_analyzes, work, capsys)
