"""Workload definitions, input generation and package location for perfbench.

Every workload is a criterion-8 acceptance config (lambda = nu = 0.1, constant
gamma 0.1, width 64, depth 2, 10 steps at batch 64, eta 1e-4, warm start) on a
generated mushroom-format CSV. Only the horizon is shortened, and each run uses
one seed.
"""

import string
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# rows in the real UCI agaricus-lepiota file, so setup pays the real parse cost
MUSHROOM_ROWS = 8124
# cardinalities of the 22 categorical attribute columns of the UCI file
MUSHROOM_CARDS = [6, 4, 10, 2, 9, 2, 2, 2, 12, 2, 5, 4, 4, 9, 9, 1, 4, 3, 5, 9, 6, 7]


# delays come from one fixed stream, so every workload seed reveals the same
# rounds and does the same amount of work; the seed varies the dataset and the
# context, noise and policy streams
DELAY_SEED = 30


@dataclass(frozen=True)
class Workload:
    algorithm: str
    design_mode: str
    delay: str
    expected_delay: float
    horizon: int
    why: str

    @property
    def neural(self) -> bool:
        return not self.algorithm.startswith("lin-")


WORKLOADS = {
    # p = 5696; train_nn and its per-sample Jacobians dominate
    "mushroom-delayed-diag": Workload(
        "delayed-neural-ucb", "diag", "uniform", 30, 300,
        "delayed NeuralUCB, diagonal design: training dominates (ROADMAP item 2)"),
    # same learner at the real p = 5696 with the full p x p design matrix;
    # 50 rounds reveal about 20 rewards, several of them in the same round
    "mushroom-delayed-full": Workload(
        "delayed-neural-ucb", "full", "uniform", 30, 50,
        "delayed NeuralUCB, full design at p = 5696: rank-1 updates dominate (item 3)"),
    # control: no network, no delay, small p = 88 with many periodic refreshes
    "mushroom-linucb": Workload(
        "lin-ucb", "diag", "none", 0, 10000,
        "LinUCB without delay: per-round Python work, control for design and tracing changes"),
}


def config_dict(workload: Workload, csv_path: Path, seed: int) -> dict:
    """The raw config mapping that ``config.config_from_dict`` receives."""
    return {
        "experiment": {"horizon": workload.horizon, "arms": 2, "seeds": [seed]},
        "policy": {"algorithm": workload.algorithm, "gamma_mode": "constant",
                   "gamma_const": 0.1, "nu": 0.1, "lambda": 0.1,
                   "design_mode": workload.design_mode, "warm_start": True},
        "network": {"width": 64},
        "train": {"steps": 10, "steps_schedule": "fixed",
                  "batch_size": 64, "eta": 1e-4},
        "environment": {"source": "mushroom", "dataset_path": str(csv_path),
                        "embed_assumption3": True,
                        "delay": workload.delay,
                        "expected_delay": workload.expected_delay,
                        "delay_seed": DELAY_SEED},
    }


def write_mushroom_csv(path: Path, seed: int) -> Path:
    """Seeded surrogate in the exact agaricus-lepiota CSV format.

    Attributes are uniform over each column's categories; the class is a
    threshold that is linear in the loader's ordinal encoding, so the labels
    are learnable.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    cards = np.array(MUSHROOM_CARDS)
    weights = rng.normal(size=len(cards))
    cats = rng.integers(0, cards, size=(MUSHROOM_ROWS, len(cards)))
    ordinal = np.where(cards > 1, cats / np.maximum(cards - 1, 1) - 0.5, 0.0)
    labels = np.where(ordinal @ weights > 0, "p", "e")
    letters = np.array(list(string.ascii_lowercase))[cats]
    lines = [",".join([label, *row]) for label, row in zip(labels, letters.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def use_checkout_package() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or exit with an error.

    The benchmark measures the source tree it ships with, never an installed
    copy of the package.
    """
    if not (SRC / "delaybandit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'delaybandit'}")
    sys.path.insert(0, str(SRC))
    import delaybandit

    if Path(delaybandit.__file__).resolve().parent != (SRC / "delaybandit").resolve():
        sys.exit(f"perfbench: imported delaybandit from {delaybandit.__file__}, not {SRC}")
