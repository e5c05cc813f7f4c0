"""Declarative experiment configuration: YAML parsing, defaults, validation.

Defaults mirror the reference experimental setup (two-layer network of width
128, nu = 1, lambda = 1, delta = 0.05, S = 1e-4, SGD batch 64, eta = 1e-3,
J = t at round t), so a near-empty config file runs that setup at whatever
horizon is requested.
"""

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_args

from .data import MUSHROOM_ATTRIBUTES
from .delay import DelayDistribution
from .errors import ConfigurationError

ALGORITHMS = ("delayed-neural-ucb", "delayed-neural-ts",
              "neural-ucb", "neural-ts", "lin-ucb", "lin-ts")

DATA_ROOT_ENV = "DELAYED_BANDIT_DATA"


@dataclass(frozen=True)
class PolicyBlock:
    algorithm: str = "delayed-neural-ucb"
    lam: float = 1.0
    nu: float = 1.0
    delta: float = 0.05
    norm_s: float = 1e-4
    alpha: float = 1.0  # linear-baseline UCB bonus scale
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0
    gamma_mode: str = "simple"
    gamma_const: float = 1.0
    design_mode: str = "full"
    retrain_trigger: str = "every-round"
    warm_start: bool = False
    sqrt_lambda_s: str = "product"


@dataclass(frozen=True)
class NetworkBlock:
    depth: int = 2
    width: int = 128


@dataclass(frozen=True)
class TrainBlock:
    eta: float = 0.001
    steps: int = 1
    steps_schedule: str = "round"
    batch_size: int | None = 64


@dataclass(frozen=True)
class EnvironmentBlock:
    source: str = "synthetic"  # synthetic | mushroom | mnist
    dataset_path: str | None = None
    labels_path: str | None = None
    synthetic_h: str = "quadratic-clipped"
    synthetic_dim: int = 20
    noise_variance: float = 0.001
    embed_assumption3: bool = False
    wrong_class_reward: float = 0.0
    delay: str = "none"
    expected_delay: float = 0.0
    delay_lomax: bool = False
    delay_seed: int | None = None


@dataclass(frozen=True)
class AnalysisBlock:
    n_contexts: int = 40
    alpha: float = 0.0
    b: float = 0.0
    c4: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    horizon: int = 2000
    arms: int = 2
    seeds: tuple = (1, 2, 3, 4, 5)
    output: str = "runs/out"
    policy: PolicyBlock = field(default_factory=PolicyBlock)
    network: NetworkBlock = field(default_factory=NetworkBlock)
    train: TrainBlock = field(default_factory=TrainBlock)
    environment: EnvironmentBlock = field(default_factory=EnvironmentBlock)
    analysis: AnalysisBlock = field(default_factory=AnalysisBlock)

    def delay_distribution(self) -> DelayDistribution:
        env = self.environment
        return DelayDistribution.from_expected(env.delay, env.expected_delay,
                                               lomax=env.delay_lomax)

    def resolve_data_path(self, name: str | None) -> Path | None:
        if name is None:
            return None
        path = Path(name)
        if not path.is_absolute():
            root = os.environ.get(DATA_ROOT_ENV)
            if root:
                path = Path(root) / path
        return path


_BLOCKS = {
    "policy": PolicyBlock,
    "network": NetworkBlock,
    "train": TrainBlock,
    "environment": EnvironmentBlock,
    "analysis": AnalysisBlock,
}

# config file spellings for fields whose code names differ
_ALIASES = {
    "policy": {"lambda": "lam", "S": "norm_s", "C1": "c1", "C2": "c2", "C3": "c3"},
    "analysis": {"C4": "c4"},
}


_KINDS = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


def _coerce(ftype, value):
    """value as a field of type ftype holds it; ValueError names the kind expected.

    YAML 1.1 reads exponents without a sign, such as 1.0e3, as strings, so a
    float field takes a string that parses as a float. bool is not a number.
    """
    kinds = get_args(ftype) or (ftype,)
    if value is None and type(None) in kinds:
        return None
    kind = kinds[0]
    if kind is float and isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ValueError(_KINDS[kind])


def _put(kwargs: dict, fields, section: str, key: str, name: str, value, errors: list):
    """Store the coerced value of one field in kwargs, or add the mismatch to errors."""
    try:
        kwargs[name] = _coerce(fields[name].type, value)
    except ValueError as exc:
        errors.append(f"{section}.{key}: expected {exc}, got {value!r}")


def _build_block(cls, section: str, raw: dict, errors: list):
    kwargs = {}
    aliases = _ALIASES.get(section, {})
    fields = cls.__dataclass_fields__
    for key, value in raw.items():
        name = aliases.get(key, key)
        if name not in fields:
            errors.append(f"{section}.{key}: unknown field")
            continue
        _put(kwargs, fields, section, key, name, value, errors)
    try:
        return cls(**kwargs)
    except (TypeError, ConfigurationError) as exc:
        errors.append(f"{section}: {exc}")
        return cls()


def config_from_dict(raw: dict) -> ExperimentConfig:
    errors: list[str] = []
    raw = dict(raw or {})
    top = dict(raw.pop("experiment", {}))
    kwargs = {}
    fields = ExperimentConfig.__dataclass_fields__
    for key in ("horizon", "arms", "output"):
        if key in top:
            _put(kwargs, fields, "experiment", key, key, top.pop(key), errors)
    if "seeds" in top:
        seeds = top.pop("seeds")
        if isinstance(seeds, (list, tuple)) and all(
                isinstance(seed, int) and not isinstance(seed, bool) for seed in seeds):
            kwargs["seeds"] = tuple(seeds)
        else:
            errors.append(f"experiment.seeds: expected a list of integers, got {seeds!r}")
    for key in top:
        errors.append(f"experiment.{key}: unknown field")
    for section, cls in _BLOCKS.items():
        if section in raw:
            kwargs[section] = _build_block(cls, section, dict(raw.pop(section)), errors)
    for key in raw:
        errors.append(f"{key}: unknown section")
    cfg = ExperimentConfig(**kwargs)
    validate(cfg, errors)
    if errors:
        raise ConfigurationError("; ".join(errors))
    return cfg


def validate(cfg: ExperimentConfig, errors: list[str]) -> None:
    if cfg.horizon < 1:
        errors.append(f"experiment.horizon: must be >= 1, got {cfg.horizon}")
    if cfg.arms < 2:
        errors.append(f"experiment.arms: must be >= 2, got {cfg.arms}")
    if not cfg.seeds:
        errors.append("experiment.seeds: must be nonempty")
    if cfg.policy.algorithm not in ALGORITHMS:
        errors.append(f"policy.algorithm: unknown {cfg.policy.algorithm!r}")
    if not 0.0 < cfg.policy.delta < 1.0:
        errors.append(f"policy.delta: must lie in (0,1), got {cfg.policy.delta}")
    if cfg.policy.lam <= 0:
        errors.append(f"policy.lambda: must be > 0, got {cfg.policy.lam}")
    if cfg.policy.nu < 0:
        errors.append(f"policy.nu: must be >= 0, got {cfg.policy.nu}")
    if cfg.policy.gamma_mode not in ("theoretical", "simple", "constant"):
        errors.append(f"policy.gamma_mode: unknown {cfg.policy.gamma_mode!r}")
    if cfg.policy.design_mode not in ("full", "diag"):
        errors.append(f"policy.design_mode: unknown {cfg.policy.design_mode!r}")
    if cfg.network.depth < 2:
        errors.append(f"network.depth: must be >= 2, got {cfg.network.depth}")
    if cfg.network.width < 2:
        errors.append(f"network.width: must be >= 2, got {cfg.network.width}")
    if cfg.train.eta <= 0:
        errors.append(f"train.eta: must be > 0, got {cfg.train.eta}")
    if cfg.train.steps < 0:
        errors.append(f"train.steps: must be >= 0, got {cfg.train.steps}")
    if cfg.train.batch_size is not None and cfg.train.batch_size < 1:
        errors.append(f"train.batch_size: must be >= 1, got {cfg.train.batch_size}")
    if cfg.train.steps_schedule not in ("fixed", "round"):
        errors.append(f"train.steps_schedule: unknown {cfg.train.steps_schedule!r}")
    if cfg.environment.source not in ("synthetic", "mushroom", "mnist"):
        errors.append(f"environment.source: unknown {cfg.environment.source!r}")
    if cfg.environment.noise_variance < 0:
        errors.append("environment.noise_variance: must be >= 0")
    if cfg.environment.expected_delay < 0:
        errors.append("environment.expected_delay: must be >= 0")
    if cfg.environment.delay not in ("none", "constant", "uniform", "exponential", "pareto"):
        errors.append(f"environment.delay: unknown {cfg.environment.delay!r}")
    if not cfg.policy.algorithm.startswith("lin-"):
        # only the neural algorithms build a network, and its symmetric
        # initialization splits both the width and the context in halves
        if cfg.network.width % 2:
            errors.append(f"network.width: must be even, got {cfg.network.width}")
        dim = _context_dim(cfg)
        if dim is not None and dim % 2:
            errors.append(f"environment: the context dimension {dim} must be even for "
                          "neural algorithms; set embed_assumption3: true")
    needs_data = cfg.environment.source in ("mushroom", "mnist")
    if needs_data and cfg.environment.dataset_path is None:
        errors.append("environment.dataset_path: required for dataset sources")
    if cfg.environment.source == "mnist" and cfg.environment.labels_path is None:
        errors.append("environment.labels_path: required for mnist")


def _context_dim(cfg: ExperimentConfig) -> int | None:
    """The dimension of the contexts a run builds, or None where it depends on
    the dataset file."""
    env = cfg.environment
    if env.source == "synthetic":
        dim = env.synthetic_dim
    elif env.source == "mushroom":
        dim = MUSHROOM_ATTRIBUTES * cfg.arms
    else:
        return None  # mnist: the image size comes from the file
    return 2 * dim if env.embed_assumption3 else dim


def load_config(path) -> ExperimentConfig:
    import yaml  # deferred: configs built from a dict never need it

    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    return config_from_dict(raw)


def resolved_summary(cfg: ExperimentConfig) -> dict:
    """Fully resolved, JSON-friendly echo of the configuration."""
    delay = cfg.delay_distribution()
    return {
        "horizon": cfg.horizon,
        "arms": cfg.arms,
        "seeds": list(cfg.seeds),
        "algorithm": cfg.policy.algorithm,
        "policy": {k: getattr(cfg.policy, k) for k in PolicyBlock.__dataclass_fields__},
        "network": {"depth": cfg.network.depth, "width": cfg.network.width},
        "train": {k: getattr(cfg.train, k) for k in TrainBlock.__dataclass_fields__},
        "environment": {k: getattr(cfg.environment, k)
                        for k in EnvironmentBlock.__dataclass_fields__},
        "delay_distribution": delay.describe(),
    }
