"""Declarative experiment configuration: YAML parsing, defaults, validation.

Defaults mirror the reference experimental setup (two-layer network of width
128, nu = 1, lambda = 1, delta = 0.05, S = 1e-4, SGD batch 64, eta = 1e-3,
J = t at round t). Training diverges at them, a known bug: a near-empty config
file stops with DivergedTrainingError within its first rounds.

Each setting is declared once, as a field of the block that holds it: its
type (an enum is a Literal alias defined beside the code that reads it), its
default, its range check and, where it differs from the attribute name, its
config-file key. Building a block checks every field and raises one
ConfigurationError naming each violation; ``validate`` adds the checks that
span fields. What the code can work out is not a field: the delay's tail
constants, for one, follow from its distribution.
"""

import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import ClassVar, Literal, get_args, get_origin

from .data import MUSHROOM_ATTRIBUTES, Source, SyntheticH
from .delay import DelayDistribution, DelayKind
from .design import DesignMode, full_design_bytes
from .errors import ConfigurationError
from .network import NetworkShape
from .policies import Algorithm, GammaMode, StepsSchedule

DATA_ROOT_ENV = "DELAYED_BANDIT_DATA"
DESIGN_MEMORY_CAP = 4 * 2**30  # bytes a full design may hold at most (README)

# range checks: (test, the rule it enforces); None values are not tested,
# and a float field must be finite before its range is tested
_POSITIVE = (lambda v: v > 0, "must be > 0")
_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
_PROBABILITY = (lambda v: 0.0 < v < 1.0, "must lie in (0,1)")
_SEEDS = (lambda seeds: len(seeds) > 0 and min(seeds) >= 0 and len(set(seeds)) == len(seeds),
          "must be nonempty and >= 0, with no seed repeated")


def _at_least(low):
    return (lambda v: v >= low, f"must be >= {low}")


def _field(default, check=None, key=None):
    """A config field with its range check and its config-file key, if not its name."""
    return field(default=default, metadata={"check": check, "key": key})


def _key(f) -> str:
    return f.metadata.get("key") or f.name


class _Checked:
    """Base of the config blocks: building one checks its fields."""

    section: ClassVar[str]

    def __post_init__(self):
        problems = []
        for f in fields(self):
            value = getattr(self, f.name)
            where = f"{self.section}.{_key(f)}"
            options = get_args(f.type) if get_origin(f.type) is Literal else None
            if options and value not in options:
                problems.append(f"{where}: expected one of "
                                f"{', '.join(map(repr, options))}, got {value!r}")
            check = f.metadata.get("check")
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"{where}: must be finite, got {value!r}")
            elif check and value is not None and not check[0](value):
                problems.append(f"{where}: {check[1]}, got {value!r}")
        if problems:
            raise ConfigurationError("; ".join(problems))


@dataclass(frozen=True)
class PolicyBlock(_Checked):
    section: ClassVar[str] = "policy"
    algorithm: Algorithm = "delayed-neural-ucb"
    lam: float = _field(1.0, _POSITIVE, key="lambda")
    nu: float = _field(1.0, _NON_NEGATIVE)
    delta: float = _field(0.05, _PROBABILITY)
    norm_s: float = _field(1e-4, _NON_NEGATIVE, key="S")
    alpha: float = 1.0  # linear-baseline UCB bonus scale
    gamma_mode: GammaMode = "simple"
    gamma_const: float = 1.0
    design_mode: DesignMode = "full"
    warm_start: bool = False


@dataclass(frozen=True)
class NetworkBlock(_Checked):
    section: ClassVar[str] = "network"
    depth: int = _field(2, _at_least(2))
    width: int = _field(128, _at_least(2))


@dataclass(frozen=True)
class TrainBlock(_Checked):
    section: ClassVar[str] = "train"
    eta: float = _field(0.001, _POSITIVE)
    steps: int = _field(1, _NON_NEGATIVE)
    steps_schedule: StepsSchedule = "round"
    batch_size: int | None = _field(64, _at_least(1))

    def steps_at(self, t: int) -> int:
        """J, the training steps of round t: t under the round schedule, else steps."""
        return t if self.steps_schedule == "round" else self.steps


@dataclass(frozen=True)
class EnvironmentBlock(_Checked):
    section: ClassVar[str] = "environment"
    source: Source = "synthetic"
    dataset_path: str | None = None
    labels_path: str | None = None
    synthetic_h: SyntheticH = "quadratic-clipped"
    synthetic_dim: int = _field(20, _at_least(1))
    noise_variance: float = _field(0.001, _NON_NEGATIVE)
    embed_assumption3: bool = False
    delay: DelayKind = "none"
    expected_delay: float = _field(0.0, _NON_NEGATIVE)
    delay_seed: int | None = _field(None, _NON_NEGATIVE)


@dataclass(frozen=True)
class AnalysisBlock(_Checked):
    section: ClassVar[str] = "analysis"
    n_contexts: int = _field(40, _at_least(1))


_BLOCKS = {cls.section: cls for cls in
           (PolicyBlock, NetworkBlock, TrainBlock, EnvironmentBlock, AnalysisBlock)}


@dataclass(frozen=True)
class ExperimentConfig(_Checked):
    section: ClassVar[str] = "experiment"
    horizon: int = _field(2000, _at_least(1))
    arms: int = _field(2, _at_least(2))
    seeds: tuple[int, ...] = _field((1, 2, 3, 4, 5), _SEEDS)
    output: str = "runs/out"
    policy: PolicyBlock = field(default_factory=PolicyBlock)
    network: NetworkBlock = field(default_factory=NetworkBlock)
    train: TrainBlock = field(default_factory=TrainBlock)
    environment: EnvironmentBlock = field(default_factory=EnvironmentBlock)
    analysis: AnalysisBlock = field(default_factory=AnalysisBlock)

    def delay_distribution(self) -> DelayDistribution:
        env = self.environment
        return DelayDistribution(env.delay, env.expected_delay)

    def resolve_data_path(self, name: str) -> Path:
        path = Path(name)
        if not path.is_absolute():
            root = os.environ.get(DATA_ROOT_ENV)
            if root:
                path = Path(root) / path
        return path


_KINDS = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


def _coerce(ftype, value):
    """value as a field of type ftype holds it; ValueError names the kind expected.

    YAML 1.1 reads exponents without a sign, such as 1.0e3, as strings, so a
    float field takes a string that parses as a float. A float field holds an
    integer as a float, and -0.0 as 0.0. bool is not a number.
    A Literal field takes a string, which the block then checks.
    """
    if get_origin(ftype) is tuple:
        if isinstance(value, (list, tuple)) and all(
                isinstance(item, int) and not isinstance(item, bool) for item in value):
            return tuple(value)
        raise ValueError("a list of integers")
    kinds = (str,) if get_origin(ftype) is Literal else get_args(ftype) or (ftype,)
    if value is None and type(None) in kinds:
        return None
    kind = kinds[0]
    if kind is float and isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and (kind is bool or not isinstance(value, bool)):
        if kind is float:
            try:
                return float(value) + 0.0  # -0.0 as 0.0, which numpy refuses as a scale
            except OverflowError:  # an integer beyond every float, so as .inf
                return math.inf if value > 0 else -math.inf
        return value
    raise ValueError(_KINDS[kind])


def _build(cls, raw, errors: list, **blocks):
    """cls from one config section, with every unknown key, mistyped value and
    failed check added to errors; a failed block takes its defaults."""
    if raw is None:  # a section header with nothing under it
        raw = {}
    if not isinstance(raw, dict):
        errors.append(f"{cls.section}: expected a mapping, got {raw!r}")
        raw = {}
    spelled = {_key(f): f for f in fields(cls) if f.name not in _BLOCKS}
    kwargs = {}
    for key, value in raw.items():
        if key not in spelled:
            errors.append(f"{cls.section}.{key}: unknown field")
            continue
        try:
            kwargs[spelled[key].name] = _coerce(spelled[key].type, value)
        except ValueError as exc:
            errors.append(f"{cls.section}.{key}: expected {exc}, got {value!r}")
    try:
        return cls(**kwargs, **blocks)
    except ConfigurationError as exc:
        errors.append(str(exc))
        return cls(**blocks)


def config_from_dict(raw: dict) -> ExperimentConfig:
    errors: list[str] = []
    raw = dict(raw or {})
    top = raw.pop("experiment", {})
    blocks = {section: _build(cls, raw.pop(section), errors)
              for section, cls in _BLOCKS.items() if section in raw}
    errors += [f"{key}: unknown section" for key in raw]
    cfg = _build(ExperimentConfig, top, errors, **blocks)
    validate(cfg, errors)
    if errors:
        raise ConfigurationError("; ".join(errors))
    return cfg


def validate(cfg: ExperimentConfig, errors: list[str]) -> None:
    """The checks that span fields; each field checks itself when its block is built."""
    dim = _context_dim(cfg)
    if not cfg.policy.algorithm.startswith("lin-"):
        # only the neural algorithms build a network, and its symmetric
        # initialization splits both the width and the context in halves
        if cfg.network.width % 2:
            errors.append(f"network.width: must be even, got {cfg.network.width}")
        if dim is not None and dim % 2:
            errors.append(f"environment: the context dimension {dim} must be even for "
                          "neural algorithms; set embed_assumption3: true")
            dim = None
    if dim is not None:
        try:
            check_design_memory(cfg, dim)
        except ConfigurationError as exc:
            errors.append(str(exc))
    if not cfg.policy.algorithm.startswith("delayed-") and \
            cfg.delay_distribution().kind != "none":
        errors.append(f"environment.delay: must be 'none' for {cfg.policy.algorithm}, "
                      "which sees each reward in the round that earns it, "
                      f"got {cfg.environment.delay!r}")
    if cfg.environment.source != "synthetic" and cfg.environment.dataset_path is None:
        errors.append("environment.dataset_path: required for dataset sources")
    if cfg.environment.source == "mnist" and cfg.environment.labels_path is None:
        errors.append("environment.labels_path: required for mnist")


def check_design_memory(cfg: ExperimentConfig, context_dim: int) -> None:
    """Raise ConfigurationError if the policy's full design could hold more than
    DESIGN_MEMORY_CAP bytes over the horizon. ``validate`` checks this where the
    context dimension is known without the data; a run checks it once it is.

    A linear baseline's design is always full, at p = context_dim, and keeps
    dense rows; a neural one keeps each gradient's per-layer factors.
    """
    policy = cfg.policy
    if policy.algorithm.startswith("lin-"):
        where, p, advice = "policy.algorithm", context_dim, "use a shorter horizon"
        row_floats = p
    elif policy.design_mode == "full":
        where, advice = "policy.design_mode", "use design_mode: diag or a shorter horizon"
        shape = NetworkShape(cfg.network.depth, cfg.network.width, context_dim)
        p, row_floats = shape.param_count, shape.factor_count
    else:
        return
    held = full_design_bytes(p, cfg.horizon, row_floats)
    if held > DESIGN_MEMORY_CAP:
        raise ConfigurationError(
            f"{where}: a full design at p = {p} may hold {held} bytes "
            f"({held / 2**30:.1f} GiB) over {cfg.horizon} rounds, above the cap of "
            f"{DESIGN_MEMORY_CAP} bytes ({DESIGN_MEMORY_CAP / 2**30:.0f} GiB); {advice}")


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
    """The config in a YAML file; a file that is not UTF-8 YAML raises
    ConfigurationError naming it, and the line and column where YAML gives them."""
    import yaml  # deferred: configs built from a dict never need it

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        raw = yaml.safe_load(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigurationError(
            f"{path}, line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 text") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f", line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ConfigurationError(f"{path}{where}: {problem}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    return config_from_dict(raw)


def _echo(block) -> dict:
    return {f.name: getattr(block, f.name) for f in fields(block)}


def resolved_summary(cfg: ExperimentConfig) -> dict:
    """Fully resolved, JSON-friendly echo of the configuration."""
    return {
        "horizon": cfg.horizon,
        "arms": cfg.arms,
        "seeds": list(cfg.seeds),
        "algorithm": cfg.policy.algorithm,
        "policy": _echo(cfg.policy),
        "network": _echo(cfg.network),
        "train": _echo(cfg.train),
        "environment": _echo(cfg.environment),
        "analysis": _echo(cfg.analysis),
        "delay_distribution": cfg.delay_distribution().describe(),
    }
