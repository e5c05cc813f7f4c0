"""Delay distributions and the round-indexed reveal queue.

A reward generated at round s with delay tau becomes visible at round
ceil(s + tau): the unique integer t with t-1 < s + tau <= t.
"""

import math
from dataclasses import dataclass, field
from typing import Literal, get_args

import numpy as np

from .errors import ConfigurationError, ProtocolViolationError

DelayKind = Literal["none", "constant", "uniform", "exponential", "pareto"]


@dataclass(frozen=True)
class DelayDistribution:
    """One of: none, constant(c), uniform(0, b), exponential(rate), pareto(a, x_m).

    ``lomax=True`` shifts the Pareto to start at 0 (mean x_m/(a-1) instead of
    a*x_m/(a-1)), so the expected-delay shorthand is exact.
    """

    kind: DelayKind
    constant: float = 0.0
    upper: float = 0.0
    rate: float = 0.0
    shape_a: float = 0.0
    scale_xm: float = 1.0
    lomax: bool = False

    def __post_init__(self):
        if self.kind not in get_args(DelayKind):
            raise ConfigurationError(f"unknown delay distribution {self.kind!r}")
        if self.kind == "constant" and self.constant < 0:
            raise ConfigurationError("constant delay must be >= 0")
        if self.kind == "uniform" and self.upper <= 0:
            raise ConfigurationError("uniform upper bound must be > 0")
        if self.kind == "exponential" and self.rate <= 0:
            raise ConfigurationError("exponential rate must be > 0")
        if self.kind == "pareto" and (self.shape_a <= 1 or self.scale_xm <= 0):
            raise ConfigurationError("pareto needs shape > 1 and scale > 0")

    @classmethod
    def from_expected(cls, kind: DelayKind, expected_delay: float, lomax: bool = False):
        """Expand an E[tau] shorthand into distribution parameters.

        exponential -> rate 1/E[tau]; uniform -> (0, 2 E[tau]);
        pareto -> shape (1+E[tau])/E[tau] with scale 1.
        """
        if kind == "none" or expected_delay == 0:
            return cls("none")
        if expected_delay < 0:
            raise ConfigurationError("expected delay must be >= 0")
        if kind == "constant":
            return cls("constant", constant=expected_delay)
        if kind == "uniform":
            return cls("uniform", upper=2.0 * expected_delay)
        if kind == "exponential":
            return cls("exponential", rate=1.0 / expected_delay)
        if kind == "pareto":
            return cls("pareto", shape_a=(1.0 + expected_delay) / expected_delay,
                       scale_xm=1.0, lomax=lomax)
        return cls(kind)  # every known kind returned above, so this one is rejected

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "none":
            return 0.0
        if self.kind == "constant":
            return self.constant
        if self.kind == "uniform":
            return self.upper * rng.random()
        u = rng.random()
        if self.kind == "exponential":
            return -math.log(1.0 - u) / self.rate
        # classic Pareto via inverse CDF; lomax variant shifts support to 0
        tau = self.scale_xm * (1.0 - u) ** (-1.0 / self.shape_a)
        return tau - self.scale_xm if self.lomax else tau

    def describe(self) -> str:
        if self.kind == "none":
            return "None"
        if self.kind == "constant":
            return f"Constant({self.constant!r})"
        if self.kind == "uniform":
            return f"Uniform(0, {self.upper!r})"
        if self.kind == "exponential":
            return f"Exponential(rate={self.rate!r})"
        name = "Lomax" if self.lomax else "Pareto"
        return f"{name}(a={self.shape_a!r}, x_m={self.scale_xm!r})"


def reveal_round(s: int, tau: float) -> int:
    """Round at which a reward scheduled at s with delay tau becomes visible."""
    if tau < 0 or not math.isfinite(tau):
        raise ValueError(f"delay must be finite and >= 0, got {tau}")
    return math.ceil(s + tau)


@dataclass
class RevealQueue:
    """Buckets of pending records keyed by reveal round, drained in order."""

    buckets: dict = field(default_factory=dict)
    inserted: int = 0
    popped: int = 0
    last_popped_round: int = 0

    @property
    def pending_count(self) -> int:
        return self.inserted - self.popped

    def schedule(self, s: int, tau: float, record) -> None:
        if s < 1:
            raise ValueError(f"round must be >= 1, got {s}")
        self.buckets.setdefault(reveal_round(s, tau), []).append((s, record))
        self.inserted += 1

    def pop_revealed(self, t: int) -> list:
        if t <= self.last_popped_round:
            raise ProtocolViolationError(
                f"pop_revealed({t}) after round {self.last_popped_round}")
        self.last_popped_round = t
        items = self.buckets.pop(t, [])
        items.sort(key=lambda sr: sr[0])
        self.popped += len(items)
        return [record for _, record in items]
