"""Delay distributions, each set by its kind and expected delay E[tau], and the
round-indexed reveal queue.

A reward generated at round s with delay tau becomes visible at round
ceil(s + tau): the unique integer t with t-1 < s + tau <= t.
"""

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Literal, get_args

import numpy as np

from .errors import ConfigurationError, ProtocolViolationError

DelayKind = Literal["none", "constant", "uniform", "exponential", "pareto"]


@dataclass(frozen=True)
class DelayDistribution:
    """A delay distribution: its kind and E[tau] = expected_delay.

    Each kind derives its parameters from E[tau]: constant(E[tau]),
    uniform(0, 2 E[tau]), exponential(rate 1/E[tau]) and the classic
    pareto(a, x_m = 1) with shape a = (1 + E[tau])/E[tau], whose mean
    a/(a-1) is 1 + E[tau]. Kind "none" and E[tau] = 0 are one distribution:
    building either gives kind "none" with expected_delay 0.
    """

    kind: DelayKind
    expected_delay: float = 0.0

    def __post_init__(self):
        if self.kind not in get_args(DelayKind):
            raise ConfigurationError(f"unknown delay distribution {self.kind!r}")
        if not 0 <= self.expected_delay < math.inf:
            raise ConfigurationError("expected delay must be finite and >= 0")
        if self.kind == "none" or self.expected_delay == 0:
            object.__setattr__(self, "kind", "none")
            object.__setattr__(self, "expected_delay", 0.0)

    def sample(self, rng: np.random.Generator) -> float:
        # each parameter is formed as describe() prints it (2 E, 1/E, (1+E)/E)
        # before it is used, so a seeded draw does not move by rounding
        if self.kind == "none":
            return 0.0
        mean = self.expected_delay
        if self.kind == "constant":
            return mean
        if self.kind == "uniform":
            return 2.0 * mean * rng.random()
        u = rng.random()
        if self.kind == "exponential":
            return -math.log(1.0 - u) / (1.0 / mean)
        # classic Pareto with x_m = 1 via inverse CDF
        return (1.0 - u) ** (-1.0 / ((1.0 + mean) / mean))

    def tail_constants(self) -> tuple[float, float] | None:
        """The (alpha, b) with which tau - E[tau] is sub-exponential,
        E[exp(s (tau - E[tau]))] <= exp(alpha^2 s^2 / 2) for |s| < 1/b, as
        ntk.d_plus takes them; None where no such pair exists.

        A constant delay has no spread: (0, 0). Uniform(0, 2 E[tau]) is
        sub-Gaussian with alpha = half its range (Hoeffding's lemma), so b = 0.
        An exponential of rate 1/E[tau] is (2 E[tau], 2 E[tau]) (Wainwright,
        2019, section 2.1.3). A Pareto's moment-generating function is infinite
        for every s > 0: None.
        """
        mean = self.expected_delay
        if self.kind == "uniform":
            return mean, 0.0
        if self.kind == "exponential":
            return 2.0 * mean, 2.0 * mean
        return None if self.kind == "pareto" else (0.0, 0.0)

    def describe(self) -> str:
        if self.kind == "none":
            return "None"
        mean = self.expected_delay
        if self.kind == "constant":
            return f"Constant({mean!r})"
        if self.kind == "uniform":
            return f"Uniform(0, {2.0 * mean!r})"
        if self.kind == "exponential":
            return f"Exponential(rate={1.0 / mean!r})"
        return f"Pareto(a={(1.0 + mean) / mean!r}, x_m=1.0)"


def reveal_round(s: int, tau: float) -> int:
    """Round at which a reward scheduled at s with delay tau becomes visible."""
    if tau < 0 or not math.isfinite(tau):
        raise ValueError(f"delay must be finite and >= 0, got {tau}")
    return math.ceil(s + tau)


@dataclass
class RevealQueue:
    """Buckets of pending records keyed by reveal round, drained in order.

    ``pop_revealed(t)`` returns every record due in a round <= t, ordered by the
    round it was scheduled in, so a caller may skip rounds. A record due in a
    round already popped could never be returned, so ``schedule`` refuses it.
    """

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
        t = reveal_round(s, tau)
        if t <= self.last_popped_round:
            raise ProtocolViolationError(
                f"record of round {s} is due in round {t}, "
                f"but round {self.last_popped_round} has been popped")
        self.buckets.setdefault(t, []).append((s, record))
        self.inserted += 1

    def pop_revealed(self, t: int) -> list:
        last = self.last_popped_round
        if t <= last:
            raise ProtocolViolationError(f"pop_revealed({t}) after round {last}")
        self.last_popped_round = t
        items = self.buckets.pop(t, [])
        if t - last > 1:  # the buckets of the rounds skipped since the last pop
            for r in [r for r in self.buckets if r < t]:
                items += self.buckets.pop(r)
        if len(items) > 1:
            items.sort(key=itemgetter(0))  # records may be scheduled in any order
        self.popped += len(items)
        return [record for _, record in items]
