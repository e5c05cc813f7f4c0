"""Bandit environments: context provisioning, rewards, delays, regret.

Three independent seeded streams (context, noise, delay) let delay ablations
hold the context and noise sequences fixed.
"""

from dataclasses import dataclass

import numpy as np

from .data import LabeledSample, SyntheticH, assumption3_embed, disjoint_transform, synthetic_h
from .delay import DelayDistribution
from .errors import DegenerateContextError


class DatasetSource:
    """Cycles a labeled dataset in a seeded shuffle order; reward 1 for the
    correct class (configurable value for wrong classes)."""

    def __init__(self, samples: list[LabeledSample], arms: int,
                 rng: np.random.Generator, embed: bool = False,
                 wrong_class_reward: float = 0.0):
        self.samples = samples
        self.arms = arms
        self.embed = embed
        self.wrong_class_reward = wrong_class_reward
        self.order = rng.permutation(len(samples))

    @property
    def context_dim(self) -> int:
        d = self.samples[0].features.shape[0] * self.arms
        return 2 * d if self.embed else d

    def round_data(self, t: int):
        sample = self.samples[self.order[(t - 1) % len(self.samples)]]
        if self.embed:
            contexts = self._embedded_disjoint(sample.features)
        else:
            contexts = disjoint_transform(sample.features, self.arms)
        h = np.full(self.arms, self.wrong_class_reward)
        h[sample.label] = 1.0
        return contexts, h

    def _embedded_disjoint(self, features: np.ndarray) -> np.ndarray:
        """assumption3_embed of each row of disjoint_transform, built in one array.

        Every arm's disjoint context holds the same entries, so all share one
        norm; row a holds the scaled features in blocks a and K + a.
        """
        norm = np.linalg.norm(features)
        if norm == 0.0:
            raise DegenerateContextError("cannot embed a zero context")
        arms, d0 = self.arms, features.shape[0]
        scaled = features / (np.sqrt(2.0) * norm)
        blocks = np.zeros((arms, 2, arms, d0))
        for a in range(arms):
            blocks[a, :, a] = scaled
        return blocks.reshape(arms, 2 * arms * d0)


class SyntheticSource:
    """Draws K fresh unit-norm contexts per round; mean reward from a fixed
    clipped test function of the context."""

    def __init__(self, h_id: SyntheticH, dim: int, arms: int,
                 rng: np.random.Generator, embed: bool = False):
        self.arms = arms
        self.dim = dim
        self.embed = embed
        self.rng = rng
        direction = rng.standard_normal(dim if not embed else 2 * dim)
        self.h = synthetic_h(h_id, direction / np.linalg.norm(direction))

    @property
    def context_dim(self) -> int:
        return 2 * self.dim if self.embed else self.dim

    def round_data(self, t: int):
        raw = self.rng.standard_normal((self.arms, self.dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        if self.embed:
            contexts = np.stack([assumption3_embed(x) for x in raw])
        else:
            contexts = raw
        h = np.array([self.h(x) for x in contexts])
        return contexts, h


@dataclass
class StepOutcome:
    reward: float
    delay: float
    regret: float


class Environment:
    def __init__(self, source, delay: DelayDistribution, noise_sigma: float,
                 noise_rng: np.random.Generator, delay_rng: np.random.Generator):
        self.source = source
        self.delay = delay
        self.noise_sigma = noise_sigma
        self.noise_rng = noise_rng
        self.delay_rng = delay_rng
        self._round_h = None

    @property
    def context_dim(self) -> int:
        return self.source.context_dim

    def round_contexts(self, t: int) -> np.ndarray:
        contexts, h = self.source.round_data(t)
        self._round_h = h
        return contexts

    def step(self, t: int, action: int) -> StepOutcome:
        """Resolve the round: noisy reward, a delay draw, instantaneous regret.

        ``action`` is 1-based. The learner never sees h or the regret.
        """
        h = self._round_h
        if not 1 <= action <= len(h):
            raise ValueError(f"action {action} out of range [1, {len(h)}]")
        noise = self.noise_rng.normal(0.0, self.noise_sigma) if self.noise_sigma > 0 else 0.0
        reward = h[action - 1] + noise
        tau = self.delay.sample(self.delay_rng)
        regret = float(np.max(h) - h[action - 1])
        return StepOutcome(float(reward), float(tau), regret)
