"""Bandit environments: context provisioning, rewards, delays, regret.

Three independent seeded streams (context, noise, delay) let delay ablations
hold the context and noise sequences fixed.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset, SyntheticH, assumption3_embed, disjoint_transform, synthetic_h
from .delay import DelayDistribution
from .errors import ConfigurationError


class DatasetSource:
    """Cycles a labeled dataset in a seeded shuffle order; reward 1 for the
    correct class and 0 for the others.

    Label c is the class of arm c + 1, so every label must lie in [0, arms).
    """

    def __init__(self, dataset: Dataset, arms: int,
                 rng: np.random.Generator, embed: bool = False):
        outside = dataset.labels[(dataset.labels < 0) | (dataset.labels >= arms)]
        if outside.size:
            raise ConfigurationError(
                f"dataset label {outside[0]} has no arm: experiment.arms is {arms}, "
                f"so labels must lie in [0, {arms - 1}]")
        self.dataset = dataset
        self.labels = dataset.labels
        self.arms = arms
        self.embed = embed
        self.order = rng.permutation(len(self.labels))

    @property
    def context_dim(self) -> int:
        d = self.dataset.codes.shape[1] * self.arms
        return 2 * d if self.embed else d

    def round_data(self, t: int):
        i = self.order[(t - 1) % len(self.labels)]
        features = self.dataset.features(i)
        if self.embed:  # row a: (x_a, x_a) / (sqrt(2) ||x||), x_a the disjoint row a
            features = assumption3_embed(features).reshape(2, -1)
        contexts = disjoint_transform(features, self.arms)
        h = np.zeros(self.arms)
        h[self.labels[i]] = 1.0
        return contexts, h


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
        regret = float(h.max() - h[action - 1])
        return StepOutcome(float(reward), float(tau), regret)
