"""Bandit policies: neural UCB / Thompson sampling and linear ridge baselines.

A policy is a single-threaded state machine driven once per round:
``select_action`` scores the K contexts and commits the choice as pending,
``ingest_revealed`` feeds back whichever rewards the environment released
(possibly none), updates the design matrix, retrains and refreshes gamma.
The same classes serve the delayed and undelayed algorithms; delay lives
entirely in which records the caller passes to ``ingest_revealed``.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .design import DesignMatrix
from .errors import ConfigurationError, ProtocolViolationError
from .network import NetworkShape, TrainSpec, forward_many, gradient_many, init_symmetric, train_nn


@dataclass(frozen=True)
class BanditRecord:
    """One revealed interaction: the chosen arm's context and reward at round s."""

    round: int
    context: np.ndarray
    action: int  # 1-based arm index
    reward: float

    def __post_init__(self):
        if self.round < 1:
            raise ValueError(f"round must be >= 1, got {self.round}")


@dataclass(frozen=True)
class PolicyConfig:
    shape: NetworkShape
    train: TrainSpec
    lam: float = 1.0
    nu: float = 1.0
    delta: float = 0.05
    norm_s: float = 1e-4
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0
    gamma_mode: str = "simple"        # theoretical | simple | constant
    gamma_const: float = 1.0
    exploration: str = "ucb"          # ucb | ts
    design_mode: str = "full"         # full | diag
    retrain_trigger: str = "every-round"  # every-round | on-reveal
    steps_schedule: str = "fixed"     # fixed | round (J = t at round t)
    warm_start: bool = False
    sqrt_lambda_s: str = "product"    # product: sqrt(lam)*S; joint: sqrt(lam*S)

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must lie in (0,1), got {self.delta}")
        if self.nu < 0:
            raise ConfigurationError(f"nu must be >= 0, got {self.nu}")
        if self.gamma_mode not in ("theoretical", "simple", "constant"):
            raise ConfigurationError(f"unknown gamma_mode {self.gamma_mode!r}")
        if self.exploration not in ("ucb", "ts"):
            raise ConfigurationError(f"unknown exploration {self.exploration!r}")
        if self.retrain_trigger not in ("every-round", "on-reveal"):
            raise ConfigurationError(f"unknown retrain_trigger {self.retrain_trigger!r}")
        if self.steps_schedule not in ("fixed", "round"):
            raise ConfigurationError(f"unknown steps_schedule {self.steps_schedule!r}")

    def sqrt_lam_s(self) -> float:
        if self.sqrt_lambda_s == "joint":
            return math.sqrt(self.lam * self.norm_s)
        return math.sqrt(self.lam) * self.norm_s


def gamma_value(cfg: PolicyConfig, revealed_count: int, logdet: float,
                steps: int | None = None) -> float:
    """Confidence-radius gamma as a function of |I_t| and log det(Z)/det(lam I).

    ``theoretical`` evaluates the full expression with width/depth correction
    terms; ``simple`` keeps only nu*sqrt(logdet - 2 log delta) + sqrt(lam)*S;
    ``constant`` returns a fixed value.
    """
    if cfg.gamma_mode == "constant":
        return cfg.gamma_const
    if cfg.gamma_mode == "simple":
        return cfg.nu * math.sqrt(logdet - 2.0 * math.log(cfg.delta)) + cfg.sqrt_lam_s()
    n = float(revealed_count)
    m = float(cfg.shape.width)
    L = float(cfg.shape.depth)
    lam, eta = cfg.lam, cfg.train.eta
    J = float(cfg.train.steps if steps is None else steps)
    w = m ** (-1.0 / 6.0) * math.sqrt(math.log(m))  # shared width-correction factor
    scale = math.sqrt(1.0 + cfg.c1 * w * L ** 4 * n ** (7.0 / 6.0) * lam ** (-7.0 / 6.0))
    inner = logdet + cfg.c2 * w * L ** 4 * n ** (5.0 / 3.0) * lam ** (-1.0 / 6.0) \
        - 2.0 * math.log(cfg.delta)
    confidence = scale * (cfg.nu * math.sqrt(inner) + cfg.sqrt_lam_s())
    base = max(0.0, 1.0 - eta * m * lam)
    optimization = (lam + cfg.c3 * n * L) * (
        base ** (J / 2.0) * math.sqrt(n / lam)
        + w * L ** 3.5 * n ** (5.0 / 3.0) * lam ** (-5.0 / 3.0) * (1.0 + math.sqrt(n / lam)))
    return confidence + optimization


@dataclass
class Diagnostics:
    scores: np.ndarray
    means: np.ndarray
    bonuses: np.ndarray
    gamma: float


class NeuralBandit:
    """Delayed NeuralUCB / NeuralTS over a from-scratch ReLU network."""

    def __init__(self, cfg: PolicyConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        self.theta0 = init_symmetric(cfg.shape, rng)
        self.theta = self.theta0.copy()
        self.design = DesignMatrix(cfg.shape.param_count, cfg.lam, cfg.design_mode)
        # revealed contexts and rewards fill the first revealed_count rows;
        # capacity doubles when full, so appending costs O(1) amortized
        self._xs = np.empty((64, cfg.shape.input_dim))
        self._rs = np.empty(64)
        self.revealed_count = 0
        self.pending: dict[int, tuple[np.ndarray, int]] = {}
        self.t = 0
        self.gamma = gamma_value(cfg, 0, 0.0, self._steps_at(0))
        self.max_scaled_grad_norm = 0.0

    def _steps_at(self, t: int) -> int:
        if self.cfg.steps_schedule == "round":
            return t
        return self.cfg.train.steps

    def _store(self, xs: np.ndarray, rs: list[float]) -> None:
        n, k = self.revealed_count, len(rs)
        if n + k > len(self._rs):
            capacity = max(2 * len(self._rs), n + k)
            grown_x = np.empty((capacity, self._xs.shape[1]))
            grown_r = np.empty(capacity)
            grown_x[:n], grown_r[:n] = self._xs[:n], self._rs[:n]
            self._xs, self._rs = grown_x, grown_r
        self._xs[n:n + k], self._rs[n:n + k] = xs, rs
        self.revealed_count = n + k

    def select_action(self, contexts: np.ndarray):
        """Score the K arm contexts and return (1-based action, diagnostics)."""
        contexts = np.asarray(contexts, dtype=np.float64)
        if contexts.ndim != 2 or contexts.shape[1] != self.cfg.shape.input_dim:
            raise ValueError(
                f"contexts have shape {contexts.shape}, expected (K, {self.cfg.shape.input_dim})")
        sqrt_m = math.sqrt(self.cfg.shape.width)
        grads, means = gradient_many(self.theta, self.cfg.shape, contexts)
        quad = self.design.quad_form(grads / sqrt_m)
        gnorm = np.max(np.linalg.norm(grads, axis=1)) / sqrt_m
        self.max_scaled_grad_norm = max(self.max_scaled_grad_norm, float(gnorm))
        if self.cfg.exploration == "ucb":
            bonuses = self.gamma * np.sqrt(quad)
            scores = means + bonuses
        else:
            sigma2 = self.cfg.lam * quad
            draws = np.array([
                self.rng.normal(means[a], self.cfg.nu * math.sqrt(sigma2[a]))
                for a in range(contexts.shape[0])])
            bonuses = draws - means
            scores = draws
        # argmax takes the lowest index among equal computed scores; scores that
        # tie in exact arithmetic may differ by rounding, which then decides
        action = int(np.argmax(scores)) + 1
        self.t += 1
        self.pending[self.t] = (contexts[action - 1].copy(), action)
        return action, Diagnostics(scores, means, bonuses, self.gamma)

    def ingest_revealed(self, batch: list[BanditRecord]) -> None:
        """Absorb this round's revealed rewards, retrain, refresh gamma."""
        records = sorted(batch, key=lambda r: r.round)
        previous = 0
        for record in records:
            if record.round not in self.pending or record.round == previous:
                raise ProtocolViolationError(
                    f"round {record.round} revealed but not pending")
            previous = record.round
        if records:
            xs = np.stack([record.context for record in records])
            # gradient features evaluated at the current (pre-retrain) parameters
            grads, _ = gradient_many(self.theta, self.cfg.shape, xs)
            grads /= math.sqrt(self.cfg.shape.width)
            for record, grad in zip(records, grads):
                self.design.rank1_update(grad)
                del self.pending[record.round]
            self._store(xs, [record.reward for record in records])
        retrain = bool(batch) if self.cfg.retrain_trigger == "on-reveal" \
            else self.revealed_count > 0
        steps = self._steps_at(self.t)
        if retrain and steps > 0:
            spec = self.cfg.train if self.cfg.steps_schedule == "fixed" \
                else replace(self.cfg.train, steps=steps)
            start = self.theta if self.cfg.warm_start else self.theta0
            self.theta = train_nn(start, self.cfg.shape,
                                  self._xs[:self.revealed_count],
                                  self._rs[:self.revealed_count],
                                  spec, self.rng, anchor=self.theta0)
        # constant gamma ignores log det, which costs O(p) in diag mode
        logdet = 0.0 if self.cfg.gamma_mode == "constant" else self.design.logdet_ratio()
        self.gamma = gamma_value(self.cfg, self.revealed_count, logdet, steps)


class LinearBandit:
    """LinUCB / LinTS ridge baseline sharing the neural policy interface.

    A = lam*I + sum x x^T, b = sum r x, theta_hat = A^{-1} b; UCB bonus is
    alpha * sqrt(x^T A^{-1} x), TS draws one parameter vector per round from
    N(theta_hat, nu^2 A^{-1}).
    """

    def __init__(self, dim: int, rng: np.random.Generator, lam: float = 1.0,
                 alpha: float = 1.0, nu: float = 1.0, exploration: str = "ucb"):
        if exploration not in ("ucb", "ts"):
            raise ConfigurationError(f"unknown exploration {exploration!r}")
        self.dim = dim
        self.rng = rng
        self.lam = lam
        self.alpha = alpha
        self.nu = nu
        self.exploration = exploration
        self.design = DesignMatrix(dim, lam, "full")
        self.b = np.zeros(dim)
        self.pending: dict[int, tuple[np.ndarray, int]] = {}
        self.revealed_count = 0
        self.t = 0
        self.gamma = alpha
        self.max_scaled_grad_norm = 0.0

    def _theta_hat(self) -> np.ndarray:
        return self.design.inverse() @ self.b

    def select_action(self, contexts: np.ndarray):
        contexts = np.asarray(contexts, dtype=np.float64)
        if contexts.ndim != 2 or contexts.shape[1] != self.dim:
            raise ValueError(
                f"contexts have shape {contexts.shape}, expected (K, {self.dim})")
        theta_hat = self._theta_hat()
        means = contexts @ theta_hat
        if self.exploration == "ucb":
            bonuses = self.alpha * np.sqrt(self.design.quad_form(contexts))
            scores = means + bonuses
        else:
            if self.nu == 0.0:
                draw = theta_hat
            else:
                chol = np.linalg.cholesky(self.design.inverse())
                draw = theta_hat + self.nu * (chol @ self.rng.standard_normal(self.dim))
            scores = contexts @ draw
            bonuses = scores - means
        # as in NeuralBandit, rounding decides between scores tied in exact arithmetic
        action = int(np.argmax(scores)) + 1
        self.t += 1
        self.pending[self.t] = (contexts[action - 1].copy(), action)
        return action, Diagnostics(scores, means, bonuses, self.alpha)

    def ingest_revealed(self, batch: list[BanditRecord]) -> None:
        for record in sorted(batch, key=lambda r: r.round):
            if record.round not in self.pending:
                raise ProtocolViolationError(
                    f"round {record.round} revealed but not pending")
            self.design.rank1_update(record.context)
            self.b += record.reward * record.context
            del self.pending[record.round]
            self.revealed_count += 1
