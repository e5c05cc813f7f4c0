"""Bandit policies: neural UCB / Thompson sampling and linear ridge baselines.

A policy is a single-threaded state machine driven once per round:
``select_action`` scores the K contexts and commits the choice as pending,
``ingest_revealed`` feeds back whichever rewards the environment released
(possibly none), updates the design matrix, retrains and refreshes gamma.
The same classes serve the delayed and undelayed algorithms; delay lives
entirely in which records the caller passes to ``ingest_revealed``.
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, get_args

import numpy as np

from .design import DesignMatrix
from .errors import ConfigurationError, ProtocolViolationError
from .network import NetworkShape, gradient_many, init_symmetric, train_nn

if TYPE_CHECKING:
    from .config import PolicyBlock, TrainBlock

Algorithm = Literal["delayed-neural-ucb", "delayed-neural-ts",
                    "neural-ucb", "neural-ts", "lin-ucb", "lin-ts"]
Exploration = Literal["ucb", "ts"]
GammaMode = Literal["theoretical", "simple", "constant"]
RetrainTrigger = Literal["every-round", "on-reveal"]
StepsSchedule = Literal["fixed", "round"]  # round: J = t steps at round t
SqrtLambdaS = Literal["product", "joint"]  # product: sqrt(lam)*S; joint: sqrt(lam*S)


def exploration_of(algorithm: Algorithm) -> Exploration:
    return "ts" if algorithm.endswith("-ts") else "ucb"


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


def gamma_value(cfg: "PolicyBlock", train: "TrainBlock", shape: NetworkShape,
                revealed_count: int, logdet: float, steps: int | None = None) -> float:
    """Confidence-radius gamma as a function of |I_t| and log det(Z)/det(lam I).

    ``theoretical`` evaluates the full expression with width/depth correction
    terms; ``simple`` keeps only nu*sqrt(logdet - 2 log delta) + sqrt(lam)*S;
    ``constant`` returns a fixed value.
    """
    if cfg.gamma_mode == "constant":
        return cfg.gamma_const
    if cfg.sqrt_lambda_s == "joint":
        sqrt_lam_s = math.sqrt(cfg.lam * cfg.norm_s)
    else:
        sqrt_lam_s = math.sqrt(cfg.lam) * cfg.norm_s
    if cfg.gamma_mode == "simple":
        return cfg.nu * math.sqrt(logdet - 2.0 * math.log(cfg.delta)) + sqrt_lam_s
    n = float(revealed_count)
    m = float(shape.width)
    L = float(shape.depth)
    lam, eta = cfg.lam, train.eta
    J = float(train.steps if steps is None else steps)
    w = m ** (-1.0 / 6.0) * math.sqrt(math.log(m))  # shared width-correction factor
    scale = math.sqrt(1.0 + cfg.c1 * w * L ** 4 * n ** (7.0 / 6.0) * lam ** (-7.0 / 6.0))
    inner = logdet + cfg.c2 * w * L ** 4 * n ** (5.0 / 3.0) * lam ** (-1.0 / 6.0) \
        - 2.0 * math.log(cfg.delta)
    confidence = scale * (cfg.nu * math.sqrt(inner) + sqrt_lam_s)
    base = max(0.0, 1.0 - eta * m * lam)
    optimization = (lam + cfg.c3 * n * L) * (
        base ** (J / 2.0) * math.sqrt(n / lam)
        + w * L ** 3.5 * n ** (5.0 / 3.0) * lam ** (-5.0 / 3.0) * (1.0 + math.sqrt(n / lam)))
    return confidence + optimization


def _checked_batch(batch: list[BanditRecord], pending: dict) -> list[BanditRecord]:
    """The batch in round order, once every record is known to be pending.

    Raises before any state changes if a round is not pending or is revealed
    twice in the batch.
    """
    records = sorted(batch, key=lambda r: r.round)
    previous = 0
    for record in records:
        if record.round not in pending or record.round == previous:
            raise ProtocolViolationError(
                f"round {record.round} revealed but not pending")
        previous = record.round
    return records


@dataclass
class Diagnostics:
    scores: np.ndarray
    means: np.ndarray
    bonuses: np.ndarray
    gamma: float


class NeuralBandit:
    """Delayed NeuralUCB / NeuralTS over a from-scratch ReLU network, set by the
    config's policy and train blocks; UCB or TS follows the algorithm's name."""

    def __init__(self, cfg: "PolicyBlock", train: "TrainBlock", shape: NetworkShape,
                 rng: np.random.Generator):
        self.cfg = cfg
        self.train = train
        self.shape = shape
        self.exploration = exploration_of(cfg.algorithm)
        self.rng = rng
        self.theta0 = init_symmetric(shape, rng)
        self.theta = self.theta0.copy()
        self.design = DesignMatrix(shape.param_count, cfg.lam, cfg.design_mode)
        # revealed contexts and rewards fill the first revealed_count rows;
        # capacity doubles when full, so appending costs O(1) amortized
        self._xs = np.empty((64, shape.input_dim))
        self._rs = np.empty(64)
        self.revealed_count = 0
        self.pending: dict[int, tuple[np.ndarray, int]] = {}
        self.t = 0
        self.gamma = gamma_value(cfg, train, shape, 0, 0.0, self._steps_at(0))
        self.max_scaled_grad_norm = 0.0

    def _steps_at(self, t: int) -> int:
        if self.train.steps_schedule == "round":
            return t
        return self.train.steps

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
        if contexts.ndim != 2 or contexts.shape[1] != self.shape.input_dim:
            raise ValueError(
                f"contexts have shape {contexts.shape}, expected (K, {self.shape.input_dim})")
        sqrt_m = math.sqrt(self.shape.width)
        grads, means = gradient_many(self.theta, self.shape, contexts)
        quad = self.design.quad_form(grads / sqrt_m)
        gnorm = np.max(np.linalg.norm(grads, axis=1)) / sqrt_m
        self.max_scaled_grad_norm = max(self.max_scaled_grad_norm, float(gnorm))
        if self.exploration == "ucb":
            bonuses = self.gamma * np.sqrt(quad)
            scores = means + bonuses
        else:
            sigma2 = self.cfg.lam * quad
            draws = self.rng.normal(means, self.cfg.nu * np.sqrt(sigma2))
            bonuses = draws - means
            scores = draws
        # argmax takes the lowest index among equal computed scores; scores that
        # tie in exact arithmetic may differ by rounding, which then decides
        action = int(np.argmax(scores)) + 1
        self.t += 1
        self.pending[self.t] = (contexts[action - 1].copy(), action)
        return action, Diagnostics(scores, means, bonuses, self.gamma)

    def ingest_revealed(self, batch: list[BanditRecord]) -> None:
        """Absorb this round's revealed rewards, retrain, refresh gamma.

        A batch with a round that is not pending, or whose gradient features
        are not all finite, raises before any state changes. A pivot failure
        (DesignUpdateError) on a later record still leaves the earlier records
        in the design and out of pending, while no record of the batch reaches
        the training data.
        """
        records = _checked_batch(batch, self.pending)
        if records:
            xs = np.stack([record.context for record in records])
            # gradient features evaluated at the current (pre-retrain) parameters
            grads, _ = gradient_many(self.theta, self.shape, xs)
            grads /= math.sqrt(self.shape.width)
            if len(grads) > 1:  # one update checks itself before it changes anything
                for grad in grads:
                    self.design.check_update(grad)
            for record, grad in zip(records, grads):
                self.design.rank1_update(grad)
                del self.pending[record.round]
            self._store(xs, [record.reward for record in records])
        retrain = bool(batch) if self.cfg.retrain_trigger == "on-reveal" \
            else self.revealed_count > 0
        steps = self._steps_at(self.t)
        if retrain and steps > 0:
            start = self.theta if self.cfg.warm_start else self.theta0
            self.theta = train_nn(start, self.shape,
                                  self._xs[:self.revealed_count],
                                  self._rs[:self.revealed_count],
                                  self.cfg.lam, self.train.eta, steps, self.train.batch_size,
                                  self.rng, anchor=self.theta0)
        # constant gamma ignores log det, which costs O(p) in diag mode
        logdet = 0.0 if self.cfg.gamma_mode == "constant" else self.design.logdet_ratio()
        self.gamma = gamma_value(self.cfg, self.train, self.shape, self.revealed_count,
                                 logdet, steps)


class LinearBandit:
    """LinUCB / LinTS ridge baseline sharing the neural policy interface.

    A = lam*I + sum x x^T, b = sum r x, theta_hat = A^{-1} b; UCB bonus is
    alpha * sqrt(x^T A^{-1} x), TS draws one parameter vector per round from
    N(theta_hat, nu^2 A^{-1}).
    """

    def __init__(self, dim: int, rng: np.random.Generator, lam: float = 1.0,
                 alpha: float = 1.0, nu: float = 1.0, exploration: Exploration = "ucb"):
        if exploration not in get_args(Exploration):
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

    def select_action(self, contexts: np.ndarray):
        contexts = np.asarray(contexts, dtype=np.float64)
        if contexts.ndim != 2 or contexts.shape[1] != self.dim:
            raise ValueError(
                f"contexts have shape {contexts.shape}, expected (K, {self.dim})")
        theta_hat = self.design.inverse() @ self.b
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
        action = int(scores.argmax()) + 1
        self.t += 1
        self.pending[self.t] = (contexts[action - 1].copy(), action)
        return action, Diagnostics(scores, means, bonuses, self.alpha)

    def ingest_revealed(self, batch: list[BanditRecord]) -> None:
        """Add each revealed record to A and b, in round order.

        A batch with a round that is not pending, or with a context of the
        wrong shape, not finite or with an overflowing squared norm, raises
        before any state changes. A pivot failure (DesignUpdateError) on a
        later record still leaves the earlier records applied.
        """
        records = _checked_batch(batch, self.pending)
        if len(records) > 1:  # one update checks itself before it changes anything
            for record in records:
                self.design.check_update(record.context)
        for record in records:
            self.design.rank1_update(record.context)
            self.b += record.reward * record.context
            del self.pending[record.round]
            self.revealed_count += 1
