"""Bandit policies: neural UCB / Thompson sampling and linear ridge baselines.

A policy is a single-threaded state machine driven once per round:
``select_action`` scores the K contexts, plays the best as round t and keeps
the played context as pending; ``ingest_revealed`` takes the records revealed
this round (possibly none), each naming a pending round and its reward, adds
the contexts played in those rounds to the design matrix and learns their
rewards. ``Bandit`` holds this protocol once; ``NeuralBandit`` and
``LinearBandit`` add only their scoring and learning. The same classes serve
the delayed and undelayed algorithms; delay lives entirely in which records
the caller passes to ``ingest_revealed``.
"""

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Literal

import numpy as np

from .design import DesignMatrix
from .errors import DesignUpdateError, NonFiniteScoreError, ProtocolViolationError
from .network import NetworkShape, gradient_many, init_symmetric, train_nn

if TYPE_CHECKING:
    from .config import PolicyBlock, TrainBlock

Algorithm = Literal["delayed-neural-ucb", "delayed-neural-ts",
                    "neural-ucb", "neural-ts", "lin-ucb", "lin-ts"]
GammaMode = Literal["theoretical", "simple", "constant"]
RetrainTrigger = Literal["every-round", "on-reveal"]
StepsSchedule = Literal["fixed", "round"]  # round: J = t steps at round t
SqrtLambdaS = Literal["product", "joint"]  # product: sqrt(lam)*S; joint: sqrt(lam*S)


@dataclass(frozen=True)
class BanditRecord:
    """The reward of the arm played at ``round``, revealed to the policy."""

    round: int
    reward: float


def gamma_value(cfg: "PolicyBlock", train: "TrainBlock", shape: NetworkShape,
                revealed_count: int, logdet: float, steps: int | None = None) -> float:
    """Confidence-radius gamma as a function of |I_t| and log det(Z)/det(lam I).

    ``theoretical`` evaluates the full expression with width/depth correction
    terms; ``simple`` keeps only nu*sqrt(logdet - 2 log delta) + sqrt(lam)*S;
    ``constant`` returns a fixed value. A gamma that is not finite, such as a
    product of large constants or a negative power of a tiny lambda, raises
    NonFiniteScoreError.
    """
    if cfg.gamma_mode == "constant":
        return cfg.gamma_const
    try:
        gamma = _radius(cfg, train, shape, revealed_count, logdet, steps)
    except OverflowError:  # ** raises where * rounds to inf
        gamma = math.inf
    if not math.isfinite(gamma):
        raise NonFiniteScoreError(f"the {cfg.gamma_mode} confidence radius gamma is {gamma} "
                                  f"with {revealed_count} rewards revealed")
    return gamma


def _radius(cfg, train, shape, revealed_count, logdet, steps):
    """gamma_value in the simple and theoretical modes, as computed."""
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


@dataclass
class Diagnostics:
    scores: np.ndarray
    means: np.ndarray
    bonuses: np.ndarray
    gamma: float


_ROUND = attrgetter("round")


class Bandit:
    """The select/reveal protocol that both policies share.

    ``select_action`` plays the highest-scoring of the K contexts as round t
    and keeps its context as ``pending[t]``. ``ingest_revealed`` takes the
    records revealed this round; the context of each is the one it played.

    A batch that names a round not pending, or one round twice, or whose
    design vectors are not all finite, raises before any state changes.
    Otherwise its records enter the design matrix in round order and leave
    pending, then the policy learns their rewards. A pivot failure
    (DesignUpdateError) on a later record leaves the earlier records in the
    design and out of pending, and learns no reward of the batch.

    A subclass sets ``gamma`` and supplies ``_score`` (the scores, means and
    bonuses of the K contexts), ``_design_vectors`` (the design-matrix vector
    of each played context) and ``_learn`` (called with the records of the
    batch and their contexts once ``revealed_count`` counts them).
    """

    def __init__(self, cfg: "PolicyBlock", dim: int, design: DesignMatrix,
                 rng: np.random.Generator):
        self.cfg = cfg
        self.dim = dim
        self.design = design
        self.rng = rng
        self.exploration = "ts" if cfg.algorithm.endswith("-ts") else "ucb"
        self.pending: dict[int, np.ndarray] = {}
        self.revealed_count = 0
        self.t = 0
        self.max_scaled_grad_norm = None  # only the neural policy computes gradients

    def select_action(self, contexts: np.ndarray):
        """Score the K arm contexts and return (1-based action, diagnostics)."""
        contexts = np.asarray(contexts, dtype=np.float64)
        if contexts.ndim != 2 or contexts.shape[1] != self.dim:
            raise ValueError(f"contexts have shape {contexts.shape}, expected (K, {self.dim})")
        # a blown-up model overflows while scoring; the K scores are checked
        # below, so the overflow is not warned
        with np.errstate(over="ignore", invalid="ignore"):
            scores, means, bonuses = self._score(contexts)
        # a score is not finite where its mean or bonus is not; at small K this
        # check costs a fifth of np.isfinite(scores).all()
        if not all(map(math.isfinite, scores.tolist())):
            arm = int(np.isfinite(scores).argmin())
            raise NonFiniteScoreError(
                f"round {self.t + 1}, arm {arm + 1}: the score {float(scores[arm])} (mean "
                f"{float(means[arm])}, bonus {float(bonuses[arm])}) is not finite")
        # argmax takes the lowest index among equal computed scores; scores that
        # tie in exact arithmetic may differ by rounding, which then decides
        action = int(scores.argmax()) + 1
        self.t += 1
        self.pending[self.t] = contexts[action - 1].copy()
        return action, Diagnostics(scores, means, bonuses, self.gamma)

    def ingest_revealed(self, batch: list[BanditRecord]) -> None:
        """Absorb this round's revealed records (possibly none), in round order."""
        records = sorted(batch, key=_ROUND)
        previous = 0
        for record in records:
            if record.round not in self.pending or record.round == previous:
                raise ProtocolViolationError(f"round {record.round} revealed but not pending")
            previous = record.round
        contexts = [self.pending[record.round] for record in records]
        vectors = self._design_vectors(contexts)
        if len(records) > 1:  # one update checks itself before it changes anything
            for u in vectors:
                self.design.check_update(u)
        for record, u in zip(records, vectors):
            self.design.rank1_update(u)
            del self.pending[record.round]
        self.revealed_count += len(records)
        self._learn(records, contexts)


class NeuralBandit(Bandit):
    """Delayed NeuralUCB / NeuralTS over a from-scratch ReLU network, set by the
    config's policy and train blocks; UCB or TS follows the algorithm's name."""

    def __init__(self, cfg: "PolicyBlock", train: "TrainBlock", shape: NetworkShape,
                 rng: np.random.Generator):
        super().__init__(cfg, shape.input_dim,
                         DesignMatrix(shape.param_count, cfg.lam, cfg.design_mode), rng)
        self.train = train
        self.shape = shape
        self.theta0 = init_symmetric(shape, rng)
        self.theta = self.theta0.copy()
        self.max_scaled_grad_norm = 0.0
        # revealed contexts and rewards fill the first revealed_count rows;
        # capacity doubles when full, so appending costs O(1) amortized
        self._xs = np.empty((64, shape.input_dim))
        self._rs = np.empty(64)
        self.gamma = gamma_value(cfg, train, shape, 0, 0.0, self._steps_at(0))

    def _steps_at(self, t: int) -> int:
        if self.train.steps_schedule == "round":
            return t
        return self.train.steps

    def _score(self, contexts: np.ndarray):
        sqrt_m = math.sqrt(self.shape.width)
        grads, means = gradient_many(self.theta, self.shape, contexts)
        # np.linalg.norm(grads, axis=1) computes this for real input, plus a conj() copy
        gnorm = np.max(np.sqrt(np.add.reduce(grads * grads, axis=1))) / sqrt_m
        if not math.isfinite(gnorm):  # summary.json would print it
            raise NonFiniteScoreError(f"round {self.t + 1}: the gradient norm of an arm "
                                      f"is {float(gnorm)}, not finite")
        self.max_scaled_grad_norm = max(self.max_scaled_grad_norm, float(gnorm))
        grads /= sqrt_m
        quad = self.design.quad_form(grads)
        if self.exploration == "ucb":
            bonuses = self.gamma * np.sqrt(quad)
            return means + bonuses, means, bonuses
        sigma2 = self.cfg.lam * quad
        draws = self.rng.normal(means, self.cfg.nu * np.sqrt(sigma2))
        return draws, means, draws - means

    def _design_vectors(self, contexts: list[np.ndarray]):
        """Scaled gradient features at the current (pre-retrain) parameters."""
        if not contexts:
            return ()
        grads, _ = gradient_many(self.theta, self.shape, np.stack(contexts))
        grads /= math.sqrt(self.shape.width)
        return grads

    def _learn(self, records: list[BanditRecord], contexts: list[np.ndarray]) -> None:
        """Store the revealed rows, retrain and refresh gamma."""
        if records:
            k = len(records)
            n = self.revealed_count - k  # rows stored before this batch
            if n + k > len(self._rs):
                capacity = max(2 * len(self._rs), n + k)
                grown_x = np.empty((capacity, self.dim))
                grown_r = np.empty(capacity)
                grown_x[:n], grown_r[:n] = self._xs[:n], self._rs[:n]
                self._xs, self._rs = grown_x, grown_r
            self._xs[n:n + k] = contexts
            self._rs[n:n + k] = [record.reward for record in records]
        retrain = bool(records) if self.cfg.retrain_trigger == "on-reveal" \
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


class LinearBandit(Bandit):
    """LinUCB / LinTS ridge baseline on the raw contexts.

    A = lam*I + sum x x^T, b = sum r x, theta_hat = A^{-1} b; UCB bonus is
    alpha * sqrt(x^T A^{-1} x), TS draws one parameter vector per round from
    N(theta_hat, nu^2 A^{-1}).
    """

    def __init__(self, cfg: "PolicyBlock", dim: int, rng: np.random.Generator):
        super().__init__(cfg, dim, DesignMatrix(dim, cfg.lam, "full"), rng)
        self.b = np.zeros(dim)
        self.gamma = cfg.alpha

    def _score(self, contexts: np.ndarray):
        theta_hat = self.design.solve(self.b)
        means = contexts @ theta_hat
        if self.exploration == "ucb":
            bonuses = self.cfg.alpha * np.sqrt(self.design.quad_form(contexts))
            return means + bonuses, means, bonuses
        if self.cfg.nu == 0.0:
            draw = theta_hat
        else:
            try:
                chol = np.linalg.cholesky(self.design.inverse())
            except np.linalg.LinAlgError:  # Z^-1 inverted from an ill-conditioned Z
                raise DesignUpdateError(
                    f"lin-ts posterior covariance nu^2 Z^-1 is not positive definite "
                    f"at round {self.t + 1} (policy.lambda = {self.cfg.lam!r})") from None
            draw = theta_hat + self.cfg.nu * (chol @ self.rng.standard_normal(self.dim))
        scores = contexts @ draw
        return scores, means, scores - means

    def _design_vectors(self, contexts: list[np.ndarray]):
        return contexts

    def _learn(self, records: list[BanditRecord], contexts: list[np.ndarray]) -> None:
        """b += r x per record, in round order."""
        for record, x in zip(records, contexts):
            self.b += record.reward * x
