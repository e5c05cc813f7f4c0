"""Fully connected ReLU reward network: init, forward, gradients, training.

The network is f(x; theta) = sqrt(m) * W_L relu(W_{L-1} relu(... relu(W_1 x)))
with W_1 in R^{m x d}, hidden W_i in R^{m x m} and W_L in R^{1 x m}.

Weight layout used throughout: ``w1`` of shape (m, d), ``wh`` of shape
(L-2, m, m) holding the hidden square layers, and ``wl`` of shape (m,). Flat
parameter vectors concatenate ``vec(w1)``, ``vec(w2)``, ..., ``vec(w_{L-1})``
(row-major) followed by ``wl``. The ReLU subgradient at 0 is 0.

Per-row gradients (the n x p Jacobian) are built only where each row is a
feature vector: the arms being scored and the revealed records entering the
design matrix. Training needs only residual @ Jacobian, which ``vjp`` obtains
by backpropagating the residual without forming the Jacobian.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergedTrainingError


@dataclass(frozen=True)
class NetworkShape:
    """Depth L, width m and input dimension d of the reward network.

    Construction accepts any m, d >= 1 so that tiny hand-computed networks can
    be expressed; the symmetric initializer additionally requires m and d even.
    """

    depth: int
    width: int
    input_dim: int

    def __post_init__(self):
        if self.depth < 2:
            raise ConfigurationError(f"depth must be >= 2, got {self.depth}")
        if self.width < 1 or self.input_dim < 1:
            raise ConfigurationError("width and input_dim must be >= 1")

    @property
    def n_hidden(self) -> int:
        return self.depth - 2

    @property
    def param_count(self) -> int:
        m, d = self.width, self.input_dim
        return m * d + self.n_hidden * m * m + m


def unflatten(theta: np.ndarray, shape: NetworkShape):
    """Split a flat parameter vector into (w1, wh, wl) views."""
    m, d = shape.width, shape.input_dim
    if theta.shape != (shape.param_count,):
        raise ValueError(
            f"parameter vector has length {theta.shape}, expected ({shape.param_count},)")
    w1 = theta[:m * d].reshape(m, d)
    wh = theta[m * d:m * d + shape.n_hidden * m * m].reshape(shape.n_hidden, m, m)
    wl = theta[-m:]
    return w1, wh, wl


def flatten(w1: np.ndarray, wh: np.ndarray, wl: np.ndarray) -> np.ndarray:
    return np.concatenate([w1.ravel(), wh.ravel(), wl.ravel()])


def init_symmetric(shape: NetworkShape, rng: np.random.Generator) -> np.ndarray:
    """Block-symmetric Gaussian initialization with f(x; theta_0) = 0.

    Each hidden layer is block-diagonal with two copies of an (m/2)-sized
    Gaussian block (entries N(0, 4/m)); the output layer is (w, -w) with
    w ~ N(0, 2/m). For any context whose two halves are equal the duplicated
    hidden activations cancel exactly at the output.
    """
    m, d = shape.width, shape.input_dim
    if m % 2 or d % 2:
        raise ConfigurationError(
            f"symmetric init needs even width and input_dim, got m={m}, d={d}")
    half = m // 2
    hidden_std = 2.0 / np.sqrt(m)

    def block_diag(prev_half):
        blk = rng.normal(0.0, hidden_std, size=(half, prev_half))
        w = np.zeros((m, 2 * prev_half))
        w[:half, :prev_half] = blk
        w[half:, prev_half:] = blk
        return w

    w1 = block_diag(d // 2)
    wh = np.empty((shape.n_hidden, m, m))
    for layer in range(shape.n_hidden):
        wh[layer] = block_diag(half)
    w_out = rng.normal(0.0, np.sqrt(2.0 / m), size=half)
    wl = np.concatenate([w_out, -w_out])
    return flatten(w1, wh, wl)


def forward(theta: np.ndarray, shape: NetworkShape, x: np.ndarray) -> float:
    """Scalar network output for one context."""
    return float(forward_many(theta, shape, np.atleast_2d(x))[0])


def _check_contexts(xs: np.ndarray, shape: NetworkShape) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != shape.input_dim:
        raise ValueError(f"contexts have shape {xs.shape}, expected (n, {shape.input_dim})")
    return xs


def _activations(w1, wh, xs):
    """Layer inputs [xs, h_1, ..., h_{L-1}] for each row of xs; h_i > 0 is the ReLU mask."""
    acts = [xs, np.maximum(xs @ w1.T, 0.0)]
    for w in wh:
        acts.append(np.maximum(acts[-1] @ w.T, 0.0))
    return acts


def _outputs(wl, acts):
    return np.sqrt(wl.shape[0]) * (acts[-1] @ wl)


def forward_many(theta: np.ndarray, shape: NetworkShape, xs: np.ndarray) -> np.ndarray:
    w1, wh, wl = unflatten(theta, shape)
    return _outputs(wl, _activations(w1, wh, _check_contexts(xs, shape)))


def gradient(theta: np.ndarray, shape: NetworkShape, x: np.ndarray) -> np.ndarray:
    """Exact gradient of forward() w.r.t. all p parameters (flat vector)."""
    grads, _ = gradient_many(theta, shape, np.atleast_2d(x))
    return grads[0]


def gradient_many(theta: np.ndarray, shape: NetworkShape, xs: np.ndarray):
    """Per-row gradients (n, p) and forward values (n,) in one backward pass."""
    w1, wh, wl = unflatten(theta, shape)
    return grad_batch(w1, wh, wl, _check_contexts(xs, shape))


def grad_batch(w1, wh, wl, xs):
    """Per-row flattened parameter gradients; returns (n, p) with outputs (n,)."""
    n = xs.shape[0]
    m, d = w1.shape
    sqrt_m = np.sqrt(m)
    acts = _activations(w1, wh, xs)
    p = m * d + wh.shape[0] * m * m + m
    grads = np.empty((n, p), dtype=np.float64)
    grads[:, p - m:] = sqrt_m * acts[-1]
    delta = (sqrt_m * wl) * (acts[-1] > 0.0)
    offset = p - m
    for layer in range(wh.shape[0] - 1, -1, -1):
        offset -= m * m
        grads[:, offset:offset + m * m] = (
            delta[:, :, None] * acts[layer + 1][:, None, :]).reshape(n, m * m)
        delta = (delta @ wh[layer]) * (acts[layer + 1] > 0.0)
    grads[:, :m * d] = (delta[:, :, None] * xs[:, None, :]).reshape(n, m * d)
    return grads, _outputs(wl, acts)


def _backprop(wh, wl, acts, v):
    """v @ J for the (n, p) Jacobian J of the outputs, as one matmul per layer."""
    m = wl.shape[0]
    sqrt_m = np.sqrt(m)
    out = np.empty(acts[0].shape[1] * m + wh.shape[0] * m * m + m)
    out[-m:] = sqrt_m * (v @ acts[-1])
    delta = (sqrt_m * v[:, None] * wl) * (acts[-1] > 0.0)
    end = out.size - m
    for layer in range(wh.shape[0] - 1, -1, -1):
        out[end - m * m:end] = (delta.T @ acts[layer + 1]).ravel()
        end -= m * m
        delta = (delta @ wh[layer]) * (acts[layer + 1] > 0.0)
    out[:end] = (delta.T @ acts[0]).ravel()
    return out


def vjp(theta: np.ndarray, shape: NetworkShape, xs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v @ gradient_many(theta, shape, xs)[0] without forming the n x p Jacobian."""
    w1, wh, wl = unflatten(theta, shape)
    return _backprop(wh, wl, _activations(w1, wh, _check_contexts(xs, shape)),
                     np.asarray(v, dtype=np.float64))


@dataclass(frozen=True)
class TrainSpec:
    """Regularized gradient-descent settings for train_nn."""

    lam: float
    eta: float
    steps: int
    batch_size: int | None = None  # None = full batch

    def __post_init__(self):
        if self.lam <= 0:
            raise ConfigurationError(f"lambda must be > 0, got {self.lam}")
        if self.eta <= 0:
            raise ConfigurationError(f"eta must be > 0, got {self.eta}")
        if self.steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")


def loss_value(theta, shape, xs, rs, lam, anchor):
    """Sum of squared-error halves plus the m*lam/2 proximal regularizer."""
    resid = forward_many(theta, shape, xs) - rs
    diff = theta - anchor
    return 0.5 * float(resid @ resid) + 0.5 * shape.width * lam * float(diff @ diff)


def train_nn(theta_start: np.ndarray,
             shape: NetworkShape,
             xs: np.ndarray,
             rs: np.ndarray,
             spec: TrainSpec,
             rng: np.random.Generator | None = None,
             anchor: np.ndarray | None = None) -> np.ndarray:
    """Run J steps of gradient descent on the regularized squared loss.

    ``anchor`` is the regularization center (the run's theta_0); it defaults to
    ``theta_start`` but differs from it under warm starts. Mini-batch mode
    samples uniformly with replacement and applies the full regularizer
    gradient every step, so the fixed point matches full-batch training.
    """
    xs = _check_contexts(xs, shape)
    rs = np.asarray(rs, dtype=np.float64)
    if xs.size == 0:
        return theta_start.copy()
    if anchor is None:
        anchor = theta_start
    theta = theta_start.astype(np.float64, copy=True)
    w1, wh, wl = unflatten(theta, shape)  # views: they follow the in-place steps
    m_lam = shape.width * spec.lam
    n = xs.shape[0]
    if rng is None and spec.batch_size is not None and spec.batch_size < n:
        raise ConfigurationError(
            f"mini-batches of {spec.batch_size} from {n} rows need an rng")
    # a non-finite loss raises DivergedTrainingError, so overflow on the way there is not warned
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, spec.steps + 1):
            if spec.batch_size is None or spec.batch_size >= n:
                bx, br = xs, rs
            else:
                idx = rng.integers(0, n, size=spec.batch_size)
                bx, br = xs[idx], rs[idx]
            acts = _activations(w1, wh, bx)
            resid = _outputs(wl, acts) - br
            step_loss = 0.5 * float(resid @ resid)
            if not np.isfinite(step_loss):
                raise DivergedTrainingError(j)
            grad = _backprop(wh, wl, acts, resid) + m_lam * (theta - anchor)
            theta -= spec.eta * grad
    return theta
