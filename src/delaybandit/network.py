"""Fully connected ReLU reward network: init, forward, gradients, training.

The network is f(x; theta) = sqrt(m) * W_L relu(W_{L-1} relu(... relu(W_1 x)))
with W_1 in R^{m x d}, hidden W_i in R^{m x m} and W_L in R^{1 x m}.

Weight layout used throughout: ``w1`` of shape (m, d), ``wh`` of shape
(L-2, m, m) holding the hidden square layers, and ``wl`` of shape (m,). Flat
parameter vectors concatenate ``vec(w1)``, ``vec(w2)``, ..., ``vec(w_{L-1})``
(row-major) followed by ``wl``. The ReLU subgradient at 0 is 0.

Per-row gradients (the n x p Jacobian) are built only where each row is a
feature vector: the arms being scored and the revealed records entering the
design matrix. A training step needs only residual @ Jacobian, which it gets
by backpropagating the residual through the layers. ``train_nn`` runs its J
steps as one loop: it draws all J mini-batch index vectors at once and writes
activations, residuals, deltas and the gradient into buffers allocated once
per call, so a step allocates nothing. ``vjp`` runs the same backward pass.
"""

import math
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


class _Passes:
    """Forward and backward passes over batches of ``rows`` contexts.

    Every intermediate goes into a buffer allocated here, so repeated passes
    allocate nothing. ``acts`` holds the hidden activations h_1, ..., h_{L-1}
    of the last ``forward``; h_i > 0 is the ReLU mask. The input layer is
    multiplied as x @ W_1^T on its (m, d) array: OpenBLAS's small-matrix
    kernels round the product with a contiguous copy of W_1^T differently,
    which would change the results of runs.
    """

    def __init__(self, shape: NetworkShape, rows: int):
        m = shape.width
        self.sqrt_m = np.sqrt(m)
        self.acts = np.empty((shape.depth - 1, rows, m))
        self.mask = np.empty((rows, m), dtype=bool)
        self.delta = np.empty((rows, m))
        self.spare = np.empty((rows, m))
        self.scaled = np.empty(rows)

    def forward(self, w1, wh, wl, xs, out):
        """Write the network outputs for the rows of xs into out and return it."""
        acts = self.acts
        np.matmul(xs, w1.T, out=acts[0])
        np.maximum(acts[0], 0.0, out=acts[0])
        for layer, w in enumerate(wh):
            np.matmul(acts[layer], w.T, out=acts[layer + 1])
            np.maximum(acts[layer + 1], 0.0, out=acts[layer + 1])
        np.matmul(acts[-1], wl, out=out)
        out *= self.sqrt_m
        return out

    def backward(self, wh, wl, xs, v, grad_views):
        """Write v @ J, J the (n, p) Jacobian of the last forward's outputs, into
        the (w1, wh, wl) views of a flat gradient."""
        g1, gh, gl = grad_views
        acts, mask, delta, spare = self.acts, self.mask, self.delta, self.spare
        np.matmul(v, acts[-1], out=gl)
        gl *= self.sqrt_m
        # delta = (mask * w_L) * (sqrt(m) * v); the product with the 0/1 mask is exact
        np.multiply(v, self.sqrt_m, out=self.scaled)
        np.greater(acts[-1], 0.0, out=mask)
        np.multiply(mask, wl, out=delta)
        delta *= self.scaled[:, None]
        for layer in range(wh.shape[0] - 1, -1, -1):
            np.matmul(delta.T, acts[layer], out=gh[layer])
            np.matmul(delta, wh[layer], out=spare)
            np.greater(acts[layer], 0.0, out=mask)
            np.multiply(spare, mask, out=delta)
        np.matmul(delta.T, xs, out=g1)


def forward_many(theta: np.ndarray, shape: NetworkShape, xs: np.ndarray) -> np.ndarray:
    w1, wh, wl = unflatten(theta, shape)
    xs = _check_contexts(xs, shape)
    return _Passes(shape, xs.shape[0]).forward(w1, wh, wl, xs, np.empty(xs.shape[0]))


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
    passes = _Passes(NetworkShape(wh.shape[0] + 2, m, d), n)
    outputs = passes.forward(w1, wh, wl, xs, np.empty(n))
    acts = passes.acts
    p = m * d + wh.shape[0] * m * m + m
    grads = np.empty((n, p), dtype=np.float64)
    grads[:, p - m:] = sqrt_m * acts[-1]
    delta = (sqrt_m * wl) * (acts[-1] > 0.0)
    offset = p - m
    for layer in range(wh.shape[0] - 1, -1, -1):
        offset -= m * m
        grads[:, offset:offset + m * m] = (
            delta[:, :, None] * acts[layer][:, None, :]).reshape(n, m * m)
        delta = (delta @ wh[layer]) * (acts[layer] > 0.0)
    grads[:, :m * d] = (delta[:, :, None] * xs[:, None, :]).reshape(n, m * d)
    return grads, outputs


def vjp(theta: np.ndarray, shape: NetworkShape, xs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v @ gradient_many(theta, shape, xs)[0] without forming the n x p Jacobian,
    by the backward pass that train_nn runs at every step."""
    w1, wh, wl = unflatten(theta, shape)
    xs = _check_contexts(xs, shape)
    passes = _Passes(shape, xs.shape[0])
    passes.forward(w1, wh, wl, xs, np.empty(xs.shape[0]))
    grad = np.empty(shape.param_count)
    passes.backward(wh, wl, xs, np.asarray(v, dtype=np.float64), unflatten(grad, shape))
    return grad


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
    gradient every step, so the fixed point matches full-batch training. It
    draws the J index vectors from ``rng`` before the first step, so a run
    stopped by DivergedTrainingError has drawn them all.
    """
    xs = _check_contexts(xs, shape)
    rs = np.asarray(rs, dtype=np.float64)
    if xs.size == 0:
        return theta_start.copy()
    n = xs.shape[0]
    full_batch = spec.batch_size is None or spec.batch_size >= n
    if rng is None and not full_batch:
        raise ConfigurationError(
            f"mini-batches of {spec.batch_size} from {n} rows need an rng")
    if anchor is None:
        anchor = theta_start
    theta = theta_start.astype(np.float64, copy=True)
    if full_batch:
        rows, bx, br = n, xs, rs
    else:
        rows = spec.batch_size
        # one draw of all J index vectors yields the stream of J draws of one each
        batches = rng.integers(0, n, size=(spec.steps, rows))
        bx, br = np.empty((rows, shape.input_dim)), np.empty(rows)
    w1, wh, wl = unflatten(theta, shape)  # views: they follow the in-place steps
    grad = np.empty_like(theta)
    grad_views = unflatten(grad, shape)
    reg = np.empty_like(theta)
    resid = np.empty(rows)
    passes = _Passes(shape, rows)
    m_lam = shape.width * spec.lam
    # a non-finite loss raises DivergedTrainingError, so overflow on the way there is not warned
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, spec.steps + 1):
            if not full_batch:
                # the indices lie in [0, n), so "clip" changes none; unlike the
                # default "raise" it lets take write into out without a buffer
                xs.take(batches[j - 1], axis=0, out=bx, mode="clip")
                rs.take(batches[j - 1], out=br, mode="clip")
            passes.forward(w1, wh, wl, bx, resid)
            resid -= br
            step_loss = 0.5 * float(resid @ resid)
            if not math.isfinite(step_loss):
                raise DivergedTrainingError(j)
            passes.backward(wh, wl, bx, resid, grad_views)
            # theta -= eta * (resid @ J + m * lam * (theta - anchor)), one pass at a time
            np.subtract(theta, anchor, out=reg)
            reg *= m_lam
            grad += reg
            grad *= spec.eta
            theta -= grad
    return theta
