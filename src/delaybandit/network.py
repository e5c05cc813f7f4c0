"""Fully connected ReLU reward network: init, forward, gradients, training.

The network is f(x; theta) = sqrt(m) * W_L relu(W_{L-1} relu(... relu(W_1 x)))
with W_1 in R^{m x d}, hidden W_i in R^{m x m} and W_L in R^{1 x m}.

Weight layout used throughout: ``w1`` of shape (m, d), ``wh`` of shape
(L-2, m, m) holding the hidden square layers, and ``wl`` of shape (m,). Flat
parameter vectors concatenate ``vec(w1)``, ``vec(w2)``, ..., ``vec(w_{L-1})``
(row-major) followed by ``wl``. The ReLU subgradient at 0 is 0.

Differentiation is one delta recursion, ``_Passes.backprop``. ``grad_batch``
backpropagates v = 1 and keeps the rows apart, only where each row is a
feature vector: the arms being scored and the revealed records entering the
design matrix. A row's block for a ReLU layer is the outer product of its
delta and its input, so it returns the rows as per-layer factors
(``design.Factored``) and never an (n, p) array; ``.dense()`` gives J.

``train_nn`` runs its steps as one loop. With r = h_{L-1} . w_L - y / sqrt(m)
the squared loss is (m/2)|r|^2, and backpropagating eta*m*r, without the
sqrt(m) of f, gives eta times its gradient, so a step is one forward pass, one
backward pass and three passes over theta:
theta <- (1 - eta*m*lam) theta + eta*m*lam theta_0 - eta * grad. The loop draws
every mini-batch index vector at once, gathers the batches by one take per
_GATHER_BYTES of contexts, and writes activations, masks, deltas and the
gradient into buffers allocated once per call, so a step allocates nothing
but its share of a take.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .design import Factored
from .errors import ConfigurationError, DivergedTrainingError

# most bytes of mini-batch contexts that train_nn gathers by one take: 23
# batches of 64 at the mushroom size (d = 88), one at a time at the MNIST size
_GATHER_BYTES = 2**20


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

    @property
    def factor_count(self) -> int:
        """Floats in the per-layer factors of one gradient row (grad_batch):
        m + d for W_1, 2m per hidden layer and m for w_L."""
        return self.input_dim + 2 * self.width * (self.depth - 1)


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
    """Forward and backward passes of the network at ``theta`` over batches of
    ``rows`` contexts.

    Every intermediate goes into a buffer allocated here, so repeated passes
    allocate nothing, and the weights are views of ``theta``, so they follow
    in-place steps on it. ``acts[k]`` holds the hidden activation h_{k+1} of
    the last ``forward``; ``mask`` holds one layer's ReLU mask as 0.0/1.0. The
    input layer is multiplied as x @ W_1^T on its (m, d) array: OpenBLAS's
    small-matrix kernels round the product with a contiguous copy of W_1^T
    differently, which would change the results of runs.
    """

    def __init__(self, shape: NetworkShape, rows: int, theta: np.ndarray):
        m, layers = shape.width, shape.depth - 1
        w1, wh, self.wl = unflatten(theta, shape)
        self.w1_t = w1.T
        self.sqrt_m = np.sqrt(m)
        self.acts = [np.empty((rows, m)) for _ in range(layers)]
        self.deltas = [np.empty((rows, m)) for _ in range(layers)]
        self.mask = np.empty((rows, m))
        self.spare = np.empty((rows, m))
        # hidden layer k: its weights W, W^T, h_{k+1} below it, h_{k+2} above
        # it and the deltas at both
        self.up = [(w, w.T, self.acts[k], self.acts[k + 1], self.deltas[k], self.deltas[k + 1])
                   for k, w in enumerate(wh)]
        self.down = self.up[::-1]

    def forward(self, xs, out):
        """Write h_{L-1} . w_L, the outputs without their factor sqrt(m), for
        the rows of xs into out and return it."""
        first = self.acts[0]
        np.matmul(xs, self.w1_t, out=first)
        np.maximum(first, 0.0, out=first)
        for _, w_t, below, above, _, _ in self.up:
            np.matmul(below, w_t, out=above)
            np.maximum(above, 0.0, out=above)
        return np.matmul(self.acts[-1], self.wl, out=out)

    def backprop(self, v):
        """Backpropagate v through the last forward's h_{L-1} . w_L into
        ``deltas``: deltas[k] is the (rows, m) delta at h_{k+1}, so the gradient
        of W_1 is deltas[0]^T x and that of hidden layer k is
        deltas[k+1]^T h_{k+1}. Row i of each delta depends on v_i alone."""
        mask, spare, top = self.mask, self.spare, self.deltas[-1]
        np.greater(self.acts[-1], 0.0, out=mask)
        # delta = (mask * w_L) * v; the product with the 0/1 mask is exact
        np.multiply(mask, self.wl, out=top)
        top *= v[:, None]
        for w, _, below, _, delta_below, delta in self.down:
            np.matmul(delta, w, out=spare)
            np.greater(below, 0.0, out=mask)
            np.multiply(spare, mask, out=delta_below)


def forward_many(theta: np.ndarray, shape: NetworkShape, xs: np.ndarray) -> np.ndarray:
    xs = _check_contexts(xs, shape)
    passes = _Passes(shape, xs.shape[0], theta)
    return passes.forward(xs, np.empty(xs.shape[0])) * passes.sqrt_m


def gradient(theta: np.ndarray, shape: NetworkShape, x: np.ndarray) -> np.ndarray:
    """Exact gradient of forward() w.r.t. all p parameters (flat vector)."""
    grads, _ = gradient_many(theta, shape, np.atleast_2d(x))
    return grads.dense()[0]


def gradient_many(theta: np.ndarray, shape: NetworkShape, xs: np.ndarray):
    """Per-row gradients as ``Factored`` rows, and forward values (n,)."""
    return grad_batch(theta, shape, _check_contexts(xs, shape))


def grad_batch(theta: np.ndarray, shape: NetworkShape, xs: np.ndarray):
    """The rows of the Jacobian J at the rows of xs, as per-layer factors, and
    the outputs (n,), from one forward and one backward pass. Each row's deltas
    depend on that row alone, so backpropagating v = sqrt(m) gives every row's
    at once, and row i of a layer's gradient is the outer product of row i of
    its delta and of its input: the blocks are (delta_1, x) for W_1,
    (delta_{k+1}, h_k) for each hidden layer and (1, sqrt(m) h_{L-1}) for w_L.
    ``.dense()`` lays them out as J, whose rows are flat parameter vectors. The
    first block's right factor is xs itself."""
    n = xs.shape[0]
    passes = _Passes(shape, n, theta)
    outputs = passes.forward(xs, np.empty(n))
    outputs *= passes.sqrt_m
    passes.backprop(np.full(n, passes.sqrt_m))
    acts, deltas = passes.acts, passes.deltas
    blocks = [(deltas[0], xs)]
    blocks += [(deltas[k + 1], acts[k]) for k in range(shape.n_hidden)]
    blocks.append((None, acts[-1] * passes.sqrt_m))
    return Factored(blocks), outputs


def train_nn(theta_start: np.ndarray,
             shape: NetworkShape,
             xs: np.ndarray,
             rs: np.ndarray,
             lam: float,
             eta: float,
             steps: int,
             batch_size: int | None = None,
             rng: np.random.Generator | None = None,
             anchor: np.ndarray | None = None) -> np.ndarray:
    """Run J = ``steps`` steps of gradient descent at rate ``eta`` on the squared
    loss plus the m*lam/2 proximal regularizer, on mini-batches of
    ``batch_size`` rows (None: the full batch).

    ``anchor`` is the regularization center (the run's theta_0); it defaults to
    ``theta_start`` but differs from it under warm starts. Mini-batch mode
    samples uniformly with replacement and applies the full regularizer
    gradient every step, so the fixed point matches full-batch training. It
    draws the J index vectors from ``rng`` before the first step, so a run
    stopped by DivergedTrainingError has drawn them all.
    """
    if not (lam > 0 and eta > 0) or steps < 0 or (batch_size is not None and batch_size < 1):
        raise ConfigurationError("train_nn needs lam > 0, eta > 0, steps >= 0 and batch_size "
                                 f"None or >= 1, got {lam}, {eta}, {steps}, {batch_size}")
    xs = _check_contexts(xs, shape)
    rs = np.asarray(rs, dtype=np.float64)
    if xs.size == 0:
        return theta_start.copy()
    n = xs.shape[0]
    full_batch = batch_size is None or batch_size >= n
    if rng is None and not full_batch:
        raise ConfigurationError(f"mini-batches of {batch_size} from {n} rows need an rng")
    if anchor is None:
        anchor = theta_start
    theta = theta_start.astype(np.float64, copy=True)
    m = shape.width
    ys = rs / np.sqrt(m)
    if full_batch:
        rows, batches = n, itertools.repeat((xs, ys), steps)
    else:
        rows = batch_size
        # one draw of all J index vectors yields the stream of J draws of one each
        batches = _gathered(xs, ys, rng.integers(0, n, size=(steps, rows)))
    grad = np.empty_like(theta)
    g1, gh, gl = unflatten(grad, shape)
    passes = _Passes(shape, rows, theta)
    forward, backprop, last = passes.forward, passes.backprop, passes.acts[-1]
    first_t = passes.deltas[0].T
    hidden_grads = [(delta.T, act, g) for delta, act, g in zip(passes.deltas[1:], passes.acts, gh)]
    resid = np.empty(rows)
    # the folded step of the module docstring: r = h_{L-1} . w_L - y / sqrt(m),
    # eta*m*r backpropagated gives eta * grad, and the regularizer folds into
    # theta <- (1 - eta*m*lam) theta + eta*m*lam theta_0 - eta * grad
    half_m, eta_m, shrink = 0.5 * m, eta * m, eta * m * lam
    decay, pull = 1.0 - shrink, shrink * anchor
    # a non-finite loss raises DivergedTrainingError, so overflow on the way there is not warned
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (bx, by) in enumerate(batches, start=1):
            r = forward(bx, resid)
            r -= by
            if not math.isfinite(half_m * float(r @ r)):
                raise DivergedTrainingError(j)
            r *= eta_m
            backprop(r)
            np.matmul(r, last, out=gl)
            for delta_t, act, g in hidden_grads:
                np.matmul(delta_t, act, out=g)
            np.matmul(first_t, bx, out=g1)
            theta *= decay
            theta += pull
            theta -= grad
    return theta


def _gathered(xs, ys, index):
    """The (contexts, targets) of each row of ``index``, gathered by one take
    per run of steps whose contexts fit in _GATHER_BYTES."""
    per_take = max(1, _GATHER_BYTES // (8 * index.shape[1] * xs.shape[1]))
    for first in range(0, len(index), per_take):
        chunk = index[first:first + per_take]
        yield from zip(xs.take(chunk, axis=0), ys.take(chunk))
