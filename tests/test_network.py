import pickle
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaybandit import (NetworkShape, forward, forward_many,
                         gradient, gradient_many, init_symmetric, train_nn)
from delaybandit.errors import ConfigurationError, DivergedTrainingError
from delaybandit.network import flatten, loss_value, unflatten, vjp


class TrainSpec(NamedTuple):
    """train_nn's training settings, in its argument order: train_nn(..., *spec)."""

    lam: float
    eta: float
    steps: int
    batch_size: int | None = None


def sym_context(rng, d):
    half = rng.standard_normal(d // 2)
    x = np.concatenate([half, half])
    return x / np.linalg.norm(x)


def forward_oracle(theta, shape, x):
    """Independent dense evaluation from unflattened weights."""
    w1, wh, wl = unflatten(theta, shape)
    h = np.maximum(w1 @ x, 0.0)
    for layer in range(wh.shape[0]):
        h = np.maximum(wh[layer] @ h, 0.0)
    return np.sqrt(shape.width) * float(wl @ h)


class TestInit:
    def test_zero_at_init_on_duplicated_halves(self):
        shape = NetworkShape(2, 4, 2)
        theta = init_symmetric(shape, np.random.default_rng(7))
        assert abs(forward(theta, shape, np.array([0.7071, 0.7071]))) <= 1e-6

    def test_nonzero_when_halves_differ(self):
        shape = NetworkShape(2, 4, 2)
        theta = init_symmetric(shape, np.random.default_rng(7))
        assert abs(forward(theta, shape, np.array([1.0, 0.0]))) > 1e-8

    def test_equal_seeds_bit_identical(self):
        shape = NetworkShape(3, 8, 4)
        a = init_symmetric(shape, np.random.default_rng(123))
        b = init_symmetric(shape, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigurationError):
            init_symmetric(NetworkShape(2, 3, 2), np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            init_symmetric(NetworkShape(2, 4, 3), np.random.default_rng(0))

    @given(seed=st.integers(0, 10_000), depth=st.sampled_from([2, 3]),
           width=st.sampled_from([2, 4, 8, 16]), dim=st.sampled_from([2, 4, 6]))
    @settings(max_examples=40, deadline=None)
    def test_zero_at_init_property(self, seed, depth, width, dim):
        shape = NetworkShape(depth, width, dim)
        rng = np.random.default_rng(seed)
        theta = init_symmetric(shape, rng)
        x = sym_context(rng, dim)
        assert abs(forward(theta, shape, x)) <= 1e-6

    def test_param_count(self):
        assert NetworkShape(2, 4, 2).param_count == 4 * 2 + 4
        assert NetworkShape(3, 4, 2).param_count == 4 * 2 + 16 + 4

    @pytest.mark.parametrize("depth,width,dim,message", [
        (1, 4, 4, "^depth must be >= 2, got 1$"),
        (2, 0, 4, "^width and input_dim must be >= 1$"),
    ])
    def test_bad_shape_rejected(self, depth, width, dim, message):
        with pytest.raises(ConfigurationError, match=message):
            NetworkShape(depth, width, dim)

    def test_unflatten_rejects_a_wrong_length(self):
        shape = NetworkShape(3, 4, 2)
        with pytest.raises(ValueError, match=r"^parameter vector has length \(27,\), "
                                             r"expected \(28,\)$"):
            unflatten(np.zeros(shape.param_count - 1), shape)


class TestForward:
    def test_single_neuron_hand_value(self):
        shape = NetworkShape(2, 1, 1)
        theta = np.array([2.0, 0.5])
        assert forward(theta, shape, np.array([1.0])) == pytest.approx(1.0)

    def test_relu_dead_region(self):
        shape = NetworkShape(2, 1, 1)
        theta = np.array([2.0, 0.5])
        assert forward(theta, shape, np.array([-1.0])) == 0.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for depth in (2, 3, 4):
            shape = NetworkShape(depth, 6, 4)
            theta = rng.standard_normal(shape.param_count)
            x = rng.standard_normal(4)
            ours = forward(theta, shape, x)
            ref = forward_oracle(theta, shape, x)
            assert ours == pytest.approx(ref, rel=1e-12, abs=1e-14)

    def test_dimension_mismatch(self):
        shape = NetworkShape(2, 4, 2)
        theta = np.zeros(shape.param_count)
        with pytest.raises(ValueError):
            forward(theta, shape, np.zeros(3))

    def test_linear_in_output_layer(self):
        # with all hidden pre-activations positive, doubling W_L doubles f
        shape = NetworkShape(2, 4, 2)
        rng = np.random.default_rng(5)
        w1 = np.abs(rng.standard_normal((4, 2)))
        wl = rng.standard_normal(4)
        x = np.abs(rng.standard_normal(2))
        theta = flatten(w1, np.empty((0, 4, 4)), wl)
        theta2 = flatten(w1, np.empty((0, 4, 4)), 2 * wl)
        assert forward(theta2, shape, x) == pytest.approx(2 * forward(theta, shape, x))


def finite_difference_gradient(theta, shape, x, step=1e-5):
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (forward(up, shape, x) - forward(down, shape, x)) / (2 * step)
    return grad


def preactivations_clear_of_kink(theta, shape, x, margin=1e-3):
    w1, wh, wl = unflatten(theta, shape)
    h = w1 @ x
    if np.min(np.abs(h)) <= margin:
        return False
    h = np.maximum(h, 0.0)
    for layer in range(wh.shape[0]):
        h = wh[layer] @ h
        if np.min(np.abs(h)) <= margin:
            return False
        h = np.maximum(h, 0.0)
    return True


class TestGradient:
    def test_single_neuron_hand_values(self):
        shape = NetworkShape(2, 1, 1)
        theta = np.array([2.0, 0.5])
        g = gradient(theta, shape, np.array([1.0]))
        assert g == pytest.approx([0.5, 2.0])

    def test_inactive_relu_zero_gradient(self):
        shape = NetworkShape(2, 1, 1)
        g = gradient(np.array([2.0, 0.5]), shape, np.array([-1.0]))
        assert np.array_equal(g, np.zeros(2))

    def test_finite_difference_m8(self):
        shape = NetworkShape(3, 8, 4)
        rng = np.random.default_rng(11)
        theta, x = _sample_clear_instance(shape, rng)
        exact = gradient(theta, shape, x)
        approx = finite_difference_gradient(theta, shape, x)
        scale = np.maximum(np.abs(exact), 1e-8)
        assert np.max(np.abs(exact - approx) / scale) <= 1e-4

    @given(seed=st.integers(0, 10_000), depth=st.sampled_from([2, 3]),
           width=st.integers(2, 16))
    @settings(max_examples=25, deadline=None)
    def test_finite_difference_property(self, seed, depth, width):
        shape = NetworkShape(depth, width, 4)
        rng = np.random.default_rng(seed)
        theta, x = _sample_clear_instance(shape, rng)
        exact = gradient(theta, shape, x)
        approx = finite_difference_gradient(theta, shape, x)
        scale = np.maximum(np.abs(exact), 1e-8)
        assert np.max(np.abs(exact - approx) / scale) <= 1e-4


def _sample_clear_instance(shape, rng, margin=1e-3):
    for _ in range(200):
        theta = rng.standard_normal(shape.param_count)
        x = rng.standard_normal(shape.input_dim)
        if preactivations_clear_of_kink(theta, shape, x, margin):
            return theta, x
    raise AssertionError("no instance with pre-activations clear of the kink")


class TestTrainNN:
    def setup_method(self):
        self.shape = NetworkShape(2, 4, 2)
        self.rng = np.random.default_rng(3)
        self.theta0 = init_symmetric(self.shape, self.rng)
        self.x = sym_context(self.rng, 2)

    def test_initial_loss_half(self):
        # f(x; theta0) = 0 and r = 1: loss = (0-1)^2/2 with zero regularizer
        loss = loss_value(self.theta0, self.shape, self.x[None, :],
                          np.array([1.0]), 1.0, self.theta0)
        assert loss == pytest.approx(0.5)

    def test_zero_steps_returns_start(self):
        spec = TrainSpec(lam=1.0, eta=0.01, steps=0)
        out = train_nn(self.theta0, self.shape, self.x[None, :], np.array([1.0]), *spec)
        assert np.array_equal(out, self.theta0)

    def test_empty_data_returns_start(self):
        spec = TrainSpec(lam=1.0, eta=0.01, steps=5)
        out = train_nn(self.theta0, self.shape, np.empty((0, 2)), np.empty(0), *spec)
        assert np.array_equal(out, self.theta0)

    def test_frozen_first_layer_matches_scalar_recurrence(self):
        # m=1: freeze W_1 by resetting it after every single step; the W_2
        # iterates must then follow the closed-form 1-d GD recurrence.
        shape = NetworkShape(2, 1, 1)
        w1, w2_0, r, lam, eta = 1.3, 0.2, 0.7, 0.5, 0.05
        x = np.array([[1.0]])
        a = max(w1, 0.0)  # activation seen by the output weight
        anchor = np.array([w1, w2_0])
        spec = TrainSpec(lam=lam, eta=eta, steps=1)
        theta = anchor.copy()
        scale = 1.0 - eta * (a * a + lam)  # m = 1
        fixed_point = (r * a + lam * w2_0) / (a * a + lam)
        w2 = w2_0
        for _ in range(25):
            theta = train_nn(theta, shape, x, np.array([r]), *spec, anchor=anchor)
            theta[0] = w1
            w2 = fixed_point + (w2 - fixed_point) * scale
            assert theta[1] == pytest.approx(w2, abs=1e-10)

    def test_full_batch_loss_monotone(self):
        rng = np.random.default_rng(9)
        xs = np.stack([sym_context(rng, 2) for _ in range(6)])
        rs = rng.random(6)
        spec = TrainSpec(lam=1.0, eta=0.005, steps=1)
        theta = self.theta0.copy()
        prev = loss_value(theta, self.shape, xs, rs, 1.0, self.theta0)
        for _ in range(40):
            theta = train_nn(theta, self.shape, xs, rs, *spec, anchor=self.theta0)
            cur = loss_value(theta, self.shape, xs, rs, 1.0, self.theta0)
            assert cur <= prev + 1e-12
            prev = cur

    def test_determinism_minibatch(self):
        rng_data = np.random.default_rng(2)
        xs = rng_data.standard_normal((20, 2))
        rs = rng_data.random(20)
        spec = TrainSpec(lam=1.0, eta=0.01, steps=10, batch_size=4)
        out1 = train_nn(self.theta0, self.shape, xs, rs, *spec,
                        np.random.default_rng(77))
        out2 = train_nn(self.theta0, self.shape, xs, rs, *spec,
                        np.random.default_rng(77))
        assert np.array_equal(out1, out2)

    def test_minibatch_without_rng_rejected(self):
        rng_data = np.random.default_rng(4)
        xs = rng_data.standard_normal((5, 2))
        spec = TrainSpec(lam=1.0, eta=0.01, steps=3, batch_size=2)
        with pytest.raises(ConfigurationError):
            train_nn(self.theta0, self.shape, xs, rng_data.random(5), *spec)

    @pytest.mark.parametrize("spec", [TrainSpec(0.0, 0.01, 3), TrainSpec(float("nan"), 0.01, 3),
                                      TrainSpec(1.0, 0.0, 3), TrainSpec(1.0, -0.01, 3),
                                      TrainSpec(1.0, 0.01, -1), TrainSpec(1.0, 0.01, 3, 0)])
    def test_bad_settings_rejected(self, spec):
        xs = np.random.default_rng(4).standard_normal((5, 2))
        with pytest.raises(ConfigurationError, match="^train_nn needs"):
            train_nn(self.theta0, self.shape, xs, np.ones(5), *spec,
                     np.random.default_rng(1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_step(self):
        spec = TrainSpec(lam=1.0, eta=1e12, steps=50)
        with pytest.raises(DivergedTrainingError) as err:
            train_nn(self.theta0, self.shape, self.x[None, :], np.array([1.0]), *spec)
        assert err.value.step >= 1


def instance_with_dead_units(depth, rng, width=6, dim=5, n=9):
    """Random weights and contexts where some ReLU pre-activations are exactly 0."""
    shape = NetworkShape(depth, width, dim)
    w1, wh, wl = unflatten(rng.standard_normal(shape.param_count), shape)
    w1[0] = 0.0          # unit 0 of the first layer sees 0 for every context
    for w in wh:
        w[1] = 0.0       # likewise unit 1 of each hidden layer
    xs = rng.standard_normal((n, dim))
    xs[2] = 0.0          # every first-layer unit sees 0 for this row
    return shape, flatten(w1, wh, wl), xs


def jacobian_train_reference(theta_start, shape, xs, rs, spec, rng=None, anchor=None):
    """The step loop of train_nn written with the full per-sample Jacobian."""
    anchor = theta_start if anchor is None else anchor
    theta = theta_start.copy()
    n = xs.shape[0]
    for j in range(1, spec.steps + 1):
        if spec.batch_size is None or spec.batch_size >= n:
            bx, br = xs, rs
        else:
            idx = rng.integers(0, n, size=spec.batch_size)
            bx, br = xs[idx], rs[idx]
        grads, preds = gradient_many(theta, shape, bx)
        resid = preds - br
        if not np.isfinite(0.5 * float(resid @ resid)):
            raise DivergedTrainingError(j)
        theta -= spec.eta * (resid @ grads + shape.width * spec.lam * (theta - anchor))
    return theta


def unfused_train_reference(theta_start, shape, xs, rs, spec, rng=None, anchor=None):
    """The step loop of train_nn before it was fused: one rng draw per step and
    fresh temporaries for the activations, the backward pass and the update."""
    anchor = theta_start if anchor is None else anchor
    theta = theta_start.astype(np.float64, copy=True)
    w1, wh, wl = unflatten(theta, shape)
    m, p = shape.width, shape.param_count
    sqrt_m = np.sqrt(m)
    n = xs.shape[0]
    for j in range(1, spec.steps + 1):
        if spec.batch_size is None or spec.batch_size >= n:
            bx, br = xs, rs
        else:
            idx = rng.integers(0, n, size=spec.batch_size)
            bx, br = xs[idx], rs[idx]
        acts = [bx, np.maximum(bx @ w1.T, 0.0)]
        for w in wh:
            acts.append(np.maximum(acts[-1] @ w.T, 0.0))
        resid = np.sqrt(wl.shape[0]) * (acts[-1] @ wl) - br
        if not np.isfinite(0.5 * float(resid @ resid)):
            raise DivergedTrainingError(j)
        back = np.empty(p)
        back[-m:] = sqrt_m * (resid @ acts[-1])
        delta = (sqrt_m * resid[:, None] * wl) * (acts[-1] > 0.0)
        end = p - m
        for layer in range(wh.shape[0] - 1, -1, -1):
            back[end - m * m:end] = (delta.T @ acts[layer + 1]).ravel()
            end -= m * m
            delta = (delta @ wh[layer]) * (acts[layer + 1] > 0.0)
        back[:end] = (delta.T @ acts[0]).ravel()
        theta -= spec.eta * (back + shape.width * spec.lam * (theta - anchor))
    return theta


class TestFusedStepMatchesUnfusedLoop:
    """train_nn is bit-for-bit the unfused loop, rng stream included."""

    @staticmethod
    def mushroom_sized(depth, rng, n=100):
        # the criterion-8 network: width 64 on 88-dimensional embedded contexts
        shape = NetworkShape(depth, 64, 88)
        xs = rng.standard_normal((n, 88))
        return shape, init_symmetric(shape, rng), xs / np.linalg.norm(xs, axis=1, keepdims=True)

    @staticmethod
    def assert_same(shape, theta0, xs, spec, seed):
        rng = np.random.default_rng(seed)
        rs = rng.random(xs.shape[0])
        start = theta0 + 0.01 * rng.standard_normal(theta0.size)  # warm start off the anchor
        ours_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ours = train_nn(start, shape, xs, rs, *spec, ours_rng, anchor=theta0)
        ref = unfused_train_reference(start, shape, xs, rs, spec, ref_rng, anchor=theta0)
        assert np.array_equal(ours, ref)
        assert ours_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("batch_size", [None, 7, 64])
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_mushroom_sized_network(self, depth, batch_size):
        shape, theta0, xs = self.mushroom_sized(depth, np.random.default_rng(depth))
        spec = TrainSpec(lam=0.1, eta=1e-4, steps=12, batch_size=batch_size)
        self.assert_same(shape, theta0, xs, spec, seed=depth)
        # fewer rows than the batch: every step takes the full batch
        self.assert_same(shape, theta0, xs[:5], spec, seed=depth)

    @pytest.mark.parametrize("batch_size", [None, 7])
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_dead_units(self, depth, batch_size):
        shape, theta, xs = instance_with_dead_units(depth, np.random.default_rng(60 + depth))
        spec = TrainSpec(lam=0.5, eta=0.01, steps=20, batch_size=batch_size)
        self.assert_same(shape, theta, xs, spec, seed=depth)

    @pytest.mark.parametrize("batch_size", [7, 64])
    def test_rng_advances_as_per_step_draws(self, batch_size):
        # NeuralTS samples from the same generator after training
        shape, theta0, xs = self.mushroom_sized(2, np.random.default_rng(3), n=150)
        spec = TrainSpec(lam=0.1, eta=1e-4, steps=9, batch_size=batch_size)
        rng, expected = np.random.default_rng(11), np.random.default_rng(11)
        train_nn(theta0, shape, xs, np.zeros(150), *spec, rng)
        for _ in range(spec.steps):
            expected.integers(0, 150, size=batch_size)
        assert rng.bit_generator.state == expected.bit_generator.state
        assert rng.random() == expected.random()

    def test_long_schedule_gathers_one_batch_at_a_time(self):
        # steps_schedule: round reaches J in the thousands; a J x b x d gather
        # of the mini-batches would take J * 45 KB here
        shape, theta0, xs = self.mushroom_sized(2, np.random.default_rng(8), n=300)
        spec = TrainSpec(lam=0.1, eta=1e-4, steps=2000, batch_size=64)
        gather_bytes = spec.steps * 64 * 88 * 8
        tracemalloc.start()
        try:
            train_nn(theta0, shape, xs, np.zeros(300), *spec, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < gather_bytes / 20


def per_row_jacobian_reference(theta, shape, xs):
    """The per-sample Jacobian by its own recursion over the layers: every row's
    output-layer deltas are pushed back together, one layer at a time, and each
    layer's block is the outer product of a row's delta and its input."""
    w1, wh, wl = unflatten(theta, shape)
    n, (m, d) = xs.shape[0], w1.shape
    sqrt_m = np.sqrt(m)
    acts = [np.maximum(xs @ w1.T, 0.0)]
    for w in wh:
        acts.append(np.maximum(acts[-1] @ w.T, 0.0))
    outputs = sqrt_m * (acts[-1] @ wl)
    p = shape.param_count
    grads = np.empty((n, p))
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


class TestJacobianMatchesPerRowRecursion:
    """Each row of gradient_many, e_i @ J by the backward pass, equals the
    per-row recursion bit for bit (as values: exact zeros may differ in sign)."""

    @pytest.mark.parametrize("width,dim", [(2, 2), (8, 6), (64, 88), (128, 40)])
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_bitwise_equal(self, depth, width, dim):
        shape = NetworkShape(depth, width, dim)
        rng = np.random.default_rng(depth * 1000 + width + dim)
        theta = rng.standard_normal(shape.param_count)
        dead_units = False
        for n in [1, 2, 3, 5, 10, 33, 64]:
            mixed = rng.standard_normal((n, dim))
            for xs in (np.abs(mixed), mixed):
                grads, outputs = gradient_many(theta, shape, xs)
                ref_grads, ref_outputs = per_row_jacobian_reference(theta, shape, xs)
                assert np.array_equal(grads, ref_grads), (n, xs.min() >= 0)
                assert np.array_equal(outputs, ref_outputs)
                dead_units |= bool(np.any(grads[:, -width:] == 0.0))
        assert dead_units  # the masks of the backward pass were exercised


class TestVectorJacobianProduct:
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_matches_jacobian_contraction(self, depth):
        rng = np.random.default_rng(40 + depth)
        shape, theta, xs = instance_with_dead_units(depth, rng)
        v = rng.standard_normal(xs.shape[0])
        jac, _ = gradient_many(theta, shape, xs)
        assert np.all(jac[2, :shape.width * shape.input_dim] == 0.0)
        ref = v @ jac
        assert np.max(np.abs(vjp(theta, shape, xs, v) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_single_neuron_hand_values(self):
        # f = 0.5 * relu(2x); v = 3 at x = 1 gives 3 * (0.5, 2)
        shape = NetworkShape(2, 1, 1)
        out = vjp(np.array([2.0, 0.5]), shape, np.array([[1.0], [-1.0]]), np.array([3.0, 7.0]))
        assert out == pytest.approx([1.5, 6.0])


class TestTrainMatchesJacobianReference:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.shape = NetworkShape(3, 8, 6)
        self.theta0 = init_symmetric(self.shape, rng)
        self.xs = rng.standard_normal((25, 6))
        self.rs = rng.random(25)

    @pytest.mark.parametrize("batch_size", [None, 7])
    def test_same_iterates(self, batch_size):
        spec = TrainSpec(lam=0.5, eta=0.01, steps=30, batch_size=batch_size)
        start = self.theta0 + 0.1  # warm start away from the anchor
        ours = train_nn(start, self.shape, self.xs, self.rs, *spec,
                        np.random.default_rng(5), anchor=self.theta0)
        ref = jacobian_train_reference(start, self.shape, self.xs, self.rs, spec,
                                       np.random.default_rng(5), anchor=self.theta0)
        assert np.max(np.abs(ours - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverges_at_the_same_step(self):
        # train_nn reports the divergence by its typed error alone, without overflow warnings
        spec = TrainSpec(lam=1.0, eta=1e3, steps=50)
        with pytest.raises(DivergedTrainingError) as ref:
            with np.errstate(over="ignore", invalid="ignore"):
                jacobian_train_reference(self.theta0, self.shape, self.xs, self.rs, spec)
        with pytest.raises(DivergedTrainingError) as ours:
            train_nn(self.theta0, self.shape, self.xs, self.rs, *spec)
        assert ours.value.step == ref.value.step > 1

    def test_diverged_error_survives_pickling(self):
        # run --jobs N sends it back from a worker process
        err = pickle.loads(pickle.dumps(DivergedTrainingError(4)))
        assert err.step == 4 and str(err) == str(DivergedTrainingError(4))
