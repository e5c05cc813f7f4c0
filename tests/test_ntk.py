import math

import mpmath
import numpy as np
import pytest

from delaybandit import (DelayBoundParams, d_plus, effective_dimension,
                         ntk_gram, regret_bound)
from delaybandit.errors import ConfigurationError, DegenerateContextError


def mc_layer_expectations(cov, n_samples, rng):
    """Monte Carlo estimates of 2E[relu(u)relu(v)] and 2E[relu'(u)relu'(v)]
    for (u, v) ~ N(0, cov), with standard errors."""
    chol = np.linalg.cholesky(cov + 1e-12 * np.eye(2))
    draws = rng.standard_normal((n_samples, 2)) @ chol.T
    prod = 2.0 * np.maximum(draws[:, 0], 0.0) * np.maximum(draws[:, 1], 0.0)
    deriv = 2.0 * ((draws[:, 0] > 0) & (draws[:, 1] > 0)).astype(float)
    return ((prod.mean(), prod.std(ddof=1) / math.sqrt(n_samples)),
            (deriv.mean(), deriv.std(ddof=1) / math.sqrt(n_samples)))


def ntk_reference(contexts, depth):
    """Scalar-loop re-derivation of the recursion (oracle for the vectorized path)."""
    n = contexts.shape[0]
    sigma = contexts @ contexts.T
    htilde = sigma.copy()
    for _ in range(depth - 1):
        new_sigma = np.empty_like(sigma)
        new_htilde = np.empty_like(sigma)
        for i in range(n):
            for j in range(n):
                denom = math.sqrt(sigma[i, i] * sigma[j, j])
                c = min(1.0, max(-1.0, sigma[i, j] / denom))
                theta = math.acos(c)
                new_sigma[i, j] = denom / math.pi * (
                    math.sin(theta) + (math.pi - theta) * math.cos(theta))
                new_htilde[i, j] = htilde[i, j] * (math.pi - theta) / math.pi \
                    + new_sigma[i, j]
        sigma, htilde = new_sigma, new_htilde
    return (htilde + sigma) / 2.0


class TestNtkGram:
    def test_single_unit_context_hand_value(self):
        H = ntk_gram(np.array([[1.0, 0.0]]), 2)
        assert H[0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_orthogonal_pair_hand_value(self):
        H = ntk_gram(np.eye(2), 2)
        assert H[0, 1] == pytest.approx(1.0 / math.pi, abs=1e-12)
        assert H[0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_symmetry_and_diag(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((6, 4))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        H = ntk_gram(xs, 3)
        assert np.allclose(H, H.T)
        single = ntk_gram(xs[:1], 3)[0, 0]
        assert np.allclose(np.diag(H), single)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((5, 3))
        for depth in (2, 3, 4):
            assert np.allclose(ntk_gram(xs, depth), ntk_reference(xs, depth),
                               atol=1e-12)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_layer_expectations_vs_monte_carlo(self, depth):
        # closed form within 3 standard errors of a 10^5-sample MC estimate
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((2, 4))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        sigma = xs @ xs.T
        for _ in range(depth - 1):
            denom = np.sqrt(np.outer(np.diag(sigma), np.diag(sigma)))
            theta = np.arccos(np.clip(sigma / denom, -1, 1))
            closed_sig = denom / np.pi * (np.sin(theta) + (np.pi - theta) * np.cos(theta))
            closed_der = (np.pi - theta) / np.pi
            cov = np.array([[sigma[0, 0], sigma[0, 1]], [sigma[0, 1], sigma[1, 1]]])
            (sig_mc, sig_se), (der_mc, der_se) = mc_layer_expectations(cov, 100_000, rng)
            assert abs(closed_sig[0, 1] - sig_mc) <= 3 * sig_se
            assert abs(closed_der[0, 1] - der_mc) <= 3 * der_se
            sigma = closed_sig

    def test_psd_through_recursion(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((8, 5))
        H = ntk_gram(xs, 3)
        eigmin = np.linalg.eigvalsh(H)[0]
        assert eigmin >= -1e-8 * np.trace(H) / 8

    def test_zero_context_rejected(self):
        with pytest.raises(DegenerateContextError):
            ntk_gram(np.zeros((2, 3)), 2)

    def test_depth_below_two_rejected(self):
        with pytest.raises(ConfigurationError, match="^depth must be >= 2, got 1$"):
            ntk_gram(np.eye(2), 1)


class TestEffectiveDimension:
    def test_identity_hand_value(self):
        H = np.eye(10)
        expected = 10 * math.log(2) / math.log(11)
        assert effective_dimension(H, 1.0, 10) == pytest.approx(expected, rel=1e-12)

    def test_zero_matrix(self):
        assert effective_dimension(np.zeros((4, 4)), 1.0, 10) == 0.0

    def test_eigenvalue_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 20))
        H = a @ a.T
        lam, n = 0.8, 20
        mu = np.linalg.eigvalsh(H)
        oracle = np.sum(np.log1p(np.maximum(mu, 0) / lam)) / math.log(1 + n / lam)
        ours = effective_dimension(H, lam, n)
        assert ours == pytest.approx(oracle, rel=1e-10)
        assert ours <= 20

    def test_non_psd_rejected(self):
        H = np.diag([1.0, -1.0])
        with pytest.raises(ArithmeticError):
            effective_dimension(H, 1.0, 2)

    def test_zero_lambda_rejected(self):
        with pytest.raises(ConfigurationError, match="^lambda must be > 0, got 0.0$"):
            effective_dimension(np.eye(2), 0.0, 2)

    def test_empty_gram_matrix(self):
        assert effective_dimension(np.zeros((0, 0)), 1.0, 10) == 0.0


class TestDPlus:
    def test_vanishing_delay_plugin(self):
        # 3T/(2 delta) = e^3 with E[tau] = alpha = b = 0: D_+ = 1 + 4/3 * 3 = 5
        delta = 1.5 * math.exp(-3.0)
        dp, d_tau, psi_tau = d_plus(DelayBoundParams(1, delta, 0.0, 0.0, 0.0))
        assert d_tau == 0.0
        assert psi_tau == pytest.approx(4.0, abs=1e-12)
        assert dp == pytest.approx(5.0, abs=1e-12)

    def test_high_precision_oracle(self):
        dp, d_tau, psi_tau = d_plus(DelayBoundParams(1000, 0.05, 30.0, 30.0, 0.0))
        with mpmath.workdps(50):
            lt = mpmath.log(3 * mpmath.mpf(1000) / (2 * mpmath.mpf("0.05")))
            ref_dtau = mpmath.sqrt(2 * mpmath.mpf(30) ** 2 * lt)
            ref_psi = mpmath.mpf(4) / 3 * lt + 2 * mpmath.sqrt(2 * 30 * lt)
            ref = 1 + 60 + ref_dtau + ref_psi
        assert abs(dp - float(ref)) / float(ref) <= 1e-9
        assert dp == pytest.approx(260.7, abs=0.1)

    def test_b_branch(self):
        # small b makes the sub-exponential branch the minimum
        dp_b, d_tau_b, _ = d_plus(DelayBoundParams(100, 0.1, 1.0, 10.0, 0.01))
        lt = math.log(3 * 100 / 0.2)
        assert d_tau_b == pytest.approx(2 * 0.01 * lt)

    def test_monotone_grid(self):
        taus = [0.0, 1.0, 5.0, 30.0, 100.0]
        horizons = [10, 100, 1000, 10000]
        for alpha in (0.0, 5.0):
            grid = [[d_plus(DelayBoundParams(T, 0.05, tau, alpha, 0.0))[0]
                     for tau in taus] for T in horizons]
            arr = np.array(grid)
            assert np.all(np.diff(arr, axis=0) >= 0)  # in T
            assert np.all(np.diff(arr, axis=1) >= 0)  # in E[tau]

    def test_invalid_delta(self):
        with pytest.raises(ConfigurationError):
            DelayBoundParams(10, 1.5, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("field", ["horizon", "expected_delay", "alpha", "b"])
    def test_negative_field_rejected(self, field):
        values = {"horizon": 10, "delta": 0.05, "expected_delay": 1.0, "alpha": 1.0, "b": 1.0}
        values[field] = -1
        with pytest.raises(ConfigurationError, match="must be >= 0$"):
            DelayBoundParams(**values)


class TestRegretBound:
    def test_term_by_term_hand_value(self):
        # D_+ = 0, nu = 0, J -> infinity kills the optimization term; the
        # bracket collapses to 2 * 2 * sqrt(lam) * S = 4 with lam = S = 1
        T, K, d_tilde = 100, 4, 3.0
        val = regret_bound(0.0, d_tilde, T, K, lam=1.0, nu=0.0, delta=0.1,
                           norm_s=1.0, eta=0.5, width=2, steps=10 ** 6, depth=2)
        expected = math.sqrt(T * (2 * d_tilde * math.log(1 + T * K) + 2)) * 4 + 1
        assert val == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_d_plus(self):
        vals = [regret_bound(dp, 2.0, 100, 4, 1.0, 1.0, 0.05, 1e-4,
                             0.001, 64, 100, 2) for dp in (0.0, 1.0, 10.0, 100.0)]
        assert vals == sorted(vals)

    def test_monotone_in_horizon(self):
        vals = [regret_bound(5.0, 2.0, T, 4, 1.0, 1.0, 0.05, 1e-4,
                             0.001, 64, 100, 2) for T in (100, 1000, 10_000, 100_000)]
        assert vals == sorted(vals)
