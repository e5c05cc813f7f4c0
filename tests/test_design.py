import tracemalloc

import numpy as np
import pytest

from delaybandit import DesignMatrix, assumption3_embed, disjoint_transform
from delaybandit.design import REFRESH_PERIOD, Factored, full_design_bytes
from delaybandit.errors import (ConfigurationError, DesignUpdateError,
                               ProtocolViolationError)
from delaybandit.network import NetworkShape, gradient_many


class TestConstruction:
    def test_fresh_quad_form(self):
        dm = DesignMatrix(3, 2.0)
        e1 = np.array([1.0, 0.0, 0.0])
        assert dm.quad_form(e1) == pytest.approx(0.5)

    def test_fresh_logdet_zero(self):
        assert DesignMatrix(3, 1.0).logdet_ratio() == 0.0

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignMatrix(1, 0.0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignMatrix(1, 1.0, "sparse")

    def test_zero_dimension_rejected(self):
        with pytest.raises(ConfigurationError, match="^dimension must be >= 1, got 0$"):
            DesignMatrix(0, 1.0)


    def test_full_design_bytes(self):
        # the factor rows and W, sized once for the updates the design is built for
        assert full_design_bytes(300, 1) == 8 * (300 + 1)
        assert full_design_bytes(300, 65) == 8 * (65 * 300 + 65**2)
        assert full_design_bytes(300, 299) == 8 * (299 * 300 + 299**2)
        assert full_design_bytes(248, 100, 46) == 8 * (100 * 46 + 100**2)
        # from the switch on: six p x p arrays, the refresh buffer and the scratch
        primal = 8 * (6 * 10 * 10 + (REFRESH_PERIOD + 10) * 10)
        assert full_design_bytes(10, 10) == full_design_bytes(10, 10**6) == primal

    @pytest.mark.parametrize("updates", [64, 65, 128, 129, 299, 300, 300 + REFRESH_PERIOD])
    def test_full_design_bytes_bounds_the_traced_peak(self, updates):
        # in the dual form the estimate is what a design built for ``updates``
        # allocates, up to a few vectors of temporaries; tracemalloc does not
        # see np.linalg.inv's work buffers, so past the switch it bounds
        p = 300
        vectors = np.random.default_rng(updates).standard_normal((updates, p))
        tracemalloc.start()
        try:
            dm = DesignMatrix(p, 1.0, updates=updates)
            for u in vectors:
                dm.rank1_update(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        estimate = full_design_bytes(p, updates)
        assert peak <= estimate + 4 * p * 8
        if updates < p:
            assert estimate <= peak

    @pytest.mark.parametrize("updates", [1, 64, 65, 128, 129, 247])
    def test_full_design_bytes_bounds_the_traced_peak_of_factored_rows(self, updates):
        # width-8 gradient rows on 30-dim contexts: p = 8 * 30 + 8 = 248, and
        # each row keeps 8 + 30 + 8 floats of factors, not p
        m, d = 8, 30
        p, row_floats = m * d + m, m + d + m
        rng = np.random.default_rng(updates)
        vectors = list(Factored([(rng.standard_normal((updates, m)),
                                  rng.standard_normal((updates, d))),
                                 (None, rng.standard_normal((updates, m)))]))
        tracemalloc.start()
        try:
            dm = DesignMatrix(p, 1.0, updates=updates)
            for u in vectors:
                dm.rank1_update(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        estimate = full_design_bytes(p, updates, row_floats)
        assert estimate <= peak <= estimate + 4 * p * 8

    def test_update_past_the_count_it_was_built_for_changes_nothing(self):
        rng = np.random.default_rng(3)
        dm = DesignMatrix(5, 1.0, updates=2)
        for u in rng.standard_normal((2, 5)):
            dm.rank1_update(u)
        inverse, logdet = dm.inverse(), dm.logdet_ratio()
        with pytest.raises(ProtocolViolationError,
                           match="^design matrix built for 2 updates took one more$"):
            dm.rank1_update(rng.standard_normal(5))
        assert dm.update_count == 2 and dm.logdet_ratio() == logdet
        assert np.array_equal(dm.inverse(), inverse)

    @pytest.mark.parametrize("mode,updates", [("full", None), ("full", 5), ("full", 9),
                                              ("diag", 2)])
    def test_design_built_for_p_or_more_takes_any_number(self, mode, updates):
        # from p on the design is primal, and a diagonal one keeps no vectors
        dm = DesignMatrix(5, 1.0, mode, updates)
        for u in np.random.default_rng(4).standard_normal((12, 5)):
            dm.rank1_update(u)
        assert dm.update_count == 12


class TestUpdates:
    def test_axis_update_quad_form(self):
        dm = DesignMatrix(2, 1.0)
        dm.rank1_update(np.array([1.0, 0.0]))
        assert dm.quad_form(np.array([1.0, 0.0])) == pytest.approx(0.5)

    def test_diag_elementwise_squares(self):
        dm = DesignMatrix(2, 1.0, "diag")
        dm.rank1_update(np.array([3.0, 4.0]))
        assert 1.0 / np.diag(dm.inverse()) == pytest.approx([10.0, 17.0])

    def test_fresh_norm_scaling(self):
        u = np.array([3.0, 4.0])
        assert DesignMatrix(2, 1.0).quad_form(u) == pytest.approx(25.0)
        assert DesignMatrix(2, 2.0).quad_form(u) == pytest.approx(12.5)

    def test_unit_update_logdet(self):
        dm = DesignMatrix(5, 1.0)
        u = np.array([0.6, 0.8, 0.0, 0.0, 0.0])  # unit norm
        dm.rank1_update(u)
        assert dm.logdet_ratio() == pytest.approx(np.log(2.0), rel=1e-12)

    def test_full_matches_diag_on_axis_aligned_data(self):
        rng = np.random.default_rng(0)
        full = DesignMatrix(4, 1.5)
        diag = DesignMatrix(4, 1.5, "diag")
        for _ in range(30):
            u = np.zeros(4)
            u[rng.integers(4)] = rng.standard_normal()
            full.rank1_update(u)
            diag.rank1_update(u)
        probe = np.zeros(4)
        probe[2] = 1.7
        assert full.quad_form(probe) == pytest.approx(diag.quad_form(probe), abs=1e-12)
        assert full.logdet_ratio() == pytest.approx(diag.logdet_ratio(), abs=1e-10)

    def test_dimension_mismatch(self):
        dm = DesignMatrix(3, 1.0)
        with pytest.raises(ValueError):
            dm.quad_form(np.zeros(2))
        with pytest.raises(ValueError):
            dm.rank1_update(np.zeros(4))
        with pytest.raises(ValueError):
            dm.check_update(np.zeros(4))


class TestOracle:
    def test_inverse_and_logdet_vs_direct(self):
        p, lam = 50, 0.7
        rng = np.random.default_rng(42)
        dm = DesignMatrix(p, lam)
        z = lam * np.eye(p)
        for _ in range(200):
            u = rng.standard_normal(p)
            dm.rank1_update(u)
            z += np.outer(u, u)
        direct_inv = np.linalg.inv(z)
        rel = np.abs(dm.inverse() - direct_inv) / np.maximum(np.abs(direct_inv), 1e-12)
        assert np.max(rel) <= 1e-8
        _, direct_logdet = np.linalg.slogdet(z)
        assert dm.logdet_ratio() == pytest.approx(direct_logdet - p * np.log(lam),
                                                  rel=1e-8)

    def test_refresh_residual(self):
        p = 10
        rng = np.random.default_rng(1)
        dm = DesignMatrix(p, 1.0)
        z = np.eye(p)
        for _ in range(512):  # exactly one refresh
            u = rng.standard_normal(p)
            dm.rank1_update(u)
            z += np.outer(u, u)
        residual = np.max(np.abs(z @ dm.inverse() - np.eye(p)))
        assert residual <= 1e-8

    @pytest.mark.parametrize("n", [12, 30, 31])  # dual, at the switch, primal
    def test_dual_and_switch_vs_direct(self, n):
        p, lam = 30, 0.3
        rng = np.random.default_rng(7)
        dm = DesignMatrix(p, lam)
        z = lam * np.eye(p)
        for _ in range(n):
            u = rng.standard_normal(p) * rng.uniform(0.1, 3.0)
            dm.rank1_update(u)
            z += np.outer(u, u)
        direct_inv = np.linalg.inv(z)
        assert (np.max(np.abs(dm.inverse() - direct_inv))
                <= 1e-8 * np.max(np.abs(direct_inv)))
        probe = rng.standard_normal(p)
        assert dm.quad_form(probe) == pytest.approx(probe @ direct_inv @ probe, rel=1e-8)
        _, direct_logdet = np.linalg.slogdet(z)
        assert dm.logdet_ratio() == pytest.approx(direct_logdet - p * np.log(lam),
                                                  rel=1e-8)

    @pytest.mark.parametrize("mode,n", [("diag", 40), ("full", 40), ("full", 100)],
                             ids=["diag", "dual", "primal"])
    def test_solve_matches_the_inverse(self, mode, n):
        p = 88
        rng = np.random.default_rng(5)
        dm = DesignMatrix(p, 0.3, mode)
        for _ in range(n):
            dm.rank1_update(rng.standard_normal(p) * rng.uniform(0.1, 3.0))
        v = rng.standard_normal(p)
        expected = dm.inverse() @ v
        assert np.max(np.abs(dm.solve(v) - expected)) <= 1e-12 * np.max(np.abs(expected))
        with pytest.raises(ValueError):
            dm.solve(np.ones(p + 1))

    # p = 6: 4 updates stay in the dual form, 20 cross into the primal form
    @pytest.mark.parametrize("mode,n", [("full", 4), ("full", 20), ("diag", 20)],
                             ids=["dual", "primal", "diag"])
    def test_samples_have_the_inverse_as_covariance(self, mode, n):
        p, draws = 6, 200_000
        rng = np.random.default_rng(16)
        dm = DesignMatrix(p, 0.5, mode)
        for _ in range(n):
            dm.rank1_update(rng.standard_normal(p) * rng.uniform(0.3, 2.0))
        xs = np.stack([dm.sample(rng) for _ in range(draws)])
        cov = dm.inverse()
        scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        # entry-wise Monte-Carlo error is about sqrt(2 / draws) = 0.3 % of scale
        assert np.max(np.abs(xs.T @ xs / draws - cov) / scale) <= 0.015
        assert np.max(np.abs(xs.mean(axis=0)) / np.sqrt(np.diag(cov))) <= 0.015

    def test_inverse_is_symmetric_and_psd_at_a_tiny_lambda(self):
        # embedded disjoint contexts span half of p, so Z = lam I + G^T G is
        # ill-conditioned at lam = 1e-8: np.linalg.inv(Z) is then not exactly
        # symmetric, and eigvalsh of its lower triangle reads below 0
        p, lam = 16, 1e-8
        rng = np.random.default_rng(17)
        dm = DesignMatrix(p, lam)
        for _ in range(3 * p):
            u = assumption3_embed(disjoint_transform(rng.standard_normal(4), 2)[rng.integers(2)])
            dm.rank1_update(u)
            inv = dm.inverse()
            assert np.array_equal(inv, inv.T)
            assert np.linalg.eigvalsh(inv)[0] >= 0.0

    def test_inverse_is_read_only(self):
        dm = DesignMatrix(3, 1.0)
        for _ in range(2):
            with pytest.raises(ValueError):
                dm.inverse()[0, 0] = 5.0
            dm.rank1_update(np.ones(3))
            dm.rank1_update(np.arange(3.0))

    def test_refreshes_sum_the_buffered_vectors(self):
        # p = 6 goes primal at the 6th update; refreshes at 512 and 1024 add
        # the 506 and then 512 vectors buffered since, and 76 more are pending
        p, lam = 6, 0.4
        rng = np.random.default_rng(11)
        dm = DesignMatrix(p, lam)
        z = lam * np.eye(p)
        for _ in range(1100):
            u = rng.standard_normal(p)
            dm.rank1_update(u)
            z += np.outer(u, u)
        direct_inv = np.linalg.inv(z)
        assert (np.max(np.abs(dm.inverse() - direct_inv))
                <= 1e-8 * np.max(np.abs(direct_inv)))
        _, direct_logdet = np.linalg.slogdet(z)
        assert dm.logdet_ratio() == pytest.approx(direct_logdet - p * np.log(lam),
                                                  rel=1e-8)

    def test_disjoint_embedded_contexts_at_the_linucb_dimension(self):
        # mushroom's 22 features, disjoint over 2 arms and embedded: p = 88 and
        # unit-norm vectors that span only 44 directions. 600 updates go primal
        # at the 88th, refresh at the 512th and leave 88 pending.
        p, lam = 88, 0.1
        rng = np.random.default_rng(15)
        dm = DesignMatrix(p, lam)
        z = lam * np.eye(p)
        for _ in range(600):
            x = rng.integers(0, 12, size=22).astype(float)
            u = assumption3_embed(disjoint_transform(x, 2)[rng.integers(2)])
            dm.rank1_update(u)
            z += np.outer(u, u)
        direct_inv = np.linalg.inv(z)
        assert (np.max(np.abs(dm.inverse() - direct_inv))
                <= 1e-10 * np.max(np.abs(direct_inv)))
        for a in range(2):
            probe = assumption3_embed(disjoint_transform(rng.random(22), 2)[a])
            assert dm.quad_form(probe) == pytest.approx(probe @ direct_inv @ probe,
                                                        rel=1e-10)

    def test_primal_update_allocates_no_p_by_p_array(self):
        p = 1000
        rng = np.random.default_rng(12)
        dm = DesignMatrix(p, 1.0)
        for u in rng.standard_normal((p + 1, p)):  # the p-th update goes primal
            dm.rank1_update(u)
        u = rng.standard_normal(p)
        tracemalloc.start()
        try:
            dm.rank1_update(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p * p * 8 / 4

    def test_dual_form_holds_no_p_by_p_array(self):
        p = 5696  # the mushroom config's parameter count
        rng = np.random.default_rng(2)
        us = rng.standard_normal((50, p))
        tracemalloc.start()
        try:
            dm = DesignMatrix(p, 0.1, updates=50)
            for u in us:
                dm.rank1_update(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p * p * 8 / 10


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNumericalTrouble:
    @staticmethod
    def _design(mode, updates):
        rng = np.random.default_rng(9)
        dm = DesignMatrix(4, 0.5, mode)
        for _ in range(updates):
            dm.rank1_update(rng.standard_normal(4))
        return dm

    @staticmethod
    def _assert_rejected(dm, u):
        probe = np.array([0.3, -1.0, 2.0, 0.5])
        before = (dm.update_count, dm.quad_form(probe), dm.logdet_ratio(),
                  dm.inverse().copy())
        with pytest.raises(DesignUpdateError):
            dm.rank1_update(u)
        after = (dm.update_count, dm.quad_form(probe), dm.logdet_ratio(), dm.inverse())
        assert after[:3] == before[:3]
        assert np.array_equal(after[3], before[3])

    # 2 updates stay in the dual form at p = 4; 6 cross into the primal form
    @pytest.mark.parametrize("mode,updates", [("full", 2), ("full", 6), ("diag", 2)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector(self, mode, updates, bad):
        dm = self._design(mode, updates)
        u = np.array([1.0, bad, 0.0, 0.0])
        with pytest.raises(DesignUpdateError):
            dm.check_update(u)
        self._assert_rejected(dm, u)

    @pytest.mark.parametrize("mode,updates", [("full", 2), ("full", 6), ("diag", 2)])
    def test_overflowing_vector(self, mode, updates):
        dm = self._design(mode, updates)
        u = np.array([1e200, 0.0, 0.0, 0.0])  # u.u overflows
        with pytest.raises(DesignUpdateError):
            dm.check_update(u)
        self._assert_rejected(dm, u)

    def test_non_finite_pivot(self):
        # the first four updates never touch e4, so Z^{-1} e4 = e4 / lam and
        # 1 + u^T Z^{-1} u overflows although u.u is finite
        dm = DesignMatrix(4, 1e-300)
        for axis in (0, 1, 2, 0):
            dm.rank1_update(np.eye(4)[axis])
        self._assert_rejected(dm, np.array([0.0, 0.0, 0.0, 1e5]))

    def test_rejected_primal_update_stays_out_of_the_refresh(self):
        # Z^{-1} e4 = e4 / lam, so 1 + u^T Z^{-1} u overflows for u = 1e154 e4
        # although u.u is finite; the refresh at update 512 would rebuild Z
        # with u had the rejected vector been buffered
        lam = 0.1
        dm = DesignMatrix(4, lam)
        z = lam * np.eye(4)
        for axis in (0, 1, 2, 0):
            dm.rank1_update(np.eye(4)[axis])
            z[axis, axis] += 1.0
        with pytest.raises(DesignUpdateError):
            dm.rank1_update(np.array([0.0, 0.0, 0.0, 1e154]))
        rng = np.random.default_rng(13)
        while dm.update_count < REFRESH_PERIOD + 10:
            u = rng.standard_normal(4)
            dm.rank1_update(u)
            z += np.outer(u, u)
        assert np.max(np.abs(z @ dm.inverse() - np.eye(4))) <= 1e-8

    def test_switch_to_a_z_that_is_not_finite(self):
        # each vector's squared norm is finite, but Z[0, 0] = 1 + 1e308 + 1e308 is not
        dm = DesignMatrix(2, 1.0)
        dm.rank1_update(np.array([1e154, 0.0]))
        with pytest.raises(DesignUpdateError, match="^design matrix Z is not finite after 2 "):
            dm.rank1_update(np.array([1e154, 8e153]))

    def test_non_positive_pivot(self):
        # at lam = 1e-300 the first pivot is sqrt(3), and l = 3 / sqrt(3) rounds
        # up, so repeating u gives lam + u.u - l.l < 0
        dm = DesignMatrix(4, 1e-300)
        u = np.array([1.0, 1.0, 1.0, 0.0])
        dm.rank1_update(u)
        self._assert_rejected(dm, u)
        dm.rank1_update(np.array([0.0, 0.0, 0.0, 1.0]))
        assert dm.update_count == 2


class TestBatchQuadForm:
    # diag; full at p = 60 after 20 updates (dual); full at p = 6 after 30 (primal)
    @pytest.mark.parametrize("mode,p,updates", [("diag", 6, 20), ("full", 60, 20),
                                                ("full", 6, 30)],
                             ids=["diag", "dual", "primal"])
    def test_rows_match_one_call_each(self, mode, p, updates):
        rng = np.random.default_rng(14)
        dm = DesignMatrix(p, 0.5, mode)
        for _ in range(updates):
            dm.rank1_update(rng.standard_normal(p))
        us = rng.standard_normal((5, p))
        batch = dm.quad_form(us)
        assert isinstance(batch, np.ndarray) and batch.shape == (5,)
        single = [dm.quad_form(u) for u in us]
        assert all(isinstance(v, float) for v in single)
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0.0)
        # a one-row batch takes the same path, so check against inverse() too
        reference = np.einsum("ij,jk,ik->i", us, dm.inverse(), us)
        np.testing.assert_allclose(batch, reference, rtol=1e-9, atol=0.0)

    def test_bad_shapes_rejected(self):
        dm = DesignMatrix(3, 1.0)
        for shape in [(2, 4), (2, 3, 3), ()]:
            with pytest.raises(ValueError):
                dm.quad_form(np.zeros(shape))


class TestProperties:
    # "full" at p = 6 crosses from the dual to the primal form at the 6th
    # update; "full-dual" at p = 60 stays in the dual form throughout
    MODES = pytest.mark.parametrize("mode,p", [("full", 6), ("diag", 6), ("full", 60)],
                                    ids=["full", "diag", "full-dual"])

    @MODES
    def test_quad_form_monotone_nonincreasing(self, mode, p):
        rng = np.random.default_rng(3)
        dm = DesignMatrix(p, 1.0, mode)
        probe = rng.standard_normal(p)
        prev = dm.quad_form(probe)
        for _ in range(50):
            dm.rank1_update(rng.standard_normal(p))
            cur = dm.quad_form(probe)
            assert cur <= prev + 1e-12
            prev = cur

    @MODES
    def test_logdet_monotone_nondecreasing(self, mode, p):
        rng = np.random.default_rng(4)
        dm = DesignMatrix(p, 2.0, mode)
        prev = dm.logdet_ratio()
        for _ in range(50):
            dm.rank1_update(rng.standard_normal(p))
            cur = dm.logdet_ratio()
            assert cur >= prev - 1e-12
            prev = cur

    @MODES
    def test_quad_form_bounded_by_norm(self, mode, p):
        rng = np.random.default_rng(5)
        lam = 1.3
        dm = DesignMatrix(p, lam, mode)
        for _ in range(20):
            dm.rank1_update(rng.standard_normal(p))
            u = rng.standard_normal(p)
            assert dm.quad_form(u) <= float(u @ u) / lam + 1e-12


def gradient_rows(depth, n, seed):
    """n scaled gradient rows of a width-4 network on 4-dim contexts, as
    per-layer factors: p = 20, 36 and 52 at depths 2, 3 and 4."""
    shape = NetworkShape(depth, 4, 4)
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(shape.param_count)
    grads, _ = gradient_many(theta, shape, rng.standard_normal((n, 4)))
    grads /= 2.0  # 1 / sqrt(m), as the policy scales them
    return grads


class TestFactoredRows:
    """A design fed per-layer factors agrees with one fed the same rows dense."""

    REL = 1e-12

    def _assert_agree(self, factored, dense, queries, rng):
        dense_queries = queries.dense()
        np.testing.assert_allclose(factored.quad_form(queries), dense.quad_form(dense_queries),
                                   rtol=self.REL, atol=0)
        assert factored.quad_form(queries[1]) == pytest.approx(
            dense.quad_form(dense_queries[1]), rel=self.REL, abs=0)
        assert factored.logdet_ratio() == pytest.approx(dense.logdet_ratio(), rel=self.REL,
                                                        abs=0)
        v = rng.standard_normal(factored.p)
        for ours, theirs in ((factored.solve(v), dense.solve(v)),
                             (factored.inverse(), dense.inverse())):
            assert np.max(np.abs(ours - theirs)) <= self.REL * np.max(np.abs(theirs))

    @pytest.mark.parametrize("mode", ["diag", "full"])
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_same_design_as_the_dense_rows(self, depth, mode):
        rows = gradient_rows(depth, 515, seed=depth)
        queries = gradient_rows(depth, 3, seed=depth + 10)
        p = rows.shape[1]
        # full: the dual form, the switch, the primal form and its refresh at
        # update 512, which comes for any p <= 512
        checks = {0, 1, 10, 100} if mode == "diag" else {0, 1, 3, p - 1, p, p + 5, 512, 515}
        factored, dense = DesignMatrix(p, 0.5, mode), DesignMatrix(p, 0.5, mode)
        rng = np.random.default_rng(depth)
        dense_rows = rows.dense()
        for count in range(max(checks) + 1):
            if count in checks:
                self._assert_agree(factored, dense, queries, rng)
            if count < max(checks):
                factored.rank1_update(rows[count])
                dense.rank1_update(dense_rows[count])

    # 2 updates stay in the dual form at p = 20; 25 cross into the primal form
    @pytest.mark.parametrize("mode,updates", [("full", 2), ("full", 25), ("diag", 2)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
    def test_a_bad_factor_raises_as_its_dense_row_does(self, mode, updates, bad):
        rows = gradient_rows(2, updates + 1, seed=7)
        rows.blocks[0][0][updates, 1] = bad  # one entry of the W_1 block's left factor
        probe = gradient_rows(2, 1, seed=8)
        messages = []
        for feed in (lambda u: u, Factored.dense):
            dm = DesignMatrix(20, 0.5, mode)
            for u in list(rows)[:updates]:
                dm.rank1_update(feed(u))
            bad_row = feed(rows[updates])
            before = (dm.update_count, dm.quad_form(feed(probe[0])), dm.logdet_ratio())
            with pytest.raises(DesignUpdateError) as checked:
                dm.check_update(bad_row)
            with pytest.raises(DesignUpdateError) as updated:
                dm.rank1_update(bad_row)
            assert (dm.update_count, dm.quad_form(feed(probe[0])), dm.logdet_ratio()) == before
            messages.append((str(checked.value), str(updated.value)))
        assert messages[0] == messages[1]

    def test_a_dual_design_keeps_one_block_layout(self):
        rows = gradient_rows(2, 2, seed=3)
        dm = DesignMatrix(20, 0.5)
        dm.rank1_update(rows[0])
        for vector in (rows.dense()[1], rows.dense()[1:]):
            with pytest.raises(ValueError, match="block layout"):
                dm.quad_form(vector)
        with pytest.raises(ValueError, match="block layout"):
            dm.rank1_update(rows.dense()[1])
        assert dm.update_count == 1
