import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from delaybandit import (BanditRecord, DelayDistribution, LinearBandit,
                         NetworkShape, NeuralBandit, RevealQueue, gamma_value, train_nn)
from delaybandit.config import PolicyBlock, TrainBlock, config_from_dict
from delaybandit.design import DesignMatrix, as_factored
from delaybandit.environment import Environment, SyntheticSource
from delaybandit.errors import (DesignUpdateError, NonFiniteScoreError,
                               ProtocolViolationError)
from delaybandit.harness import run_single
from delaybandit import policies as policies_mod

# (second record's round, whether round 2 played a NaN context, the error)
# for a batch that starts with the valid record of round 1 and must change nothing
REJECTED_BATCHES = pytest.mark.parametrize(
    "second_round,nan_context,error",
    [(7, False, ProtocolViolationError), (1, False, ProtocolViolationError),
     (2, True, DesignUpdateError)],
    ids=["unknown", "repeated", "nan-context"])


def make_cfg(shape=NetworkShape(2, 4, 4), steps=3, steps_schedule="fixed", horizon=100,
             **overrides):
    """The (policy block, train block, shape, horizon) that NeuralBandit takes."""
    train = TrainBlock(eta=0.01, steps=steps, steps_schedule=steps_schedule, batch_size=None)
    base = dict(gamma_mode="constant", gamma_const=1.0)
    base.update(overrides)
    return PolicyBlock(**base), train, shape, horizon


class TestGamma:
    def test_constant_mode(self):
        cfg = PolicyBlock(gamma_mode="constant", gamma_const=1.5)
        assert gamma_value(cfg, 3.2) == 1.5

    def test_simple_mode(self):
        # delta = 0.05 and S = 1e-4, the reference setup's constants
        cfg = PolicyBlock(gamma_mode="simple", nu=2.0, lam=4.0)
        expected = 2.0 * math.sqrt(1.0 - 2 * math.log(0.05)) + 2.0 * 1e-4
        assert gamma_value(cfg, 1.0) == pytest.approx(expected)

    def test_simple_mode_adds_sqrt_lambda_times_s(self):
        # the radius adds sqrt(lam) * S, as NeuralUCB does, not sqrt(lam * S) = 0.02
        cfg = PolicyBlock(gamma_mode="simple", nu=0.0, lam=4.0)
        assert gamma_value(cfg, 0.0) == pytest.approx(2e-4)  # 2*1e-4

    # sqrt(lam) * S stays below 1.4e150 with S = 1e-4, so only nu can make gamma inf
    @pytest.mark.parametrize("overrides", [
        dict(nu=1e300),  # nu * sqrt(logdet - 2 log delta) rounds to inf
    ], ids=["nu"])
    def test_gamma_that_is_not_finite_raises(self, overrides):
        cfg = PolicyBlock(gamma_mode="simple", **overrides)
        with pytest.raises(NonFiniteScoreError, match="confidence radius gamma is inf"):
            gamma_value(cfg, 1e300)


class TestSelection:
    def _stubbed_policy(self, monkeypatch, means, quads, cfg=None, rng_seed=0):
        cfg = cfg or make_cfg()
        policy = NeuralBandit(*cfg, np.random.default_rng(rng_seed))
        p = policy.shape.param_count

        def fake_gradient_many(theta, shape, xs):
            return as_factored(np.zeros((len(means), p))), np.array(means, dtype=float)

        def fake_quad_form(us):  # one call per round, for all K arms
            assert us.shape == (len(quads), p)
            return np.array(quads, dtype=float)

        monkeypatch.setattr(policies_mod, "gradient_many", fake_gradient_many)
        monkeypatch.setattr(policy.design, "quad_form", fake_quad_form)
        return policy

    def test_ucb_argmax(self, monkeypatch):
        # means (0.2, 0.1), bonuses (0.0, 0.3) with gamma = 1 -> arm 2
        policy = self._stubbed_policy(monkeypatch, [0.2, 0.1], [0.0, 0.09])
        action, diag = policy.select_action(np.zeros((2, 4)))
        assert action == 2
        assert diag.scores == pytest.approx([0.2, 0.4])

    def test_tie_breaks_to_lowest_arm(self, monkeypatch):
        policy = self._stubbed_policy(monkeypatch, [0.3, 0.3, 0.3], [0.0, 0.0, 0.0])
        action, _ = policy.select_action(np.zeros((3, 4)))
        assert action == 1

    def test_ts_zero_nu_is_greedy(self, monkeypatch):
        cfg = make_cfg(algorithm="neural-ts", nu=0.0)
        policy = self._stubbed_policy(monkeypatch, [0.1, 0.9, 0.4], [1.0, 1.0, 1.0],
                                      cfg=cfg)
        action, _ = policy.select_action(np.zeros((3, 4)))
        assert action == 2

    def test_ts_draws_consume_policy_stream_in_arm_order(self):
        cfg = make_cfg(algorithm="neural-ts", nu=1.0)
        rng = np.random.default_rng(5)
        policy = NeuralBandit(*cfg, rng)
        contexts = np.tile(np.array([0.5, 0.5, 0.5, 0.5]), (2, 1))
        a1, d1 = policy.select_action(contexts)
        # reproduce: same seed, same arithmetic
        rng2 = np.random.default_rng(5)
        policy2 = NeuralBandit(*cfg, rng2)
        a2, d2 = policy2.select_action(contexts)
        assert a1 == a2
        assert d1.scores == pytest.approx(d2.scores)

    def test_ts_draws_equal_one_normal_per_arm(self):
        cfg = make_cfg(algorithm="neural-ts", nu=0.7)
        policy = NeuralBandit(*cfg, np.random.default_rng(5))
        reference = NeuralBandit(*cfg, np.random.default_rng(5))
        contexts = np.random.default_rng(6).standard_normal((3, 4))
        _, diag = policy.select_action(contexts)
        # reference: one normal draw per arm, in arm order
        grads, means = policies_mod.gradient_many(reference.theta, reference.shape, contexts)
        grads /= math.sqrt(reference.shape.width)
        sigma2 = reference.cfg.lam * reference.design.quad_form(grads)
        draws = np.array([reference.rng.normal(means[a], reference.cfg.nu * math.sqrt(sigma2[a]))
                          for a in range(len(contexts))])
        assert np.array_equal(diag.scores, draws)
        assert policy.rng.random() == reference.rng.random()

    def test_dimension_mismatch(self):
        policy = NeuralBandit(*make_cfg(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            policy.select_action(np.zeros((2, 3)))


class TestIngest:
    def make_policy(self, **overrides):
        return NeuralBandit(*make_cfg(**overrides), np.random.default_rng(1))

    def _play_round(self, policy, rng):
        x = rng.standard_normal((2, 4))
        return policy.select_action(x)

    def test_empty_batch_on_reveal_no_changes(self):
        policy = self.make_policy()
        rng = np.random.default_rng(2)
        self._play_round(policy, rng)
        theta_before = policy.theta.copy()
        policy.ingest_revealed([])
        assert policy.design.update_count == 0
        assert np.array_equal(policy.theta, theta_before)
        assert policy.t == 1 and len(policy.pending) == 1

    def test_every_round_retrains_without_new_reveals(self):
        policy = self.make_policy(warm_start=True)
        rng = np.random.default_rng(2)
        self._play_round(policy, rng)
        policy.ingest_revealed([BanditRecord(1, 1.0)])
        theta_after_first = policy.theta.copy()
        self._play_round(policy, rng)
        policy.ingest_revealed([])
        # warm start + an extra training pass moves theta despite empty batch
        assert not np.array_equal(policy.theta, theta_after_first)

    def test_counting(self):
        policy = self.make_policy()
        rng = np.random.default_rng(3)
        records = []
        for t in range(1, 4):
            self._play_round(policy, rng)
            records.append(BanditRecord(t, 0.5))
            policy.ingest_revealed([])
        policy.select_action(rng.standard_normal((2, 4)))
        policy.ingest_revealed(records[:2])
        assert policy.design.update_count == 2
        assert policy.revealed_count == 2
        assert len(policy.pending) == policy.t - 2

    @pytest.mark.parametrize("gamma_mode,reads", [("constant", 0), ("simple", 1)])
    def test_logdet_read_only_when_gamma_uses_it(self, monkeypatch, gamma_mode, reads):
        policy = self.make_policy(gamma_mode=gamma_mode, design_mode="diag")
        rng = np.random.default_rng(4)
        self._play_round(policy, rng)
        logdet, calls = policy.design.logdet_ratio, []
        monkeypatch.setattr(policy.design, "logdet_ratio",
                            lambda: calls.append(1) or logdet())
        policy.ingest_revealed([BanditRecord(1, 0.5)])
        assert len(calls) == reads
        assert policy.gamma == gamma_value(policy.cfg, logdet())

    @pytest.mark.parametrize("algorithm,delay", [("delayed-neural-ts", "uniform"),
                                                 ("lin-ts", "none")])
    def test_ts_gamma_is_nu_and_reads_no_log_det(self, monkeypatch, algorithm, delay):
        # a TS draw multiplies nu, never the UCB radius, so simple gamma computes none
        cfg = config_from_dict({
            "experiment": {"horizon": 30, "arms": 3, "seeds": [1]},
            "policy": {"algorithm": algorithm, "gamma_mode": "simple", "nu": 0.3,
                       "alpha": 2.0, "design_mode": "diag"},
            "network": {"width": 4},
            "train": {"steps": 1, "steps_schedule": "fixed", "eta": 1e-3},
            "environment": {"source": "synthetic", "synthetic_dim": 4,
                            "embed_assumption3": True, "delay": delay,
                            "expected_delay": 2},
        })

        def refuse(self):
            raise AssertionError("a TS policy read log det")

        monkeypatch.setattr(DesignMatrix, "logdet_ratio", refuse)
        rows = run_single(cfg, 1).rows
        assert rows[-1][4] > 0  # rewards were revealed and learned
        assert {row[6] for row in rows} == {0.3}

    @pytest.mark.parametrize("schedule", ["fixed", "round"])
    def test_training_spec_follows_schedule(self, monkeypatch, schedule):
        # a fixed schedule trains with the configured settings every round;
        # a round schedule trains for J = t steps at round t
        specs = []

        def record(theta, shape, xs, rs, lam, eta, steps, batch_size, rng, anchor):
            specs.append((lam, eta, steps, batch_size))
            return theta

        monkeypatch.setattr(policies_mod, "train_nn", record)
        policy = self.make_policy(steps_schedule=schedule)
        rng = np.random.default_rng(5)
        for t in range(1, 4):
            self._play_round(policy, rng)
            policy.ingest_revealed([BanditRecord(t, 0.5)])
        if schedule == "fixed":
            assert specs == [(policy.cfg.lam, policy.train.eta, policy.train.steps,
                              policy.train.batch_size)] * 3
        else:
            assert specs == [(policy.cfg.lam, policy.train.eta, t, policy.train.batch_size)
                             for t in (1, 2, 3)]

    def test_unknown_round_rejected(self):
        policy = self.make_policy()
        with pytest.raises(ProtocolViolationError):
            policy.ingest_revealed([BanditRecord(9, 0.0)])

    def test_batch_permutation_invariance(self):
        batches = []
        for order in ([0, 1, 2], [2, 0, 1]):
            policy = self.make_policy()
            records = []
            for t in range(1, 4):
                self._play_round(policy, np.random.default_rng(t))
                records.append(BanditRecord(t, 0.3 * t))
                policy.ingest_revealed([])
            policy.select_action(np.random.default_rng(9).standard_normal((2, 4)))
            policy.ingest_revealed([records[i] for i in order])
            batches.append(policy.design.inverse().copy())
        assert np.max(np.abs(batches[0] - batches[1])) <= 1e-10

    def test_zero_delay_stream_reproduces_undelayed_bookkeeping(self):
        policy = self.make_policy()
        rng = np.random.default_rng(6)
        queue = RevealQueue()
        for t in range(1, 11):
            self._play_round(policy, rng)
            queue.schedule(t, 0.0, BanditRecord(t, 1.0))
            policy.ingest_revealed(queue.pop_revealed(t))
        assert policy.revealed_count == 10
        assert policy.design.update_count == 10
        assert not policy.pending

    def test_training_sees_every_revealed_row(self):
        # full-batch training from theta0 must equal train_nn on the rows
        # collected here, up to the last round of the horizon
        policy = self.make_policy(steps=2, horizon=70)
        rng = np.random.default_rng(8)
        xs, rs = [], []
        for t in range(1, 71):
            self._play_round(policy, rng)
            xs.append(policy.pending[t])
            rs.append(0.01 * t)
            policy.ingest_revealed([BanditRecord(t, rs[-1])])
        expected = train_nn(policy.theta0, policy.shape, np.array(xs), np.array(rs),
                            policy.cfg.lam, policy.train.eta, policy.train.steps,
                            policy.train.batch_size, anchor=policy.theta0)
        assert np.array_equal(policy.theta, expected)

    def test_score_that_is_not_finite_raises_before_the_round_is_played(self, monkeypatch):
        policy = self.make_policy()
        with pytest.raises(NonFiniteScoreError, match="^round 1: the gradient norm of an arm "
                                                      "is nan, not finite$"):
            policy.select_action(np.full((2, 4), np.nan))
        # a finite gradient beside a mean that overflows
        monkeypatch.setattr(policies_mod, "gradient_many",
                            lambda theta, shape, xs: (as_factored(np.ones((2, 20))),
                                                      np.array([0.0, 1.7e308])))
        monkeypatch.setattr(policy, "gamma", 1e307)  # a bonus of sqrt(5) * 1e307
        with pytest.raises(NonFiniteScoreError, match=r"^round 1, arm 2: the score inf \(mean "
                                                      r"1\.7e\+308, bonus 2\.236\d*e\+307\) "
                                                      r"is not finite$"):
            policy.select_action(np.zeros((2, 4)))
        assert policy.t == 0 and not policy.pending
        assert policy.max_scaled_grad_norm == pytest.approx(math.sqrt(5))

    def test_round_revealed_twice_rejected(self):
        policy = self.make_policy()
        self._play_round(policy, np.random.default_rng(2))
        with pytest.raises(ProtocolViolationError):
            policy.ingest_revealed([BanditRecord(1, 0.0), BanditRecord(1, 0.0)])

    @REJECTED_BATCHES
    def test_rejected_batch_changes_nothing(self, second_round, nan_context, error):
        policy = self.make_policy()
        rng = np.random.default_rng(2)
        self._play_round(policy, rng)
        self._play_round(policy, rng)
        if nan_context:  # scoring refuses a NaN context, so round 2's is made NaN once played
            policy.pending[2][:] = np.nan
        theta = policy.theta.copy()
        batch = [BanditRecord(1, 1.0), BanditRecord(second_round, 1.0)]
        with pytest.raises(error):
            policy.ingest_revealed(batch)
        assert policy.design.update_count == 0
        assert policy.revealed_count == 0
        assert list(policy.pending) == [1, 2]
        assert np.array_equal(policy.theta, theta)


class TestCausality:
    def test_policy_never_reads_unrevealed_rewards(self):
        """Poisoning unrevealed rewards with NaN must not change any action."""
        def run(poison):
            rng_env = np.random.default_rng(10)
            source = SyntheticSource("linear", 4, 3, rng_env)
            env = Environment(source, DelayDistribution("uniform", 3.0), 0.0,
                              np.random.default_rng(11), np.random.default_rng(12))
            policy = NeuralBandit(*make_cfg(steps=2),
                                  np.random.default_rng(13))
            queue = RevealQueue()
            truth = {}
            actions = []
            for t in range(1, 31):
                contexts = env.round_contexts(t)
                action, _ = policy.select_action(contexts)
                actions.append(action)
                out = env.step(t, action)
                truth[t] = out.reward
                reward = math.nan if poison else out.reward
                queue.schedule(t, out.delay, BanditRecord(t, reward))
                batch = queue.pop_revealed(t)
                if poison:
                    batch = [replace(rec, reward=truth[rec.round]) for rec in batch]
                policy.ingest_revealed(batch)
            return actions

        assert run(poison=False) == run(poison=True)


def linear_bandit(dim, algorithm="lin-ucb", horizon=200, **policy):
    return LinearBandit(PolicyBlock(algorithm=algorithm, **policy), dim, horizon,
                        np.random.default_rng(0))


class TestLinearBaseline:
    def test_no_data_score_is_alpha_norm(self):
        policy = linear_bandit(3, lam=1.0, alpha=2.0)
        x = np.array([[3.0, 0.0, 4.0]])
        _, diag = policy.select_action(x)
        assert diag.means[0] == 0.0
        assert diag.scores[0] == pytest.approx(2.0 * 5.0)

    def test_ridge_closed_form(self):
        policy = linear_bandit(3, lam=1.0)
        e1 = np.array([1.0, 0.0, 0.0])
        action, _ = policy.select_action(np.stack([e1, 0.5 * e1]))  # plays e1
        assert action == 1
        policy.ingest_revealed([BanditRecord(1, 1.0)])
        _, diag = policy.select_action(np.eye(3))  # means e_i . theta_hat
        assert diag.means == pytest.approx([0.5, 0.0, 0.0])

    def test_ts_zero_nu_is_greedy_ridge(self):
        ucb_free = linear_bandit(2, algorithm="lin-ts", nu=0.0)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        ucb_free.select_action(np.stack([e1, e2]))  # a tie, so arm 1 plays e1
        ucb_free.ingest_revealed([BanditRecord(1, 1.0)])
        action, diag = ucb_free.select_action(np.stack([e1, e2]))
        assert action == 1
        assert diag.scores == pytest.approx(diag.means)

    @staticmethod
    def _dual_form_round_peak(algorithm, p):
        """The traced peak of one select_action after 100 reveals, in the dual form."""
        policy = linear_bandit(p, algorithm=algorithm)
        rng = np.random.default_rng(3)
        for t in range(1, 101):
            policy.select_action(rng.standard_normal((10, p)))
            policy.ingest_revealed([BanditRecord(t, float(rng.standard_normal()))])
        contexts = rng.standard_normal((10, p))
        tracemalloc.start()
        try:
            policy.select_action(contexts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_ucb_round_in_the_dual_form_builds_no_p_by_p_array(self):
        assert self._dual_form_round_peak("lin-ucb", 2000) < 2000 * 2000

    def test_ts_round_in_the_dual_form_builds_no_p_by_p_array(self):
        # the draw perturbs and solves, with no factor of Z^{-1}
        assert self._dual_form_round_peak("lin-ts", 2000) < 2000 * 2000

    def test_dimension_mismatch(self):
        policy = linear_bandit(3)
        with pytest.raises(ValueError):
            policy.select_action(np.zeros((2, 4)))

    @REJECTED_BATCHES
    def test_rejected_batch_changes_nothing(self, second_round, nan_context, error):
        policy = linear_bandit(3)
        policy.select_action(np.eye(3)[:2])
        policy.select_action(np.eye(3)[:2])
        if nan_context:  # scoring refuses a NaN context, so round 2's is made NaN once played
            policy.pending[2][:] = np.nan
        b = policy.b.copy()
        batch = [BanditRecord(1, 1.0), BanditRecord(second_round, 1.0)]
        with pytest.raises(error):
            policy.ingest_revealed(batch)
        assert policy.design.update_count == 0
        assert np.array_equal(policy.b, b)
        assert list(policy.pending) == [1, 2]
        assert policy.revealed_count == 0


@pytest.mark.parametrize("neural", [True, False], ids=["neural", "linear"])
def test_pivot_failure_keeps_earlier_updates_and_learns_no_reward(monkeypatch, neural):
    if neural:
        policy = NeuralBandit(*make_cfg(), np.random.default_rng(1))
    else:
        policy = linear_bandit(4)
    rng = np.random.default_rng(2)
    for _ in range(2):
        policy.select_action(rng.standard_normal((2, 4)))
    update, calls = policy.design.rank1_update, []

    def fail_second(u):
        calls.append(1)
        if len(calls) == 2:
            raise DesignUpdateError("pivot")
        update(u)

    monkeypatch.setattr(policy.design, "rank1_update", fail_second)
    learned = policy.theta.copy() if neural else policy.b.copy()
    with pytest.raises(DesignUpdateError):
        policy.ingest_revealed([BanditRecord(1, 1.0), BanditRecord(2, 1.0)])
    assert policy.design.update_count == 1
    assert list(policy.pending) == [2]
    assert policy.revealed_count == 0
    assert np.array_equal(policy.theta if neural else policy.b, learned)


@pytest.mark.parametrize("neural", [True, False], ids=["neural", "linear"])
def test_round_past_the_horizon_is_refused_before_it_is_played(neural):
    # the policy's buffers hold the horizon's rounds and no more
    if neural:
        policy = NeuralBandit(*make_cfg(horizon=3), np.random.default_rng(1))
    else:
        policy = linear_bandit(4, horizon=3)
    rng = np.random.default_rng(2)
    for t in range(1, 4):
        policy.select_action(rng.standard_normal((2, 4)))
        policy.ingest_revealed([BanditRecord(t, 0.5)])
    with pytest.raises(ProtocolViolationError,
                       match="^round 4 is past the horizon of 3 rounds$"):
        policy.select_action(rng.standard_normal((2, 4)))
    assert policy.t == 3 and not policy.pending
    assert policy.revealed_count == policy.design.update_count == 3
