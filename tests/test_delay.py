import math

import numpy as np
import pytest

from delaybandit import DelayDistribution, RevealQueue, reveal_round
from delaybandit.errors import ConfigurationError, ProtocolViolationError


class TestRevealRound:
    def test_fractional(self):
        assert reveal_round(3, 2.5) == 6

    def test_zero_delay_same_round(self):
        assert reveal_round(3, 0.0) == 3

    def test_integral_boundary(self):
        assert reveal_round(3, 3.0) == 6

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            reveal_round(3, -0.1)


class TestQueue:
    def test_empty_pop(self):
        q = RevealQueue()
        assert q.pop_revealed(1) == []

    def test_bucket_sorted_by_round(self):
        q = RevealQueue()
        q.schedule(2, 1.5, "b")  # bucket 4
        q.schedule(1, 2.5, "a")  # bucket 4
        q.schedule(3, 0.5, "c")  # bucket 4
        assert q.pop_revealed(4) == ["a", "b", "c"]

    def test_out_of_order_pop_rejected(self):
        q = RevealQueue()
        q.pop_revealed(3)
        with pytest.raises(ProtocolViolationError):
            q.pop_revealed(3)

    def test_schedule_rejects_round_0(self):
        q = RevealQueue()
        with pytest.raises(ValueError, match="^round must be >= 1, got 0$"):
            q.schedule(0, 1.0, "a")
        assert q.pending_count == 0

    def test_conservation_and_reveal_set_definition(self):
        # exhaustive oracle: popped at t must be exactly {s: t-1 < s+tau <= t}
        rng = np.random.default_rng(8)
        t_max = 40
        pairs = [(int(rng.integers(1, t_max + 1)), float(rng.exponential(5.0)))
                 for _ in range(500)]
        q = RevealQueue()
        for i, (s, tau) in enumerate(pairs):
            q.schedule(s, tau, i)
        seen = []
        for t in range(1, t_max + 1):
            popped = set(q.pop_revealed(t))
            expected = {i for i, (s, tau) in enumerate(pairs)
                        if t - 1 < s + tau <= t}
            assert popped == expected
            seen.extend(popped)
        assert len(seen) == len(set(seen))
        expected_total = sum(1 for s, tau in pairs if math.ceil(s + tau) <= t_max)
        assert len(seen) == expected_total
        assert q.inserted == q.popped + q.pending_count
        assert q.pending_count == len(pairs) - expected_total


class TestDistributions:
    def test_expected_delay_mapping(self):
        # E[tau] = 30 maps to upper 60, rate 1/30 and Pareto a = 31/30, x_m = 1;
        # a twin generator gives the uniform u that sample() draws
        u = np.random.default_rng(4).random()

        def draw(kind, lomax=False):
            return DelayDistribution(kind, 30, lomax=lomax).sample(
                np.random.default_rng(4))

        assert draw("constant") == 30.0
        assert draw("uniform") == 60.0 * u
        assert draw("exponential") == -math.log(1.0 - u) / (1 / 30)
        assert draw("pareto") == 1.0 * (1.0 - u) ** (-1.0 / (31 / 30))
        assert draw("pareto", lomax=True) == (1.0 - u) ** (-1.0 / (31 / 30)) - 1.0

    def test_describe_strings(self):
        assert DelayDistribution("exponential", 30).describe() == \
            f"Exponential(rate={1 / 30!r})"
        assert DelayDistribution("uniform", 30).describe() == "Uniform(0, 60.0)"
        assert DelayDistribution("pareto", 30).describe() == \
            f"Pareto(a={31 / 30!r}, x_m=1.0)"
        assert DelayDistribution("pareto", 30, lomax=True).describe() == \
            f"Lomax(a={31 / 30!r}, x_m=1.0)"
        assert DelayDistribution("constant", 4.5).describe() == "Constant(4.5)"

    def test_none_always_zero(self):
        dist = DelayDistribution("none")
        rng = np.random.default_rng(0)
        assert all(dist.sample(rng) == 0.0 for _ in range(100))

    def test_none_and_zero_mean_are_one_distribution(self):
        for dist in (DelayDistribution("uniform", 0), DelayDistribution("none", 30.0)):
            assert dist == DelayDistribution("none")
            assert dist.describe() == "None"

    def test_constant(self):
        dist = DelayDistribution("constant", 4.5)
        assert dist.sample(np.random.default_rng(0)) == 4.5

    def test_exponential_sample_mean(self):
        dist = DelayDistribution("exponential", 30)
        rng = np.random.default_rng(123)
        draws = np.array([dist.sample(rng) for _ in range(1_000_000)])
        assert abs(draws.mean() - 30.0) <= 0.3

    def test_uniform_support(self):
        dist = DelayDistribution("uniform", 30)
        rng = np.random.default_rng(1)
        draws = np.array([dist.sample(rng) for _ in range(10_000)])
        assert draws.min() >= 0.0 and draws.max() <= 60.0
        assert abs(draws.mean() - 30.0) < 1.0

    def test_pareto_support_and_lomax_mean(self):
        rng = np.random.default_rng(2)
        classic = DelayDistribution("pareto", 0.5)  # a = 3, x_m = 1
        draws = np.array([classic.sample(rng) for _ in range(10_000)])
        assert draws.min() >= 1.0
        assert abs(draws.mean() - 1.5) < 0.1  # a x_m/(a-1)
        lomax = DelayDistribution("pareto", 0.5, lomax=True)
        draws = np.array([lomax.sample(rng) for _ in range(10_000)])
        assert draws.min() >= 0.0
        assert abs(draws.mean() - 0.5) < 0.1  # x_m/(a-1)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayDistribution("uniform", -1.0)
        with pytest.raises(ConfigurationError):
            DelayDistribution("pareto", math.nan)
        with pytest.raises(ConfigurationError):
            DelayDistribution("uniform", math.inf)
        with pytest.raises(ConfigurationError):
            DelayDistribution("gamma")
