"""NTK / regret-bound analysis driven by an experiment configuration."""

import math

import numpy as np

from .config import ExperimentConfig
from .data import assumption3_embed
from .environment import DatasetSource
from .errors import DegenerateContextError, NonFiniteScoreError
from .harness import build_environment
from .ntk import (DelayBoundParams, d_plus, effective_dimension, ntk_gram, regret_bound,
                  theoretical_gamma)


def analyze_config(cfg: ExperimentConfig) -> dict:
    """Desk-scale theory summary: d_tilde, D_+, gamma_T and the bound curve.

    D_+ takes the delay's sub-exponential tail constants (alpha, b) from the
    configured distribution (DelayDistribution.tail_constants). A Pareto delay
    has none, so its D_+, D_tau and bound curve are None; psi_tau, which needs
    no tail, and d_tilde and gamma_T keep their values.

    Contexts are sampled from the configured environment (first rounds, all
    arms) and, unless the environment embeds them already, passed through the
    duplicate-and-normalize embedding so they satisfy the unit-norm /
    equal-halves conditions the theory assumes.

    gamma_T is the theoretical radius at n = T rewards and log det at its bound
    d_tilde * log(1 + TK/lam): it grows with n, so it bounds every round's.
    """
    env = build_environment(cfg, cfg.seeds[0])
    wanted = cfg.analysis.n_contexts
    # a dataset repeats after one pass over its rows, and its nonzero contexts
    # with it; a synthetic context is never zero
    rounds = len(env.source.labels) if isinstance(env.source, DatasetSource) else wanted
    embed = (lambda x: x) if cfg.environment.embed_assumption3 else assumption3_embed
    found = []
    for t in range(1, rounds + 1):
        found += [embed(x) for x in env.round_contexts(t) if np.linalg.norm(x) > 0]
        if len(found) >= wanted:
            break
    if not found:
        raise DegenerateContextError(
            f"the {cfg.environment.source} data holds no nonzero context in its {rounds} rows")
    contexts = np.resize(np.stack(found), (wanted, found[0].size))  # repeats or truncates
    gram = ntk_gram(contexts, cfg.network.depth)
    d_tilde = effective_dimension(gram, cfg.policy.lam, cfg.horizon * cfg.arms)
    eigmin = float(np.linalg.eigvalsh(gram)[0])
    delay = cfg.delay_distribution()
    tail = delay.tail_constants()
    policy = cfg.policy
    steps = cfg.train.steps_at(cfg.horizon)

    def delay_constant(horizon):  # psi_tau needs no tail: without one, (0, 0) stands in
        return d_plus(DelayBoundParams(horizon, policy.delta, delay.expected_delay,
                                       *(tail or (0.0, 0.0))))

    dp, d_tau, psi_tau = delay_constant(cfg.horizon)
    if tail is None:
        dp = d_tau = curve = None
    else:
        grid = np.unique(np.linspace(1, cfg.horizon, num=min(cfg.horizon, 50)).astype(int))
        curve = [
            [int(t), regret_bound(
                delay_constant(int(t))[0], d_tilde, int(t), cfg.arms, policy.lam,
                policy.nu, policy.delta, policy.norm_s, cfg.train.eta,
                cfg.network.width, steps, cfg.network.depth)]
            for t in grid
        ]
    gamma_t = theoretical_gamma(
        cfg.horizon, d_tilde * math.log(1.0 + cfg.horizon * cfg.arms / policy.lam),
        policy.lam, policy.nu, policy.delta, policy.norm_s, cfg.train.eta,
        cfg.network.width, steps, cfg.network.depth)
    # JSON has no number for inf or nan, and each is past what the bound can say
    numbers = [d_tilde, dp, gamma_t] + [bound for _, bound in curve or ()]
    if not np.isfinite([x for x in numbers if x is not None]).all():
        raise NonFiniteScoreError(f"analysis: d_tilde {d_tilde}, D_plus {dp}, gamma_T {gamma_t}"
                                  " or a point of the regret-bound curve is not finite")
    alpha, b = tail or (None, None)
    return {
        "n_contexts": int(contexts.shape[0]),
        "d_tilde": d_tilde,
        "gram_min_eigenvalue": eigmin,
        "delay_alpha": alpha,
        "delay_b": b,
        "D_plus": dp,
        "D_tau": d_tau,
        "psi_tau": psi_tau,
        "gamma_T": gamma_t,
        "bound_curve": curve,
    }
