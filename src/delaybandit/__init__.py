"""Neural contextual bandits under stochastic delayed reward feedback."""

from .data import (Dataset, assumption3_embed, disjoint_transform,
                   load_idx, load_mushroom_csv, synthetic_h)
from .delay import DelayDistribution, RevealQueue, reveal_round
from .design import DesignMatrix, Factored
from .environment import DatasetSource, Environment, SyntheticSource
from .network import (NetworkShape, forward, forward_many, gradient, gradient_many,
                      init_symmetric, train_nn)
from .ntk import (DelayBoundParams, d_plus, effective_dimension, ntk_gram,
                  regret_bound, theoretical_gamma)
from .policies import BanditRecord, LinearBandit, NeuralBandit, gamma_value

__all__ = [
    "BanditRecord", "Dataset", "DatasetSource", "DelayBoundParams", "DelayDistribution",
    "DesignMatrix", "Environment", "Factored", "LinearBandit",
    "NetworkShape", "NeuralBandit", "RevealQueue",
    "SyntheticSource", "assumption3_embed", "d_plus",
    "disjoint_transform", "effective_dimension", "forward", "forward_many",
    "gamma_value", "gradient", "gradient_many", "init_symmetric", "load_idx",
    "load_mushroom_csv", "ntk_gram", "regret_bound", "reveal_round",
    "synthetic_h", "theoretical_gamma", "train_nn",
]

__version__ = "0.1.0"
