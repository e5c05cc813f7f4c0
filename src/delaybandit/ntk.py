"""Theory calculators: NTK Gram matrix, effective dimension, delay constant
D_+, the theoretical confidence radius and the closed-form regret-bound curve.

The layer recursion's bivariate Gaussian expectations are evaluated in closed
form via the arc-cosine kernels: with c = S_ij / sqrt(S_ii S_jj) and
theta = arccos(c),

    2 E[relu(u) relu(v)]   = sqrt(S_ii S_jj) / pi * (sin theta + (pi - theta) cos theta)
    2 E[relu'(u) relu'(v)] = (pi - theta) / pi.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateContextError, NotPositiveSemidefiniteError

PSD_TOLERANCE = 1e-8


def ntk_gram(contexts: np.ndarray, depth: int) -> np.ndarray:
    """NTK Gram matrix H = (Htilde^(L) + Sigma^(L)) / 2 over a context set."""
    contexts = np.asarray(contexts, dtype=np.float64)
    if depth < 2:
        raise ConfigurationError(f"depth must be >= 2, got {depth}")
    norms = np.linalg.norm(contexts, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateContextError("NTK recursion needs nonzero contexts")
    sigma = contexts @ contexts.T
    htilde = sigma.copy()
    for _ in range(depth - 1):
        diag = np.sqrt(np.outer(np.diag(sigma), np.diag(sigma)))
        theta = np.arccos(np.clip(sigma / diag, -1.0, 1.0))
        sigma = diag / np.pi * (np.sin(theta) + (np.pi - theta) * np.cos(theta))
        htilde = htilde * (np.pi - theta) / np.pi + sigma
    return (htilde + sigma) / 2.0


def effective_dimension(H: np.ndarray, lam: float, n: int) -> float:
    """log det(I + H/lam) / log(1 + n/lam) with n the full context count."""
    H = np.asarray(H, dtype=np.float64)
    if lam <= 0:
        raise ConfigurationError(f"lambda must be > 0, got {lam}")
    size = H.shape[0]
    if size == 0:
        return 0.0
    eigmin = float(np.linalg.eigvalsh(H)[0])
    if eigmin < -PSD_TOLERANCE * max(np.trace(H) / size, 1.0):
        raise NotPositiveSemidefiniteError(f"Gram matrix is not PSD (min eigenvalue {eigmin})")
    sign, logdet = np.linalg.slogdet(np.eye(size) + H / lam)
    growth = math.log(1.0 + n / lam)
    if growth == 0.0:  # 1 + n/lam rounds to 1 at a lam that dwarfs n
        growth = math.log1p(n / lam)
    return float(logdet) / growth


@dataclass(frozen=True)
class DelayBoundParams:
    horizon: int
    delta: float
    expected_delay: float
    alpha: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must lie in (0,1), got {self.delta}")
        if min(self.horizon, self.expected_delay, self.alpha, self.b) < 0:
            raise ConfigurationError("horizon, expected delay, alpha, b must be >= 0")


def d_plus(params: DelayBoundParams) -> tuple[float, float, float]:
    """Delay constant D_+ = 1 + 2 E[tau] + D_tau + psi_tau and its pieces.

    b = 0 is the sub-Gaussian limit: the min defining D_tau resolves to the
    alpha branch instead of the degenerate 0.
    """
    log_term = math.log(3.0 * params.horizon / (2.0 * params.delta))
    try:
        alpha_branch = math.sqrt(2.0 * params.alpha ** 2 * log_term)
    except OverflowError:  # alpha ** 2 is past the float range, the branch need not be
        alpha_branch = params.alpha * math.sqrt(2.0 * log_term)
    if params.b == 0.0:
        d_tau = alpha_branch
    else:
        d_tau = min(alpha_branch, 2.0 * params.b * log_term)
    psi_tau = (4.0 / 3.0) * log_term + 2.0 * math.sqrt(
        2.0 * params.expected_delay * log_term)
    return 1.0 + 2.0 * params.expected_delay + d_tau + psi_tau, d_tau, psi_tau


def theoretical_gamma(n: float, logdet: float, lam: float, nu: float, delta: float,
                      norm_s: float, eta: float, width: int, steps: int, depth: int) -> float:
    """NeuralUCB's confidence radius (Zhou et al., 2020) after n rewards, with its
    width/depth terms, at log det(Z)/det(lam I) = logdet and J = steps; inf past
    the float range. It grows with n and with logdet."""
    n, m, L, J = float(n), float(width), float(depth), float(steps)
    try:
        w = m ** (-1.0 / 6.0) * math.sqrt(math.log(m))  # shared width-correction factor
        # the analysis's unnamed absolute constants are taken as 1
        scale = math.sqrt(1.0 + w * L ** 4 * n ** (7.0 / 6.0) * lam ** (-7.0 / 6.0))
        inner = logdet + w * L ** 4 * n ** (5.0 / 3.0) * lam ** (-1.0 / 6.0) \
            - 2.0 * math.log(delta)
        confidence = scale * (nu * math.sqrt(inner) + math.sqrt(lam) * norm_s)
        base = max(0.0, 1.0 - eta * m * lam)
        optimization = (lam + n * L) * (
            base ** (J / 2.0) * math.sqrt(n / lam)
            + w * L ** 3.5 * n ** (5.0 / 3.0) * lam ** (-5.0 / 3.0) * (1.0 + math.sqrt(n / lam)))
    except OverflowError:  # ** raises where * rounds to inf
        return math.inf
    return confidence + optimization


def regret_bound(d_plus_value: float, d_tilde: float, horizon: int, arms: int,
                 lam: float, nu: float, delta: float, norm_s: float,
                 eta: float, width: int, steps: int, depth: int) -> float:
    """Closed-form high-probability regret bound for overlay on regret curves."""
    t, k = float(horizon), float(arms)
    log_grow = d_tilde * math.log(1.0 + t * k / lam)
    potential = 2.0 * log_grow + 2.0
    elliptical = math.sqrt(t * potential) + 0.5 * d_plus_value * potential
    confidence = 2.0 * (nu * math.sqrt(log_grow + 2.0 - 2.0 * math.log(delta))
                        + 2.0 * math.sqrt(lam) * norm_s)
    base = max(0.0, 1.0 - eta * width * lam)
    # the analysis's unnamed absolute constant is taken as 1
    optimization = 2.0 * (lam + t * depth) * base ** (steps / 2.0) * math.sqrt(t / lam)
    return elliptical * (confidence + optimization) + 1.0
