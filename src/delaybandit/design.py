"""Regularized Gram accumulator Z = lam*I + sum u u^T with inverse queries.

Full mode is exact and holds no p x p array while fewer than p vectors have
been added. Until then it keeps them as the rows of G (n x p), beside
W = L^{-1}, the inverse of the lower Cholesky factor L of the n x n kernel
K = lam*I + G G^T. This is the dual (Woodbury) form of kernelised UCB:

    Z^{-1} = (I - (W G)^T (W G)) / lam,    det(Z) / lam^p = det(K) / lam^n.

Appending u extends L by one row in O(np + n^2). With l = W G u, the new
pivot is d^2 = lam + u.u - l.l = lam * (1 + u^T Z^{-1} u), the Sherman-Morrison
denominator, so log det grows by log(d^2 / lam). The p-th vector switches to
the primal form: Z = lam*I + G^T G is built and inverted once and G and W
are dropped.

From then on Z^{-1} takes the Sherman-Morrison step as Z^{-1} -= w w^T with
w = Z^{-1}u / sqrt(1 + u^T Z^{-1} u): one sqrt and p divisions, then per block
of rows one outer product into a scratch of at most _BLOCK_ROWS x p and one
subtraction, so an update allocates no p x p temporary. The step w w^T is
exactly symmetric, but it rounds differently from the textbook
(Z^{-1}u)(Z^{-1}u)^T / (1 + u^T Z^{-1} u), so Z^{-1} agrees with a direct
inverse only up to rounding that accumulates between refreshes: every
REFRESH_PERIOD updates Z^{-1} and log det are recomputed directly from Z.
Z is read only there, so the vectors added since the last refresh wait in a
REFRESH_PERIOD x p buffer U and reach Z as one U^T U at the refresh.

Diag mode keeps only the diagonal of Z, the approximation NeuralUCB uses in
its experiments.

An update whose vector is not finite (or whose squared norm overflows), or whose
pivot is not finite and positive, raises DesignUpdateError and leaves the
design unchanged. check_update makes the first of these checks without
updating, so a caller can check a whole batch before its first update. A
switch or refresh whose Z is not finite or is singular to working precision
also raises DesignUpdateError, after the update that led to it.
"""

import math
from typing import Literal, get_args

import numpy as np

from .errors import ConfigurationError, DesignUpdateError

REFRESH_PERIOD = 512  # Sherman-Morrison drift control
_INITIAL_ROWS = 64    # first capacity of the dual buffers; doubles up to p
_BLOCK_ROWS = 256     # rows of Z^{-1} per step of the in-place primal update

DesignMode = Literal["full", "diag"]


def full_design_bytes(p: int, updates: int) -> int:
    """The most bytes a full design of dimension p holds at once over its first
    ``updates`` updates, the copies its steps make included.

    In the dual form the rows G (c x p) and the factor W (c x c) grow by
    doubling their capacity c from _INITIAL_ROWS up to p, and while ``_grow``
    copies them the old and the new buffers are both alive. Once p vectors are
    in, the switch to the primal form holds G and W (p rows each), Z, the Z^{-1}
    being built and np.linalg.inv's two p x p work buffers: six p x p arrays,
    which also bound a refresh's five (Z, the old and the new Z^{-1} and inv's
    two) beside the REFRESH_PERIOD x p buffer and the block scratch.
    """
    if updates >= p:
        return 8 * (6 * p * p + (REFRESH_PERIOD + min(p, _BLOCK_ROWS)) * p)
    old, rows = 0, min(p, _INITIAL_ROWS)
    while rows < updates:
        old, rows = rows, min(2 * rows, p)
    return 8 * ((old + rows) * p + old * old + rows * rows)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


class DesignMatrix:
    def __init__(self, p: int, lam: float, mode: DesignMode = "full"):
        if lam <= 0:
            raise ConfigurationError(f"lambda must be > 0, got {lam}")
        if p < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {p}")
        if mode not in get_args(DesignMode):
            raise ConfigurationError(f"unknown design-matrix mode {mode!r}")
        self.p = p
        self.lam = float(lam)
        self.mode = mode
        self.update_count = 0
        if mode == "full":
            rows = min(p, _INITIAL_ROWS)
            self._g = np.empty((rows, p))
            self._w = np.zeros((rows, rows))  # kept lower-triangular
            self._z = self._zinv = None
            self._since_refresh = self._scratch = None  # primal-form buffers
            self._logdet_ratio = 0.0
        else:
            self._diag = np.full(p, self.lam)

    def _check_dim(self, u, batch=False):
        u = np.asarray(u, dtype=np.float64)
        if u.shape[-1:] != (self.p,) or u.ndim > (2 if batch else 1):
            expected = f"({self.p},) or (k, {self.p})" if batch else f"({self.p},)"
            raise ValueError(f"vector has shape {u.shape}, expected {expected}")
        return u

    @staticmethod
    def _check_pivot(pivot: float) -> None:
        if not (math.isfinite(pivot) and pivot > 0.0):
            raise DesignUpdateError(f"design-matrix update has pivot {pivot!r}, "
                                    "not a finite positive number")

    @staticmethod
    def _squared_norm(u: np.ndarray) -> float:
        uu = float(np.vdot(u, u))  # unlike matmul, vdot does not warn on overflow
        if not math.isfinite(uu):
            raise DesignUpdateError("design-matrix update vector is not finite "
                                    "or its squared norm overflows")
        return uu

    def check_update(self, u: np.ndarray) -> None:
        """Raise what rank1_update(u) raises before it reads the design.

        That is ValueError for a shape other than (p,) and DesignUpdateError
        for a vector that is not finite or whose squared norm overflows. A
        caller checks every vector of a batch this way before its first update,
        so such a vector leaves the whole batch unapplied. The pivot check
        needs the design as the earlier updates leave it, so it is not made here.
        """
        self._squared_norm(self._check_dim(u))

    def rank1_update(self, u: np.ndarray) -> None:
        """Z += u u^T; raises DesignUpdateError, changing nothing, on numerical trouble."""
        u = self._check_dim(u)
        uu = self._squared_norm(u)
        if self.mode == "diag":
            self._diag += u * u  # every entry stays >= lam: no pivot to check
        elif self._zinv is None:
            self._dual_update(u, uu)
        else:
            self._primal_update(u)
        self.update_count += 1
        if self.mode == "full":
            if self.update_count == self.p:
                self._to_primal()
            elif self._zinv is not None and self.update_count % REFRESH_PERIOD == 0:
                self._refresh()

    def _dual_update(self, u, uu):
        n = self.update_count
        w = self._w[:n, :n]
        l = w @ (self._g[:n] @ u)
        gain = uu - float(l @ l)  # lam * u^T Z^{-1} u
        d2 = self.lam + gain
        self._check_pivot(d2)
        d = math.sqrt(d2)
        row = (l @ w) / -d
        if n == len(self._g):
            self._grow(min(2 * n, self.p))
        self._g[n] = u
        self._w[n, :n] = row
        self._w[n, n] = 1.0 / d
        self._logdet_ratio += math.log1p(gain / self.lam)

    def _primal_update(self, u):
        zinv, scratch = self._zinv, self._scratch
        zu = zinv @ u
        denom = 1.0 + float(np.vdot(u, zu))
        self._check_pivot(denom)
        self._since_refresh[self.update_count % REFRESH_PERIOD] = u  # reaches Z at the refresh
        w = zu / math.sqrt(denom)
        for start in range(0, self.p, len(scratch)):
            step = scratch[:self.p - start]
            stop = start + len(step)
            np.einsum("i,j->ij", w[start:stop], w, out=step)
            zinv[start:stop] -= step
        self._logdet_ratio += math.log(denom)

    def _grow(self, rows):
        n = self.update_count
        g = np.empty((rows, self.p))
        w = np.zeros((rows, rows))
        g[:n], w[:n, :n] = self._g, self._w
        self._g, self._w = g, w

    def _to_primal(self):
        g = self._g[:self.update_count]
        with np.errstate(over="ignore", invalid="ignore"):  # _inverse checks Z
            self._z = g.T @ g
        self._z.flat[::self.p + 1] += self.lam
        self._zinv = self._inverse()
        self._g = self._w = None
        self._since_refresh = np.empty((REFRESH_PERIOD, self.p))
        self._scratch = np.empty((min(self.p, _BLOCK_ROWS), self.p))

    def _refresh(self):
        # the k-th vector sits in row (k - 1) % REFRESH_PERIOD, so those added
        # since the last refresh, or since the switch, fill the last rows
        count = min(REFRESH_PERIOD, self.update_count - self.p)
        added = self._since_refresh[REFRESH_PERIOD - count:]
        with np.errstate(over="ignore", invalid="ignore"):  # _inverse checks Z
            self._z += added.T @ added
        self._zinv = self._inverse()
        _, logdet = np.linalg.slogdet(self._z)
        self._logdet_ratio = logdet - self.p * math.log(self.lam)

    def _inverse(self) -> np.ndarray:
        """inv(Z); DesignUpdateError where Z is not finite or is singular to
        working precision, as vectors blown up far past lam can make it."""
        if not np.isfinite(self._z).all():
            raise DesignUpdateError(f"design matrix Z is not finite after "
                                    f"{self.update_count} updates")
        try:
            return np.linalg.inv(self._z)
        except np.linalg.LinAlgError:
            raise DesignUpdateError(f"design matrix Z is singular to working precision "
                                    f"after {self.update_count} updates") from None

    def quad_form(self, u: np.ndarray):
        """u^T Z^{-1} u, clipped at 0 against roundoff.

        A (k, p) array gives the k values of its rows as an array, in one pass.
        """
        u = self._check_dim(u, batch=True)
        rows = np.atleast_2d(u)
        if self.mode == "diag":
            vals = (rows * rows / self._diag).sum(axis=1)
        elif self._zinv is None:
            n = self.update_count
            wgu = (rows @ self._g[:n].T) @ self._w[:n, :n].T
            vals = ((rows * rows).sum(axis=1) - (wgu * wgu).sum(axis=1)) / self.lam
        else:
            vals = np.einsum("ij,ij->i", rows @ self._zinv, rows)
        np.maximum(vals, 0.0, out=vals)
        return float(vals[0]) if u.ndim == 1 else vals

    def solve(self, v: np.ndarray) -> np.ndarray:
        """Z^{-1} v for a (p,) vector, with no p x p temporary in any form."""
        v = self._check_dim(v)
        if self.mode == "diag":
            return v / self._diag
        if self._zinv is None:
            n = self.update_count
            g, w = self._g[:n], self._w[:n, :n]
            return (v - g.T @ (w.T @ (w @ (g @ v)))) / self.lam
        return self._zinv @ v

    def inverse(self) -> np.ndarray:
        """Z^{-1} as a read-only p x p array; the dual and diag forms build it per call."""
        if self.mode == "diag":
            return _read_only(np.diag(1.0 / self._diag))
        if self._zinv is None:
            n = self.update_count
            wg = self._w[:n, :n] @ self._g[:n]
            inv = wg.T @ wg
            inv *= -1.0 / self.lam
            inv.flat[::self.p + 1] += 1.0 / self.lam
            return _read_only(inv)
        return _read_only(self._zinv)

    def logdet_ratio(self) -> float:
        """log det(Z) - p*log(lam), always >= 0."""
        if self.mode == "diag":
            val = float(np.sum(np.log(self._diag / self.lam)))
        else:
            val = self._logdet_ratio
        return max(val, 0.0)
