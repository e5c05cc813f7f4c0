"""Regularized Gram accumulator Z = lam*I + sum u u^T with inverse queries.

Vectors come as ``Factored`` rows: each row of R^p is the concatenation of
per-block outer products, block b being vec(L_b ⊗ R_b). A network gradient
has one block per layer, so its norm, its inner products and its diagonal
quadratic form all cost what its factors cost, not p. A dense array is one
block with a unit left factor, and every method takes one as it is.

Full mode is exact and keeps W, a square root of Z^{-1}, in one of two forms.
While fewer than p vectors have been added it holds no p x p array: it keeps
the factors of the vectors, the rows of G (n x p), beside W = L^{-1} for the
lower Cholesky factor L of the n x n kernel K = lam*I + G G^T, whose entries
are sum_b (L L^T) ⊙ (R R^T) over the blocks. This is the dual (Woodbury) form
of kernelised UCB:

    Z^{-1} = (I - (W G)^T (W G)) / lam,    det(Z) / lam^p = det(K) / lam^n.

Every vector of a dual design shares the first one's block layout. Appending
u extends L by one row in O(n q + n^2), q the floats of one row's factors.
With l = W G u, the new pivot is d^2 = lam + u.u - l.l = lam * (1 + u^T Z^{-1} u),
so log det grows by log(d^2 / lam). The p-th vector switches to the primal
form: G is built once, Z = lam*I + G^T G is summed, the factors are dropped
and W = L^{-1} for the lower Cholesky factor L of Z, so Z^{-1} = W^T W and
log det(Z) = 2 sum(log diag(L)).

From then on W takes Potter's square-root step (Bierman, 1977), W -= c v (v^T W)
with v = W u, s = sqrt(1 + v.v) and c = 1 / (s (1 + s)), and log det grows by
log(1 + v.v). Per block of rows the step is one outer product into a scratch of
at most _BLOCK_ROWS x p and one subtraction, so an update allocates no p x p
temporary. W^T W is positive semidefinite by construction, but W drifts by
rounding: every REFRESH_PERIOD updates W and log det are recomputed from Z,
which is read only there, so the vectors added since the last refresh wait in a
REFRESH_PERIOD x p buffer U and reach Z as one U^T U at the refresh.

Diag mode keeps only the diagonal of Z, the approximation NeuralUCB uses in
its experiments, as one p-vector whose block b is an l_b x r_b view. A row adds
L_b² ⊗ R_b² to it, and the quadratic form of a row is
sum_b rowsum(L_b² ⊙ (R_b² @ D_b^{-T})).

An update whose vector is not finite (or whose squared norm, taken from its
factors, overflows), or whose pivot is not finite and positive, raises
DesignUpdateError and leaves the design unchanged. check_update makes the first
of these checks without updating, so a caller can check a whole batch before
its first update. A switch or refresh whose Z is not finite or is not positive
definite to working precision also raises DesignUpdateError, after the update
that led to it.
"""

import math
from typing import Literal, get_args

import numpy as np

from .errors import ConfigurationError, DesignUpdateError

REFRESH_PERIOD = 512  # square-root drift control
_INITIAL_ROWS = 64    # first capacity of the dual buffers; doubles up to p
_BLOCK_ROWS = 256     # rows of W per step of the in-place primal update

DesignMode = Literal["full", "diag"]


def _sq(a: np.ndarray):
    """Squared norm of a vector, or of each row of a matrix."""
    return float(np.vdot(a, a)) if a.ndim == 1 else (a * a).sum(axis=1)


class Factored:
    """Vectors of R^p given by per-block factors: ``blocks`` is a sequence of
    (left, right) pairs, and block b of a vector is vec(left ⊗ right), row-major,
    of length left.size * right.size. A left of None is the scalar 1.

    The factors are 1-D for one vector and (k, ·) arrays for k rows. Blocks
    hold their arrays, not copies.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = tuple(blocks)

    @property
    def ndim(self) -> int:
        return self.blocks[0][1].ndim

    @property
    def layout(self) -> tuple:
        """(left length or None, right length) of each block."""
        return tuple([(None if left is None else left.shape[-1], right.shape[-1])
                      for left, right in self.blocks])

    @property
    def shape(self) -> tuple:
        p = sum((left or 1) * right for left, right in self.layout)
        return (p,) if self.ndim == 1 else (len(self), p)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for block in self.blocks for a in block if a is not None)

    def __len__(self) -> int:
        return self.blocks[0][1].shape[0]

    def __getitem__(self, index):
        return Factored([(None if left is None else left[index], right[index])
                         for left, right in self.blocks])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __itruediv__(self, c):
        """Divide every vector by c: the left factor of each block, or the
        right where the left is 1."""
        for left, right in self.blocks:
            if left is None:
                right /= c
            else:
                left /= c
        return self

    def dense(self) -> np.ndarray:
        """The vectors as one (p,) or (k, p) array; a single block with a unit
        left factor is its right factor itself."""
        if len(self.blocks) == 1 and self.blocks[0][0] is None:
            return self.blocks[0][1]
        out = np.empty(self.shape)
        start = 0
        for left, right in self.blocks:
            if left is None:
                out[..., start:start + right.shape[-1]] = right
                start += right.shape[-1]
                continue
            size = left.shape[-1] * right.shape[-1]
            np.multiply(left[..., :, None], right[..., None, :],
                        out=out[..., start:start + size].reshape(left.shape + right.shape[-1:]))
            start += size
        return out

    def sqnorms(self):
        """|u|^2 = sum_b |L_b|^2 |R_b|^2: a float for one vector, else one per row."""
        total = None
        for left, right in self.blocks:
            term = _sq(right) if left is None else _sq(left) * _sq(right)
            total = term if total is None else total + term
        return total


def as_factored(u) -> Factored:
    """u itself if it is Factored, else the one unit-left block of the array u."""
    if isinstance(u, Factored):
        return u
    return Factored(((None, np.asarray(u, dtype=np.float64)),))


def _dense(u) -> np.ndarray:
    return u.dense() if isinstance(u, Factored) else u


def full_design_bytes(p: int, updates: int, row_floats: int | None = None) -> int:
    """The most bytes a full design of dimension p holds at once over its first
    ``updates`` updates, the copies its steps make included. ``row_floats`` is
    the floats of one vector's factors (p for a dense vector).

    In the dual form the factor rows (c x row_floats) and the kernel's factor
    W (c x c) grow by doubling their capacity c from _INITIAL_ROWS up to p, and
    while ``_grow`` copies them the old and the new buffers are both alive.
    Once p vectors are in, the switch builds G, sums Z from it and drops G and
    the kernel's W. Factoring Z holds Z, its Cholesky factor L, the W = L^{-1}
    being built and inv's two p x p work buffers, and a refresh the old W too:
    six p x p arrays, beside the REFRESH_PERIOD x p buffer and the block scratch.
    """
    if updates >= p:
        return 8 * (6 * p * p + (REFRESH_PERIOD + min(p, _BLOCK_ROWS)) * p)
    row_floats = p if row_floats is None else row_floats
    old, rows = 0, min(p, _INITIAL_ROWS)
    while rows < updates:
        old, rows = rows, min(2 * rows, p)
    return 8 * ((old + rows) * row_floats + old * old + rows * rows)


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
            # the vectors' factors, as Factored rows of capacity len(_w), made
            # by the first update, whose layout every later dual update shares
            self._rows = None
            self._w = np.zeros((min(p, _INITIAL_ROWS),) * 2)  # lower-triangular while dual
            self._z = self._since_refresh = self._scratch = None  # primal-form arrays
            self._logdet_ratio = 0.0
        else:
            self._diag = np.full(p, self.lam)

    def _check_dim(self, u, batch=False):
        """u, Factored or a float array, once its shape is (p,) or, for a
        batch, (k, p). An array is read as one block with a unit left factor,
        and the dense paths take it as it is, without wrapping it."""
        if not isinstance(u, Factored):
            u = np.asarray(u, dtype=np.float64)
        shape = u.shape
        if shape[-1:] != (self.p,) or len(shape) > (2 if batch else 1):
            expected = f"({self.p},) or (k, {self.p})" if batch else f"({self.p},)"
            raise ValueError(f"vector has shape {shape}, expected {expected}")
        return u

    @staticmethod
    def _check_pivot(pivot: float) -> None:
        if not (math.isfinite(pivot) and pivot > 0.0):
            raise DesignUpdateError(f"design-matrix update has pivot {pivot!r}, "
                                    "not a finite positive number")

    @staticmethod
    def _squared_norm(u) -> float:
        # vdot of each factor, which unlike matmul does not warn on overflow
        uu = u.sqnorms() if isinstance(u, Factored) else float(np.vdot(u, u))
        if not math.isfinite(uu):
            raise DesignUpdateError("design-matrix update vector is not finite "
                                    "or its squared norm overflows")
        return uu

    def check_update(self, u) -> None:
        """Raise what rank1_update(u) raises before it reads the design.

        That is ValueError for a shape other than (p,) and DesignUpdateError
        for a vector that is not finite or whose squared norm overflows. A
        caller checks every vector of a batch this way before its first update,
        so such a vector leaves the whole batch unapplied. The pivot check
        needs the design as the earlier updates leave it, so it is not made here.
        """
        self._squared_norm(self._check_dim(u))

    def rank1_update(self, u) -> None:
        """Z += u u^T; raises DesignUpdateError, changing nothing, on numerical trouble."""
        u = self._check_dim(u)
        uu = self._squared_norm(u)
        if self.mode == "diag":
            u = as_factored(u)
            for (left, right), diag in zip(u.blocks, self._diag_blocks(u)):
                if left is None:
                    diag += right * right  # every entry stays >= lam: no pivot to check
                else:  # einsum's outer product beats multiply.outer's row loop
                    diag += np.einsum("i,j->ij", left * left, right * right)
        elif self._z is None:
            self._dual_update(as_factored(u), uu)
        else:
            self._primal_update(_dense(u))
        self.update_count += 1
        if self.mode == "full":
            if self.update_count == self.p:
                self._to_primal()
            elif self._z is not None and self.update_count % REFRESH_PERIOD == 0:
                self._refresh()

    def _diag_blocks(self, u: Factored):
        """The (l, r) view, or for a unit left the (r,) view, of the diagonal
        under each block of u."""
        start = 0
        for left, right in u.layout:
            size = (left or 1) * right
            block = self._diag[start:start + size]
            yield block if left is None else block.reshape(left, right)
            start += size

    def _cross(self, u: Factored):
        """G u for one vector, or the (k, n) products u G^T of k rows, from the factors."""
        n = self.update_count
        if self._rows is None:
            return np.zeros(u.shape[:-1] + (0,))
        if u.layout != self._rows.layout:
            raise ValueError(f"vector has block layout {u.layout}, but the design holds "
                             f"vectors of layout {self._rows.layout}")
        total = None
        for (left, right), (g_left, g_right) in zip(u.blocks, self._rows.blocks):
            if u.ndim == 1:
                term = g_right[:n] @ right
                if left is not None:
                    term *= g_left[:n] @ left
            else:
                term = right @ g_right[:n].T
                if left is not None:
                    term *= left @ g_left[:n].T
            total = term if total is None else total + term
        return total

    def _g(self) -> np.ndarray:
        """G, the (n, p) array of the vectors added: the stored rows themselves
        for dense vectors, else built from their factors (solve, sample and
        inverse read it; the policies' neural designs never call them)."""
        if self._rows is None:
            return np.empty((0, self.p))
        return self._rows[:self.update_count].dense()

    def _dual_update(self, u, uu):
        n = self.update_count
        w = self._w[:n, :n]
        l = w @ self._cross(u)
        gain = uu - float(l @ l)  # lam * u^T Z^{-1} u
        d2 = self.lam + gain
        self._check_pivot(d2)
        d = math.sqrt(d2)
        row = (l @ w) / -d
        if self._rows is None:
            cap = len(self._w)
            self._rows = Factored([(None if left is None else np.empty((cap, left)),
                                    np.empty((cap, right))) for left, right in u.layout])
        elif n == len(self._w):
            self._grow(min(2 * n, self.p))
        for (left, right), (g_left, g_right) in zip(u.blocks, self._rows.blocks):
            g_right[n] = right
            if left is not None:
                g_left[n] = left
        self._w[n, :n] = row
        self._w[n, n] = 1.0 / d
        self._logdet_ratio += math.log1p(gain / self.lam)

    def _primal_update(self, u):
        w, scratch = self._w, self._scratch
        v = w @ u
        denom = 1.0 + float(np.vdot(v, v))  # 1 + u^T Z^{-1} u
        self._check_pivot(denom)
        self._since_refresh[self.update_count % REFRESH_PERIOD] = u  # reaches Z at the refresh
        s = math.sqrt(denom)
        cvw = (v @ w) / (s * (1.0 + s))
        for start in range(0, self.p, len(scratch)):
            step = scratch[:self.p - start]
            stop = start + len(step)
            np.einsum("i,j->ij", v[start:stop], cvw, out=step)
            w[start:stop] -= step
        self._logdet_ratio += math.log(denom)

    def _grow(self, rows):
        n = self.update_count

        def grown(old):
            new = np.empty((rows, old.shape[1]))
            new[:n] = old[:n]
            return new

        w = np.zeros((rows, rows))
        w[:n, :n] = self._w
        self._rows, self._w = Factored([(None if left is None else grown(left), grown(right))
                                        for left, right in self._rows.blocks]), w

    def _to_primal(self):
        g = self._g()
        with np.errstate(over="ignore", invalid="ignore"):  # _factor checks Z
            self._z = g.T @ g
        self._z.flat[::self.p + 1] += self.lam
        self._rows = self._w = g = None  # freed before Z is factored
        self._factor()
        self._since_refresh = np.empty((REFRESH_PERIOD, self.p))
        self._scratch = np.empty((min(self.p, _BLOCK_ROWS), self.p))

    def _refresh(self):
        # the k-th vector sits in row (k - 1) % REFRESH_PERIOD, so those added
        # since the last refresh, or since the switch, fill the last rows
        count = min(REFRESH_PERIOD, self.update_count - self.p)
        added = self._since_refresh[REFRESH_PERIOD - count:]
        with np.errstate(over="ignore", invalid="ignore"):  # _factor checks Z
            self._z += added.T @ added
        self._factor()

    def _factor(self):
        """W = L^{-1} and log det from the lower Cholesky factor L of Z;
        DesignUpdateError where Z is not finite or is not positive definite to
        working precision, as vectors blown up far past lam can make it."""
        if not np.isfinite(self._z).all():
            raise DesignUpdateError(f"design matrix Z is not finite after "
                                    f"{self.update_count} updates")
        try:
            chol = np.linalg.cholesky(self._z)
        except np.linalg.LinAlgError:
            raise DesignUpdateError(f"design matrix Z is not positive definite to working "
                                    f"precision after {self.update_count} updates") from None
        self._w = np.linalg.inv(chol)
        self._logdet_ratio = 2.0 * float(np.log(chol.diagonal() / math.sqrt(self.lam)).sum())

    def quad_form(self, u):
        """u^T Z^{-1} u, clipped at 0 against roundoff.

        k rows give the k values as an array, in one pass.
        """
        u = self._check_dim(u, batch=True)
        rows = u if u.ndim == 2 else u[None]
        if self.mode == "diag":
            rows = as_factored(rows)
            vals = 0.0
            for (left, right), diag in zip(rows.blocks, self._diag_blocks(rows)):
                if left is None:
                    term = (right * right / diag).sum(axis=1)
                else:
                    term = ((left * left) * ((right * right) @ (1.0 / diag).T)).sum(axis=1)
                vals = vals + term
        elif self._z is None:
            n = self.update_count
            rows = as_factored(rows)
            norms = rows.sqnorms()
            if n:
                wgu = self._cross(rows) @ self._w[:n, :n].T
                norms = norms - (wgu * wgu).sum(axis=1)
            vals = norms / self.lam
        else:
            wu = _dense(rows) @ self._w.T
            vals = np.einsum("ij,ij->i", wu, wu)
        np.maximum(vals, 0.0, out=vals)
        return float(vals[0]) if u.ndim == 1 else vals

    def solve(self, v: np.ndarray) -> np.ndarray:
        """Z^{-1} v for a dense (p,) vector, with no p x p temporary in any form."""
        v = _dense(self._check_dim(v))
        if self.mode == "diag":
            return v / self._diag
        if self._z is None:
            g, w = self._g(), self._w[:self.update_count, :self.update_count]
            return (v - g.T @ (w.T @ (w @ (g @ v)))) / self.lam
        return self._w.T @ (self._w @ v)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A draw from N(0, Z^{-1}) with no p x p temporary: xi / sqrt(diag Z) in
        diag mode, W^T xi in the primal form, and Z^{-1} (sqrt(lam) xi + G^T eta),
        eta ~ N(0, I_n) drawn after xi, in the dual form, where perturb-then-solve
        (Papandreou & Yuille, 2010) gives the covariance
        Z^{-1} (lam*I + G^T G) Z^{-1} = Z^{-1}."""
        xi = rng.standard_normal(self.p)
        if self.mode == "diag":
            return xi / np.sqrt(self._diag)
        if self._z is not None:
            return xi @ self._w
        return self.solve(math.sqrt(self.lam) * xi
                          + rng.standard_normal(self.update_count) @ self._g())

    def inverse(self) -> np.ndarray:
        """Z^{-1} as a new read-only p x p array, exactly symmetric (a^T a is one syrk)."""
        if self.mode == "diag":
            inv = np.diag(1.0 / self._diag)
        elif self._z is not None:
            inv = self._w.T @ self._w
        else:
            n = self.update_count
            wg = self._w[:n, :n] @ self._g()
            inv = wg.T @ wg
            inv *= -1.0 / self.lam
            inv.flat[::self.p + 1] += 1.0 / self.lam
        inv.flags.writeable = False
        return inv

    def logdet_ratio(self) -> float:
        """log det(Z) - p*log(lam), always >= 0."""
        if self.mode == "diag":
            val = float(np.sum(np.log(self._diag / self.lam)))
        else:
            val = self._logdet_ratio
        return max(val, 0.0)
