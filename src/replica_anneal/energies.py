"""Energy functions over {-1,+1}^N with O(M)/O(n) single-flip deltas."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .annealer import make_rng
from .spins import as_spins


class DimensionError(ValueError):
    pass


def rectified_margin(x, odd_mode: bool = True):
    """Number of coordinate flips needed to correct a pattern with margin -x.

    odd N:  R(x) = ((x+1)/2) * Theta(x)   (x = 0 cannot occur)
    even N: R(x) = (x/2) * Theta(x)
    """
    x = np.asarray(x, dtype=np.float64)
    if odd_mode:
        r = (x + 1.0) / 2.0
    else:
        r = x / 2.0
    return np.where(x > 0, r, 0.0)


@dataclass
class PatternSet:
    """Binary patterns xi^1..xi^M with +-1 labels."""

    patterns: np.ndarray  # (M, N) of +-1
    labels: np.ndarray    # (M,) of +-1

    def __post_init__(self):
        self.patterns = np.asarray(self.patterns, dtype=np.int8)
        self.labels = np.asarray(self.labels, dtype=np.int8)
        if self.patterns.ndim != 2 or self.patterns.shape[0] < 1:
            raise DimensionError("patterns must be a non-empty (M, N) array")
        if self.labels.shape != (self.patterns.shape[0],):
            raise DimensionError("labels must have one entry per pattern")
        if not np.all(np.abs(self.patterns) == 1) or not np.all(np.abs(self.labels) == 1):
            raise DimensionError("patterns and labels must be +-1 valued")

    @property
    def m(self) -> int:
        return self.patterns.shape[0]

    @property
    def n(self) -> int:
        return self.patterns.shape[1]

    @property
    def alpha(self) -> float:
        return self.m / self.n


def generate_synthetic(count: int = 30, dim: int = 100, seed: int = 0) -> PatternSet:
    """Uniform random patterns with uniform +-1 labels, deterministic per seed."""
    rng = make_rng(seed)
    patterns = rng.integers(0, 2, size=(count, dim)).astype(np.int8) * 2 - 1
    labels = rng.integers(0, 2, size=count).astype(np.int8) * 2 - 1
    return PatternSet(patterns, labels)


class PerceptronEnergy:
    """E(W) = sum_mu R(-theta^mu <W, xi^mu>): flips needed to fix each pattern."""

    def __init__(self, data: PatternSet):
        self.data = data
        self.n_spins = data.n
        self.odd_mode = data.n % 2 == 1
        # signed patterns theta^mu * xi^mu, so margins are just a matvec
        self._signed = (data.patterns * data.labels[:, None]).astype(np.int64)
        # row i is 2 theta^mu xi^mu_i over mu: flipping w_i moves every margin by
        # -w_i times it, contiguous so that a flip reads one row
        self._flip_rows = np.ascontiguousarray(2 * self._signed.T)

    def margins(self, w) -> np.ndarray:
        w = as_spins(w)
        if w.size != self.n_spins:
            raise DimensionError(f"weight length {w.size} != N={self.n_spins}")
        return self._signed @ w.astype(np.int64)

    def energy(self, w) -> float:
        return float(np.sum(rectified_margin(-self.margins(w), self.odd_mode)))

    def accuracy(self, w) -> float:
        """Fraction of patterns with zero rectified loss (no flips needed).

        For odd N this coincides with a strictly positive margin; for even N a
        zero margin also counts as learned, matching the energy's notion of a
        satisfied pattern.
        """
        return float(np.mean(rectified_margin(-self.margins(w), self.odd_mode) == 0.0))

    def make_state(self, w) -> "PerceptronState":
        return PerceptronState(self, w)


class PerceptronState:
    """Per-replica cache of q = off - margins, off = 1 for odd N and 0 for even N.

    2 R(-m) = max(off - m, 0) in both parities, so twice the energy is the
    integer max(q, 0).sum() and every delta is exact. flip_delta leaves the
    flipped q in a scratch row that apply_flip swaps in through `_memo`.
    """

    def __init__(self, model: PerceptronEnergy, w):
        self.model = model
        self.w = as_spins(w).copy()
        self._q = int(model.odd_mode) - model.margins(self.w)
        self._e2 = int(np.maximum(self._q, 0).sum())
        self.energy = self._e2 / 2
        # scratch rows; a zero row is a cheaper operand for np.maximum than 0
        self._q_new, self._pos, self._zero = np.zeros((3, self._q.size), dtype=np.int64)
        self._memo = None

    def flip_delta(self, i: int) -> float:
        row = self.model._flip_rows[i]
        if self.w[i] > 0:
            np.add(self._q, row, out=self._q_new)
        else:
            np.subtract(self._q, row, out=self._q_new)
        np.maximum(self._q_new, self._zero, out=self._pos)
        e2 = int(np.add.reduce(self._pos))
        self._memo = (i, e2)
        return (e2 - self._e2) / 2

    def apply_flip(self, i: int) -> float:
        if self._memo is None or self._memo[0] != i:
            self.flip_delta(i)
        e2 = self._memo[1]
        self._memo = None
        self._q, self._q_new = self._q_new, self._q
        self.w[i] = -self.w[i]
        delta = (e2 - self._e2) / 2
        self._e2 = e2
        self.energy = e2 / 2
        return delta


@dataclass
class ClassifierDataset:
    """Real feature vectors in [0,1]^d with class targets in [0, K)."""

    inputs: np.ndarray   # (n, d) floats in [0, 1]
    targets: np.ndarray  # (n,) ints in [0, K)
    num_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise DimensionError("inputs must be (n, d)")
        if self.targets.shape != (self.inputs.shape[0],):
            raise DimensionError("one target per input row required")
        if self.inputs.size and (self.inputs.min() < 0.0 or self.inputs.max() > 1.0):
            raise DimensionError("features must lie in [0, 1]")
        if self.targets.size and (self.targets.min() < 0 or self.targets.max() >= self.num_classes):
            raise DimensionError("targets out of range")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.exp(a - m).sum(axis=axis))


_LOG_2 = math.log(2.0)


class CrossEntropyEnergy:
    """Softmax cross-entropy of a K x d sign matrix, flattened row-major into W.

    Weight index w = k*d + j is row (class) k, feature j. No bias terms.
    """

    # full cache refresh cadence; bounds float drift of the incremental updates
    REFRESH_EVERY = 10_000

    def __init__(self, dataset: ClassifierDataset):
        self.dataset = dataset
        self.n_spins = dataset.num_classes * dataset.d

    @functools.cached_property
    def class_sums(self) -> np.ndarray:
        """(K, d): class_sums[k, j] = sum of feature j over the samples of class k."""
        ds = self.dataset
        onehot = np.zeros((ds.num_classes, ds.n))
        onehot[ds.targets, np.arange(ds.n)] = 1.0
        return onehot @ ds.inputs

    @functools.cached_property
    def zero_features(self) -> np.ndarray:
        """(d,) bool: features that are zero in every sample. Features are
        >= 0, so these are exactly the zero column sums."""
        return self.class_sums.sum(axis=0) == 0.0

    def _weight_matrix(self, w) -> np.ndarray:
        w = as_spins(w)
        if w.size != self.n_spins:
            raise DimensionError(f"weight length {w.size} != K*d={self.n_spins}")
        return w.astype(np.float64).reshape(self.dataset.num_classes, self.dataset.d)

    def logits(self, w) -> np.ndarray:
        return self.dataset.inputs @ self._weight_matrix(w).T

    def energy(self, w) -> float:
        logits = self.logits(w)
        lse = _logsumexp(logits, axis=1)
        true_logit = logits[np.arange(self.dataset.n), self.dataset.targets]
        return float(np.sum(lse - true_logit))

    def accuracy(self, w) -> float:
        # ties broken toward the smallest class index (argmax convention)
        return float(np.mean(np.argmax(self.logits(w), axis=1) == self.dataset.targets))

    def make_state(self, w) -> "CrossEntropyState":
        return CrossEntropyState(self, w)


class CrossEntropyState:
    """Per-replica cache of the logits and per-sample log-sum-exps.

    `_logits` is class-major, a C-contiguous (K, n) array, and `_lse` is (n,).
    Flipping weight (k, j) adds -2 W_kj x[:, j] to the contiguous row
    `_logits[k]`; the true-class part of the delta is -2 W_kj class_sums[k, j],
    and a flip on a feature that is zero in every sample changes nothing.

    `_lse` is updated additively. In terms of the exp-mass Z = exp(lse), a
    flip takes class k's old mass out of Z and puts its new mass in, so an
    absolute error made in Z while Z was large stays when Z falls, and the
    error in lse grows by the ratio of the two. `_lse_top` holds each
    sample's largest `_lse` since it was last computed exactly; a sample is
    recomputed from its K logits once it falls log 2 below that.
    """

    def __init__(self, model: CrossEntropyEnergy, w):
        self.model = model
        self.w = as_spins(w).copy()
        n = model.dataset.n
        # scratch rows of the last flip_delta, reused by apply_flip via _memo
        self._dcol, self._shift, self._tmp = np.empty(n), np.empty(n), np.empty(n)
        self._memo = None
        self._n_applied = 0
        self._refresh()

    def _refresh(self):
        ds = self.model.dataset
        self._logits = self.model.logits(self.w).T.copy()
        self._lse = _logsumexp(self._logits, axis=0)
        self._lse_top = self._lse.copy()
        self.energy = float(np.sum(self._lse - self._logits[ds.targets, np.arange(ds.n)]))
        self._memo = None

    def flip_delta(self, i: int) -> float:
        model = self.model
        k, j = divmod(i, model.dataset.d)
        if model.zero_features[j]:
            delta = 0.0
        else:
            sign = -2.0 * float(self.w[i])
            dcol, shift, tmp = self._dcol, self._shift, self._tmp
            np.multiply(model.dataset.inputs[:, j], sign, out=dcol)
            # lse' - lse = log1p(exp(z + d - lse) - exp(z - lse)); argument > -1
            np.subtract(self._logits[k], self._lse, out=tmp)
            np.add(tmp, dcol, out=shift)
            np.exp(shift, out=shift)
            np.exp(tmp, out=tmp)
            shift -= tmp
            np.log1p(shift, out=shift)
            delta = float(shift.sum()) - sign * float(model.class_sums[k, j])
        self._memo = (i, delta)
        return delta

    def apply_flip(self, i: int) -> float:
        if self._memo is None or self._memo[0] != i:
            self.flip_delta(i)
        delta = self._memo[1]
        self._memo = None
        k, j = divmod(i, self.model.dataset.d)
        if not self.model.zero_features[j]:
            self._logits[k] += self._dcol
            self._lse += self._shift
            np.maximum(self._lse_top, self._lse, out=self._lse_top)
            np.subtract(self._lse_top, _LOG_2, out=self._tmp)
            low = np.flatnonzero(self._lse < self._tmp)
            if low.size:
                self._lse[low] = _logsumexp(self._logits.take(low, axis=1), axis=0)
                self._lse_top[low] = self._lse[low]
        self.w[i] = -self.w[i]
        self.energy += delta
        self._n_applied += 1
        if self._n_applied % CrossEntropyEnergy.REFRESH_EVERY == 0:
            self._refresh()
        return delta


class TabulatedEnergy:
    """Energy given by an explicit table over all 2^N configurations.

    State s is indexed canonically: bit i of s is 1 iff sigma_i = +1.
    """

    def __init__(self, table, n: int):
        self.table = np.asarray(table, dtype=np.float64)
        if self.table.shape != (2**n,):
            raise DimensionError(f"table must have 2^{n} entries")
        self.n_spins = n

    @staticmethod
    def index_of(w) -> int:
        w = as_spins(w)
        bits = (w > 0).astype(np.int64)
        return int(bits @ (1 << np.arange(w.size, dtype=np.int64)))

    @staticmethod
    def config_of(idx: int, n: int) -> np.ndarray:
        bits = (idx >> np.arange(n)) & 1
        return bits.astype(np.int8) * 2 - 1

    def energy(self, w) -> float:
        return float(self.table[self.index_of(w)])

    def make_state(self, w) -> "TabulatedState":
        return TabulatedState(self, w)


class TabulatedState:
    def __init__(self, model: TabulatedEnergy, w):
        self.model = model
        self.w = as_spins(w).copy()
        self._idx = model.index_of(self.w)
        self.energy = float(model.table[self._idx])

    def flip_delta(self, i: int) -> float:
        return float(self.model.table[self._idx ^ (1 << i)]) - self.energy

    def apply_flip(self, i: int) -> float:
        delta = self.flip_delta(i)
        self._idx ^= 1 << i
        self.w[i] = -self.w[i]
        self.energy += delta
        return delta
