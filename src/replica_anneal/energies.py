"""Energy functions over {-1,+1}^N with O(M)/O(n) single-flip deltas."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .annealer import LOG2, make_rng
from .spins import all_pm1, as_spins


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
        patterns, labels = np.asarray(self.patterns), np.asarray(self.labels)
        if patterns.ndim != 2 or patterns.shape[0] < 1:
            raise DimensionError("patterns must be a non-empty (M, N) array")
        if labels.shape != (patterns.shape[0],):
            raise DimensionError("labels must have one entry per pattern")
        if not all_pm1(patterns) or not all_pm1(labels):
            raise DimensionError("patterns and labels must be +-1 valued")
        self.patterns = patterns.astype(np.int8, copy=False)
        self.labels = labels.astype(np.int8, copy=False)

    @property
    def m(self) -> int:
        return self.patterns.shape[0]

    @property
    def n(self) -> int:
        return self.patterns.shape[1]


def generate_synthetic(count: int = 30, dim: int = 100, seed: int = 0) -> PatternSet:
    """Uniform random patterns with uniform +-1 labels, deterministic per seed."""
    rng = make_rng(seed)
    patterns = rng.integers(0, 2, size=(count, dim)).astype(np.int8) * 2 - 1
    labels = rng.integers(0, 2, size=count).astype(np.int8) * 2 - 1
    return PatternSet(patterns, labels)


def _pack(values, lane: np.dtype) -> int:
    """sum_mu values[mu] 2^(bits mu): the values as the little-endian lanes,
    of dtype `lane`, of one Python int."""
    return int.from_bytes(np.asarray(values).astype(lane).tobytes(), "little")


class PerceptronEnergy:
    """E(W) = sum_mu R(-theta^mu <W, xi^mu>): flips needed to fix each pattern."""

    def __init__(self, data: PatternSet):
        self.data = data
        self.n_spins = data.n
        self.odd_mode = data.n % 2 == 1
        # signed patterns theta^mu * xi^mu, so margins are just a matvec
        self._signed = (data.patterns * data.labels[:, None]).astype(np.int64)
        # a PerceptronState keeps q^mu/2 + N//2, in [0, N], in lane mu of one
        # int; a lane is the narrowest unsigned type that holds 2N, so its top
        # bit stays clear. Adding _ge0 (_ge2) to that int sets lane mu's top
        # bit iff q^mu >= 0 (q^mu >= 2), with no carry out of any lane
        self._lane = np.min_scalar_type(2 * data.n).newbyteorder("<")
        top = 8 * self._lane.itemsize - 1
        ones = _pack(np.ones(data.m), self._lane)
        self._tops = ones << top
        self._ge0 = ((1 << top) - data.n // 2) * ones
        self._ge2 = self._ge0 - ones

    @functools.cached_property
    def _moves(self) -> tuple:
        """Flipping w_i adds r = 2 w_i theta^mu xi^mu_i, each +2 or -2, to
        every q^mu, so r/2 to every lane. Entry [w_i][i] is (up, down, step):
        the patterns where r is +2 and where it is -2, as masks on the lanes'
        top bits, and step = sum_mu (r^mu/2) 2^(bits mu), which adds r/2 to
        each lane. Indexed by the sign w_i, so entry 0 is unused. Built at
        the first flip, so that a run without steps does not build it."""
        top = 8 * self._lane.itemsize - 1
        ones = self._tops >> top
        raised = [_pack(row, self._lane) for row in self._signed.T > 0]
        plus = [(u << top, (ones - u) << top, 2 * u - ones) for u in raised]
        return None, plus, [(down, up, -step) for up, down, step in plus]

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

    2 R(-m) = max(off - m, 0) in both parities, so the energy is
    max(q, 0).sum() / 2. Every q^mu is even: a margin is a sum of N terms
    +-1, odd for odd N, where off = 1, and even for even N, where off = 0.
    A flip adds r^mu = +-2 to each q^mu, so max(q + r, 0) - max(q, 0) is +2
    where r = +2 and q >= 0, -2 where r = -2 and q >= 2, and 0 elsewhere.
    The energy change is therefore |up & G0| - |down & G2|, with the
    pattern masks G0 = {q >= 0}, G2 = {q >= 2} kept here and up, down
    the patterns the flip raises and lowers; two AND-popcounts on Python
    ints, exact.

    q lives in `_h`, one Python int whose lane mu holds q^mu/2 + N//2 (see
    PerceptronEnergy); the masks have bit `bits - 1` of lane mu, the lane's
    top bit, for pattern mu. Lanes stay in [0, N] with their top bits clear,
    so apply_flip adds the move's step to `_h` and sets G0 = (_h + _ge0) &
    _tops and G2 = (_h + _ge2) & _tops: Python int arithmetic, no numpy. It
    counts the delta's two popcounts again, which costs less than keeping
    flip_delta's result for it.
    """

    def __init__(self, model: PerceptronEnergy, w):
        self.model = model
        self.w = as_spins(w).copy()
        q = int(model.odd_mode) - model.margins(self.w)
        self.energy = int(np.maximum(q, 0).sum()) / 2
        self._h = _pack(q // 2 + model.n_spins // 2, model._lane)
        self._g0 = (self._h + model._ge0) & model._tops
        self._g2 = (self._h + model._ge2) & model._tops

    def flip_delta(self, i: int) -> float:
        up, down, _ = self.model._moves[self.w.item(i)][i]
        return float((self._g0 & up).bit_count() - (self._g2 & down).bit_count())

    def apply_flip(self, i: int) -> float:
        model = self.model
        up, down, step = model._moves[self.w.item(i)][i]
        delta = float((self._g0 & up).bit_count() - (self._g2 & down).bit_count())
        self._h = h = self._h + step
        self._g0 = (h + model._ge0) & model._tops
        self._g2 = (h + model._ge2) & model._tops
        self.w[i] = -self.w.item(i)
        self.energy += delta
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
        # written so that a NaN, which compares False, fails
        if self.inputs.size and not (0.0 <= self.inputs.min() and self.inputs.max() <= 1.0):
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


# the input value of pixel k in an 8-bit image, k/255
PIXEL_LEVELS = np.arange(256) / 255.0
PIXEL_LEVELS.setflags(write=False)  # shared by every index built on pixel data
# features per block while CrossEntropyEnergy.column_index is built
_INDEX_BLOCK = 8


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
    def column_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rows, codes, starts, levels): feature j is nonzero in exactly the
        samples rows[starts[j]:starts[j+1]], in ascending order, where it takes
        the values levels[codes[starts[j]:starts[j+1]]].

        rows has the smallest unsigned dtype that holds n - 1, uint16 from
        257 to 65 536 samples; a flip converts its slice to intp. levels is a
        sorted table of input values that starts with 0, and codes has the
        smallest unsigned dtype that indexes it. There are two encodings,
        decoded alike. When every value is a pixel level k/255, as in every
        IDX-loaded dataset, levels is PIXEL_LEVELS and codes are uint8, so the
        index costs 3 bytes per nonzero value on MNIST-sized data. Otherwise
        levels is 0 followed by the distinct nonzero values, the only table
        that is exact for arbitrary floats. A flip reads its feature's values from here, never
        from `inputs`.

        One pass over blocks of samples counts and tests for pixels, and one
        over blocks of _INDEX_BLOCK features fills rows and codes. Each holds
        the temporaries of one block only, so on pixel data no (n, d) or
        nonzero-long temporary and no second copy of rows or codes exists.
        """
        inputs = self.dataset.inputs
        n, d = inputs.shape
        # pass 1, over blocks of whole samples holding as many values as a
        # block of features: each feature's count, and whether all are pixels
        samples = range(0, n, max(1, _INDEX_BLOCK * n // max(d, 1)))
        starts = np.zeros(d + 1, dtype=np.int64)
        pixels = True
        for lo in samples:
            part = inputs[lo:lo + samples.step]
            starts[1:] += np.count_nonzero(part, axis=0)
            if pixels:  # rint(255 v) / 255 is PIXEL_LEVELS[rint(255 v)]
                level = part * 255.0
                np.rint(level, out=level)
                level /= 255.0
                pixels = np.array_equal(level, part)
        np.cumsum(starts, out=starts)
        if pixels:
            levels = PIXEL_LEVELS
        else:  # with 0 first, as in PIXEL_LEVELS, so that code 0 is a zero value in both
            levels = np.unique(np.concatenate(
                [[0.0]] + [np.unique(inputs[lo:lo + samples.step]) for lo in samples]))
        rows = np.empty(starts[-1], np.min_scalar_type(n - 1))
        codes = np.empty(starts[-1], np.min_scalar_type(levels.size - 1))
        # pass 2, over blocks of features: encode, transpose to (features, n)
        # and keep the nonzero codes in that order, with their samples
        for lo in range(0, d, _INDEX_BLOCK):
            part = inputs[:, lo:lo + _INDEX_BLOCK]
            if pixels:
                code = part * 255.0
                np.rint(code, out=code)
            else:
                code = np.searchsorted(levels, part)
            code = np.ascontiguousarray(code.astype(codes.dtype).T).ravel()
            flat = np.flatnonzero(code != 0)
            span = slice(starts[lo], starts[min(lo + _INDEX_BLOCK, d)])
            codes[span] = code[flat]
            rows[span] = np.remainder(flat, n, out=flat)
        return rows, codes, starts, levels

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
    Flipping weight (k, j) adds -2 W_kj x[s, j] to `_logits[k, s]`, which
    changes only the samples s where feature j is nonzero: the rows of
    `model.column_index`, about a fifth of the samples on MNIST-like data.
    A flip decodes x[s, j] at those rows from the index's code table, one
    contiguous byte each on pixel data, so it never reads `dataset.inputs`;
    it gathers `_logits[k]` and `_lse` there and computes their log-sum-exp
    shifts. A feature that is zero in every sample has no rows, a delta of 0
    and touches nothing. The true-class part of the delta is
    -2 W_kj class_sums[k, j].

    The delta sums the shifts in the order of a sum over all n samples: they
    are scattered into a fresh zero row of length n and summed there. A
    zero sample's shift is exactly +0.0 in the all-samples sum, so
    the delta is the same double, whatever the sparsity.

    `_lse` is updated additively. In terms of the exp-mass Z = exp(lse), a
    flip takes class k's old mass out of Z and puts its new mass in, so an
    absolute error made in Z while Z was large stays when Z falls, and the
    error in lse grows by the ratio of the two. `_lse_top` holds each
    sample's largest `_lse` since it was last computed exactly; a sample is
    recomputed from its K logits once it falls log 2 below that. Only a
    flip's rows can fall, so only they are tested.
    """

    def __init__(self, model: CrossEntropyEnergy, w):
        self.model = model
        self.w = as_spins(w).copy()
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
        rows, codes, starts, levels = model.column_index
        span = slice(starts[j], starts[j + 1])
        rows = rows[span].astype(np.intp)
        sign = -2.0 * self.w.item(i)
        dcol = levels.take(codes[span])
        dcol *= sign
        logit, lse = self._logits[k].take(rows), self._lse.take(rows)
        # lse' - lse = log1p(exp(z + d - lse) - exp(z - lse)); argument > -1
        tmp = logit - lse
        shift = tmp + dcol
        np.exp(shift, out=shift)
        np.exp(tmp, out=tmp)
        shift -= tmp
        np.log1p(shift, out=shift)
        spread = np.zeros(model.dataset.n)
        spread[rows] = shift
        delta = float(spread.sum()) - sign * float(model.class_sums[k, j])
        # what apply_flip needs, kept so that it gathers nothing again
        self._memo = (i, delta, rows, logit, dcol, lse, shift)
        return delta

    def apply_flip(self, i: int) -> float:
        if self._memo is None or self._memo[0] != i:
            self.flip_delta(i)
        _, delta, rows, logit, dcol, lse, shift = self._memo
        self._memo = None
        logit += dcol
        lse += shift
        self._logits[i // self.model.dataset.d][rows] = logit
        self._lse[rows] = lse
        top = np.maximum(self._lse_top.take(rows), lse)
        self._lse_top[rows] = top
        top -= LOG2
        low = rows[lse < top]
        if low.size:
            self._lse[low] = _logsumexp(self._logits.take(low, axis=1), axis=0)
            self._lse_top[low] = self._lse[low]
        self.w[i] = -self.w.item(i)
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

    def _index(self, w) -> int:
        """index_of(w), after refusing a length other than n_spins."""
        w = as_spins(w)
        if w.size != self.n_spins:
            raise DimensionError(f"spin vector length {w.size} != N={self.n_spins}")
        return self.index_of(w)

    def energy(self, w) -> float:
        return float(self.table[self._index(w)])

    def make_state(self, w) -> "TabulatedState":
        return TabulatedState(self, w)


class TabulatedState:
    def __init__(self, model: TabulatedEnergy, w):
        self.model = model
        self.w = as_spins(w).copy()
        self._idx = model._index(self.w)
        self.energy = model.table.item(self._idx)

    def flip_delta(self, i: int) -> float:
        return self.model.table.item(self._idx ^ (1 << i)) - self.energy

    def apply_flip(self, i: int) -> float:
        delta = self.flip_delta(i)
        self._idx ^= 1 << i
        self.w[i] = -self.w.item(i)
        self.energy = self.model.table.item(self._idx)  # a sum of deltas would drift
        return delta
