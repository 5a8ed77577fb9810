import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from replica_anneal import energies, fixtures
from replica_anneal.annealer import AnnealSchedule, Chain, make_rng
from replica_anneal.energies import (
    ClassifierDataset,
    CrossEntropyEnergy,
    DimensionError,
    PIXEL_LEVELS,
    PatternSet,
    PerceptronEnergy,
    TabulatedEnergy,
    generate_synthetic,
    rectified_margin,
)

from conftest import config_of


def test_rectified_margin_modes():
    # odd N: R(x) = ((x+1)/2) Theta(x); even N: R(x) = (x/2) Theta(x)
    assert rectified_margin(3.0, odd_mode=True) == 2.0
    assert rectified_margin(1.0, odd_mode=True) == 1.0
    assert rectified_margin(-1.0, odd_mode=True) == 0.0
    assert rectified_margin(4.0, odd_mode=False) == 2.0
    assert rectified_margin(0.0, odd_mode=False) == 0.0
    assert rectified_margin(-2.0, odd_mode=False) == 0.0


def test_pattern_set_validation():
    with pytest.raises(DimensionError):
        PatternSet(np.ones((2, 3)), np.array([1, 1, 1]))
    with pytest.raises(DimensionError):
        PatternSet(np.array([[1, 2]]), np.array([1]))
    ps = PatternSet(np.array([[1, -1], [-1, 1]]), np.array([1, -1]))
    assert ps.m == 2 and ps.n == 2


@pytest.mark.parametrize("patterns, labels", [
    (np.array([[255, 1]]), np.array([1])),   # int8 cast wraps 255 to -1
    (np.array([[257, -1]]), np.array([1])),  # and 257 to 1
    (np.array([[1.5, -1.0]]), np.array([1])),  # and truncates 1.5 to 1
    (np.array([[1, -1]]), np.array([255])),
    (np.array([[1, -1]]), np.array([-1.5])),
    (np.empty((0, 3)), np.empty(0)),  # no pattern
])
def test_pattern_set_checks_entries_before_the_int8_cast(patterns, labels):
    with pytest.raises(DimensionError):
        PatternSet(patterns, labels)


def test_generate_synthetic_deterministic():
    a = generate_synthetic(count=5, dim=7, seed=11)
    b = generate_synthetic(count=5, dim=7, seed=11)
    c = generate_synthetic(count=5, dim=7, seed=12)
    assert np.array_equal(a.patterns, b.patterns)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.patterns, c.patterns)


def test_perceptron_energy_counts_flips():
    # single pattern xi = (1,1,1), label +1: W = xi has margin 3, zero energy
    data = PatternSet(np.array([[1, 1, 1]]), np.array([1]))
    model = PerceptronEnergy(data)
    assert model.energy([1, 1, 1]) == 0.0
    # margin -3 needs (3+1)/2 = 2 flips to reach margin +1 (odd N)
    assert model.energy([-1, -1, -1]) == 2.0
    # margin -1 needs one flip
    assert model.energy([-1, -1, 1]) == 1.0


def test_perceptron_accuracy_zero_loss_convention():
    # even N: a zero margin has zero rectified loss and counts as learned
    data = PatternSet(np.array([[1, 1], [1, -1]]), np.array([1, 1]))
    model = PerceptronEnergy(data)
    assert model.accuracy([1, -1]) == 1.0  # margins 0 and 2
    assert model.accuracy([-1, -1]) == 0.5  # margins -2 and 0


def test_perceptron_state_delta_matches_recompute(small_patterns, rng):
    # lanes packed into one or more machine words; odd and even N
    instances = [small_patterns] + [generate_synthetic(count=m, dim=n, seed=m + n)
                                     for m, n in [(63, 7), (64, 8), (65, 9), (200, 51), (200, 50)]]
    for patterns in instances:
        model = PerceptronEnergy(patterns)
        w = rng.integers(0, 2, size=model.n_spins).astype(np.int8) * 2 - 1
        state = model.make_state(w)
        for _ in range(60):
            i = int(rng.integers(model.n_spins))
            predicted = state.flip_delta(i)
            w2 = state.w.copy()
            w2[i] = -w2[i]
            assert predicted == model.energy(w2) - model.energy(state.w)
            state.apply_flip(i)
            # perceptron deltas are exact integers: no drift at all
            assert state.energy == model.energy(state.w)


@pytest.mark.parametrize("dim", [11, 10])
def test_perceptron_apply_flip_exact_after_another_delta(dim, rng):
    # flip_delta(j) replaces the memo that flip_delta(i) left for apply_flip(i)
    for count in (9, 63, 64, 65, 200):
        model = PerceptronEnergy(generate_synthetic(count=count, dim=dim, seed=4))
        state = model.make_state(rng.integers(0, 2, size=dim).astype(np.int8) * 2 - 1)
        for _ in range(40):
            i, j = (int(v) for v in rng.integers(dim, size=2))
            w2 = state.w.copy()
            w2[i] = -w2[i]
            expected = model.energy(w2) - model.energy(state.w)
            state.flip_delta(i)
            state.flip_delta(j)
            assert state.apply_flip(i) == expected
            assert np.array_equal(state.w, w2)
            assert state.energy == model.energy(w2)
            assert state.flip_delta(i) == -expected


def _lane_bytes(n):
    """The fewest of 1, 2, 4 or 8 bytes whose top bit no lane value in
    [0, N] reaches."""
    return next(b for b in (1, 2, 4, 8) if n < 1 << (8 * b - 1))


def _check_lanes(model, state):
    """The state's packed q, G0 and G2 against q recomputed from the margins."""
    q = int(model.odd_mode) - model.margins(state.w)
    width = _lane_bytes(model.n_spins)
    lanes = np.frombuffer(state._h.to_bytes(width * q.size, "little"), dtype=f"<u{width}")
    assert np.array_equal(lanes, q // 2 + model.n_spins // 2)

    def on_tops(selected):
        return sum(1 << (8 * width * int(mu) + 8 * width - 1) for mu in np.flatnonzero(selected))

    assert state._g0 == on_tops(q >= 0)
    assert state._g2 == on_tops(q >= 2)


# N at each change of lane width (127 | 128 and 32767 | 32768) and beside it
@pytest.mark.parametrize("dim", [126, 127, 128, 129, 32766, 32767, 32768, 32769])
def test_perceptron_lanes_hold_q_at_the_ends_of_its_range(dim, rng):
    for count in (1, 8, 9, 64, 65):
        model = PerceptronEnergy(generate_synthetic(count=count, dim=dim, seed=count))
        signed = model.data.patterns[0] * model.data.labels[0]
        # aligned with pattern 0, q^0 is at the bottom of [off - N, off + N];
        # against it, at the top. Each flip is undone by the next, so every
        # second apply_flip returns q^0 to that end.
        for start in (signed, -signed):
            state = model.make_state(start)
            _check_lanes(model, state)
            for i in (int(v) for v in np.repeat(rng.integers(dim, size=4), 2)):
                w2 = state.w.copy()
                w2[i] = -w2[i]
                assert state.flip_delta(i) == model.energy(w2) - model.energy(state.w)
                state.apply_flip(i)
                assert state.energy == model.energy(w2)
                _check_lanes(model, state)


def test_perceptron_flips_call_no_numpy_function(monkeypatch, rng):
    model = PerceptronEnergy(generate_synthetic(count=30, dim=11, seed=2))
    state = model.make_state(rng.integers(0, 2, size=11).astype(np.int8) * 2 - 1)
    state.flip_delta(0)  # builds the move table

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} called by a flip")

    monkeypatch.setattr(energies, "np", NoNumpy())
    for i in (int(v) for v in rng.integers(11, size=50)):
        state.flip_delta(i)
        state.apply_flip(i)
    monkeypatch.undo()
    assert state.energy == model.energy(state.w)


def _toy_classifier(seed=0, n=12, d=5, k=3):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return ClassifierDataset(inputs=gen.random((n, d)),
                             targets=gen.integers(0, k, size=n),
                             num_classes=k)


def _sparse_toy_classifier(seed=0, n=15, d=6, k=3, zero_cols=(0, 4)):
    """Like _toy_classifier, with features that are zero in every sample,
    other zeros scattered, and every class present."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    inputs = gen.random((n, d)) * (gen.random((n, d)) < 0.6)
    inputs[:, list(zero_cols)] = 0.0
    return ClassifierDataset(inputs=inputs, targets=gen.permutation(np.arange(n) % k),
                             num_classes=k)


def test_cross_entropy_matches_direct_formula():
    ds = ClassifierDataset(inputs=np.array([[1.0, 0.0]]), targets=np.array([0]),
                           num_classes=2)
    model = CrossEntropyEnergy(ds)
    # W = [[1,1],[-1,1]]: logits (1, -1); loss = log(1 + e^{-2})
    w = np.array([1, 1, -1, 1], dtype=np.int8)
    assert model.energy(w) == pytest.approx(math.log(1 + math.exp(-2)))
    # symmetric weights give log 2
    w_flat = np.array([1, 1, 1, 1], dtype=np.int8)
    assert model.energy(w_flat) == pytest.approx(math.log(2.0))


def test_cross_entropy_state_delta_matches_recompute(rng):
    for ds in (_toy_classifier(seed=5), _sparse_toy_classifier(seed=5)):
        model = CrossEntropyEnergy(ds)
        w = rng.integers(0, 2, size=model.n_spins).astype(np.int8) * 2 - 1
        state = model.make_state(w)
        for _ in range(80):
            i = int(rng.integers(model.n_spins))
            predicted = state.flip_delta(i)
            w2 = state.w.copy()
            w2[i] = -w2[i]
            expected = model.energy(w2) - model.energy(state.w)
            assert predicted == pytest.approx(expected, abs=1e-10)
            state.apply_flip(i)
        assert state.energy == pytest.approx(model.energy(state.w), abs=1e-9)


def test_cross_entropy_cache_drift_bounded(rng):
    ds = _toy_classifier(seed=6, n=8, d=4, k=2)
    model = CrossEntropyEnergy(ds)
    w = rng.integers(0, 2, size=model.n_spins).astype(np.int8) * 2 - 1
    state = model.make_state(w)
    for _ in range(5000):
        i = int(rng.integers(model.n_spins))
        state.apply_flip(i)
    assert abs(state.energy - model.energy(state.w)) <= 1e-9


def test_cross_entropy_refresh_recomputes_the_cache(monkeypatch, rng):
    monkeypatch.setattr(CrossEntropyEnergy, "REFRESH_EVERY", 7)
    model = CrossEntropyEnergy(_toy_classifier(seed=9))
    state = model.make_state(rng.integers(0, 2, size=model.n_spins).astype(np.int8) * 2 - 1)
    for flips in range(1, 22):
        state.apply_flip(int(rng.integers(model.n_spins)))
        if flips % 7 == 0:  # the refreshing flip
            fresh = model.make_state(state.w)
            for name in ("_logits", "_lse", "_lse_top"):
                assert np.array_equal(getattr(state, name), getattr(fresh, name)), name
            assert state.energy == fresh.energy
            assert state._memo is None


def test_cross_entropy_class_sums_are_per_class_feature_sums():
    ds = _sparse_toy_classifier(seed=8)
    model = CrossEntropyEnergy(ds)
    direct = np.array([ds.inputs[ds.targets == k].sum(axis=0) for k in range(3)])
    assert model.class_sums.shape == (3, ds.d)
    assert np.allclose(model.class_sums, direct, rtol=1e-14, atol=0.0)
    _, _, starts, _ = model.column_index
    assert list(np.flatnonzero(starts[1:] == starts[:-1])) == [0, 4]  # empty row ranges


def test_cross_entropy_zero_feature_flip_is_free(rng):
    ds = _sparse_toy_classifier(seed=9)
    model = CrossEntropyEnergy(ds)
    w = rng.integers(0, 2, size=model.n_spins).astype(np.int8) * 2 - 1
    state = model.make_state(w)
    for i in (0, 4, ds.d + 4, 2 * ds.d):  # (k, j) with j in the zero columns
        logits, lse, energy = state._logits.tobytes(), state._lse.tobytes(), state.energy
        assert state.flip_delta(i) == 0.0
        assert state.apply_flip(i) == 0.0
        assert state.w[i] == -w[i] and state.energy == energy
        assert state._logits.tobytes() == logits and state._lse.tobytes() == lse


@pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16)])
def test_cross_entropy_column_index_lists_each_features_nonzero_samples(n, dtype):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(12)))
    d = 70  # more than one block of features
    for values in ("pixels", "floats", "one-off-grid"):
        if values == "floats":
            inputs = gen.random((n, d))
        else:
            inputs = gen.integers(1, 256, size=(n, d)) / 255.0
        inputs *= gen.random((n, d)) < 0.2
        inputs[:, 3] = 0.0
        # the last sample's index must fit the dtype
        inputs[n - 1, 5] = 0.5 if values == "floats" else 128 / 255
        if values == "one-off-grid":
            inputs[n // 2, 9] = np.nextafter(100 / 255, 1.0)
        model = CrossEntropyEnergy(ClassifierDataset(inputs=inputs, targets=np.arange(n) % 2,
                                                     num_classes=2))
        rows, codes, starts, levels = model.column_index
        assert rows.dtype == dtype and np.iinfo(rows.dtype).max >= n - 1
        assert starts.shape == (d + 1,) and starts[0] == 0 and starts[-1] == rows.size
        assert codes.shape == rows.shape
        if values == "pixels":
            assert levels is PIXEL_LEVELS and codes.dtype == np.uint8
        else:
            assert np.array_equal(levels, np.unique(np.append(inputs, 0.0)))
            assert codes.dtype == np.min_scalar_type(levels.size - 1), values
        for j in range(d):
            span = slice(starts[j], starts[j + 1])
            assert np.array_equal(rows[span], np.flatnonzero(inputs[:, j])), (values, j)
            assert levels[codes[span]].tobytes() == inputs[rows[span], j].tobytes(), (values, j)


class _DenseCrossEntropyState:
    """The cross-entropy cache updated over all n samples on every flip: the
    arithmetic CrossEntropyState restricts to a feature's nonzero samples."""

    def __init__(self, model, w):
        fresh = model.make_state(w)
        self.model, self.w, self.energy = model, fresh.w.copy(), fresh.energy
        self.logits, self.lse, self.lse_top = (
            fresh._logits.copy(), fresh._lse.copy(), fresh._lse_top.copy())
        self.recomputed = 0

    def flip_delta(self, i):
        k, j = divmod(i, self.model.dataset.d)
        sign = -2.0 * float(self.w[i])
        dcol = self.model.dataset.inputs[:, j] * sign
        tmp = self.logits[k] - self.lse
        shift = np.log1p(np.exp(tmp + dcol) - np.exp(tmp))
        return dcol, shift, float(shift.sum()) - sign * float(self.model.class_sums[k, j])

    def apply_flip(self, i):
        dcol, shift, delta = self.flip_delta(i)
        k = i // self.model.dataset.d
        self.logits[k] += dcol
        self.lse += shift
        np.maximum(self.lse_top, self.lse, out=self.lse_top)
        low = np.flatnonzero(self.lse < self.lse_top - math.log(2.0))
        if low.size:
            part = self.logits[:, low]
            top = part.max(axis=0)
            self.lse[low] = top + np.log(np.exp(part - top).sum(axis=0))
            self.lse_top[low] = self.lse[low]
            self.recomputed += low.size
        self.w[i] = -self.w[i]
        self.energy += delta
        return delta


@pytest.mark.parametrize("values", ["pixels", "floats"])
def test_cross_entropy_flips_equal_the_all_samples_arithmetic(values):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(11)))
    n, d, k = 40, 8, 3
    inputs = gen.random((n, d)) * (gen.random((n, d)) < 0.15)
    inputs[:, 0] = 0.5 + 0.5 * gen.random(n)  # nonzero in every sample
    inputs[:, 1] = 0.0
    inputs[7, 1] = 0.75  # nonzero in exactly one sample
    inputs[:, 2] = 0.0  # zero in every sample
    if values == "pixels":
        inputs = np.rint(inputs * 255.0) / 255.0
    assert 0.7 < np.mean(inputs == 0.0) < 0.85
    model = CrossEntropyEnergy(ClassifierDataset(inputs=inputs, targets=np.arange(n) % k,
                                                 num_classes=k))
    state = model.make_state(gen.integers(0, 2, size=model.n_spins).astype(np.int8) * 2 - 1)
    dense = _DenseCrossEntropyState(model, state.w)
    features = set()
    for _ in range(600):
        i = int(gen.integers(model.n_spins))
        features.add(i % d)
        assert state.flip_delta(i) == dense.flip_delta(i)[2]
        if gen.random() < 0.5:
            assert state.apply_flip(i) == dense.apply_flip(i)
        assert np.array_equal(state._logits, dense.logits)
        assert np.array_equal(state._lse, dense.lse)
        assert np.array_equal(state._lse_top, dense.lse_top)
        assert state.energy == dense.energy
    assert features == set(range(d)) and dense.recomputed > 0
    assert (model.column_index[3] is PIXEL_LEVELS) == (values == "pixels")


def test_cross_entropy_flips_do_not_read_the_inputs(rng):
    ds = _sparse_toy_classifier(seed=13)
    model, twin = CrossEntropyEnergy(ds), CrossEntropyEnergy(
        ClassifierDataset(ds.inputs.copy(), ds.targets, ds.num_classes))
    w = rng.integers(0, 2, size=model.n_spins).astype(np.int8) * 2 - 1
    state, reference = model.make_state(w), twin.make_state(w)
    for step in range(300):
        i = int(rng.integers(model.n_spins))
        assert state.flip_delta(i) == reference.flip_delta(i)
        assert state.apply_flip(i) == reference.apply_flip(i)
        if step == 0:  # the index and class sums are built by now
            model.dataset.inputs.fill(np.nan)
        for name in ("_logits", "_lse", "_lse_top"):
            assert np.array_equal(getattr(state, name), getattr(reference, name)), name
        assert state.energy == reference.energy


def _fresh_lse(model, w):
    logits = model.logits(w)
    top = logits.max(axis=1)
    return top + np.log(np.exp(logits - top[:, None]).sum(axis=1))


@pytest.mark.parametrize("eighths, d", [((4, 8), 24), ((1, 2), 160)],
                         ids=["steep-fall", "gradual-fall"])
def test_cross_entropy_cache_exact_after_a_dominant_class_falls(eighths, d):
    # Features are multiples of 1/8, so every logit stays exact; all of the
    # cache error is in the log-sum-exps. Class 0 starts all +1 and the other
    # classes all -1, so class 0 holds nearly all of each sample's exp-mass
    # (the rest is below rounding); flipping its weights down removes that
    # mass one flip at a time, and the check comes after such a fall. With
    # features of at most 1/4 no single flip removes half of a sample's
    # exp-mass, and the fall is spread over many flips.
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(10)))
    n, k = 16, 3
    ds = ClassifierDataset(inputs=gen.integers(eighths[0], eighths[1] + 1, size=(n, d)) / 8.0,
                           targets=np.arange(n) % k, num_classes=k)
    model = CrossEntropyEnergy(ds)
    w = -np.ones((k, d), dtype=np.int8)
    w[0] = 1
    state = model.make_state(w.ravel())
    for _ in range(4000 // (2 * d + 8)):  # about 4000 flips
        for i in gen.integers(d, k * d, size=8):  # stir the other classes
            state.apply_flip(int(i))
        for j in range(d):  # class 0 down, then back up
            state.apply_flip(j)
        for j in range(d):
            state.apply_flip(j)
    for j in range(d):
        state.apply_flip(j)
    assert state.energy == pytest.approx(model.energy(state.w), rel=1e-12, abs=1e-12)
    assert np.max(np.abs(state._lse - _fresh_lse(model, state.w))) <= 1e-12


def test_cross_entropy_memo_reuse_consistent(rng):
    ds = _toy_classifier(seed=7)
    model = CrossEntropyEnergy(ds)
    w = rng.integers(0, 2, size=model.n_spins).astype(np.int8) * 2 - 1
    state = model.make_state(w)
    d1 = state.flip_delta(3)
    d2 = state.apply_flip(3)  # should reuse the memoized parts
    assert d1 == d2


def test_classifier_dataset_validation():
    with pytest.raises(DimensionError):
        ClassifierDataset(inputs=np.array([[2.0]]), targets=np.array([0]), num_classes=2)
    with pytest.raises(DimensionError):
        ClassifierDataset(inputs=np.array([[0.5]]), targets=np.array([5]), num_classes=2)
    with pytest.raises(DimensionError, match=re.escape("inputs must be (n, d)")):
        ClassifierDataset(inputs=np.array([0.5, 0.5]), targets=np.array([0, 1]), num_classes=2)
    with pytest.raises(DimensionError, match="one target per input row"):
        ClassifierDataset(inputs=np.full((2, 3), 0.5), targets=np.array([0]), num_classes=2)


@pytest.mark.parametrize("call, message", [
    (lambda: PerceptronEnergy(generate_synthetic(count=4, dim=5, seed=0)).margins(np.ones(4)),
     "weight length 4 != N=5"),
    (lambda: CrossEntropyEnergy(ClassifierDataset(inputs=np.full((2, 3), 0.5),
                                                  targets=np.array([0, 1]), num_classes=2)
                                ).energy(np.ones(5)),
     "weight length 5 != K*d=6"),
    (lambda: TabulatedEnergy(np.zeros(3), n=2), "table must have 2^2 entries"),
], ids=["perceptron-margins", "cross-entropy-weights", "table-size"])
def test_models_refuse_a_wrong_size(call, message):
    with pytest.raises(DimensionError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("where", [(0, 0), (1, 2)])
def test_classifier_dataset_refuses_nan_features(where):
    inputs = np.full((2, 3), 0.5)
    inputs[where] = np.nan
    with pytest.raises(DimensionError, match=r"\[0, 1\]"):
        ClassifierDataset(inputs=inputs, targets=np.array([0, 1]), num_classes=2)


def test_tabulated_energy_index_round_trip():
    model = TabulatedEnergy([0.0, 1.0, 2.0, 3.0], n=2)
    for idx in range(4):
        cfg = config_of(idx, 2)
        assert TabulatedEnergy.index_of(cfg) == idx
        assert model.energy(cfg) == float(idx)


@pytest.mark.parametrize("w", [[1, 1], [1, -1, 1, 1]], ids=["short", "long"])
def test_tabulated_model_refuses_a_wrong_length(w, rng):
    model = fixtures.random_integer_energies(3, rng)
    with pytest.raises(DimensionError, match="length"):
        model.energy(w)
    with pytest.raises(DimensionError, match="length"):
        model.make_state(w)


def test_tabulated_state_tracks_flips(rng):
    table = rng.random(8)
    model = TabulatedEnergy(table, n=3)
    state = model.make_state([-1, -1, -1])
    for _ in range(20):
        i = int(rng.integers(3))
        d = state.flip_delta(i)
        assert d == pytest.approx(state.apply_flip(i))
    assert state.energy == pytest.approx(model.energy(state.w))


def test_tabulated_energy_is_the_table_entry_on_a_real_table():
    """On tables exp(U(-8, 8)), whose entries are not integers, a state's
    energy after 20 000 chain steps is its table entry, and each flip_delta
    is the difference of two entries: no running sum of deltas drifts."""
    n, y = 6, 3
    schedule = AnnealSchedule.exponential(0.1, 10.0, 20000, gamma=0.5)
    for seed in range(20):
        model = TabulatedEnergy(np.exp(make_rng(seed).uniform(-8, 8, size=2**n)), n=n)
        chain = Chain(model, y, schedule, seed=seed)
        chain.run()
        for state in chain.states:
            assert state.energy == model.table.item(TabulatedEnergy.index_of(state.w))
    table, rng = model.table, make_rng(99)
    state = model.make_state(config_of(0, n))
    for _ in range(2000):
        i, idx = int(rng.integers(n)), TabulatedEnergy.index_of(state.w)
        assert state.flip_delta(i) == table[idx ^ (1 << i)] - table[idx]
        state.apply_flip(i)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**6 - 1), st.integers(min_value=0, max_value=5))
def test_tabulated_flip_is_xor_on_indices(idx, i):
    n = 6
    table = np.arange(2**n, dtype=float)
    model = TabulatedEnergy(table, n=n)
    state = model.make_state(config_of(idx, n))
    state.apply_flip(i)
    assert TabulatedEnergy.index_of(state.w) == idx ^ (1 << i)
