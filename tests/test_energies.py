import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from replica_anneal.energies import (
    ClassifierDataset,
    CrossEntropyEnergy,
    DimensionError,
    PatternSet,
    PerceptronEnergy,
    TabulatedEnergy,
    generate_synthetic,
    rectified_margin,
)


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
    assert ps.m == 2 and ps.n == 2 and ps.alpha == 1.0


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
    model = PerceptronEnergy(small_patterns)
    w = rng.integers(0, 2, size=model.n_spins).astype(np.int8) * 2 - 1
    state = model.make_state(w)
    for _ in range(60):
        i = int(rng.integers(model.n_spins))
        predicted = state.flip_delta(i)
        w2 = state.w.copy()
        w2[i] = -w2[i]
        assert predicted == pytest.approx(model.energy(w2) - model.energy(state.w))
        state.apply_flip(i)
        # perceptron deltas are exact integers: no drift at all
        assert state.energy == model.energy(state.w)


@pytest.mark.parametrize("dim", [11, 10])
def test_perceptron_apply_flip_exact_after_another_delta(dim, rng):
    # flip_delta(j) overwrites the scratch row that flip_delta(i) left for apply_flip(i)
    model = PerceptronEnergy(generate_synthetic(count=9, dim=dim, seed=4))
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
    assert list(np.flatnonzero(model.zero_features)) == [0, 4]


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


def test_tabulated_energy_index_round_trip():
    model = TabulatedEnergy([0.0, 1.0, 2.0, 3.0], n=2)
    for idx in range(4):
        cfg = TabulatedEnergy.config_of(idx, 2)
        assert TabulatedEnergy.index_of(cfg) == idx
        assert model.energy(cfg) == float(idx)


def test_tabulated_state_tracks_flips(rng):
    table = rng.random(8)
    model = TabulatedEnergy(table, n=3)
    state = model.make_state([-1, -1, -1])
    for _ in range(20):
        i = int(rng.integers(3))
        d = state.flip_delta(i)
        assert d == pytest.approx(state.apply_flip(i))
    assert state.energy == pytest.approx(model.energy(state.w))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**6 - 1), st.integers(min_value=0, max_value=5))
def test_tabulated_flip_is_xor_on_indices(idx, i):
    n = 6
    table = np.arange(2**n, dtype=float)
    model = TabulatedEnergy(table, n=n)
    state = model.make_state(TabulatedEnergy.config_of(idx, n))
    state.apply_flip(i)
    assert TabulatedEnergy.index_of(state.w) == idx ^ (1 << i)
