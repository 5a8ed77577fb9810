import numpy as np
import pytest

from replica_anneal.energies import TabulatedEnergy
from replica_anneal.spins import ReplicaEnsemble, SpinError, as_spins


def _flat(n):
    return TabulatedEnergy(np.zeros(2**n), n=n)


def _ensemble(rows):
    model = _flat(len(rows[0]))
    return ReplicaEnsemble([model.make_state(r) for r in rows])


def test_as_spins_rejects_non_pm1():
    with pytest.raises(SpinError):
        as_spins([1, 0, -1])
    with pytest.raises(SpinError):
        as_spins([[1, -1]])
    with pytest.raises(SpinError):
        as_spins([])


@pytest.mark.parametrize("values", [np.array([255, 1]), np.array([257, -1]),
                                    np.array([1.5, -1.0]), np.array([-1, 1, 129]),
                                    np.array([1.0, np.nan]), np.array([1j, 1]),
                                    np.array(["1", "-1"])])
def test_as_spins_checks_entries_before_the_int8_cast(values):
    # int8 casts wrap 255 to -1 and 257 to 1, and truncate 1.5 to 1
    with pytest.raises(SpinError):
        as_spins(values)


def test_as_spins_keeps_exact_pm1_of_any_dtype():
    for values in (np.array([1.0, -1.0]), np.array([1, 1], dtype=np.uint64),
                   [1, -1], [True, True], np.array([-1, 1], dtype=np.int8)):
        spins = as_spins(values)
        assert spins.dtype == np.int8
        assert np.array_equal(spins, np.asarray(values))


def test_ensemble_fields_track_flips(rng):
    ens = ReplicaEnsemble.random(_flat(6), 3, rng)
    assert ens.check_fields()
    for _ in range(50):
        a = int(rng.integers(3))
        i = int(rng.integers(6))
        ens.apply_flip(a, i)
    assert ens.check_fields()


def test_ensemble_flip_is_involution(rng):
    ens = ReplicaEnsemble.random(_flat(4), 2, rng)
    before = [s.w.copy() for s in ens.states]
    ens.apply_flip(1, 2)
    assert ens.states[1].w[2] == -before[1][2]
    ens.apply_flip(1, 2)
    for old, state in zip(before, ens.states):
        assert np.array_equal(old, state.w)
    assert ens.check_fields()


def test_ensemble_flip_updates_the_state_energy():
    model = TabulatedEnergy([0.0, 1.0, 2.0, 3.0], n=2)
    ens = ReplicaEnsemble([model.make_state([-1, -1]), model.make_state([1, -1])])
    assert ens.apply_flip(0, 1) == 2.0
    assert ens.states[0].energy == model.energy(ens.states[0].w) == 2.0
    assert ens.states[1].energy == 1.0


def test_ensemble_validates_shapes():
    with pytest.raises(SpinError):
        ReplicaEnsemble([])
    with pytest.raises(SpinError):
        ReplicaEnsemble([_flat(2).make_state([1, -1]), _flat(3).make_state([1, -1, 1])])
    ens = _ensemble([[1, -1], [-1, -1]])
    with pytest.raises(IndexError):
        ens.apply_flip(2, 0)
    with pytest.raises(IndexError):
        ens.apply_flip(0, 5)


def test_field_values_are_replica_sums():
    ens = _ensemble([[1, -1, 1], [1, 1, -1], [-1, 1, 1]])
    assert ens.fields == [1, 1, 1]
