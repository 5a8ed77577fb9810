"""Spin vectors on {-1,+1}^N and replica ensembles with cached fields."""

from __future__ import annotations

import numpy as np


class SpinError(ValueError):
    pass


def all_pm1(arr: np.ndarray) -> bool:
    """Whether the array is real and every entry equals -1 or +1 exactly,
    in the array's own dtype, before any cast could wrap or truncate it."""
    return arr.dtype.kind in "biuf" and bool(np.all(np.abs(arr) == 1))


def as_spins(values) -> np.ndarray:
    """Coerce to an int8 array of +-1 entries, validating every entry."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size < 1:
        raise SpinError(f"spin vector must be 1-d and non-empty, got shape {arr.shape}")
    if not all_pm1(arr):
        raise SpinError("spin entries must be exactly -1 or +1")
    return np.asarray(arr, dtype=np.int8)


class ReplicaEnsemble:
    """y coupled replicas, each an energy state owning its spins `w`, plus
    the per-coordinate replica field sums.

    fields[i] = sum_a sigma_i^a is kept up to date under flips so the
    log-cosh interaction delta is O(1); `log_cosh` is that delta's table of
    log cosh(gamma f) at gamma = `log_cosh_gamma`. `fields` is a list of
    Python ints, not an array: a step reads and writes one entry, and a numpy
    scalar costs a box or an unbox each time. Spins are read as `w.item(i)`
    for the same reason.
    """

    __slots__ = ("states", "fields", "n", "y", "log_cosh", "log_cosh_gamma")

    def __init__(self, states):
        states = list(states)
        if not states:
            raise SpinError("ensemble needs at least one replica")
        n = states[0].w.size
        if any(s.w.size != n for s in states):
            raise SpinError("replicas must all have the same length")
        self.states = states
        self.n = n
        self.y = len(states)
        self.fields = self.recompute_fields()
        self.log_cosh, self.log_cosh_gamma = [], None

    def recompute_fields(self) -> list[int]:
        total = np.zeros(self.n, dtype=np.int64)
        for s in self.states:
            total += s.w
        return total.tolist()

    def check_fields(self) -> bool:
        return self.fields == self.recompute_fields()

    def apply_flip(self, a: int, i: int) -> float:
        """Flip spin i of replica a; returns the replica's energy change."""
        if not 0 <= a < self.y:
            raise IndexError(f"replica {a} out of range for y={self.y}")
        if not 0 <= i < self.n:
            raise IndexError(f"coordinate {i} out of range for N={self.n}")
        state = self.states[a]
        self.fields[i] -= 2 * state.w.item(i)
        return state.apply_flip(i)

    @classmethod
    def random(cls, model, y: int, rng: np.random.Generator) -> "ReplicaEnsemble":
        spins = rng.integers(0, 2, size=(y, model.n_spins)).astype(np.int8) * 2 - 1
        return cls([model.make_state(row) for row in spins])
