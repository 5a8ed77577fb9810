"""Crafted small landscapes used by the verification suites and tests."""

from __future__ import annotations

import numpy as np

from .energies import TabulatedEnergy


def two_state() -> TabulatedEnergy:
    """N=1: E(-1) = 1, E(+1) = 0."""
    return TabulatedEnergy([1.0, 0.0], n=1)


def double_well(n: int = 2) -> TabulatedEnergy:
    """All-ones and all-minus-ones at energy 0, everything else at 1."""
    table = np.ones(2**n)
    table[0] = 0.0
    table[2**n - 1] = 0.0
    return TabulatedEnergy(table, n=n)


def cluster_plus_isolated(n: int = 4) -> TabulatedEnergy:
    """Five-minimum cluster (radius-1 ball around all-ones) plus an isolated
    minimum at all-minus-ones; all other states sit at the barrier, energy 1."""
    size = 2**n
    table = np.ones(size)
    center = size - 1  # all +1
    table[center] = 0.0
    for i in range(n):
        table[center ^ (1 << i)] = 0.0
    table[0] = 0.0  # all -1, Hamming distance n from the center
    return TabulatedEnergy(table, n=n)


def random_integer_energies(n: int, rng: np.random.Generator) -> TabulatedEnergy:
    """Random table of integers 0..4, shifted so the minimum is 0."""
    table = rng.integers(0, 5, size=2**n).astype(np.float64)
    table -= table.min()
    return TabulatedEnergy(table, n=n)


def dense_center_index(n: int = 4) -> int:
    return 2**n - 1
