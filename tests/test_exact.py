import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from replica_anneal import exact, fixtures, verify
from replica_anneal.annealer import accept_combined, accept_two_stage, interaction_delta, make_rng
from replica_anneal.energies import (
    DimensionError,
    PatternSet,
    PerceptronEnergy,
    TabulatedEnergy,
    generate_synthetic,
)
from replica_anneal.spins import ReplicaEnsemble

from conftest import config_of
from reference_elevation import elevation_m_bruteforce


def test_enumerate_qbar_flat_energy_equals_mu0():
    model = TabulatedEnergy([0.0, 0.0, 0.0, 0.0], n=2)
    direct, folded, _ = exact.enumerate_qbar(model, 2, 2, beta=1.3, gamma=0.9)
    # mu_0, the beta-free interaction measure: proportional to prod_i cosh(gamma f_i)
    weights = np.cosh(0.9 * exact.fields_table(2, 2)).prod(axis=1)
    mu = weights / weights.sum()
    assert np.allclose(direct, mu, atol=1e-12)
    assert np.allclose(folded, mu, atol=1e-12)


def test_enumerate_qbar_reduces_to_gibbs_at_gamma0_y1(tiny_tabulated):
    beta = 0.7
    _, folded, _ = exact.enumerate_qbar(tiny_tabulated, 3, 1, beta, 0.0)
    w = np.exp(-beta * tiny_tabulated.table)
    assert np.allclose(folded, w / w.sum(), atol=1e-12)


def test_enumerate_qbar_hand_example():
    # N=1, y=2, gamma=1, beta=1, E(+1)=0, E(-1)=1
    model = TabulatedEnergy([1.0, 0.0], n=1)
    direct, folded, _ = exact.enumerate_qbar(model, 1, 2, beta=1.0, gamma=1.0)
    cosh2 = math.cosh(2.0)
    weights = np.array([math.exp(-2.0) * cosh2,  # (-,-) at index 0
                        math.exp(-1.0),          # (+,-)
                        math.exp(-1.0),          # (-,+)
                        cosh2])                  # (+,+) at index 3
    assert weights[3] == pytest.approx(3.76220, abs=1e-4)
    assert weights[0] == pytest.approx(0.50912, abs=1e-4)
    expected = weights / weights.sum()
    assert expected[3] == pytest.approx(0.75139, abs=1e-4)
    assert np.allclose(folded, expected, atol=1e-10)
    assert np.allclose(direct, expected, atol=1e-10)


def test_enumerate_qbar_size_limits():
    model = TabulatedEnergy(np.zeros(2), n=1)
    with pytest.raises(exact.SizeLimitError):
        exact.enumerate_qbar(model, 1, 17, 1.0, 0.0)
    with pytest.raises(exact.SizeLimitError, match="N <= 10"):
        exact.enumerate_qbar(TabulatedEnergy(np.zeros(2**11), n=11), 11, 1, 1.0, 0.0)


@pytest.mark.parametrize("call, message", [
    (lambda model: exact.build_kernel_matrix(model, 3, 2, 1.0, 0.5, kernel="metropolis"),
     "unknown kernel 'metropolis'"),
    (lambda model: exact.replica_swap(3, 1), "replica_swap needs y >= 2"),
], ids=["kernel", "swap-one-replica"])
def test_exact_entry_points_refuse_what_they_do_not_define(call, message, tiny_tabulated):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(tiny_tabulated)


def test_kernel_two_state_metropolis():
    # N=1, y=1, E(+)=0, E(-)=1, gamma=0, beta=1
    model = fixtures.two_state()
    k = exact.build_kernel_matrix(model, 1, 1, beta=1.0, gamma=0.0)
    # index 0 is sigma=-1 (the high state), index 1 is sigma=+1
    expected = np.array([[0.0, 1.0], [math.exp(-1.0), 1.0 - math.exp(-1.0)]])
    assert np.allclose(k, expected, atol=1e-12)


def test_kernel_is_random_walk_at_infinite_temperature(tiny_tabulated):
    k = exact.build_kernel_matrix(tiny_tabulated, 3, 2, beta=0.0, gamma=0.0)
    size = 2**6
    off = k - np.diag(np.diag(k))
    assert np.allclose(np.diag(k), 0.0, atol=1e-12)
    assert np.allclose(off[off > 0], 1.0 / 6.0)
    assert np.allclose(k.sum(axis=1), 1.0, atol=1e-12)
    assert k.shape == (size, size)


def test_kernel_rows_stochastic(cluster4):
    for kernel in ("two-stage", "combined"):
        k = exact.build_kernel_matrix(cluster4, 4, 2, 1.2, 0.8, kernel)
        assert np.all(k >= -1e-15)
        assert np.allclose(k.sum(axis=1), 1.0, atol=1e-12)


def test_detailed_balance_both_kernels(tiny_tabulated):
    for kernel in ("two-stage", "combined"):
        for beta, gamma in [(0.0, 0.0), (0.9, 0.4), (2.0, 1.5)]:
            _, qbar, _ = exact.enumerate_qbar(tiny_tabulated, 3, 2, beta, gamma)
            k = exact.build_kernel_matrix(tiny_tabulated, 3, 2, beta, gamma, kernel)
            flux = qbar[:, None] * k
            assert np.abs(flux - flux.T).max() <= 1e-12


@pytest.mark.parametrize("kernel", ["two-stage", "combined"])
@pytest.mark.parametrize("instance", ["tabulated", "perceptron", "perceptron-even-n"])
def test_chain_moves_match_exact_kernel(kernel, instance):
    """Every move of every ensemble: the chain's proposal probability times
    its acceptance equals the exact kernel's off-diagonal entry, so the fast
    energy delta, interaction_delta and the acceptance rule are each checked
    against the oracle one move at a time."""
    if instance == "tabulated":
        model, n = fixtures.random_integer_energies(3, make_rng(5)), 3
    elif instance == "perceptron":
        model, n = PerceptronEnergy(generate_synthetic(count=3, dim=5, seed=4)), 5
    else:  # zero margins occur only at even N
        model, n = PerceptronEnergy(generate_synthetic(count=5, dim=4, seed=4)), 4
    y, beta, gamma = 2, 1.3, 0.8
    accept = accept_combined if kernel == "combined" else accept_two_stage
    k_mat = exact.build_kernel_matrix(model, n, y, beta, gamma, kernel)
    for s in range(2 ** (n * y)):
        ens = ReplicaEnsemble([model.make_state(config_of(s >> (a * n), n))
                               for a in range(y)])
        for a in range(y):
            for i in range(n):
                p = accept(ens.states[a].flip_delta(i), interaction_delta(ens, gamma, a, i), beta)
                assert abs(min(1.0, p) / (n * y) - k_mat[s, s ^ (1 << (a * n + i))]) <= 1e-15


def test_stationary_and_gap_two_state():
    model = fixtures.two_state()
    _, qbar, _ = exact.enumerate_qbar(model, 1, 1, 1.0, 0.0)
    k = exact.build_kernel_matrix(model, 1, 1, 1.0, 0.0)
    stationary, lam1, psi = exact.stationary_and_gap(k, qbar)
    assert lam1 == pytest.approx(-math.exp(-1.0), abs=1e-12)
    assert psi == pytest.approx(1.0 + math.exp(-1.0), abs=1e-12)
    # stationary proportional to (e^{-1}, 1) in index order (-, +)
    expected = np.array([math.exp(-1.0), 1.0])
    assert np.allclose(stationary, expected / expected.sum(), atol=1e-10)


def test_gap_is_two_for_single_free_spin():
    model = TabulatedEnergy([0.0, 0.0], n=1)
    _, qbar, _ = exact.enumerate_qbar(model, 1, 1, 0.0, 0.0)
    k = exact.build_kernel_matrix(model, 1, 1, 0.0, 0.0)
    _, lam1, psi = exact.stationary_and_gap(k, qbar)
    assert lam1 == pytest.approx(-1.0, abs=1e-12)
    assert psi == pytest.approx(2.0, abs=1e-12)


def test_stationary_and_gap_rejects_nonreversible():
    qbar = np.array([0.5, 0.5])
    k = np.array([[0.9, 0.1], [0.4, 0.6]])
    with pytest.raises(exact.NonReversibleError):
        exact.stationary_and_gap(k, qbar)


def test_stationary_and_gap_rejects_nan():
    # qbar K is symmetric wherever it is defined, so only the NaN can fail
    k = np.array([[0.5, np.nan], [0.5, 0.5]])
    with pytest.raises(exact.NonReversibleError, match="detailed balance"):
        exact.stationary_and_gap(k, np.array([0.5, 0.5]))


@pytest.mark.parametrize("block", [1, 3, 200, 1 << 40])
def test_results_do_not_depend_on_the_block_size(block, monkeypatch):
    """S = 64 ensembles in 27 (N=3, y=2) or 16 (N=2, y=3) field classes:
    block 1 and 3 score one class and compare one entry pair at a time; 200
    scores 25 classes (all 16 at N=2) and compares 7 x 7 tiles at a time,
    and 25 does not divide 27 nor 7 divide 64; 1 << 40 does each in one
    block."""
    def outputs():
        out = []
        for n, y in [(3, 2), (2, 3)]:
            model = fixtures.random_integer_energies(n, make_rng(10 + n))
            direct, folded, z = exact.enumerate_qbar(model, n, y, 1.3, 0.7)
            k = exact.build_kernel_matrix(model, n, y, 1.3, 0.7)
            out += [direct, folded, z]
            out += exact.stationary_and_gap(k, folded)
        return out

    expected = outputs()
    monkeypatch.setattr(exact, "BLOCK", block)
    for got, want in zip(outputs(), expected, strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 4, 8])
def test_center_scores_add_the_coordinates_in_order(n):
    gamma_fields = 0.3 * make_rng(n).integers(-3, 4, size=(5, n))
    configs = exact.enumerate_configs(n)
    expected = np.zeros((5, 2**n))
    for i in range(n):
        expected = expected + gamma_fields[:, i:i + 1] * configs[:, i]
    assert np.array_equal(exact._center_scores(gamma_fields, n), expected)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enumerate_qbar_scores_in_bounded_memory():
    """N=8, y=2 has 2^24 (ensemble, center) scores, 128 MB of doubles; the
    direct route scores the 3^8 field classes, about BLOCK (class, center)
    pairs at a time, and builds no (S, N) table, so the peak is about 4.3 MB."""
    model = fixtures.random_integer_energies(8, make_rng(0))
    assert _traced_peak(exact.enumerate_qbar, model, 8, 2, 1.0, 0.5) < 8 * 2**20


def _reference_qbar(model, n, y, beta, gamma):
    """enumerate_qbar with every field term computed once per ensemble."""
    tot_e = exact.total_energy_table(exact.energy_table_of(model, n), n, y)
    fields = exact.fields_table(n, y)
    scores = exact._center_scores(gamma * fields.astype(np.float64), n)
    m = scores.max(axis=1)
    logw = m + np.log(np.exp(scores - m[:, None]).sum(axis=1)) - beta * tot_e
    top = logw.max()
    log_z = top + math.log(np.exp(logw - top).sum())
    folded = exact._normalize_log(-beta * tot_e + exact._field_term(fields, gamma, y))
    return exact._normalize_log(logw), folded, float(np.exp(log_z))


def _reference_dense_mass(model, n, y, gamma, center_index, radius):
    """dense_region_mass on per-ensemble fields and replica states."""
    tot_e = exact.total_energy_table(exact.energy_table_of(model, n), n, y)
    field_term = exact._field_term(exact.fields_table(n, y), gamma, y)
    qbar = exact._normalize_log(-exact.BETA_LARGE * tot_e + field_term)
    in_ball = exact.hamming_table(n, center_index) <= radius
    return float(qbar[np.all(in_ball[exact.replica_states(n, y)], axis=1)].sum())


@pytest.mark.parametrize("n, y", [(3, 1), (1, 5), (2, 3), (3, 2), (4, 3), (2, 8)])
def test_field_classes_gather_to_the_fields_table(n, y):
    cls, class_fields = exact._field_classes(n, y)
    assert class_fields.shape == ((y + 1) ** n, n)
    assert np.array_equal(class_fields[cls], exact.fields_table(n, y))


@pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("n, y", [(3, 1), (4, 2), (3, 3), (2, 4), (2, 8)])
def test_class_route_equals_the_per_ensemble_route(n, y, gamma):
    """Each field term is a row-by-row function of the fields, so computing it
    once per class gives every ensemble the same double as the per-ensemble
    route; the energies are not integers, so no rounding is hidden."""
    table = make_rng(n * 10 + y).normal(size=2**n) ** 2
    model = TabulatedEnergy(table - table.min(), n=n)
    for got, want in zip(exact.enumerate_qbar(model, n, y, 1.3, gamma),
                         _reference_qbar(model, n, y, 1.3, gamma), strict=True):
        assert np.array_equal(got, want)
    for center in (0, 2**n - 1):
        for radius in range(n + 1):
            assert (exact.dense_region_mass(model, n, y, gamma, center, radius)
                    == _reference_dense_mass(model, n, y, gamma, center, radius))


def _reference_qbars_and_gaps(model, n, y, gamma, kernel, betas=exact.BETA_GRID):
    """compute_constants' qbars and gaps over BETA_GRID, or spectral_gaps' over
    betas, from the fields of every ensemble (fields_table) rather than of
    every field class, and from one _FlipGap called at each beta in turn."""
    tot_e = exact.total_energy_table(exact.energy_table_of(model, n), n, y)
    fields = exact.fields_table(n, y)
    field_term = exact._field_term(fields, gamma, y)
    qbars = [exact._normalize_log(-beta * tot_e + field_term) for beta in betas]
    nbr, delta_e, delta_h = exact._flip_tables(tot_e, fields, n, y, gamma)
    gap = exact._FlipGap(nbr, n, y)
    psis = [gap(exact._flip_moves(delta_e, delta_h, beta, kernel), qbar)
            for beta, qbar in zip(betas, qbars)]
    return tot_e, qbars, psis


@pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("table", ["integer", "real"])
@pytest.mark.parametrize("n, y", [(3, 1), (2, 2), (2, 3), (4, 2), (2, 4), (1, 6)])
def test_gap_route_equals_the_per_ensemble_route(n, y, table, gamma):
    """compute_constants and spectral_gaps take their qbars and flip tables
    from the field classes; every qbar and gap is the same double as from
    the per-ensemble fields, for both kernels and on integer and non-integer
    energies."""
    rng = make_rng(300 + n * 10 + y)
    if table == "integer":
        model = fixtures.random_integer_energies(n, rng)
    else:
        energy = rng.normal(size=2**n) ** 2
        model = TabulatedEnergy(energy - energy.min(), n=n)
    for kernel in ("combined", "two-stage"):
        tot_e, qbars, psis = _reference_qbars_and_gaps(model, n, y, gamma, kernel)
        got_qbars, got_psis = exact._qbars_and_gaps(tot_e, n, y, gamma, exact.BETA_GRID, kernel)
        assert all(np.array_equal(got, want) for got, want in zip(got_qbars, qbars, strict=True))
        assert got_psis == psis
        assert exact.spectral_gaps(model, n, y, gamma, exact.BETA_GRID, kernel) == psis
        consts = exact.compute_constants(model, n, y, gamma, kernel)
        assert consts.psi_values == [(float(beta), psi) for beta, psi in zip(exact.BETA_GRID, psis)]


def test_enumerate_qbar_scores_each_field_class_once(monkeypatch):
    """N=8, y=2: 3^8 = 6561 classes score the centers, not 2^16 ensembles."""
    rows = []
    center_scores = exact._center_scores

    def counted(gamma_fields, n):
        rows.append(gamma_fields.shape[0])
        return center_scores(gamma_fields, n)

    monkeypatch.setattr(exact, "_center_scores", counted)
    exact.enumerate_qbar(fixtures.random_integer_energies(8, make_rng(0)), 8, 2, 1.0, 0.5)
    assert sum(rows) == 3**8


def test_replica_swap_is_an_involution_fixing_the_aligned_ensembles():
    for n, y in [(1, 2), (3, 2), (2, 3), (1, 4), (2, 4)]:
        swap = exact.replica_swap(n, y)
        idx = np.arange(2 ** (n * y))
        assert np.array_equal(swap[swap], idx)
        assert np.count_nonzero(swap == idx) == 2 ** (n * y) // 2**n
        states = exact.replica_states(n, y)
        assert np.array_equal(states[swap], states[:, [1, 0, *range(2, y)]])


@pytest.mark.parametrize("kernel", ["two-stage", "combined"])
def test_kernel_off_diagonal_is_exactly_swap_invariant(kernel):
    for n, y in [(3, 2), (2, 3), (2, 4)]:
        model = fixtures.random_integer_energies(n, make_rng(n * y))
        k = exact.build_kernel_matrix(model, n, y, 1.3, 0.8, kernel)
        swap = exact.replica_swap(n, y)
        off = ~np.eye(k.shape[0], dtype=bool)
        assert np.array_equal(k[np.ix_(swap, swap)][off], k[off])


def test_gap_held_by_the_odd_block():
    """N=1, y=2 under the uniform law: the mixed ensembles 1 and 2 are sticky,
    so the slowest mode is e_1 - e_2, odd under the replica exchange. Its
    rate is the escape 2 eps + delta plus the direct move delta; the slowest
    even nonzero mode decays at 4 eps."""
    eps, delta, both = 0.01, 0.002, 0.4
    k = np.array([[1 - both - 2 * eps, eps, eps, both],
                  [eps, 1 - 2 * eps - delta, delta, eps],
                  [eps, delta, 1 - 2 * eps - delta, eps],
                  [both, eps, eps, 1 - both - 2 * eps]])
    qbar = np.full(4, 0.25)
    _, _, psi = exact.stationary_and_gap(k, qbar)
    assert psi == pytest.approx(2 * eps + 2 * delta, abs=1e-15)


def _reference_gap(model, n, y, beta, gamma, mp):
    """psi of the two-stage kernel in mp.dps digits: the second smallest
    eigenvalue of the symmetrised Laplacian, built from the energies."""
    energy = exact.energy_table_of(model, n)
    tot = exact.total_energy_table(energy, n, y)
    fields = exact.fields_table(n, y)
    size = 2 ** (n * y)
    beta, gamma = mp.mpf(beta), mp.mpf(gamma)

    def log_cosh(f):
        return mp.log(mp.cosh(gamma * int(f)))

    log_w = [-beta * mp.mpf(tot[s]) + sum(log_cosh(f) for f in fields[s]) for s in range(size)]
    lap = mp.zeros(size, size)
    for s in range(size):
        for bit in range(n * y):
            t, i = s ^ (1 << bit), bit % n
            d_e = mp.mpf(tot[t] - tot[s])
            d_h = log_cosh(fields[t, i]) - log_cosh(fields[s, i])
            k_st = mp.exp(min(d_h, 0)) * mp.exp(-beta * max(d_e, 0)) / (n * y)
            lap[s, t] = -mp.exp((log_w[s] - log_w[t]) / 2) * k_st
            lap[s, s] += k_st
    return sorted(mp.eigsy(lap, eigvals_only=True))[1]


@pytest.mark.parametrize("path", ["whole", "moves"])
def test_gap_matches_a_50_digit_reference(path):
    """Criterion 4's instance at beta = 20, where psi ~ 5e-10 and 1 - lambda_2
    loses all but about six digits: the dense kernel's gap and the gap from
    the moves table."""
    import mpmath  # a declared test dependency: this guard must not skip
    model, n, y, beta, gamma = fixtures.double_well(2), 2, 2, 20.0, 0.5
    with mpmath.workdps(50):
        ref = _reference_gap(model, n, y, beta, gamma, mpmath.mp)
    _, qbar, _ = exact.enumerate_qbar(model, n, y, beta, gamma)
    if path == "moves":
        gap, moves = _flip_gap(model, n, y, beta, gamma, "two-stage")
        psi = gap(moves, qbar)
    else:
        k = exact.build_kernel_matrix(model, n, y, beta, gamma, "two-stage")
        _, _, psi = exact.stationary_and_gap(k, qbar)
    assert float(abs(psi - ref) / ref) <= 1e-7


def _flip_gap(model, n, y, beta, gamma, kernel):
    """compute_constants' gap function for (N, y) and its moves table at beta."""
    tot_e = exact.total_energy_table(exact.energy_table_of(model, n), n, y)
    nbr, delta_e, delta_h = exact._flip_tables(tot_e, exact.fields_table(n, y), n, y, gamma)
    gap = exact._FlipGap(nbr, n, y)
    return gap, exact._flip_moves(delta_e, delta_h, beta, kernel)


@pytest.mark.parametrize("n,y", [(1, 2), (4, 2), (3, 3), (2, 4)])
def test_split_gap_equals_unsplit_gap(n, y):
    """The even and odd blocks of the replica exchange hold, together, the
    whole spectrum of the dense symmetrised Laplacian, not only its second
    smallest eigenvalue, for both kernels, at infinite, moderate and low
    temperature."""
    model = fixtures.random_integer_energies(n, make_rng(100 + n * y))
    for kernel in ("two-stage", "combined"):
        for beta in (0.0, 2.0, 15.0):
            _, qbar, _ = exact.enumerate_qbar(model, n, y, beta, 0.5)
            k = exact.build_kernel_matrix(model, n, y, beta, 0.5, kernel)
            sq = np.sqrt(qbar)
            lap = -sq[:, None] * k / sq
            np.fill_diagonal(lap, 1.0 - np.diag(k))
            gap, moves = _flip_gap(model, n, y, beta, 0.5, kernel)
            psi = gap(moves, qbar)
            split = np.sort(np.concatenate([np.linalg.eigvalsh(gap.even, UPLO="L"),
                                            np.linalg.eigvalsh(gap.odd, UPLO="L")]))
            assert np.abs(split - np.linalg.eigvalsh(lap)).max() <= 1e-13
            assert abs(psi - exact.stationary_and_gap(k, qbar)[2]) <= 1e-13


@pytest.mark.parametrize("n,y", [(4, 1), (3, 2), (3, 3), (2, 4)])
def test_moves_gap_equals_the_dense_gap(n, y):
    """psi from the even and odd blocks of the moves table against the whole
    dense Laplacian's, both kernels, beta up to 20. At y = 1 there is no swap:
    every state is fixed and fixed rows have fixed neighbours."""
    model = fixtures.random_integer_energies(n, make_rng(200 + n * y))
    for kernel in ("two-stage", "combined"):
        for beta in (0.0, 2.0, 15.0, 20.0):
            _, qbar, _ = exact.enumerate_qbar(model, n, y, beta, 0.5)
            k = exact.build_kernel_matrix(model, n, y, beta, 0.5, kernel)
            _, _, psi_dense = exact.stationary_and_gap(k, qbar)
            gap, moves = _flip_gap(model, n, y, beta, 0.5, kernel)
            assert abs(gap(moves, qbar) - psi_dense) <= 1e-13


def _counted_eigvalsh(monkeypatch) -> list:
    """The shapes of the matrices np.linalg.eigvalsh is called on from now."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def _odd_mode_moves():
    """(n, y, nbr, qbar, moves) of a swap-invariant reversible kernel on
    N=3, y=2 whose slowest mode is odd under the replica exchange."""
    n, y = 3, 2
    idx = np.arange(2 ** (n * y))
    nbr = idx[:, None] ^ (1 << np.arange(n * y))
    agree = n - np.array([bin((s ^ (s >> n)) & (2**n - 1)).count("1") for s in idx])
    qbar = np.exp(-2.0 * agree)
    qbar /= qbar.sum()
    return n, y, nbr, qbar, np.minimum(1.0, qbar[nbr] / qbar[:, None]) / (n * y)


def test_moves_gap_held_by_the_odd_block(monkeypatch):
    """N=3, y=2, q ∝ exp(-2 k), k the number of sites where replicas 0 and 1
    agree, and Metropolis moves: swap-invariant and reversible, with the
    slowest mode odd (disagreeing replicas trade places), which no kernel of
    an energy model gives. Pair rows here have pair and partner neighbours.
    The odd block fails its Cholesky test, so both blocks are diagonalised."""
    n, y, nbr, qbar, moves = _odd_mode_moves()
    idx = np.arange(2 ** (n * y))
    k = np.zeros((idx.size, idx.size))
    k[idx[:, None], nbr] = moves
    k[idx, idx] = 1.0 - k.sum(axis=1)
    gap = exact._FlipGap(nbr, n, y)
    calls = _counted_eigvalsh(monkeypatch)
    psi = gap(moves, qbar)
    assert calls == [gap.even.shape, gap.odd.shape]
    assert abs(psi - exact.stationary_and_gap(k, qbar)[2]) <= 1e-13
    assert psi < 0.6 * np.linalg.eigvalsh(gap.even, UPLO="L")[1]


def _oracle_gap_instance(seed: int) -> TabulatedEnergy:
    """The exact-oracle benchmark's gap instance: 0/1 energies on N = 5."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 0xE4AC7])))
    table = rng.integers(0, 2, size=2**5).astype(np.float64)
    return TabulatedEnergy(table - table.min(), n=5)


@pytest.mark.parametrize("kernel", ["two-stage", "combined"])
def test_compute_constants_gaps_equal_the_dense_gaps(kernel):
    model, n, y, gamma = _oracle_gap_instance(0), 5, 2, 0.5
    consts = exact.compute_constants(model, n, y, gamma, kernel)
    assert [beta for beta, _ in consts.psi_values] == exact.BETA_GRID.tolist()
    for beta, psi in consts.psi_values:
        _, qbar, _ = exact.enumerate_qbar(model, n, y, beta, gamma)
        k = exact.build_kernel_matrix(model, n, y, beta, gamma, kernel)
        _, _, psi_dense = exact.stationary_and_gap(k, qbar)
        assert abs(psi - psi_dense) <= 1e-13


@pytest.mark.parametrize("kernel", ["two-stage", "combined"])
def test_compute_constants_diagonalises_only_the_even_blocks(kernel, monkeypatch):
    """On the exact-oracle gap instance every gap lies in the even block: one
    eigvalsh per beta, the odd block being decided by its Cholesky test."""
    calls = _counted_eigvalsh(monkeypatch)
    exact.compute_constants(_oracle_gap_instance(0), 5, 2, 0.5, kernel)
    assert calls == [(528, 528)] * exact.BETA_GRID.size


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gaps_follow_the_three_eigenvalue_rule(seed, monkeypatch):
    """At gamma = 0.5 psi is, to the bit, the second smallest of the even
    block's two lowest eigenvalues and the odd block's lowest, on the
    exact-oracle gap instances. At gamma = 0 the replicas are independent,
    the odd block repeats the even block's psi to rounding, and psi is the
    one-replica dense gap over y."""
    model, n, y = _oracle_gap_instance(seed), 5, 2
    rules = []

    class Checked(exact._FlipGap):
        def odd_psi(self, moves, qbar, low):
            psi = super().odd_psi(moves, qbar, low)
            low = np.concatenate([self.even_low(moves, qbar, np.zeros_like(self.even)),
                                  np.linalg.eigvalsh(self.odd)[:1]])
            rules.append(np.sort(low)[1])
            return psi

    for kernel in ("two-stage", "combined"):
        with monkeypatch.context() as patch:
            patch.setattr(exact, "_FlipGap", Checked)
            rules.clear()
            assert exact.spectral_gaps(model, n, y, 0.5, exact.BETA_GRID, kernel) == rules
        gaps = exact.spectral_gaps(model, n, y, 0.0, exact.BETA_GRID, kernel)
        for beta, psi in zip(exact.BETA_GRID, gaps):
            _, qbar, _ = exact.enumerate_qbar(model, n, 1, beta, 0.0)
            k = exact.build_kernel_matrix(model, n, 1, beta, 0.0, kernel)
            assert abs(psi - exact.stationary_and_gap(k, qbar)[2] / y) <= 1e-13


@pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("n, y", [(4, 1), (3, 2), (2, 3)])
def test_gaps_equal_the_beta_ordered_loop(n, y, gamma):
    """spectral_gaps diagonalises alternate betas' even blocks on two threads;
    its gaps are, to the bit, those of one _FlipGap called at each beta in
    turn, for both kernels and beta lists of either parity, with and without
    a replica exchange. No thread outlives a call."""
    model = fixtures.random_integer_energies(n, make_rng(400 + n * y))
    threads = threading.active_count()
    for kernel in ("combined", "two-stage"):
        for betas in ([], [3.0], [2.0, 9.0], exact.BETA_GRID):
            _, _, psis = _reference_qbars_and_gaps(model, n, y, gamma, kernel, betas)
            assert exact.spectral_gaps(model, n, y, gamma, betas, kernel) == psis
            assert threading.active_count() == threads


def test_two_even_blocks_are_held_at_once(monkeypatch):
    """Each thread's first even block is diagonalised only once both threads
    have written theirs: the two are in separate buffers, so every gap stays
    the beta-ordered loop's."""
    model, n, y, gamma = fixtures.random_integer_energies(3, make_rng(7)), 3, 2, 0.5
    betas = [2.0, 9.0, 4.0]
    _, _, psis = _reference_qbars_and_gaps(model, n, y, gamma, "combined", betas)
    both_written, seen, eigvalsh = threading.Barrier(2, timeout=10), set(), np.linalg.eigvalsh

    def after_both(a, *args, **kwargs):
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            both_written.wait()
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", after_both)
    assert exact.spectral_gaps(model, n, y, gamma, betas) == psis
    assert len(seen) == 2


def test_odd_block_fallback_runs_for_every_beta(monkeypatch):
    """_odd_mode_moves scaled by each beta, whose odd blocks all fail the
    Cholesky test: alternate betas' even blocks run on two threads, and every
    beta falls back to diagonalising its odd block, with the one-beta call's
    gap."""
    n, y, nbr, qbar, moves = _odd_mode_moves()
    scales = [0.25, 0.5, 1.0, 0.125, 0.75]
    gap = exact._FlipGap(nbr, n, y)
    psis = [gap(scale * moves, qbar) for scale in scales]
    monkeypatch.setattr(exact, "_flip_moves", lambda delta_e, delta_h, beta, kernel: beta * moves)
    monkeypatch.setattr(exact, "_folded_qbar", lambda *args: qbar)
    calls = _counted_eigvalsh(monkeypatch)
    assert exact._qbars_and_gaps(np.zeros(2 ** (n * y)), n, y, 0.5, scales, "combined")[1] == psis
    assert sorted(calls) == sorted([gap.even.shape, gap.odd.shape] * len(scales))


@pytest.mark.parametrize("broken", [(1, 2), (2, 3), (4,)])
def test_the_lowest_failing_beta_raises(broken, monkeypatch):
    """Moves tables unbalanced at the betas of index broken, each by its own
    amount: the error raised is the lowest one's, as in the beta-ordered loop,
    whichever thread ran its even block and whichever failed first, and no
    thread outlives the call."""
    model, n, y, gamma, betas = fixtures.double_well(2), 2, 2, 0.5, [1.0, 2.0, 3.0, 4.0, 5.0]
    flip_moves = exact._flip_moves

    def unbalanced(delta_e, delta_h, beta, kernel):
        moves = flip_moves(delta_e, delta_h, beta, kernel)
        if betas.index(beta) in broken:
            moves[1, 0] += 1e-3 * beta
        return moves

    def error_of(gaps, at):
        with pytest.raises(exact.NonReversibleError) as err:
            gaps(at)
        return str(err.value)

    def loop(at):
        return _reference_qbars_and_gaps(model, n, y, gamma, "combined", at)

    monkeypatch.setattr(exact, "_flip_moves", unbalanced)
    alone = [error_of(loop, [betas[k]]) for k in broken]
    assert len(set(alone)) == len(broken)
    assert error_of(loop, betas) == alone[0]
    threads = threading.active_count()
    assert error_of(lambda at: exact.spectral_gaps(model, n, y, gamma, at), betas) == alone[0]
    assert threading.active_count() == threads


@pytest.mark.parametrize("path", ["whole", "moves"])
def test_gap_of_a_lazy_kernel_scales_with_its_moves(path):
    """Every move scaled by 2^-60, a kernel that almost never moves: the
    Laplacian and psi scale by 2^-60, because the escape rates are summed over
    the moves. Taken as 1 - K_ii, they would round to 0."""
    model, n, y, beta, gamma, lazy = fixtures.double_well(2), 2, 2, 2.0, 0.5, 2.0 ** -60
    _, qbar, _ = exact.enumerate_qbar(model, n, y, beta, gamma)
    for kernel in ("two-stage", "combined"):
        if path == "moves":
            gap, moves = _flip_gap(model, n, y, beta, gamma, kernel)
            psi, psi_lazy = gap(moves, qbar), gap(moves * lazy, qbar)
        else:
            k = exact.build_kernel_matrix(model, n, y, beta, gamma, kernel)
            psi = exact.stationary_and_gap(k, qbar)[2]
            k *= lazy
            np.fill_diagonal(k, 1.0 - (k.sum(axis=1) - np.diag(k)))
            psi_lazy = exact.stationary_and_gap(k, qbar)[2]
        assert abs(psi_lazy / lazy - psi) <= 1e-13 * psi


def test_spectral_gaps_run_without_scipy():
    """numpy is the only runtime dependency that pyproject.toml declares:
    every module imports, and spectral_gaps runs, with scipy unimportable."""
    script = ("import importlib, pkgutil, sys\n"
              "sys.modules['scipy'] = None\n"
              "import replica_anneal\n"
              "for module in pkgutil.iter_modules(replica_anneal.__path__):\n"
              "    importlib.import_module(f'replica_anneal.{module.name}')\n"
              "from replica_anneal import exact, fixtures\n"
              "psi = exact.spectral_gaps(fixtures.double_well(2), 2, 2, 0.5, [1.0, 5.0])\n"
              "assert all(p > 0 for p in psi), psi\n")
    src = Path(exact.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]


# N=2, y=2: 0, 5, 10 and 15 are fixed, 1 < 4 = P1 a pair; bit 2 is replica 1's spin 0
FLIP_MOVES = {"fixed-pair": (0, 0), "fixed-partner": (0, 2), "pair-fixed": (1, 0),
              "pair-pair": (1, 1), "pair-partner": (1, 3), "partner-fixed": (4, 2)}


@pytest.mark.parametrize("check", ["balance", "swap"])
@pytest.mark.parametrize("perturb", ["nan", "one-sided"])
@pytest.mark.parametrize("kind", list(FLIP_MOVES))
def test_flip_checks_reach_every_move(kind, perturb, check, monkeypatch):
    """A NaN or a one-sided change in one move of each kind, with the other
    check stubbed out, is caught by the remaining check alone."""
    model, n, y = fixtures.double_well(2), 2, 2
    _, qbar, _ = exact.enumerate_qbar(model, n, y, 1.0, 0.5)
    gap, moves = _flip_gap(model, n, y, 1.0, 0.5, "combined")
    swap = exact.replica_swap(n, y)
    s, bit = FLIP_MOVES[kind]

    def kind_of(state):
        return "fixed" if swap[state] == state else "pair" if state < swap[state] else "partner"

    assert f"{kind_of(s)}-{kind_of(s ^ (1 << bit))}" == kind
    gap(moves, qbar)
    moves[s, bit] = np.nan if perturb == "nan" else moves[s, bit] + 1e-3
    other = "_flip_swap_error" if check == "balance" else "_flip_balance_error"
    monkeypatch.setattr(exact, other, lambda *args: 0.0)
    with pytest.raises(exact.NonReversibleError,
                       match="detailed balance" if check == "balance" else "swap"):
        gap(moves, qbar)


@pytest.mark.parametrize("kernel", ["two-stage", "combined"])
def test_spectral_gaps_are_compute_constants_gaps(kernel):
    model, n, y, gamma = _oracle_gap_instance(1), 5, 2, 0.5
    consts = exact.compute_constants(model, n, y, gamma, kernel)
    gaps = exact.spectral_gaps(model, n, y, gamma, exact.BETA_GRID, kernel)
    assert gaps == [psi for _, psi in consts.psi_values]


def test_spectral_gaps_refuse_past_the_kernel_limit():
    model = fixtures.random_integer_energies(7, make_rng(0))
    with pytest.raises(exact.SizeLimitError):
        exact.spectral_gaps(model, 7, 2, 0.5, [1.0])


def test_compute_constants_builds_no_kernel():
    """N=5, y=2: the 14 gaps fit in less than one 8 MB S x S kernel."""
    model, n, y = fixtures.random_integer_energies(5, make_rng(1)), 5, 2
    assert _traced_peak(exact.compute_constants, model, n, y, 0.5) < 2 ** (2 * n * y) * 8


def test_tables_refuse_another_spin_count(rng):
    model = fixtures.random_integer_energies(3, rng)
    for n in (2, 4):
        with pytest.raises(DimensionError, match="3 spins"):
            exact.energy_table_of(model, n)
        with pytest.raises(DimensionError, match="3 spins"):
            exact.compute_elevation_m(model, n, 1)


def test_elevation_flat_landscape_is_zero():
    model = TabulatedEnergy(np.zeros(8), n=3)
    assert exact.compute_elevation_m(model, 3, 1) == 0.0


def test_elevation_double_well():
    # N=2, y=1: wells at 0, barrier 1 -> m = 1
    model = fixtures.double_well(2)
    assert exact.compute_elevation_m(model, 2, 1) == pytest.approx(1.0)


def test_elevation_two_state_cancels():
    # E(+)=0, E(-)=h: H(+,-) = h cancels E(-) = h, so m = 0
    model = TabulatedEnergy([0.7, 0.0], n=1)
    assert exact.compute_elevation_m(model, 1, 1) == pytest.approx(0.0)


def test_elevation_matches_bruteforce(rng):
    for n, y in [(2, 1), (1, 2), (2, 2), (4, 1)]:
        for _ in range(4):
            model = fixtures.random_integer_energies(n, rng)
            fast = exact.compute_elevation_m(model, n, y)
            slow = elevation_m_bruteforce(model, n, y)
            assert fast == pytest.approx(slow, abs=1e-12)


def test_constants_B_and_Bprime():
    model = TabulatedEnergy([0.0, 0.7, 1.3, 0.0], n=2)
    consts = exact.compute_constants(model, 2, 2, gamma=3.0)
    assert consts.B == pytest.approx(0.7)
    # gamma=3, y=2: B' = log cosh 6 - log cosh 0 = 5.306859
    assert consts.Bprime == pytest.approx(5.306859, abs=1e-5)
    consts3 = exact.compute_constants(model, 2, 3, gamma=3.0)
    assert consts3.Bprime == pytest.approx(5.997525, abs=1e-5)
    assert consts3.Bprime == pytest.approx(2 * 3.0, abs=0.01)  # ~ 2 gamma
    assert 0 < consts.c <= consts.C


def test_constants_flat_energy_reports_no_B():
    model = TabulatedEnergy(np.zeros(4), n=2)
    consts = exact.compute_constants(model, 2, 1, gamma=0.5)
    assert consts.B is None


def test_n0_contains_tilde_n0(cluster4):
    consts = exact.compute_constants(cluster4, 4, 2, gamma=1.0)
    assert set(consts.tildeN0).issubset(set(consts.N0))
    # six minima aligned pairs
    assert consts.tildeN0.size == 6
    assert consts.N0.size == 36


def test_validate_schedule_azencott_passes():
    stages = [(math.log(k + 1), 2 * (k + 1)) for k in range(1, 10_001)]
    assert verify.azencott_stages(10_000) == stages  # the built-in stages
    verdict = exact.validate_schedule(stages, m=1.0, kappa1=math.e)
    assert verdict.passed
    # closed form: criterion at n is -2n + n = -n
    assert verdict.final_value == pytest.approx(-10_000, rel=1e-6)


def test_validate_schedule_harmonic_fails():
    stages = [(math.log(k), 1.0) for k in range(1, 10_001)]
    verdict = exact.validate_schedule(stages, m=1.0, kappa1=math.e)
    assert not verdict.passed
    assert verdict.trailing_slope > 0


def test_validate_schedule_flat_landscape_passes():
    stages = [(1.0, 1.0)] * 200
    verdict = exact.validate_schedule(stages, m=0.0, kappa1=1.0)
    assert verdict.passed


def test_validate_schedule_empty_errors():
    with pytest.raises(ValueError):
        exact.validate_schedule([], m=1.0, kappa1=1.0)


@pytest.mark.parametrize("stages, m, kappa1, message", [
    ([(1.0, 5.0)], 1.0, math.e, "at least two stages"),
    ([(1.0, 5.0), (math.nan, 5.0)], 1.0, math.e, "finite"),
    ([(1.0, 5.0), (2.0, math.nan)], 1.0, math.e, "finite"),
    ([(math.inf, 5.0), (2.0, 5.0)], 1.0, math.e, "finite"),
    ([(1.0, 5.0), (2.0, math.inf)], 1.0, math.e, "finite"),
    ([(1.0, 5.0), (2.0, 5.0)], math.nan, math.e, "finite"),
    ([(1.0, 5.0), (2.0, 5.0)], 1.0, math.nan, "finite"),
    ([(1.0, 5.0), (2.0, 5.0)], 1.0, 0.0, "kappa1 positive"),
], ids=["one-stage", "nan-beta", "nan-length", "inf-beta", "inf-length", "nan-m",
        "nan-kappa1", "zero-kappa1"])
def test_validate_schedule_refuses_what_it_cannot_judge(stages, m, kappa1, message):
    """One stage has no trailing slope, a NaN gives a NaN verdict and
    log kappa1 needs kappa1 > 0."""
    with pytest.raises(ValueError, match=message):
        exact.validate_schedule(stages, m=m, kappa1=kappa1)


@pytest.mark.parametrize("stages, message", [
    ([("1", "5"), (True, "5")], "stage 0 beta must be a finite real number, got '1'"),
    ([(1.0, 5.0), (2.0, 0.5)], "stage 1 T must be >= 1, got 0.5"),
    ([(1.0, 5.0), 2.0], "each stage must be a [beta, T] pair"),
], ids=["strings", "short-t", "bare-number"])
def test_validate_schedule_applies_the_stage_rules(stages, message):
    """The rules that validate-schedule --stages-file applies, for any caller."""
    with pytest.raises(ValueError, match=re.escape(message)):
        exact.validate_schedule(stages, m=1.0, kappa1=math.e)


def test_validate_schedule_judges_two_stages():
    verdict = exact.validate_schedule([(0.0, 10.0), (0.0, 10.0)], m=1.0, kappa1=1.0)
    assert verdict.passed
    assert verdict.final_value == -20.0 and verdict.trailing_slope == pytest.approx(-10.0)


def test_limit_distribution_flat_energy():
    model = TabulatedEnergy(np.zeros(4), n=2)
    rep = exact.limit_distribution_check(model, 2, 2, gamma=0.8)
    assert rep["mass_outside_N0"] == pytest.approx(0.0, abs=1e-15)
    assert rep["linf_conditional_vs_mu0"] <= 1e-12
    assert rep["N0_size"] == 16


def test_limit_distribution_gamma0_uniform_on_n0(cluster4):
    rep = exact.limit_distribution_check(cluster4, 4, 2, gamma=0.0)
    assert rep["linf_conditional_vs_mu0"] <= 1e-9  # mu0 is uniform at gamma=0


@pytest.mark.parametrize("model, n", [
    (TabulatedEnergy([1.0, 2.0, 1.5, 3.0], n=2), 2),
    # two opposite labels on one pattern: no weight stores both
    (PerceptronEnergy(PatternSet([[1, 1, 1], [1, 1, 1]], [1, -1])), 3),
], ids=["positive-table", "unsatisfiable-perceptron"])
def test_limit_distribution_without_zero_energy(model, n):
    """Both sets are empty: all the mass lies outside them and neither
    conditional law exists, so each distance is NaN, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = exact.limit_distribution_check(model, n, 2, gamma=0.5)
    assert rep["N0_size"] == rep["tildeN0_size"] == 0
    assert rep["mass_outside_N0"] == rep["mass_outside_tildeN0_at_gamma_large"] == 1.0
    assert math.isnan(rep["linf_conditional_vs_mu0"])
    assert math.isnan(rep["linf_vs_uniform_on_tildeN0"])


@pytest.mark.parametrize("n, y", [(3, 1), (2, 2), (3, 3), (2, 4), (1, 8)])
@pytest.mark.parametrize("zeros", [(), (1,), (0, 2, 3)], ids=["none", "one", "several"])
def test_n0_sets_match_the_replica_states_reference(n, y, zeros):
    """The aligned ensembles taken from their indices are those whose replica
    states are all equal."""
    energy = np.arange(1.0, 2**n + 1)
    energy[[c for c in zeros if c < 2**n]] = 0.0
    tot_e = exact.total_energy_table(energy, n, y)
    states = exact.replica_states(n, y)
    aligned = np.all(states == states[:, :1], axis=1)
    n0, tilde = exact._n0_sets(tot_e, n, y)
    assert n0.dtype == tilde.dtype == np.int64
    assert np.array_equal(n0, np.flatnonzero(tot_e <= 1e-12))
    assert np.array_equal(tilde, np.flatnonzero((tot_e <= 1e-12) & aligned))


def test_state_space_tables_are_built_once_per_call(monkeypatch, cluster4):
    built = {"total_energy_table": 0, "fields_table": 0, "_field_classes": 0}
    for name in built:
        def counted(*args, _table=getattr(exact, name), _name=name):
            built[_name] += 1
            return _table(*args)
        monkeypatch.setattr(exact, name, counted)
    exact.limit_distribution_check(cluster4, 4, 2, gamma=0.5)
    # both field terms run on the classes
    assert built == {"total_energy_table": 1, "fields_table": 0, "_field_classes": 1}
    built.update(total_energy_table=0, fields_table=0, _field_classes=0)
    exact.compute_constants(cluster4, 4, 2, gamma=0.5)
    # the elevation search and the gaps share one energy table; the gaps'
    # qbars and flip tables take their fields from the classes
    assert built == {"total_energy_table": 1, "fields_table": 0, "_field_classes": 1}


def test_hamming_table():
    dist = exact.hamming_table(3, 0b111)
    assert dist.tolist() == [3, 2, 2, 1, 2, 1, 1, 0]
    for n in range(1, 6):
        for center in range(2**n):
            expected = [bin(s ^ center).count("1") for s in range(2**n)]
            assert exact.hamming_table(n, center).tolist() == expected


@pytest.mark.parametrize("n, y", [(1, 1), (1, 5), (2, 3), (3, 2), (5, 1), (4, 3)])
def test_fields_table_matches_per_ensemble_sums(n, y):
    # replica a of ensemble s is configuration s >> (a*N), spin i its bit i
    fields = exact.fields_table(n, y)
    assert fields.dtype == np.int64 and fields.shape == (2 ** (n * y), n)
    for s in range(2 ** (n * y)):
        replicas = [config_of(s >> (a * n), n) for a in range(y)]
        assert fields[s].tolist() == np.sum(replicas, axis=0).tolist()
