import math

import numpy as np
import pytest

from replica_anneal import exact, fixtures, verify
from replica_anneal.annealer import accept_combined, accept_two_stage, interaction_delta, make_rng
from replica_anneal.energies import PerceptronEnergy, TabulatedEnergy, generate_synthetic
from replica_anneal.spins import ReplicaEnsemble

from reference_elevation import elevation_m_bruteforce


def test_enumerate_qbar_flat_energy_equals_mu0():
    model = TabulatedEnergy([0.0, 0.0, 0.0, 0.0], n=2)
    direct, folded, _ = exact.enumerate_qbar(model, 2, 2, beta=1.3, gamma=0.9)
    mu = exact.mu0(2, 2, 0.9)
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
@pytest.mark.parametrize("instance", ["tabulated", "perceptron"])
def test_chain_moves_match_exact_kernel(kernel, instance):
    """Every move of every ensemble: the chain's proposal probability times
    its acceptance equals the exact kernel's off-diagonal entry, so the fast
    energy delta, interaction_delta and the acceptance rule are each checked
    against the oracle one move at a time."""
    if instance == "tabulated":
        model, n = fixtures.random_integer_energies(3, make_rng(5)), 3
    else:
        model, n = PerceptronEnergy(generate_synthetic(count=3, dim=5, seed=4)), 5
    y, beta, gamma = 2, 1.3, 0.8
    accept = accept_combined if kernel == "combined" else accept_two_stage
    k_mat = exact.build_kernel_matrix(model, n, y, beta, gamma, kernel)
    for s in range(2 ** (n * y)):
        ens = ReplicaEnsemble([model.make_state(TabulatedEnergy.config_of(s >> (a * n), n))
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


@pytest.mark.parametrize("n,y", [(1, 2), (4, 2), (3, 3), (2, 4)])
def test_split_gap_equals_unsplit_gap(n, y):
    """The even and odd blocks of the replica exchange give the gap of the
    whole Laplacian, for both kernels, at infinite, moderate and low temperature."""
    model = fixtures.random_integer_energies(n, make_rng(100 + n * y))
    swap = exact.replica_swap(n, y)
    for kernel in ("two-stage", "combined"):
        for beta in (0.0, 2.0, 15.0):
            _, qbar, _ = exact.enumerate_qbar(model, n, y, beta, 0.5)
            k = exact.build_kernel_matrix(model, n, y, beta, 0.5, kernel)
            _, _, psi_full = exact.stationary_and_gap(k, qbar)
            _, _, psi_split = exact.stationary_and_gap(k, qbar, swap)
            assert abs(psi_split - psi_full) <= 1e-13


def test_gap_held_by_the_odd_block():
    """N=1, y=2 under the uniform law: the mixed ensembles 1 and 2 are sticky,
    so the slowest mode is e_1 - e_2, which only the odd block holds. Its rate
    is the escape 2 eps + delta plus the direct move delta; the even block's
    slowest nonzero mode decays at 4 eps."""
    eps, delta, both = 0.01, 0.002, 0.4
    k = np.array([[1 - both - 2 * eps, eps, eps, both],
                  [eps, 1 - 2 * eps - delta, delta, eps],
                  [eps, delta, 1 - 2 * eps - delta, eps],
                  [both, eps, eps, 1 - both - 2 * eps]])
    qbar = np.full(4, 0.25)
    for swap in (None, exact.replica_swap(1, 2)):
        _, _, psi = exact.stationary_and_gap(k, qbar, swap)
        assert psi == pytest.approx(2 * eps + 2 * delta, abs=1e-15)


def test_stationary_and_gap_rejects_a_kernel_the_swap_changes():
    model, n, y = fixtures.double_well(2), 2, 2
    _, qbar, _ = exact.enumerate_qbar(model, n, y, 1.0, 0.5)
    k = exact.build_kernel_matrix(model, n, y, 1.0, 0.5)
    # flip of replica 0's first spin, reweighted in both directions: still in
    # detailed balance and stochastic, but its swap image (replica 1) is not
    eps = 1e-3
    back = eps * qbar[0] / qbar[1]
    k[0, 1] += eps
    k[0, 0] -= eps
    k[1, 0] += back
    k[1, 1] -= back
    exact.stationary_and_gap(k, qbar)
    with pytest.raises(exact.NonReversibleError, match="swap"):
        exact.stationary_and_gap(k, qbar, exact.replica_swap(n, y))


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


@pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
def test_gap_matches_a_50_digit_reference(split):
    """Criterion 4's instance at beta = 20, where psi ~ 5e-10 and 1 - lambda_2
    loses all but about six digits."""
    mpmath = pytest.importorskip("mpmath")
    model, n, y, beta, gamma = fixtures.double_well(2), 2, 2, 20.0, 0.5
    with mpmath.workdps(50):
        ref = _reference_gap(model, n, y, beta, gamma, mpmath.mp)
    _, qbar, _ = exact.enumerate_qbar(model, n, y, beta, gamma)
    k = exact.build_kernel_matrix(model, n, y, beta, gamma, "two-stage")
    _, _, psi = exact.stationary_and_gap(k, qbar, exact.replica_swap(n, y) if split else None)
    assert float(abs(psi - ref) / ref) <= 1e-7


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


def test_limit_distribution_flat_energy():
    model = TabulatedEnergy(np.zeros(4), n=2)
    rep = exact.limit_distribution_check(model, 2, 2, gamma=0.8)
    assert rep["mass_outside_N0"] == pytest.approx(0.0, abs=1e-15)
    assert rep["linf_conditional_vs_mu0"] <= 1e-12
    assert rep["N0_size"] == 16


def test_limit_distribution_gamma0_uniform_on_n0(cluster4):
    rep = exact.limit_distribution_check(cluster4, 4, 2, gamma=0.0)
    assert rep["linf_conditional_vs_mu0"] <= 1e-9  # mu0 is uniform at gamma=0


def test_classify_minima_cluster(cluster4):
    by_index = {info.index: info for info in exact.classify_minima(cluster4, 4)}
    center = fixtures.dense_center_index(4)
    assert by_index[center].counts[1] == 5  # (1,5)-dense
    iso = by_index[fixtures.isolated_index()]
    assert iso.counts[1] == 1 and iso.counts[2] == 1
    assert iso.isolation_radius == 2  # nearest other minimum at distance 3


def test_classify_minima_unique_minimum():
    table = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    (info,) = exact.classify_minima(TabulatedEnergy(table, n=3), 3)
    assert info.isolation_radius == 3


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
        replicas = [TabulatedEnergy.config_of(s >> (a * n), n) for a in range(y)]
        assert fields[s].tolist() == np.sum(replicas, axis=0).tolist()
