"""Acceptance suite: one test and one visible pass/fail line per criterion.

Verdict lines are collected in VERDICT_LINES and echoed after the run by the
pytest_terminal_summary hook in conftest.py, so they are readable in plain
`pytest -v` output.
"""

import math
import os
import time

import numpy as np
import pytest

from replica_anneal import exact, fixtures
from replica_anneal.annealer import AnnealSchedule, Chain, make_rng
from replica_anneal.data_io import DATA_DIR_ENV, ExperimentConfig
from replica_anneal.energies import PerceptronEnergy, generate_synthetic
from replica_anneal.experiments import robustness_eval, sweep_beta, train_run
from replica_anneal.verify import monte_carlo_tv

from reference_sa import classical_sa


VERDICT_LINES = []


def _verdict(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    VERDICT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_01_oracle_equivalence():
    """Direct vs folded enumeration of the stationary law, 1e-10 relative."""
    start = time.perf_counter()
    rng = make_rng(101)
    worst = 0.0
    cases = 0
    for n in range(1, 5):
        tables = [fixtures.random_integer_energies(n, rng) for _ in range(20)]
        for y in range(1, 4):
            for model in tables:
                for beta in (0.0, 0.5, 2.0):
                    for gamma in (0.0, 0.5, 2.0):
                        direct, folded, _ = exact.enumerate_qbar(model, n, y, beta, gamma)
                        rel = np.abs(direct - folded) / np.maximum(np.abs(direct), 1e-300)
                        worst = max(worst, float(rel.max()))
                        cases += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    _verdict(1, ok, f"oracle equivalence, worst rel err {worst:.2e} over {cases} "
                    f"cases, {elapsed:.1f}s")


def test_criterion_02_detailed_balance_and_stationarity():
    """Both kernels reversible (1e-12) and stationary (1e-10) on Ny <= 8 fixtures."""
    start = time.perf_counter()
    rng = make_rng(202)
    instances = [
        (1, 1, fixtures.two_state()), (1, 2, fixtures.two_state()),
        (1, 4, fixtures.two_state()), (1, 8, fixtures.two_state()),
        (2, 1, fixtures.double_well(2)), (2, 2, fixtures.double_well(2)),
        (2, 4, fixtures.double_well(2)),
        (4, 1, fixtures.cluster_plus_isolated(4)), (4, 2, fixtures.cluster_plus_isolated(4)),
        (3, 2, fixtures.random_integer_energies(3, rng)),
        (2, 3, fixtures.random_integer_energies(2, rng)),
    ]
    worst_db = 0.0
    worst_stat = 0.0
    for n, y, model in instances:
        assert n * y <= 8
        for kernel in ("two-stage", "combined"):
            for beta, gamma in [(0.0, 0.0), (0.7, 0.6), (2.0, 1.5)]:
                _, qbar, _ = exact.enumerate_qbar(model, n, y, beta, gamma)
                k = exact.build_kernel_matrix(model, n, y, beta, gamma, kernel)
                flux = qbar[:, None] * k
                worst_db = max(worst_db, float(np.abs(flux - flux.T).max()))
                worst_stat = max(worst_stat, float(np.abs(qbar @ k - qbar).max()))
    elapsed = time.perf_counter() - start
    ok = worst_db <= 1e-12 and worst_stat <= 1e-10 and elapsed < 60.0
    _verdict(2, ok, f"detailed balance {worst_db:.2e} (<=1e-12), stationarity "
                    f"{worst_stat:.2e} (<=1e-10), {elapsed:.1f}s")


def test_criterion_03_monte_carlo_to_oracle():
    """Sampler law vs exact law: TV <= 0.05 after 1e6 steps at beta=gamma=1."""
    start = time.perf_counter()
    steps = 1_000_000
    burn = steps // 2
    tv = monte_carlo_tv(steps, seed=7)
    elapsed = time.perf_counter() - start
    ok = tv <= 0.05 and elapsed < 60.0
    _verdict(3, ok, f"Monte Carlo TV {tv:.4f} (<=0.05) over last {steps - burn} "
                    f"of {steps} steps, {elapsed:.1f}s")


def test_criterion_04_gap_scaling():
    """-log psi(beta) slope matches the elevation constant within 5%."""
    model = fixtures.double_well(2)
    n, y, gamma = 2, 2, 0.5
    m = exact.compute_elevation_m(model, n, y)
    betas = np.arange(5.0, 15.5, 1.0)
    logs, scaled = [], []
    for beta in betas:
        _, qbar, _ = exact.enumerate_qbar(model, n, y, beta, gamma)
        k = exact.build_kernel_matrix(model, n, y, beta, gamma, "two-stage")
        _, _, psi = exact.stationary_and_gap(k, qbar)
        logs.append(-math.log(psi))
        scaled.append(psi * math.exp(beta * m))
    slope = float(np.polyfit(betas, logs, 1)[0])
    c_low, c_high = min(scaled), max(scaled)
    ok = abs(slope - m) <= 0.05 * m and c_high / c_low <= 2.0
    _verdict(4, ok, f"gap scaling: slope {slope:.5f} vs m {m:.5f} (5% tol), "
                    f"psi*e^(beta m) in [{c_low:.4f}, {c_high:.4f}]")


def test_criterion_05_limit_laws():
    """At beta=50 the law concentrates on N0 prop. to mu_0; at beta=gamma=50
    it is uniform on the aligned zero-energy set, all within 1e-6."""
    model = fixtures.cluster_plus_isolated(4)
    rep = exact.limit_distribution_check(model, 4, 2, gamma=0.5,
                                         beta_large=50.0, gamma_large=50.0)
    ok = (rep["mass_outside_N0"] <= 1e-6
          and rep["linf_conditional_vs_mu0"] <= 1e-6
          and rep["linf_vs_uniform_on_tildeN0"] <= 1e-6)
    _verdict(5, ok, f"limit laws: mass outside N0 {rep['mass_outside_N0']:.2e}, "
                    f"Linf vs mu0 {rep['linf_conditional_vs_mu0']:.2e}, "
                    f"Linf vs uniform on aligned set "
                    f"{rep['linf_vs_uniform_on_tildeN0']:.2e} (all <=1e-6)")


def _dense_mass_closed_form(gamma):
    """Dense-ball mass of cluster_plus_isolated(4), y=2, radius 1, as beta->inf.

    The 6 zero-energy configurations (the 5 of the ball and the isolated one)
    give 36 replica pairs, each weighted prod_i cosh(gamma f_i) = c^(4-d) with
    c = cosh(2 gamma) and d the Hamming distance between the replicas. By d,
    the 25 pairs inside the ball are 5 at d=0, 8 at d=1, 12 at d=2; the other
    11 are 1 at d=0, 8 at d=3, 2 at d=4. Divided by c^4, with t = 1/c:
        M = (5 + 8t + 12t^2) / (6 + 8t + 12t^2 + 8t^3 + 2t^4).
    """
    t = 1.0 / math.cosh(2.0 * gamma)
    return (5 + 8 * t + 12 * t**2) / (6 + 8 * t + 12 * t**2 + 8 * t**3 + 2 * t**4)


def test_criterion_06_dense_region_preference():
    """Dense-ball mass at beta=50 over gamma in {0,...,3}: exactly (5/6)^2 at
    gamma=0, equal to the closed form M(gamma) at every grid point, strictly
    above (5/6)^2 at every gamma > 0, and 5/6 at gamma=50.

    Coupling prefers the dense region, but M is not monotone: it peaks near
    gamma=1 and falls back to 5/6 from above, since the gamma->inf limit law
    (criterion 5) is uniform on the 6 aligned zero-energy ensembles, 5 of
    which lie in the ball."""
    model = fixtures.cluster_plus_isolated(4)
    center = fixtures.dense_center_index(4)
    gammas = np.arange(0.0, 3.25, 0.25)
    masses = [exact.dense_region_mass(model, 4, 2, g, center, radius=1)
              for g in gammas]
    at_zero = abs(masses[0] - (5 / 6) ** 2) <= 1e-10
    deviation = max(abs(m - _dense_mass_closed_form(g)) for g, m in zip(gammas, masses))
    closed_form = deviation <= 1e-10
    amplified = all(m > (5 / 6) ** 2 for m in masses[1:])
    limit = exact.dense_region_mass(model, 4, 2, 50.0, center, radius=1)
    at_limit = abs(limit - 5 / 6) <= 1e-6
    ok = at_zero and closed_form and amplified and at_limit
    _verdict(6, ok, f"dense-region mass: gamma=0 {masses[0]:.6f} (want (5/6)^2="
                    f"{(5/6)**2:.6f}), max |mass - M(gamma)| {deviation:.2e} "
                    f"(<=1e-10), above (5/6)^2 at gamma>0={amplified}, "
                    f"peak {max(masses):.4f} at gamma="
                    f"{float(gammas[int(np.argmax(masses))]):.2f}, "
                    f"gamma=50 {limit:.6f} (want 5/6 within 1e-6)")


def test_criterion_07_schedule_validation():
    """Azencott stages PASS, harmonic stages FAIL over a 1e4-stage horizon."""
    horizon = 10_000
    good = [(math.log(k + 1), 2 * (k + 1)) for k in range(1, horizon + 1)]
    bad = [(math.log(k), 1.0) for k in range(1, horizon + 1)]
    v_good = exact.validate_schedule(good, m=1.0, kappa1=math.e)
    v_bad = exact.validate_schedule(bad, m=1.0, kappa1=math.e)
    ok = v_good.passed and not v_bad.passed
    _verdict(7, ok, f"schedules: Azencott final {v_good.final_value:.0f} -> "
                    f"{'PASS' if v_good.passed else 'FAIL'}, harmonic final "
                    f"{v_bad.final_value:.0f} -> "
                    f"{'PASS' if v_bad.passed else 'FAIL'}")


def test_criterion_08_synthetic_robustness():
    """y=10 synthetic training reaches train accuracy 1.0 and the gamma=0
    robustness curve matches the reference values within 0.03."""
    start = time.perf_counter()
    config = ExperimentConfig(
        dataset={"kind": "synthetic", "count": 30, "dim": 100, "seed": 42},
        model={"kind": "perceptron"},
        schedule={"mode": "exponential", "beta_i": 0.1, "beta_f": 1000.0,
                  "gamma": 0.0, "it_max": 20000},
        replicas=10, seed=23)
    outcome = train_run(config)
    acc0 = outcome.model.accuracy(outcome.best_weights)
    reference = {0.001: 0.99817, 0.01: 0.977, 0.1: 0.83907, 0.5: 0.53853}
    curve = robustness_eval(outcome.best_weights, outcome.model,
                            sorted(reference), repetitions=1000, seed=1)
    devs = {pt.p: pt.mean_accuracy - reference[pt.p] for pt in curve}
    worst = max(abs(d) for d in devs.values())
    elapsed = time.perf_counter() - start
    ok = acc0 == 1.0 and worst <= 0.03 and elapsed < 600.0
    _verdict(8, ok, f"synthetic robustness: train acc {acc0:.3f} (want 1.0), "
                    f"max |dev| {worst:.4f} (<=0.03) at p="
                    f"{ {p: round(d, 4) for p, d in devs.items()} }, {elapsed:.0f}s")


@pytest.mark.skipif(DATA_DIR_ENV not in os.environ,
                    reason=f"MNIST IDX files not available; set {DATA_DIR_ENV} "
                           "to a directory with the four standard files")
def test_criterion_09_mnist_desk_scale():
    """10k-sample run at beta_i=100, beta_f=1e5 reaches test accuracy >= 0.80;
    active transitions decrease along both axes of the beta grid."""
    start = time.perf_counter()
    config = ExperimentConfig(
        dataset={"kind": "mnist", "subsample": 10_000, "seed": 0},
        model={"kind": "cross-entropy"},
        schedule={"mode": "exponential", "beta_i": 100.0, "beta_f": 100_000.0,
                  "gamma": 0.0, "it_max": 50_000},
        replicas=1, seed=0)
    outcome = train_run(config)
    test_acc = outcome.record.test_accuracy

    beta_is = [1.0, 100.0, 10_000.0]
    beta_fs = [10_000.0, 100_000.0, 1_000_000.0]
    grid_cfg = ExperimentConfig(
        dataset={"kind": "mnist", "subsample": 10_000, "seed": 0},
        model={"kind": "cross-entropy"},
        schedule={"mode": "exponential", "beta_i": 100.0, "beta_f": 100_000.0,
                  "gamma": 0.0, "it_max": 50_000},
        replicas=1, seed=0)
    points = sweep_beta(grid_cfg, beta_is, beta_fs, repetitions=1)
    active = np.array([p.mean_active_transitions for p in points]).reshape(3, 3)
    rows_monotone = bool(np.all(np.diff(active, axis=0) < 0))
    cols_monotone = bool(np.all(np.diff(active, axis=1) < 0))
    elapsed = time.perf_counter() - start
    ok = test_acc is not None and test_acc >= 0.80 and rows_monotone and cols_monotone
    _verdict(9, ok, f"MNIST desk scale: test accuracy {test_acc}, active grid "
                    f"{active.astype(int).tolist()}, monotone rows={rows_monotone} "
                    f"cols={cols_monotone}, {elapsed:.0f}s")


def test_criterion_10_reduction_to_classical_sa():
    """At gamma=0, y=1 the chain is trajectory-identical to an independently
    coded classical simulated annealer on the same seed."""
    patterns = generate_synthetic(count=12, dim=25, seed=6)
    model = PerceptronEnergy(patterns)
    it_max = 5000
    schedule = AnnealSchedule.exponential(0.1, 100.0, it_max, gamma=0.0)
    seeds = [0, 1, 2]
    identical = True
    for seed in seeds:
        chain = Chain(model, 1, schedule, kernel="combined", seed=seed)
        lib_traj = []
        while chain.iteration < it_max:
            chain.step()
            lib_traj.append(chain.total_energy)
        ref_w, ref_traj, ref_accepted = classical_sa(
            model.energy, model.n_spins, schedule.beta_at, it_max, seed)
        identical &= lib_traj == ref_traj
        identical &= np.array_equal(chain.states[0].w, ref_w)
        identical &= chain.stats.active_transitions == ref_accepted
    _verdict(10, identical, f"reduction: trajectory-identical to classical SA "
                            f"on seeds {seeds} over {it_max} steps")
