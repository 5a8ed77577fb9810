"""Acceptance suite: one test and one visible pass/fail line per criterion.

Verdict lines are collected in VERDICT_LINES and echoed after the run by the
pytest_terminal_summary hook in conftest.py, so they are readable in plain
`pytest -v` output.
"""

import os
import time

import numpy as np
import pytest

from replica_anneal import verify
from replica_anneal.annealer import AnnealSchedule, Chain
from replica_anneal.data_io import DATA_DIR_ENV, ExperimentConfig
from replica_anneal.energies import PerceptronEnergy, generate_synthetic
from replica_anneal.experiments import robustness_eval, sweep_beta, train_run

from reference_sa import classical_sa


VERDICT_LINES = []


def _verdict(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    VERDICT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def _timed(suite):
    start = time.perf_counter()
    report = suite()
    return report, time.perf_counter() - start


def test_criterion_01_oracle_equivalence():
    """Direct vs folded enumeration of the stationary law, 1e-10 relative."""
    rep, elapsed = _timed(verify.suite_enumeration)
    ok = rep["passed"] and elapsed < 60.0
    _verdict(1, ok, f"oracle equivalence, worst rel err {rep['worst_relative_error']:.2e} "
                    f"over {rep['cases']} cases, {elapsed:.1f}s")


def test_criterion_02_detailed_balance_and_stationarity():
    """Both kernels reversible and stationary (1e-12) on Ny <= 8 fixtures."""
    rep, elapsed = _timed(verify.suite_detailed_balance)
    ok = rep["passed"] and elapsed < 60.0
    _verdict(2, ok, f"detailed balance {rep['worst_detailed_balance']:.2e} (<=1e-12), "
                    f"stationarity {rep['worst_stationarity']:.2e} (<=1e-12), {elapsed:.1f}s")


def test_criterion_03_monte_carlo_to_oracle():
    """Sampler law vs exact law: TV <= 0.05 after 1e6 steps at beta=gamma=1."""
    rep, elapsed = _timed(verify.suite_monte_carlo)
    ok = rep["passed"] and elapsed < 60.0
    _verdict(3, ok, f"Monte Carlo TV {rep['tv_distance']:.4f} (<=0.05) over last "
                    f"{rep['counted_steps']} of {rep['steps']} steps, {elapsed:.1f}s")


def test_criterion_04_gap_scaling():
    """-log psi(beta) slope matches the elevation constant within 5%."""
    rep = verify.suite_gap_scaling()
    c_low, c_high = rep["bracket"]
    _verdict(4, rep["passed"], f"gap scaling: slope {rep['fitted_slope']:.5f} vs m "
                               f"{rep['elevation_m']:.5f} (5% tol), "
                               f"psi*e^(beta m) in [{c_low:.4f}, {c_high:.4f}]")


def test_criterion_05_limit_laws():
    """At beta=50 the law concentrates on N0 prop. to mu_0; at beta=gamma=50
    it is uniform on the aligned zero-energy set, all within 1e-6."""
    rep = verify.suite_limit_distributions()
    _verdict(5, rep["passed"], f"limit laws: mass outside N0 {rep['mass_outside_N0']:.2e}, "
                               f"Linf vs mu0 {rep['linf_conditional_vs_mu0']:.2e}, "
                               f"Linf vs uniform on aligned set "
                               f"{rep['linf_vs_uniform_on_tildeN0']:.2e} (all <=1e-6)")


def test_criterion_06_dense_region_preference():
    """Dense-ball mass at beta=50 over gamma in {0,...,3}: (5/6)^2 at gamma=0,
    the closed form M(gamma) at every grid point, strictly above (5/6)^2 at
    every gamma > 0, 5/6 at gamma=50, and 1 for the radius-N ball.

    Coupling prefers the dense region, but M is not monotone: it peaks near
    gamma=1 and falls back to 5/6 from above, since the gamma->inf limit law
    (criterion 5) is uniform on the 6 aligned zero-energy ensembles, 5 of
    which lie in the ball. The derivation is in verify.suite_dense_region."""
    rep = verify.suite_dense_region()
    _verdict(6, rep["passed"], f"dense-region mass: gamma=0 {rep['mass_at_gamma0']:.6f} "
                               f"(want (5/6)^2={(5/6)**2:.6f}), max |mass - M(gamma)| "
                               f"{rep['max_closed_form_deviation']:.2e} (<=1e-10), above "
                               f"(5/6)^2 at gamma>0={rep['amplified_at_positive_gamma']}, "
                               f"peak {rep['peak_mass']:.4f} at gamma={rep['peak_gamma']:.2f}, "
                               f"gamma=50 {rep['limit_mass']:.6f} (want 5/6 within 1e-6)")


def test_criterion_07_schedule_validation():
    """Azencott stages PASS, harmonic stages FAIL over a 1e4-stage horizon."""
    rep = verify.suite_schedules()
    good, bad = rep["azencott"], rep["harmonic"]
    _verdict(7, rep["passed"], f"schedules: Azencott final {good['final_value']:.0f} -> "
                               f"{good['verdict']}, harmonic final {bad['final_value']:.0f} "
                               f"-> {bad['verdict']}")


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
        while chain.stats.iterations < it_max:
            chain.step()
            lib_traj.append(sum(s.energy for s in chain.states))
        ref_w, ref_traj, ref_accepted = classical_sa(
            model.energy, model.n_spins, schedule.beta_at, it_max, seed)
        identical &= lib_traj == ref_traj
        identical &= np.array_equal(chain.states[0].w, ref_w)
        identical &= chain.stats.active_transitions == ref_accepted
    _verdict(10, identical, f"reduction: trajectory-identical to classical SA "
                            f"on seeds {seeds} over {it_max} steps")
