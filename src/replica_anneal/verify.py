"""Bundled verification suites over the crafted landscapes.

Each suite is the one implementation of an acceptance check: it takes no
arguments, fixes its instances, seeds and bounds, and returns a
JSON-compatible report with a boolean `passed` and every number the check
reads. `replica-anneal exact-verify` and acceptance criteria 1-7 in
`tests/test_acceptance.py` run the same suites; the CLI exits nonzero when any
suite fails.
"""

from __future__ import annotations

import math

import numpy as np

from . import exact, fixtures
from .annealer import AnnealSchedule, Chain, make_rng
from .energies import TabulatedEnergy


def _report(name, passed, **details):
    doc = {"suite": name, "passed": bool(passed)}
    doc.update(details)
    return doc


def suite_enumeration() -> dict:
    """Direct vs folded qbar enumeration on random integer energies: 20 tables
    for each N in 1..4, y in 1..3, beta and gamma in {0, 0.5, 2}."""
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
    return _report("enumeration", worst <= 1e-10, worst_relative_error=worst, cases=cases)


def suite_detailed_balance() -> dict:
    """Both kernels reversible and stationary w.r.t. qbar on fixtures with N*y <= 8."""
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
    cases = 0
    for n, y, model in instances:
        for kernel in ("two-stage", "combined"):
            for beta, gamma in [(0.0, 0.0), (0.7, 0.6), (2.0, 1.5)]:
                _, qbar, _ = exact.enumerate_qbar(model, n, y, beta, gamma)
                k_mat = exact.build_kernel_matrix(model, n, y, beta, gamma, kernel)
                flux = qbar[:, None] * k_mat
                worst_db = max(worst_db, float(np.abs(flux - flux.T).max()))
                worst_stat = max(worst_stat, float(np.abs(qbar @ k_mat - qbar).max()))
                cases += 1
    max_ny = max(n * y for n, y, _ in instances)
    passed = worst_db <= 1e-12 and worst_stat <= 1e-12 and max_ny <= 8
    return _report("detailed-balance", passed, worst_detailed_balance=worst_db,
                   worst_stationarity=worst_stat, max_ny=max_ny, cases=cases)


def suite_gap_scaling() -> dict:
    """Slope of -log psi(beta) vs beta matches the elevation constant within
    5% (two-stage kernel, beta 5..15), and psi e^{beta m} stays within 2x."""
    model = fixtures.double_well(2)
    n, y, gamma = 2, 2, 0.5
    m = exact.compute_elevation_m(model, n, y)
    swap = exact.replica_swap(n, y)
    betas = np.arange(5.0, 15.5, 1.0)
    logs = []
    scaled = []
    for beta in betas:
        _, qbar, _ = exact.enumerate_qbar(model, n, y, beta, gamma)
        k_mat = exact.build_kernel_matrix(model, n, y, beta, gamma, "two-stage")
        _, _, psi = exact.stationary_and_gap(k_mat, qbar, swap)
        logs.append(-math.log(psi))
        scaled.append(psi * math.exp(beta * m))
    slope = float(np.polyfit(betas, logs, 1)[0])
    bracket_ratio = max(scaled) / min(scaled)
    passed = abs(slope - m) <= 0.05 * m and bracket_ratio <= 2.0
    return _report("gap-scaling", passed, elevation_m=m, fitted_slope=slope,
                   bracket=[min(scaled), max(scaled)], bracket_ratio=bracket_ratio)


def suite_limit_distributions() -> dict:
    """At beta=50 qbar concentrates on N0, proportionally to mu_0; at
    beta=gamma=50 it is uniform on the aligned zero-energy set (1e-6)."""
    model = fixtures.cluster_plus_isolated(4)
    rep = exact.limit_distribution_check(model, n=4, y=2, gamma=0.5)
    passed = (rep["mass_outside_N0"] <= 1e-6
              and rep["linf_conditional_vs_mu0"] <= 1e-6
              and rep["linf_vs_uniform_on_tildeN0"] <= 1e-6)
    return _report("limit-distributions", passed, **rep)


def _dense_mass_closed_form(gamma: float) -> float:
    """Radius-1 ball mass of cluster_plus_isolated(4), y=2, as beta -> inf."""
    t = 1.0 / math.cosh(2.0 * gamma)
    return (5 + 8 * t + 12 * t**2) / (6 + 8 * t + 12 * t**2 + 8 * t**3 + 2 * t**4)


def suite_dense_region() -> dict:
    """Dense-ball mass on the cluster fixture (N=4, y=2, beta=50, radius 1).

    Checks: the uniform value (5/6)^2 at gamma=0 (1e-10); the closed form
    M(gamma) at every grid gamma (1e-10); mass strictly above (5/6)^2 at every
    positive gamma; the limit 5/6 at gamma=50 (1e-6); full mass at radius N
    (1e-12).

    Derivation. At beta=50 the barrier states weigh e^-50, so qbar lives on
    the 36 pairs of the 6 zero-energy configurations: the 5 of the ball
    (all-ones and its 4 neighbours) and the isolated all-minus-ones. A pair at
    Hamming distance d has folded weight prod_i cosh(gamma f_i) = c^(4-d) with
    c = cosh(2 gamma), since f_i is +-2 where the replicas agree and 0 where
    they differ. By d, the 25 pairs in the ball are 5 at d=0, 8 at d=1 and 12
    at d=2; the other 11 are 1 at d=0, 8 at d=3 and 2 at d=4. So

        M = (5c^4 + 8c^3 + 12c^2) / (6c^4 + 8c^3 + 12c^2 + 8c + 2).

    With t = 1/c in (0, 1]: M(0) = 25/36, M - 25/36 is
    (1-t)(50t^3 + 250t^2 + 118t + 30) / (36 (6 + 8t + 12t^2 + 8t^3 + 2t^4)),
    positive for every gamma > 0, and M - 5/6 is
    2t(4 + 6t - 20t^2 - 5t^3) / (6 (6 + 8t + 12t^2 + 8t^3 + 2t^4)), which
    tends to 0 from above. As gamma -> inf only the 6 aligned pairs (d=0)
    remain, the limit law of `exact.limit_distribution_check`, and 5 of them
    lie in the ball. The mass therefore peaks (0.873 near gamma=1) and falls
    back to 5/6: it is not monotone in gamma and never exceeds 0.9.
    """
    model = fixtures.cluster_plus_isolated(4)
    center = fixtures.dense_center_index(4)
    gammas = np.arange(0.0, 3.25, 0.25)
    masses = [exact.dense_region_mass(model, 4, 2, g, center, radius=1) for g in gammas]
    at_zero_ok = abs(masses[0] - (5 / 6) ** 2) <= 1e-10
    deviation = max(abs(v - _dense_mass_closed_form(g)) for g, v in zip(gammas, masses))
    amplified = all(v > max(masses[0], (5 / 6) ** 2) for v in masses[1:])
    limit_mass = exact.dense_region_mass(model, 4, 2, 50.0, center, radius=1)
    full_ball_mass = exact.dense_region_mass(model, 4, 2, 1.0, center, radius=4)
    passed = (at_zero_ok and deviation <= 1e-10 and amplified
              and abs(limit_mass - 5 / 6) <= 1e-6 and abs(full_ball_mass - 1.0) <= 1e-12)
    peak = int(np.argmax(masses))
    return _report("dense-region", passed,
                   gammas=[float(g) for g in gammas], masses=[float(v) for v in masses],
                   mass_at_gamma0=masses[0], peak_mass=masses[peak],
                   peak_gamma=float(gammas[peak]),
                   amplified_at_positive_gamma=amplified,
                   max_closed_form_deviation=deviation, limit_mass=limit_mass,
                   full_ball_mass=full_ball_mass)


def azencott_stages(horizon: int) -> list[tuple[float, int]]:
    """(beta_k, T_k) for k = 1..horizon: beta_k = log(k+1) with the Azencott
    lengths for m = 1, kappa1 = e, C = b = 1, which are T_k = 2(k+1)."""
    schedule = AnnealSchedule.azencott_stages(
        [math.log(k + 1) for k in range(1, horizon + 1)], m=1.0, kappa1=math.e,
        c_const=1.0, b_const=1.0)
    return [(beta, t) for beta, _, t in schedule.stages]


def suite_schedules() -> dict:
    """Azencott stages PASS and harmonic stages FAIL over a 1e4-stage horizon."""
    horizon = 10_000
    good = azencott_stages(horizon)
    bad = [(math.log(k), 1) for k in range(1, horizon + 1)]
    v_good = exact.validate_schedule(good, m=1.0, kappa1=math.e)
    v_bad = exact.validate_schedule(bad, m=1.0, kappa1=math.e)
    return _report("schedules", v_good.passed and not v_bad.passed,
                   azencott=v_good.as_dict(), harmonic=v_bad.as_dict())


def suite_monte_carlo() -> dict:
    """TV distance between the sampler's law and the exact qbar (<= 0.05).

    Combined kernel at fixed beta = gamma = 1 on a random integer table with
    N=3, y=2, seed 7; the ensemble is counted over the second half of 1e6 steps.
    """
    steps, burn = 1_000_000, 500_000
    model = fixtures.random_integer_energies(3, make_rng(123))
    n, y, beta, gamma = 3, 2, 1.0, 1.0
    _, qbar, _ = exact.enumerate_qbar(model, n, y, beta, gamma)
    schedule = AnnealSchedule.exponential(beta, beta, steps, gamma=gamma)
    chain = Chain(model, y, schedule, kernel="combined", seed=7)

    def ensemble_index():
        # replica a's spin i is bit a*N + i, the ordering of exact.replica_states
        return TabulatedEnergy.index_of(np.concatenate([s.w for s in chain.states]))

    counts = np.zeros(2 ** (n * y))
    idx = ensemble_index()
    for it in range(steps):
        if chain.step():
            idx = ensemble_index()
        if it >= burn:
            counts[idx] += 1
    tv = 0.5 * float(np.abs(counts / counts.sum() - qbar).sum())
    return _report("monte-carlo", tv <= 0.05, tv_distance=tv, steps=steps,
                   counted_steps=steps - burn)


ALL_SUITES = {
    "enumeration": suite_enumeration,
    "detailed-balance": suite_detailed_balance,
    "gap-scaling": suite_gap_scaling,
    "limit-distributions": suite_limit_distributions,
    "dense-region": suite_dense_region,
    "schedules": suite_schedules,
    "monte-carlo": suite_monte_carlo,
}


def run_suites(names=None) -> dict:
    names = list(names) if names else list(ALL_SUITES)
    reports = [ALL_SUITES[name]() for name in names]
    return {"passed": all(r["passed"] for r in reports), "suites": reports}
