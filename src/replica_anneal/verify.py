"""Bundled verification suites over the crafted landscapes.

Each suite returns a JSON-compatible report with a boolean `passed`; the CLI
exits nonzero when any suite fails.
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


def suite_enumeration(seed: int = 0) -> dict:
    """Direct vs folded qbar enumeration on random integer energies."""
    rng = make_rng(seed)
    worst = 0.0
    cases = 0
    for n, y in [(1, 1), (2, 2), (3, 2), (4, 3)]:
        for _ in range(3):
            model = fixtures.random_integer_energies(n, rng)
            for beta in (0.0, 0.5, 2.0):
                for gamma in (0.0, 0.5, 2.0):
                    direct, folded, _ = exact.enumerate_qbar(model, n, y, beta, gamma)
                    rel = np.abs(direct - folded) / np.maximum(direct, 1e-300)
                    worst = max(worst, float(rel.max()))
                    cases += 1
    return _report("enumeration", worst <= 1e-10, worst_relative_error=worst, cases=cases)


def suite_detailed_balance(seed: int = 1) -> dict:
    rng = make_rng(seed)
    worst = 0.0
    cases = 0
    instances = [(2, 2, fixtures.double_well(2)), (4, 2, fixtures.cluster_plus_isolated(4)),
                 (3, 2, fixtures.random_integer_energies(3, rng)),
                 (2, 3, fixtures.random_integer_energies(2, rng))]
    for n, y, model in instances:
        for kernel in ("two-stage", "combined"):
            for beta, gamma in [(0.0, 0.0), (0.7, 0.6), (2.0, 1.5)]:
                _, qbar, _ = exact.enumerate_qbar(model, n, y, beta, gamma)
                k_mat = exact.build_kernel_matrix(model, n, y, beta, gamma, kernel)
                flux = qbar[:, None] * k_mat
                worst = max(worst, float(np.abs(flux - flux.T).max()))
                stationary = qbar @ k_mat
                worst_stat = float(np.abs(stationary - qbar).max())
                worst = max(worst, worst_stat)
                cases += 1
    return _report("detailed-balance", worst <= 1e-12, worst_violation=worst, cases=cases)


def suite_gap_scaling(kernel: str = "two-stage") -> dict:
    """Slope of -log psi(beta) vs beta matches the elevation constant."""
    model = fixtures.double_well(2)
    n, y, gamma = 2, 2, 0.5
    m = exact.compute_elevation_m(model, n, y)
    betas = np.arange(5.0, 15.5, 1.0)
    logs = []
    scaled = []
    for beta in betas:
        _, qbar, _ = exact.enumerate_qbar(model, n, y, beta, gamma)
        k_mat = exact.build_kernel_matrix(model, n, y, beta, gamma, kernel)
        _, _, psi = exact.stationary_and_gap(k_mat, qbar)
        logs.append(-math.log(psi))
        scaled.append(psi * math.exp(beta * m))
    slope = float(np.polyfit(betas, logs, 1)[0])
    bracket_ratio = max(scaled) / min(scaled)
    passed = abs(slope - m) <= 0.05 * m and bracket_ratio <= 2.0
    return _report("gap-scaling", passed, elevation_m=m, fitted_slope=slope,
                   bracket=[min(scaled), max(scaled)], bracket_ratio=bracket_ratio)


def suite_limit_distributions() -> dict:
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

    Checks: the uniform value (5/6)^2 at gamma=0; the closed form M(gamma) at
    every grid gamma (1e-10); strictly amplified mass at every positive gamma;
    the limit 5/6 at gamma=50 (1e-6); full mass at radius N.

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
    at_zero_ok = abs(masses[0] - (5 / 6) ** 2) <= 1e-9
    deviation = max(abs(v - _dense_mass_closed_form(g)) for g, v in zip(gammas, masses))
    amplified = all(v > masses[0] for v in masses[1:])
    limit_mass = exact.dense_region_mass(model, 4, 2, 50.0, center, radius=1)
    full_ball = abs(exact.dense_region_mass(model, 4, 2, 1.0, center, radius=4) - 1.0) <= 1e-12
    passed = (at_zero_ok and deviation <= 1e-10 and amplified
              and abs(limit_mass - 5 / 6) <= 1e-6 and full_ball)
    return _report("dense-region", passed,
                   gammas=[float(g) for g in gammas], masses=[float(v) for v in masses],
                   mass_at_gamma0=masses[0], peak_mass=max(masses),
                   amplified_at_positive_gamma=amplified,
                   max_closed_form_deviation=deviation, limit_mass=limit_mass)


def suite_schedules(horizon: int = 10_000) -> dict:
    good = [(math.log(k + 1), 2 * (k + 1)) for k in range(1, horizon + 1)]
    bad = [(math.log(k), 1) for k in range(1, horizon + 1)]
    v_good = exact.validate_schedule(good, m=1.0, kappa1=math.e)
    v_bad = exact.validate_schedule(bad, m=1.0, kappa1=math.e)
    return _report("schedules", v_good.passed and not v_bad.passed,
                   azencott=v_good.as_dict(), harmonic=v_bad.as_dict())


def monte_carlo_tv(steps: int = 1_000_000, seed: int = 7) -> float:
    """TV distance between the sampler's law and the exact qbar.

    Combined kernel at fixed beta = gamma = 1 on a random integer table with
    N=3, y=2; the ensemble is counted over the second half of the steps.
    """
    model = fixtures.random_integer_energies(3, make_rng(123))
    n, y, beta, gamma = 3, 2, 1.0, 1.0
    _, qbar, _ = exact.enumerate_qbar(model, n, y, beta, gamma)
    schedule = AnnealSchedule.exponential(beta, beta, steps, gamma=gamma)
    chain = Chain(model, y, schedule, kernel="combined", rng=make_rng(seed))

    def ensemble_index():
        # replica a's spin i is bit a*N + i, the ordering of exact.replica_states
        return TabulatedEnergy.index_of(np.concatenate([s.w for s in chain.states]))

    counts = np.zeros(2 ** (n * y))
    burn = steps // 2
    idx = ensemble_index()
    for it in range(steps):
        if chain.step():
            idx = ensemble_index()
        if it >= burn:
            counts[idx] += 1
    return 0.5 * float(np.abs(counts / counts.sum() - qbar).sum())


def suite_monte_carlo(steps: int = 1_000_000, seed: int = 7) -> dict:
    """Empirical law of the sampler at fixed (beta, gamma) vs the exact qbar."""
    tv = monte_carlo_tv(steps, seed)
    return _report("monte-carlo", tv <= 0.05, tv_distance=tv, steps=steps)


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
