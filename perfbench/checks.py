"""Output checks. Each returns a list of failure messages; empty means it passed.

The checks hold for any workload seed and any random-number contract of the
chain: none compares a trajectory with a stored one. Tolerances:

- perceptron energies are integer-valued, so a replica's cached energy must
  equal a full recompute exactly;
- cross-entropy caches drift by float rounding: relative CE_REL_TOL, the
  default relative tolerance of ``pytest.approx`` used by the library's tests;
- exact oracle: direct against folded qbar to relative QBAR_REL_TOL, detailed
  balance to DETAILED_BALANCE_TOL, kernel rows summing to 1 to ROW_SUM_TOL,
  qbar K = qbar to STATIONARITY_TOL, and the spectral gap psi in (0, 1].
"""

from __future__ import annotations

import numpy as np

CE_REL_TOL = 1e-6
QBAR_REL_TOL = 1e-10
DETAILED_BALANCE_TOL = 1e-12
ROW_SUM_TOL = 1e-12
STATIONARITY_TOL = 1e-10
PSI_MATCH_TOL = 1e-12
DENSE_GAMMA0_TOL = 1e-9


def energy_mismatch(cached: float, full: float, rel_tol: float) -> bool:
    err = abs(cached - full)
    if rel_tol == 0.0:
        return err != 0.0
    return err > rel_tol * max(1.0, abs(full))


def check_outcome(outcome, it_max: int, rel_tol: float = 0.0) -> list[str]:
    """A training run: every replica's cached energy against model.energy(w),
    the replica fields, the step count and the reported best replica.

    Replicas are read from ``chain.states`` where the chain still has them;
    otherwise only the reported best weights are checked.
    """
    failures = []
    record, model = outcome.record, outcome.model
    tag = record.run_id
    if record.iterations != it_max:
        failures.append(f"{tag}: {record.iterations} of {it_max} steps")
    states = getattr(outcome.chain, "states", None)
    if states is not None:
        cached = [float(s.energy) for s in states]
        for a, s in enumerate(states):
            full = model.energy(s.w)
            if energy_mismatch(cached[a], full, rel_tol):
                failures.append(f"{tag}: replica {a} cached energy {cached[a]!r} != {full!r}")
        if record.train_loss != min(cached):
            failures.append(f"{tag}: reported loss {record.train_loss!r} is not the best "
                            f"replica's {min(cached)!r}")
    full_best = model.energy(outcome.best_weights)
    if energy_mismatch(record.train_loss, full_best, rel_tol):
        failures.append(f"{tag}: best weights have energy {full_best!r}, "
                        f"reported {record.train_loss!r}")
    ensemble = getattr(outcome.chain, "ensemble", None)
    check_fields = getattr(ensemble, "check_fields", None)
    if check_fields is not None and not check_fields():
        failures.append(f"{tag}: replica fields differ from their recompute")
    return failures


def max_relative_drift(outcome) -> float:
    """Largest |cached - recomputed| / |recomputed| over the run's replicas."""
    states = getattr(outcome.chain, "states", None)
    pairs = ([(s.energy, s.w) for s in states] if states is not None
             else [(outcome.record.train_loss, outcome.best_weights)])
    drift = 0.0
    for cached, w in pairs:
        full = outcome.model.energy(w)
        drift = max(drift, abs(cached - full) / max(abs(full), 1e-300))
    return drift


def check_qbar(direct: np.ndarray, folded: np.ndarray, tag: str) -> list[str]:
    failures = []
    rel = float(np.max(np.abs(direct - folded) / np.maximum(np.abs(direct), 1e-300)))
    if not rel <= QBAR_REL_TOL:
        failures.append(f"{tag}: direct vs folded qbar relative error {rel:.3e}")
    for name, q in (("direct", direct), ("folded", folded)):
        if not abs(float(q.sum()) - 1.0) <= STATIONARITY_TOL:
            failures.append(f"{tag}: {name} qbar sums to {float(q.sum())!r}")
    return failures


def check_kernel(kernel: np.ndarray, qbar: np.ndarray, tag: str) -> list[str]:
    failures = []
    flux = qbar[:, None] * kernel
    balance = float(np.abs(flux - flux.T).max())
    if not balance <= DETAILED_BALANCE_TOL:
        failures.append(f"{tag}: detailed balance violated by {balance:.3e}")
    rows = float(np.abs(kernel.sum(axis=1) - 1.0).max())
    if not rows <= ROW_SUM_TOL:
        failures.append(f"{tag}: kernel rows miss 1 by {rows:.3e}")
    if kernel.min() < 0.0:
        failures.append(f"{tag}: negative kernel entry {float(kernel.min())!r}")
    stat = float(np.abs(qbar @ kernel - qbar).max())
    if not stat <= STATIONARITY_TOL:
        failures.append(f"{tag}: qbar K - qbar = {stat:.3e}")
    return failures


def check_psi(psi_values, tag: str) -> list[str]:
    return [f"{tag}: psi {psi!r} at beta {beta} outside (0, 1]"
            for beta, psi in psi_values if not 0.0 < psi <= 1.0]


def check_dense_mass(masses: dict, y: int, tag: str) -> list[str]:
    """Masses of cluster_plus_isolated(4) by gamma. At gamma = 0 and large beta
    the law is uniform on the 6 zero-energy configurations per replica, 5 of
    which lie in the ball, so the mass is (5/6)^y. Monotonicity in gamma is
    not asserted: it does not hold (the ROADMAP's criterion-6 note)."""
    failures = [f"{tag}: mass {m!r} at gamma {g} outside [0, 1]"
                for g, m in masses.items() if not 0.0 <= m <= 1.0]
    if 0.0 in masses and not abs(masses[0.0] - (5 / 6) ** y) <= DENSE_GAMMA0_TOL:
        failures.append(f"{tag}: mass at gamma 0 is {masses[0.0]!r}, want (5/6)^{y}")
    return failures
