"""Brute-force analysis of tiny instances: stationary measures, kernel
matrices, spectral gaps, elevation constants, schedule and dense-region
checks.

Canonical ordering: an ensemble of y replicas of length N is the integer
whose bit (a*N + i) is 1 iff sigma_i^a = +1. A single configuration uses the
same rule with y = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .annealer import log_cosh_stable

MAX_NY_TABLES = 16
MAX_NY_KERNEL = 12


class SizeLimitError(ValueError):
    pass


class NonReversibleError(RuntimeError):
    """The kernel is not in detailed balance with qbar: a kernel bug."""


def _check_size(n: int, y: int, limit: int):
    if n * y > limit:
        raise SizeLimitError(f"N*y = {n * y} exceeds limit {limit}")


def enumerate_configs(n: int) -> np.ndarray:
    """(2^n, n) matrix of +-1 spins; row s has bit i of s at coordinate i."""
    idx = np.arange(2**n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n)) & 1
    return (2 * bits - 1).astype(np.int8)


def energy_table_of(model, n: int) -> np.ndarray:
    """Evaluate a model's energy on every configuration of {-1,+1}^N."""
    if hasattr(model, "table") and getattr(model, "n_spins", None) == n:
        return np.asarray(model.table, dtype=np.float64)
    configs = enumerate_configs(n)
    return np.array([model.energy(row) for row in configs], dtype=np.float64)


def replica_states(n: int, y: int) -> np.ndarray:
    """(2^{Ny}, y) matrix: per-replica configuration index of each ensemble."""
    idx = np.arange(2 ** (n * y), dtype=np.int64)
    mask = (1 << n) - 1
    return np.stack([(idx >> (a * n)) & mask for a in range(y)], axis=1)


def total_energy_table(energy: np.ndarray, n: int, y: int) -> np.ndarray:
    states = replica_states(n, y)
    return energy[states].sum(axis=1)


def fields_table(n: int, y: int) -> np.ndarray:
    """(2^{Ny}, N) matrix of replica field sums sum_a sigma_i^a."""
    idx = np.arange(2 ** (n * y), dtype=np.int64)
    fields = np.zeros((idx.size, n), dtype=np.int64)
    for a in range(y):
        for i in range(n):
            bit = (idx >> (a * n + i)) & 1
            fields[:, i] += 2 * bit - 1
    return fields


def _log_cosh_table(gamma: float, y: int) -> np.ndarray:
    """log cosh(gamma f) for the replica fields f in {-y, ..., y}, indexed by f + y."""
    return np.array([log_cosh_stable(gamma * f) for f in range(-y, y + 1)])


def _normalize_log(logw: np.ndarray) -> np.ndarray:
    m = logw.max()
    w = np.exp(logw - m)
    return w / w.sum()


def folded_log_weights(energy: np.ndarray, n: int, y: int, beta: float, gamma: float) -> np.ndarray:
    """log of the unnormalized qbar weight: -beta sum_a E + sum_i log cosh(gamma f_i)."""
    tot_e = total_energy_table(energy, n, y)
    fields = fields_table(n, y)
    return -beta * tot_e + _log_cosh_table(gamma, y)[fields + y].sum(axis=1)


def mu0(n: int, y: int, gamma: float) -> np.ndarray:
    """The beta-free interaction measure mu_0 on ensembles."""
    fields = fields_table(n, y)
    return _normalize_log(_log_cosh_table(gamma, y)[fields + y].sum(axis=1))


def enumerate_qbar(model, n: int, y: int, beta: float, gamma: float):
    """qbar two ways: direct sum over Sigma^{y+1} and the folded log-cosh form.

    Returns (qbar_direct, qbar_folded, Z) with Z the direct double sum.
    """
    _check_size(n, y, MAX_NY_TABLES)
    if n > 10:
        raise SizeLimitError("direct route limited to N <= 10")
    energy = energy_table_of(model, n)
    fields = fields_table(n, y)
    tot_e = total_energy_table(energy, n, y)

    # direct: sum over the center sigma of exp(gamma <sigma, fields>)
    configs = enumerate_configs(n).astype(np.float64)
    logw_direct = np.empty(2 ** (n * y))
    chunk = max(1, (1 << 22) // (2**n))
    for lo in range(0, logw_direct.size, chunk):
        hi = min(lo + chunk, logw_direct.size)
        scores = gamma * fields[lo:hi].astype(np.float64) @ configs.T
        m = scores.max(axis=1)
        logw_direct[lo:hi] = m + np.log(np.exp(scores - m[:, None]).sum(axis=1))
    logw_direct -= beta * tot_e
    m = logw_direct.max()
    log_z = m + math.log(np.exp(logw_direct - m).sum())

    qbar_direct = _normalize_log(logw_direct)
    qbar_folded = _normalize_log(folded_log_weights(energy, n, y, beta, gamma))
    return qbar_direct, qbar_folded, float(np.exp(log_z))


def build_kernel_matrix(model, n: int, y: int, beta: float, gamma: float,
                        kernel: str = "combined") -> np.ndarray:
    """Row-stochastic single-flip kernel on the 2^{Ny} ensembles."""
    _check_size(n, y, MAX_NY_KERNEL)
    if kernel not in ("two-stage", "combined"):
        raise ValueError(f"unknown kernel {kernel!r}")
    energy = energy_table_of(model, n)
    tot_e = total_energy_table(energy, n, y)
    fields = fields_table(n, y)
    size = 2 ** (n * y)
    idx = np.arange(size, dtype=np.int64)
    log_cosh = _log_cosh_table(gamma, y)
    k_mat = np.zeros((size, size))
    prop = 1.0 / (n * y)
    for a in range(y):
        for i in range(n):
            bit = a * n + i
            nbr = idx ^ (1 << bit)
            delta_e = tot_e[nbr] - tot_e
            spin = 2 * ((idx >> bit) & 1) - 1
            f_old = fields[:, i]
            f_new = f_old - 2 * spin
            delta_h = log_cosh[f_new + y] - log_cosh[f_old + y]
            if kernel == "combined":
                acc = np.exp(np.minimum(-beta * delta_e + delta_h, 0.0))
            else:
                acc = np.exp(np.minimum(delta_h, 0.0)) * np.exp(-beta * np.maximum(delta_e, 0.0))
            k_mat[idx, nbr] = prop * acc
    k_mat[idx, idx] = 1.0 - k_mat.sum(axis=1)
    return k_mat


def stationary_and_gap(matrix: np.ndarray, qbar: np.ndarray, reversibility_tol: float = 1e-10):
    """(stationary vector, second largest eigenvalue, spectral gap psi).

    Requires the kernel reversible w.r.t. qbar; the spectrum is computed on
    the symmetrized kernel D^{1/2} K D^{-1/2}, which is exact by reversibility.
    """
    flux = qbar[:, None] * matrix
    asym = np.abs(flux - flux.T).max()
    if asym > reversibility_tol:
        raise NonReversibleError(f"detailed balance violated by {asym:.3e}")
    sq = np.sqrt(qbar)
    sym = (sq[:, None] * matrix) / sq[None, :]
    eigs = np.linalg.eigvalsh(sym)
    lam1 = float(np.sort(eigs)[-2])
    psi = 1.0 - lam1
    stationary = qbar @ matrix
    return stationary, lam1, psi


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))
        self.min_e = [math.inf] * size

    def find(self, v):
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v


def compute_elevation_m(model, n: int, y: int) -> float:
    """Elevation constant: max over state pairs of the minimal path peak of
    the total replica energy, minus the endpoint energies.

    Minimax-path search: activate ensembles by increasing total energy and
    union with active neighbors; two states' path bottleneck is the threshold
    at which their components merge.
    """
    _check_size(n, y, MAX_NY_KERNEL)
    energy = energy_table_of(model, n)
    weight = total_energy_table(energy, n, y)
    size = weight.size
    uf = _UnionFind(size)
    active = np.zeros(size, dtype=bool)
    order = np.argsort(weight, kind="stable")
    nbits = n * y
    m_best = 0.0
    for v in order:
        v = int(v)
        t = float(weight[v])
        uf.min_e[v] = t
        active[v] = True
        for b in range(nbits):
            u = v ^ (1 << b)
            if not active[u]:
                continue
            ru, rv = uf.find(u), uf.find(v)
            if ru == rv:
                continue
            m_best = max(m_best, t - uf.min_e[ru] - uf.min_e[rv])
            uf.parent[ru] = rv
            uf.min_e[rv] = min(uf.min_e[rv], uf.min_e[ru])
    return m_best


@dataclass
class ConvergenceConstants:
    B: float | None
    Bprime: float
    m: float
    kappa1: float
    psi_values: list
    N0: np.ndarray
    tildeN0: np.ndarray
    c: float
    C: float


def _n0_sets(energy: np.ndarray, n: int, y: int, tol: float = 1e-12):
    tot_e = total_energy_table(energy, n, y)
    n0 = np.flatnonzero(tot_e <= tol)
    states = replica_states(n, y)
    aligned = np.all(states == states[:, :1], axis=1)
    tilde = np.flatnonzero((tot_e <= tol) & aligned)
    return n0, tilde


def compute_constants(model, n: int, y: int, gamma: float,
                      beta_grid=None, kernel: str = "combined") -> ConvergenceConstants:
    """Per-instance constants: energy gap B, interaction gap B', elevation m,
    a fitted kappa1, and the spectral-gap bracket [c, C] over a beta grid."""
    energy = energy_table_of(model, n)
    nonzero = energy[energy > 1e-12]
    b_const = float(nonzero.min()) if nonzero.size else None
    b_prime = log_cosh_stable(gamma * y) - log_cosh_stable(gamma * (y - 2))
    m = compute_elevation_m(model, n, y)
    n0, tilde = _n0_sets(energy, n, y)

    if beta_grid is None:
        beta_grid = np.linspace(2.0, 15.0, 14)
    beta_grid = np.asarray(beta_grid, dtype=np.float64)

    # kappa1: smallest constant with ||qbar_b1 - qbar_b2||_inf <= kappa1 e^{-b1 B}
    kappa1 = 1.0
    if b_const is not None:
        prev = _normalize_log(folded_log_weights(energy, n, y, beta_grid[0], gamma))
        for b1, b2 in zip(beta_grid, beta_grid[1:]):
            cur = _normalize_log(folded_log_weights(energy, n, y, b2, gamma))
            diff = np.abs(cur - prev).max()
            kappa1 = max(kappa1, diff * math.exp(b1 * b_const))
            prev = cur

    psi_values = []
    scaled = []
    if n * y <= MAX_NY_KERNEL:
        for beta in beta_grid:
            qbar = _normalize_log(folded_log_weights(energy, n, y, beta, gamma))
            k_mat = build_kernel_matrix(model, n, y, beta, gamma, kernel)
            _, _, psi = stationary_and_gap(k_mat, qbar)
            psi_values.append((float(beta), float(psi)))
            scaled.append(psi * math.exp(beta * m))
    c_low = float(min(scaled)) if scaled else 0.0
    c_high = float(max(scaled)) if scaled else 0.0
    return ConvergenceConstants(B=b_const, Bprime=float(b_prime), m=float(m),
                                kappa1=float(kappa1), psi_values=psi_values,
                                N0=n0, tildeN0=tilde, c=c_low, C=c_high)


@dataclass
class ScheduleVerdict:
    passed: bool
    criterion_trace: np.ndarray
    weight_sum_grows: bool
    final_value: float
    trailing_slope: float
    threshold: float

    def as_dict(self):
        return {
            "verdict": "PASS" if self.passed else "FAIL",
            "final_value": self.final_value,
            "trailing_slope": self.trailing_slope,
            "weight_sum_grows": self.weight_sum_grows,
            "threshold": self.threshold,
            "note": "finite-horizon proxy for an asymptotic condition",
        }


def validate_schedule(stages, m: float, kappa1: float, threshold: float = 10.0) -> ScheduleVerdict:
    """Finite-horizon check of the convergence criterion
    -sum_k T_k e^{-beta_k m} + n log kappa1 -> -infinity.

    stages: sequence of (beta_k, T_k). PASS requires the trace to end below
    -threshold with a negative trailing-quarter slope.
    """
    if len(stages) == 0:
        raise ValueError("empty schedule")
    betas = np.array([s[0] for s in stages], dtype=np.float64)
    lengths = np.array([s[1] for s in stages], dtype=np.float64)
    if np.any(lengths < 1):
        raise ValueError("stage lengths must be >= 1")
    weights = lengths * np.exp(-betas * m)
    weight_sum = np.cumsum(weights)
    n_idx = np.arange(1, betas.size + 1, dtype=np.float64)
    trace = -weight_sum + n_idx * math.log(kappa1)
    q = max(2, betas.size // 4)
    tail = trace[-q:]
    slope = float(np.polyfit(np.arange(q), tail, 1)[0])
    passed = bool(trace[-1] < -threshold and slope < 0)
    grows = bool(weight_sum[-1] > weight_sum[max(0, 3 * betas.size // 4) - 1])
    return ScheduleVerdict(passed=passed, criterion_trace=trace,
                           weight_sum_grows=grows, final_value=float(trace[-1]),
                           trailing_slope=slope, threshold=threshold)


def limit_distribution_check(model, n: int, y: int, gamma: float,
                             beta_large: float = 50.0, gamma_large: float = 50.0) -> dict:
    """Concentration of qbar at large beta (on N0, proportional to mu_0) and
    at large beta and gamma (uniform on the aligned zero-energy set)."""
    _check_size(n, y, MAX_NY_TABLES)
    energy = energy_table_of(model, n)
    n0, tilde = _n0_sets(energy, n, y)
    qbar = _normalize_log(folded_log_weights(energy, n, y, beta_large, gamma))
    mass_outside = float(1.0 - qbar[n0].sum())
    mu = mu0(n, y, gamma)
    cond = qbar[n0] / qbar[n0].sum()
    mu_cond = mu[n0] / mu[n0].sum()
    linf_vs_mu0 = float(np.abs(cond - mu_cond).max())

    qbar_gg = _normalize_log(folded_log_weights(energy, n, y, beta_large, gamma_large))
    uniform = np.full(tilde.size, 1.0 / tilde.size) if tilde.size else np.array([])
    cond_gg = qbar_gg[tilde] / qbar_gg[tilde].sum() if tilde.size else np.array([])
    linf_vs_uniform = float(np.abs(cond_gg - uniform).max()) if tilde.size else math.nan
    return {
        "beta_large": beta_large,
        "gamma": gamma,
        "gamma_large": gamma_large,
        "mass_outside_N0": mass_outside,
        "linf_conditional_vs_mu0": linf_vs_mu0,
        "mass_outside_tildeN0_at_gamma_large": float(1.0 - qbar_gg[tilde].sum()) if tilde.size else math.nan,
        "linf_vs_uniform_on_tildeN0": linf_vs_uniform,
        "N0_size": int(n0.size),
        "tildeN0_size": int(tilde.size),
    }


def hamming_table(n: int, center_index: int) -> np.ndarray:
    """Hamming distance of every configuration index to the given one."""
    idx = np.arange(2**n, dtype=np.int64) ^ center_index
    dist = np.zeros(2**n, dtype=np.int64)
    for b in range(n):
        dist += (idx >> b) & 1
    return dist


def dense_region_mass(model, n: int, y: int, gamma: float, center_index: int,
                      radius: int, beta_large: float = 50.0) -> float:
    """qbar mass of the event that every replica lies in the Hamming ball
    of the given radius around the center configuration."""
    _check_size(n, y, MAX_NY_TABLES)
    energy = energy_table_of(model, n)
    qbar = _normalize_log(folded_log_weights(energy, n, y, beta_large, gamma))
    in_ball = hamming_table(n, center_index) <= radius
    states = replica_states(n, y)
    event = np.all(in_ball[states], axis=1)
    return float(qbar[event].sum())


@dataclass
class MinimumInfo:
    index: int
    counts: dict             # radius -> number of global minima in the ball
    isolation_radius: int    # largest R with exactly one minimum in B_R


@dataclass
class MinimaReport:
    minima: list = field(default_factory=list)


def classify_minima(model, n: int, r_grid=None) -> MinimaReport:
    """For each global minimum: the (R, k)-density profile and isolation radius."""
    energy = energy_table_of(model, n)
    minima = np.flatnonzero(energy <= energy.min() + 1e-12)
    if r_grid is None:
        r_grid = list(range(n + 1))
    report = MinimaReport()
    for m_idx in minima:
        dist = hamming_table(n, int(m_idx))[minima]
        counts = {int(r): int(np.sum(dist <= r)) for r in r_grid}
        iso = -1
        for r in range(n + 1):
            if int(np.sum(dist <= r)) == 1:
                iso = r
            else:
                break
        report.minima.append(MinimumInfo(index=int(m_idx), counts=counts, isolation_radius=iso))
    return report
