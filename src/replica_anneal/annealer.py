"""The replicated-annealing Markov chain: kernels, schedules, run loop."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .spins import ReplicaEnsemble

LOG2 = math.log(2.0)


def log_cosh_stable(x: float) -> float:
    """log cosh(x) without overflow: |x| - log 2 + log1p(e^{-2|x|})."""
    ax = abs(x)
    return ax - LOG2 + math.log1p(math.exp(-2.0 * ax))


def interaction_delta(ensemble: ReplicaEnsemble, gamma: float, a: int, i: int) -> float:
    """Change of sum_i log cosh(gamma * fields[i]) when spin i of replica a flips. O(1)."""
    f = int(ensemble.fields[i])
    s = int(ensemble.states[a].w[i])
    f_new = f - 2 * s
    if gamma == 0.0:
        return 0.0
    return log_cosh_stable(gamma * f_new) - log_cosh_stable(gamma * f)


def accept_two_stage(delta_e: float, delta_h: float, beta: float) -> float:
    """Product of the proposal-stage cosh ratio and the Metropolis energy factor."""
    p1 = math.exp(min(delta_h, 0.0))
    p2 = math.exp(-beta * max(delta_e, 0.0))
    return p1 * p2

def accept_combined(delta_e: float, delta_h: float, beta: float) -> float:
    """min(1, exp(-beta dE + dH)): single-stage form with the plain proposal."""
    return math.exp(min(-beta * delta_e + delta_h, 0.0))


KERNELS = ("two-stage", "combined")


@dataclass
class AnnealSchedule:
    """(beta, gamma) as functions of the iteration counter.

    mode 'exponential': beta = beta_i (beta_f/beta_i)^(it/it_max), and the same
    interpolation for gamma when gamma_f differs from gamma_i (gamma stays
    constant otherwise, including at 0).
    mode 'piecewise': explicit stages (beta_n, gamma_n, T_n).
    """

    it_max: int
    mode: str = "exponential"
    beta_i: float = 1.0
    beta_f: float = 1.0
    gamma_i: float = 0.0
    gamma_f: float | None = None
    stages: list[tuple[float, float, int]] | None = None
    _stage_bounds: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.mode not in ("exponential", "piecewise"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.mode == "exponential":
            if not (self.beta_f >= self.beta_i > 0):
                raise ValueError("need beta_f >= beta_i > 0")
            if self.gamma_i < 0:
                raise ValueError("gamma must be nonnegative")
        else:
            if not self.stages:
                raise ValueError("piecewise mode needs stages")
            betas = [s[0] for s in self.stages]
            if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
                raise ValueError("stage betas must be nondecreasing")
            total = sum(int(s[2]) for s in self.stages)
            if total != self.it_max:
                raise ValueError(f"sum of stage lengths {total} != it_max {self.it_max}")
            self._stage_bounds = np.cumsum([int(s[2]) for s in self.stages])

    @classmethod
    def exponential(cls, beta_i, beta_f, it_max, gamma=0.0, gamma_f=None):
        return cls(it_max=it_max, mode="exponential", beta_i=beta_i, beta_f=beta_f,
                   gamma_i=gamma, gamma_f=gamma_f)

    @classmethod
    def piecewise(cls, stages):
        stages = [(float(b), float(g), int(t)) for b, g, t in stages]
        return cls(it_max=sum(t for _, _, t in stages), mode="piecewise", stages=stages)

    @classmethod
    def azencott_stages(cls, betas, m, kappa1, c_const, b_const, gamma=0.0):
        """Stage lengths T_k = e^{m beta_k} (log kappa1 + C b) / C."""
        stages = []
        scale = (math.log(kappa1) + c_const * b_const) / c_const
        for bk in betas:
            t_k = max(1, int(round(math.exp(m * bk) * scale)))
            stages.append((float(bk), float(gamma), t_k))
        return cls.piecewise(stages)

    def _check_it(self, it: int):
        if not 0 <= it <= self.it_max:
            raise ValueError(f"iteration {it} outside [0, {self.it_max}]")

    def _stage_index(self, it: int) -> int:
        # stage n covers iterations [L_{n-1}, L_n); it == it_max maps to the last stage
        idx = int(np.searchsorted(self._stage_bounds, it, side="right"))
        return min(idx, len(self.stages) - 1)

    def beta_at(self, it: int) -> float:
        self._check_it(it)
        if self.mode == "piecewise":
            return self.stages[self._stage_index(it)][0]
        return self.beta_i * (self.beta_f / self.beta_i) ** (it / self.it_max)

    def gamma_at(self, it: int) -> float:
        self._check_it(it)
        if self.mode == "piecewise":
            return self.stages[self._stage_index(it)][1]
        if self.gamma_f is None or self.gamma_f == self.gamma_i:
            return self.gamma_i
        return self.gamma_i * (self.gamma_f / self.gamma_i) ** (it / self.it_max)


@dataclass
class RunStats:
    active_transitions: int = 0
    iterations: int = 0
    trajectory: list = field(default_factory=list)  # (iteration, total energy, accuracies)
    duration_seconds: float = 0.0


def make_rng(seed) -> np.random.Generator:
    """Version-pinned chain generator: counter-based Philox keyed by the seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def spawn_seed(base_seed: int, *indices: int) -> np.random.SeedSequence:
    """Documented splitting rule: child entropy = [base_seed, *indices].

    Streams for different index tuples are independent, so sweep points may
    run in any order or in parallel and still reproduce bit-identically.
    """
    return np.random.SeedSequence(entropy=[int(base_seed), *(int(i) for i in indices)])


class Chain:
    """Single-owner replicated-annealing chain over a model's energy."""

    def __init__(self, model, y, schedule, kernel="combined", seed=0, rng=None):
        if kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}")
        self.model = model
        self.schedule = schedule
        self.kernel = kernel
        self.rng = rng if rng is not None else make_rng(seed)
        self.ensemble = ReplicaEnsemble.random(model, y, self.rng)
        self.states = self.ensemble.states
        self.iteration = 0
        self.stats = RunStats()

    @property
    def total_energy(self) -> float:
        return sum(s.energy for s in self.states)

    def propose(self) -> tuple[int, int]:
        """(replica, coordinate) of the proposed flip, drawn in that order."""
        a = int(self.rng.integers(self.ensemble.y))
        i = int(self.rng.integers(self.ensemble.n))
        return a, i

    def step(self) -> bool:
        """One propose/accept cycle; returns True when the flip was accepted."""
        beta = self.schedule.beta_at(self.iteration)
        gamma = self.schedule.gamma_at(self.iteration)
        a, i = self.propose()
        u = self.rng.random()
        delta_e = self.states[a].flip_delta(i)
        delta_h = interaction_delta(self.ensemble, gamma, a, i)
        if self.kernel == "combined":
            p = accept_combined(delta_e, delta_h, beta)
        else:
            p = accept_two_stage(delta_e, delta_h, beta)
        accepted = u < p
        if accepted:
            self.ensemble.apply_flip(a, i)
            self.stats.active_transitions += 1
        self.iteration += 1
        self.stats.iterations = self.iteration
        return accepted

    def run(self, record_every: int = 0, observer=None) -> RunStats:
        start = time.perf_counter()
        it_max = self.schedule.it_max
        while self.iteration < it_max:
            self.step()
            if record_every and self.iteration % record_every == 0:
                accs = None
                if hasattr(self.model, "accuracy"):
                    accs = [self.model.accuracy(s.w) for s in self.states]
                self.stats.trajectory.append((self.iteration, self.total_energy, accs))
            if observer is not None:
                observer(self)
        self.stats.duration_seconds = time.perf_counter() - start
        return self.stats


def run(model, schedule, y=1, kernel="combined", seed=0, record_every=0, observer=None):
    """Run a fresh chain for it_max iterations; returns (chain, stats)."""
    chain = Chain(model, y, schedule, kernel=kernel, seed=seed)
    stats = chain.run(record_every=record_every, observer=observer)
    return chain, stats
