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

# steps drawn per call of draw_steps in Chain.propose
DRAW_BLOCK = 4096
_LOW32 = 0xFFFFFFFF


def _check_values(betas, gammas):
    if not all(math.isfinite(v) for v in [*betas, *gammas]):
        raise ValueError("beta and gamma must be finite")
    if any(g < 0 for g in gammas):
        raise ValueError("gamma must be nonnegative")


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
    _stage_bounds: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.mode not in ("exponential", "piecewise"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.it_max < 0:
            raise ValueError(f"it_max must be >= 0, got {self.it_max}")
        if self.mode == "exponential":
            gammas = [self.gamma_i] + ([] if self.gamma_f is None else [self.gamma_f])
            _check_values([self.beta_i, self.beta_f], gammas)
            if not (self.beta_f >= self.beta_i > 0):
                raise ValueError("need beta_f >= beta_i > 0")
            if self.gamma_f is not None and self.gamma_f != self.gamma_i and self.gamma_i == 0:
                raise ValueError("interpolating gamma needs gamma_i > 0")
        else:
            if not self.stages:
                raise ValueError("piecewise mode needs stages")
            _check_values([s[0] for s in self.stages], [s[1] for s in self.stages])
            lengths = [int(s[2]) for s in self.stages]
            if min(lengths) < 1:
                raise ValueError("stage lengths must be >= 1")
            betas = [s[0] for s in self.stages]
            if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
                raise ValueError("stage betas must be nondecreasing")
            if sum(lengths) != self.it_max:
                raise ValueError(f"sum of stage lengths {sum(lengths)} != it_max {self.it_max}")
            self._stage_bounds = np.cumsum(lengths)

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
    duration_seconds: float = 0.0


def make_rng(seed) -> np.random.Generator:
    """Version-pinned generator: Philox keyed by SeedSequence(seed), or by a SeedSequence."""
    return np.random.Generator(np.random.Philox(seed))


def spawn_seed(base_seed, *indices: int) -> np.random.SeedSequence:
    """Documented splitting rule: child entropy = [base_seed, *indices], or
    [*base_seed, *indices] when the base is a list such as a sweep row's
    [base, point, rep].

    Streams for different index tuples are independent, so sweep points may
    run in any order or in parallel and still reproduce bit-identically.
    """
    prefix = [int(v) for v in base_seed] if np.ndim(base_seed) else [int(base_seed)]
    return np.random.SeedSequence(entropy=[*prefix, *(int(i) for i in indices)])


def draw_steps(rng, y: int, n: int, k: int) -> tuple[list, list, list]:
    """(a, i, u) lists equal to k rounds of rng.integers(y), rng.integers(n),
    rng.random(), bit for bit, leaving rng in the state those calls leave.

    numpy's rules for a Philox Generator: integers(r), 1 < r < 2^32, maps a
    32-bit half x to (x r) >> 32 and draws again while (x r) mod 2^32 is below
    (2^32 - r) mod r (Lemire), and integers(1) draws nothing. A half is the
    buffered one (state "has_uint32", "uinteger") if any, else the low half of
    a fresh 64-bit word whose high half is buffered. random() is
    (word >> 11) 2^-53 of a fresh word.

    So with m the number of ranges above 1 and b0 the buffer flag at the start
    of a block, step s's uniform is word ((s+1) m + 1 - b0) // 2 + s of the
    block. The other words' halves, low then high, follow the buffered half
    (if b0); step s takes halves[s m:(s+1) m], and after j steps the buffer
    holds halves[j m] exactly when b0 + 2 ((j m + 1 - b0) // 2) > j m.

    The block takes its words in one random_raw call. A step that would draw
    again (about 1e-8 per draw for ranges near 10) ends the block: the state
    is restored, moved past the steps before it, and that step alone is drawn
    with scalar calls.
    """
    bit_generator = getattr(rng, "bit_generator", None)
    if not isinstance(bit_generator, np.random.Philox):
        raise TypeError("draw_steps needs a numpy Generator over Philox (see make_rng)")
    assert 1 <= y < 2**32 and 1 <= n < 2**32, "ranges must lie in [1, 2^32)"
    m = (y > 1) + (n > 1)
    redraw_below = [(2**32 - r) % r for r in (y, n)]
    a, i, u = [], [], []
    while k > 0:
        state = bit_generator.state
        b0 = state["has_uint32"]
        steps = np.arange(k)
        uniform_at = ((steps + 1) * m + 1 - b0) // 2 + steps
        words = bit_generator.random_raw(int(uniform_at[-1]) + 1)
        # word 0 stands for the last half-word drawn before: its high half is the buffer
        half_words = np.insert(np.delete(words, uniform_at), 0, state["uinteger"] << 32)
        halves = half_words.astype("<u8").view("<u4")[2 - b0:]  # low, then high halves
        columns = iter(halves[:k * m].reshape(k, m).T)
        scaled_a, scaled_i = [next(columns) * np.uint64(r) if r > 1
                              else np.zeros(k, dtype=np.uint64) for r in (y, n)]
        redraw = np.flatnonzero(((scaled_a & _LOW32) < redraw_below[0])
                                | ((scaled_i & _LOW32) < redraw_below[1]))
        j = int(redraw[0]) if redraw.size else k
        a += (scaled_a[:j] >> 32).tolist()
        i += (scaled_i[:j] >> 32).tolist()
        u += ((words[uniform_at[:j]] >> 11) * (1.0 / 9007199254740992.0)).tolist()
        used = (j * m + 1 - b0) // 2  # half-words taken by the first j steps
        if j < k:
            bit_generator.state = state
            bit_generator.random_raw(used + j)
        bit_generator.state = {**bit_generator.state, "has_uint32": int(b0 + 2 * used > j * m),
                               "uinteger": int(half_words[used] >> 32)}
        k -= j
        if k:  # step j draws again
            a.append(int(rng.integers(y)))
            i.append(int(rng.integers(n)))
            u.append(rng.random())
            k -= 1
    return a, i, u


class Chain:
    """Single-owner replicated-annealing chain over a model's energy.

    The chain's generator is `make_rng(seed)`; it draws its steps in blocks
    with `draw_steps`.
    """

    def __init__(self, model, y, schedule, kernel="combined", seed=0):
        if kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}")
        self.model = model
        self.schedule = schedule
        self.kernel = kernel
        self.rng = make_rng(seed)
        self.ensemble = ReplicaEnsemble.random(model, y, self.rng)
        self.states = self.ensemble.states
        self.iteration = 0
        self.stats = RunStats()
        self._draws = iter(())

    @property
    def total_energy(self) -> float:
        return sum(s.energy for s in self.states)

    def propose(self) -> tuple[int, int, float]:
        """(replica, coordinate, uniform) of this step, drawn in that order.

        Taken from a block of draw_steps that ends at it_max, so when run()
        returns the generator is where scalar draws would have left it.
        """
        draw = next(self._draws, None)
        if draw is None:
            k = max(1, min(DRAW_BLOCK, self.schedule.it_max - self.iteration))
            self._draws = zip(*draw_steps(self.rng, self.ensemble.y, self.ensemble.n, k))
            draw = next(self._draws)
        return draw

    def step(self) -> bool:
        """One propose/accept cycle; returns True when the flip was accepted."""
        beta = self.schedule.beta_at(self.iteration)
        gamma = self.schedule.gamma_at(self.iteration)
        a, i, u = self.propose()
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

    def run(self) -> RunStats:
        start = time.perf_counter()
        it_max = self.schedule.it_max
        while self.iteration < it_max:
            self.step()
        self.stats.duration_seconds = time.perf_counter() - start
        return self.stats
