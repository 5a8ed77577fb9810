"""The replicated-annealing Markov chain: kernels, schedules, run loop."""

from __future__ import annotations

import bisect
import itertools
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
    """Change of sum_i log cosh(gamma * fields[i]) when spin i of replica a flips. O(1).

    log_cosh_stable(gamma * f) is read from the ensemble's table for this
    gamma, which holds f at list index f (so -y..-1 wrap to its end) and is
    filled as fields are met.
    """
    if gamma == 0.0:
        return 0.0
    f = ensemble.fields[i]
    f_new = f - 2 * ensemble.states[a].w.item(i)
    if gamma != ensemble.log_cosh_gamma:
        ensemble.log_cosh_gamma = gamma
        ensemble.log_cosh = [None] * (2 * ensemble.y + 1)
    table = ensemble.log_cosh
    new, old = table[f_new], table[f]
    if new is None:
        new = table[f_new] = log_cosh_stable(gamma * f_new)
    if old is None:
        old = table[f] = log_cosh_stable(gamma * f)
    return new - old


def accept_two_stage(delta_e: float, delta_h: float, beta: float) -> float:
    """Product of the proposal-stage cosh ratio and the Metropolis energy factor:
    exp(min(dH, 0)) exp(-beta max(dE, 0)) bit for bit at finite beta, as NaN fails both tests."""
    return ((1.0 if delta_h >= 0.0 else math.exp(delta_h))
            * (1.0 if delta_e <= 0.0 else math.exp(-beta * delta_e)))


def accept_combined(delta_e: float, delta_h: float, beta: float) -> float:
    """min(1, exp(-beta dE + dH)): single-stage form with the plain proposal; a NaN
    exponent fails x >= 0, so p is exp(min(x, 0)) bit for bit."""
    x = -beta * delta_e + delta_h
    return 1.0 if x >= 0.0 else math.exp(x)


KERNELS = ("two-stage", "combined")

# steps drawn per call of draw_steps in Chain.propose
DRAW_BLOCK = 4096
_LOW32 = 0xFFFFFFFF


REQUIRED = object()  # the default of a key a spec must give

# data_io.SPECS' rows for a schedule spec: each key's rule (see check) and default
SCHEDULE_SPECS = {
    ("schedule", None): {"mode": (("exponential", "piecewise"), "exponential")},
    ("schedule", "exponential"): {"beta_i": ("real", REQUIRED), "beta_f": ("real", REQUIRED),
                                  "gamma": ("real >= 0", 0.0), "gamma_f": ("real >= 0", None),
                                  "it_max": ("integer >= 0", REQUIRED)},
    ("schedule", "piecewise"): {"stages": ("stages", REQUIRED)},
}


@dataclass(frozen=True)
class AnnealSchedule:
    """(beta, gamma) as functions of the iteration counter. The fields are a
    schedule spec's keys: a None takes its SCHEDULE_SPECS default, and a
    ValueError refuses a value its rule there does not take or its mode does
    not read. It is frozen, since every run of a config shares its schedule.

    mode 'exponential': beta = beta_i (beta_f/beta_i)^(it/it_max), and the same
    interpolation for gamma when gamma_f differs from gamma (gamma stays
    constant otherwise, including at 0).
    mode 'piecewise': explicit stages (beta_n, gamma_n, T_n); it_max is their
    total length, beta_i and gamma are the first stage's, beta_f the last's.
    """

    mode: str | None = None
    beta_i: float | None = None
    beta_f: float | None = None
    gamma: float | None = None
    gamma_f: float | None = None
    it_max: int | None = None
    stages: tuple[tuple[float, float, int], ...] | None = None
    _stage_bounds: tuple[int, ...] | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        def apply(rows):
            for name, (rule, default) in rows.items():
                value = getattr(self, name)
                vars(self)[name] = (default if value is None and default is not REQUIRED
                                    else check(name, value, rule))

        apply(SCHEDULE_SPECS["schedule", None])
        apply(rows := SCHEDULE_SPECS["schedule", self.mode])
        unread = sorted({k for k, v in vars(self).items() if v is not None} - {"mode", *rows})
        if unread:
            raise ValueError(f"schedule mode {self.mode!r} does not read the keys {unread}")
        if self.mode == "exponential":
            if not (self.beta_f >= self.beta_i > 0):
                raise ValueError("need beta_f >= beta_i > 0")
            if self.gamma_f not in (None, self.gamma) and 0 in (self.gamma, self.gamma_f):
                raise ValueError("interpolating gamma needs gamma > 0 and gamma_f > 0")
            return
        betas, _, lengths = zip(*self.stages)
        if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("stage betas must be nondecreasing")
        (beta_i, gamma, _), (beta_f, _, _) = self.stages[0], self.stages[-1]
        vars(self).update(stages=tuple(self.stages), it_max=sum(lengths), beta_i=beta_i,
                          gamma=gamma, beta_f=beta_f,
                          _stage_bounds=tuple(itertools.accumulate(lengths)))

    @classmethod
    def exponential(cls, beta_i, beta_f, it_max, gamma=None, gamma_f=None):
        return cls("exponential", beta_i, beta_f, gamma, gamma_f, it_max)

    @classmethod
    def piecewise(cls, stages):
        return cls(mode="piecewise", stages=stages)

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

    def values(self, it: int, k: int) -> tuple[list, list]:
        """(betas, gammas) at the k >= 1 iterations it, ..., it + k - 1; a
        ValueError when the first or the last is outside [0, it_max]."""
        self._check_it(it)
        self._check_it(it + k - 1)
        if self.mode == "piecewise":
            # stage n covers iterations [L_{n-1}, L_n); it_max is in the last stage
            bounds, last = self._stage_bounds, len(self.stages) - 1
            betas, gammas = [], []
            while k:
                stage = min(bisect.bisect_right(bounds, it), last)
                beta, gamma, _ = self.stages[stage]
                run = k if stage == last else min(k, bounds[stage] - it)
                betas += [beta] * run
                gammas += [gamma] * run
                it += run
                k -= run
            return betas, gammas
        # it_max = 0 has the one iteration 0, at the initial values
        fractions = [t / (self.it_max or 1) for t in range(it, it + k)]
        ratio = self.beta_f / self.beta_i
        betas = [self.beta_i * ratio ** x for x in fractions]
        if self.gamma_f is None or self.gamma_f == self.gamma:
            return betas, [self.gamma] * k
        ratio = self.gamma_f / self.gamma
        return betas, [self.gamma * ratio ** x for x in fractions]

    def beta_at(self, it: int) -> float:
        return self.values(it, 1)[0][0]

    def gamma_at(self, it: int) -> float:
        return self.values(it, 1)[1][0]


@dataclass
class RunStats:
    active_transitions: int = 0
    iterations: int = 0
    duration_seconds: float = 0.0


def make_rng(seed) -> np.random.Generator:
    """Version-pinned generator: Philox keyed by SeedSequence(seed), or by a SeedSequence."""
    return np.random.Generator(np.random.Philox(seed))


def check(name: str, value, rule):
    """value, after refusing, with a ValueError that names it, one that rule
    does not take. The rules: "integer >= k"; "real", a finite real number,
    "real >= k" and "probability", one in [0, 1]; "seed", a non-negative
    integer or a nonempty list of them (what make_rng and spawn_seed take);
    "string"; "stages", a nonempty list of [beta, gamma, length] triples,
    returned as (float, float, int) tuples; and a tuple, the values it holds.
    numpy scalars are numbers, and a bool is none."""
    kind, _, low = ("one of", "", "") if isinstance(rule, tuple) else rule.partition(" >= ")
    if kind == "seed":
        entries = value if isinstance(value, list) else [value]
        if not entries or not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                                  and v >= 0 for v in entries):
            raise ValueError(f"{name}: a seed is a non-negative integer or a list of them, "
                             f"got {value!r}")
        return value
    if kind == "stages":
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"{name} must be a nonempty list of [beta, gamma, length] triples, "
                             f"got {value!r}")
        for k, stage in enumerate(value):
            if not (isinstance(stage, (list, tuple)) and len(stage) == 3):
                raise ValueError(f"stage {k} must be a [beta, gamma, length] triple, got {stage!r}")
            try:  # the stage's index is named only in a refusal
                check("beta", stage[0], "real")
                check("gamma", stage[1], "real >= 0")
                check("length", stage[2], "integer >= 1")
            except ValueError as err:
                raise ValueError(f"stage {k} {err}") from None
        return [(float(b), float(g), int(t)) for b, g, t in value]
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if kind == "one of":  # each says is formatted only in a refusal
        ok, says = value in rule, "one of {rule}"
    elif kind == "string":
        ok, says = isinstance(value, str), "a string"
    elif kind == "integer":
        ok = real and isinstance(value, (int, np.integer)) and value >= int(low)
        says = "an integer >= {low}"
    elif kind == "probability":
        ok, says = real and 0 <= value <= 1, "a probability in [0, 1]"  # NaN fails too
    elif not (real and math.isfinite(value)):
        ok, says = False, "a finite real number"
    else:
        ok, says = not low or value >= float(low), "nonnegative" if low == "0" else ">= {low}"
    if not ok:
        raise ValueError(f"{name} must be {says.format(rule=rule, low=low)}, got {value!r}")
    return value


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
    (if b0); step s takes halves[s m:(s+1) m], and after the k steps the
    buffer holds halves[k m] exactly when b0 + 2 ((k m + 1 - b0) // 2) > k m.

    The block takes its words in one random_raw call, for k >= 1. If any of
    its steps would draw again (about 1e-8 per draw for ranges near 10), the
    state saved at the block's start is restored and the whole block is drawn
    with scalar calls.
    """
    bit_generator = getattr(rng, "bit_generator", None)
    if not isinstance(bit_generator, np.random.Philox):
        raise TypeError("draw_steps needs a numpy Generator over Philox (see make_rng)")
    assert k >= 1 and 1 <= y < 2**32 and 1 <= n < 2**32, "need k >= 1 and ranges in [1, 2^32)"
    m = (y > 1) + (n > 1)
    state = bit_generator.state
    b0 = state["has_uint32"]
    steps = np.arange(k)
    uniform_at = ((steps + 1) * m + 1 - b0) // 2 + steps
    words = bit_generator.random_raw(int(uniform_at[-1]) + 1)
    # half-word g is word g + (2 g + b0) // m, after the uniforms of the
    # steps whose halves end before it (no half-words when m = 0)
    half_at = np.arange(words.size - k)
    half_at += (2 * half_at + b0) // max(m, 1)
    # entry 0 stands for the last half-word drawn before: its high half is the buffer
    half_words = np.empty(half_at.size + 1, dtype=np.uint64)
    half_words[0] = state["uinteger"] << 32
    words.take(half_at, out=half_words[1:])
    halves = half_words.astype("<u8", copy=False).view("<u4")[2 - b0:]  # low, then high
    columns = iter(halves[:k * m].reshape(k, m).T)
    scaled_a, scaled_i = [next(columns) * np.uint64(r) if r > 1
                          else np.zeros(k, dtype=np.uint64) for r in (y, n)]
    if (((scaled_a & _LOW32) < (2**32 - y) % y)
            | ((scaled_i & _LOW32) < (2**32 - n) % n)).any():
        bit_generator.state = state
        a, i, u = [], [], []
        for _ in range(k):
            a.append(int(rng.integers(y)))
            i.append(int(rng.integers(n)))
            u.append(rng.random())
        return a, i, u
    used = (k * m + 1 - b0) // 2  # half-words taken by the k steps
    bit_generator.state = {**bit_generator.state, "has_uint32": int(b0 + 2 * used > k * m),
                           "uinteger": int(half_words[used] >> 32)}
    return ((scaled_a >> 32).tolist(), (scaled_i >> 32).tolist(),
            ((words[uniform_at] >> 11) * (1.0 / 9007199254740992.0)).tolist())


class Chain:
    """Single-owner replicated-annealing chain over a model's energy.

    The chain's generator is `make_rng(seed)`; it draws its steps in blocks
    with `draw_steps`.
    """

    def __init__(self, model, y, schedule, kernel="combined", seed=0):
        self.schedule = schedule
        self.kernel = check("kernel", kernel, KERNELS)
        self.rng = make_rng(seed)
        self.ensemble = ReplicaEnsemble.random(model, y, self.rng)
        self.states = self.ensemble.states
        self.stats = RunStats()
        self._draws = iter(())

    def propose(self) -> tuple[int, int, float, float, float]:
        """(replica, coordinate, uniform) of this step, drawn in that order,
        and the schedule's (beta, gamma) at this iteration.

        Taken from a block of draw_steps that ends at it_max, so when run()
        returns the generator is where scalar draws would have left it. The
        block's schedule values are computed before its draws, so a block
        past it_max raises without moving the generator.
        """
        draw = next(self._draws, None)
        if draw is None:
            k = max(1, min(DRAW_BLOCK, self.schedule.it_max - self.stats.iterations))
            betas, gammas = self.schedule.values(self.stats.iterations, k)
            self._draws = zip(*draw_steps(self.rng, self.ensemble.y, self.ensemble.n, k),
                              betas, gammas)
            draw = next(self._draws)
        return draw

    def step(self) -> bool:
        """One propose/accept cycle; returns True when the flip was accepted."""
        a, i, u, beta, gamma = self.propose()
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
        self.stats.iterations += 1
        return accepted

    def run(self) -> RunStats:
        start = time.perf_counter()
        it_max = self.schedule.it_max
        while self.stats.iterations < it_max:
            self.step()
        self.stats.duration_seconds = time.perf_counter() - start
        return self.stats
