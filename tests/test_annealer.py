import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from replica_anneal.annealer import (
    AnnealSchedule,
    Chain,
    accept_combined,
    accept_two_stage,
    draw_steps,
    interaction_delta,
    log_cosh_stable,
    make_rng,
    spawn_seed,
)
from replica_anneal.energies import (
    ClassifierDataset,
    CrossEntropyEnergy,
    PerceptronEnergy,
    TabulatedEnergy,
    generate_synthetic,
)
from replica_anneal.spins import ReplicaEnsemble
from replica_anneal import fixtures


def test_log_cosh_stable_frozen_values():
    # exact: log cosh 2 = 1.3250027474 (a common hand-rounded 1.325009 is off
    # in the 6th decimal; we pin the true value)
    assert log_cosh_stable(2.0) == pytest.approx(math.log(math.cosh(2.0)), abs=1e-12)
    assert log_cosh_stable(2.0) == pytest.approx(1.325008969, abs=1e-5)
    assert log_cosh_stable(1000.0) == pytest.approx(999.3068528, abs=1e-6)
    assert log_cosh_stable(0.0) == 0.0


@given(st.floats(min_value=-30, max_value=30))
def test_log_cosh_stable_even_and_exact(x):
    assert log_cosh_stable(x) == pytest.approx(log_cosh_stable(-x), abs=1e-12)
    assert log_cosh_stable(x) == pytest.approx(math.log(math.cosh(x)), abs=1e-10)


def test_log_cosh_stable_no_overflow():
    # naive log(cosh(x)) overflows past ~710
    assert math.isfinite(log_cosh_stable(1e6))
    assert log_cosh_stable(1e6) == pytest.approx(1e6 - math.log(2.0))


def _flat(n):
    return TabulatedEnergy(np.zeros(2**n), n=n)


def test_interaction_delta_matches_recompute(rng):
    gamma = 0.8
    ens = ReplicaEnsemble.random(_flat(5), 3, rng)
    for _ in range(40):
        a, i = int(rng.integers(3)), int(rng.integers(5))
        before = sum(log_cosh_stable(gamma * f) for f in ens.fields)
        predicted = interaction_delta(ens, gamma, a, i)
        ens.apply_flip(a, i)
        after = sum(log_cosh_stable(gamma * f) for f in ens.fields)
        assert predicted == pytest.approx(after - before, abs=1e-12)


def test_interaction_delta_is_the_direct_difference_as_gamma_changes(rng):
    # the log-cosh table is kept for one gamma at a time and refilled on a change
    ens = ReplicaEnsemble.random(_flat(5), 3, rng)
    for gamma in (0.8, 0.8, 1.7, 0.0, 0.8, 1e-3):
        for _ in range(20):
            a, i = int(rng.integers(3)), int(rng.integers(5))
            f = int(ens.fields[i])
            f_new = f - 2 * int(ens.states[a].w[i])
            direct = log_cosh_stable(gamma * f_new) - log_cosh_stable(gamma * f)
            assert interaction_delta(ens, gamma, a, i) == direct
            if rng.random() < 0.5:
                ens.apply_flip(a, i)


def test_interaction_delta_zero_at_gamma_zero(rng):
    ens = ReplicaEnsemble.random(_flat(4), 2, rng)
    assert interaction_delta(ens, 0.0, 0, 0) == 0.0


def test_acceptance_frozen_values():
    # pure energy moves at beta=1
    assert accept_combined(0.5, 0.0, 1.0) == pytest.approx(0.606531, abs=1e-6)
    assert accept_two_stage(0.5, 0.0, 1.0) == pytest.approx(0.606531, abs=1e-6)
    # two-stage at delta_h = -log cosh(2): proposal factor 1/cosh(2)
    dh = -log_cosh_stable(2.0)
    assert accept_two_stage(0.0, dh, 1.0) == pytest.approx(0.265802, abs=1e-6)
    # combined with both terms: exp(-(1*1 + 1.325009))
    assert accept_combined(1.0, -1.325008969, 1.0) == pytest.approx(0.097782, abs=1e-6)


@settings(max_examples=200)
@given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5),
       st.floats(min_value=0, max_value=10))
def test_acceptance_probabilities_in_unit_interval(de, dh, beta):
    for f in (accept_two_stage, accept_combined):
        p = f(de, dh, beta)
        assert 0.0 <= p <= 1.0


@settings(max_examples=200)
@given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5),
       st.floats(min_value=0, max_value=10))
def test_combined_dominates_two_stage(de, dh, beta):
    # min(1, e^{-b de + dh}) >= min(1, e^{dh}) min(1, e^{-b de})
    assert accept_combined(de, dh, beta) >= accept_two_stage(de, dh, beta) - 1e-15


_EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, -3e-300, 5e-324, 1e308, -1e308, math.inf, -math.inf,
                math.nan]


@pytest.mark.parametrize("beta", [0.0, 0.5, 3.0, 1000.0, 1e308])
def test_acceptance_is_bit_identical_to_the_min_max_forms(beta):
    # NaN, -0.0 and the infinities included: the chain accepts when u < p, so
    # a NaN that became 1.0 would accept a move this form rejects
    for de, dh in itertools.product(_EDGE_VALUES, repeat=2):
        combined = math.exp(min(-beta * de + dh, 0.0))
        two_stage = math.exp(min(dh, 0.0)) * math.exp(-beta * max(de, 0.0))
        assert repr(accept_combined(de, dh, beta)) == repr(combined), (de, dh)
        assert repr(accept_two_stage(de, dh, beta)) == repr(two_stage), (de, dh)


@pytest.mark.parametrize("y", [1, 3])
@pytest.mark.parametrize("make_model", [
    lambda: PerceptronEnergy(generate_synthetic(count=8, dim=11, seed=3)),
    lambda: fixtures.random_integer_energies(5, make_rng(5)),
    lambda: CrossEntropyEnergy(ClassifierDataset(make_rng(6).random((24, 3)),
                                                 make_rng(7).integers(0, 3, 24), 3)),
], ids=["perceptron", "tabulated", "cross-entropy"])
def test_the_step_path_reads_python_numbers(make_model, y):
    """The fields are Python ints, and a step's deltas and acceptance are
    Python floats, never numpy scalars."""
    chain = Chain(make_model(), y, AnnealSchedule.exponential(0.2, 5.0, 300, gamma=0.7),
                  seed=40)
    chain.run()
    ens = chain.ensemble
    assert all(type(f) is int for f in ens.fields) and ens.check_fields()
    for a, i in itertools.product(range(y), range(ens.n)):
        delta_e = chain.states[a].flip_delta(i)
        delta_h = interaction_delta(ens, 0.7, a, i)
        assert type(delta_e) is float and type(delta_h) is float
        for accept in (accept_combined, accept_two_stage):
            assert type(accept(delta_e, delta_h, 2.0)) is float
    ens.fields[3] += 2
    assert not ens.check_fields()


def test_kernels_coincide_at_gamma_zero():
    for de in (-1.0, 0.0, 0.3, 2.0):
        assert accept_combined(de, 0.0, 1.3) == pytest.approx(accept_two_stage(de, 0.0, 1.3))


def test_exponential_schedule_endpoints_and_monotone():
    sched = AnnealSchedule.exponential(0.1, 1000.0, 20000, gamma=0.5)
    assert sched.beta_at(0) == pytest.approx(0.1)
    assert sched.beta_at(20000) == pytest.approx(1000.0)
    betas = [sched.beta_at(t) for t in range(0, 20001, 500)]
    assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
    assert sched.gamma_at(0) == sched.gamma_at(20000) == 0.5


def test_exponential_schedule_gamma_interpolation():
    sched = AnnealSchedule.exponential(1.0, 1.0, 100, gamma=0.5, gamma_f=8.0)
    assert sched.gamma_at(0) == pytest.approx(0.5)
    assert sched.gamma_at(100) == pytest.approx(8.0)
    assert sched.gamma_at(50) == pytest.approx(2.0)  # geometric midpoint
    # a block is the one-step formula at each iteration, to the bit
    betas, gammas = sched.values(0, 101)
    assert betas == [1.0 * (1.0 / 1.0) ** (t / 100) for t in range(101)]
    assert gammas == [0.5 * (8.0 / 0.5) ** (t / 100) for t in range(101)]
    assert sched.values(40, 3) == (betas[40:43], gammas[40:43])
    with pytest.raises(ValueError):
        sched.values(99, 3)  # its last iteration is past it_max
    # gamma = gamma_f = 0 interpolates nothing, so it is not refused
    flat = AnnealSchedule.exponential(1.0, 2.0, 4, gamma=0.0, gamma_f=0.0)
    assert flat.values(0, 5)[1] == [0.0] * 5


def test_piecewise_schedule_stage_lookup():
    sched = AnnealSchedule.piecewise([(1.0, 0.0, 3), (2.0, 0.5, 2)])
    assert sched.it_max == 5
    assert (sched.beta_i, sched.gamma, sched.beta_f) == (1.0, 0.0, 2.0)
    assert [sched.beta_at(t) for t in range(6)] == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    assert sched.gamma_at(4) == 0.5
    assert sched.values(0, 6) == ([1.0] * 3 + [2.0] * 3, [0.0] * 3 + [0.5] * 3)
    assert sched.values(2, 2) == ([1.0, 2.0], [0.0, 0.5])
    assert sched.values(5, 1) == ([2.0], [0.5])


def test_schedule_validation_errors():
    with pytest.raises(ValueError):
        AnnealSchedule.exponential(2.0, 1.0, 100)  # beta_f < beta_i
    with pytest.raises(ValueError):
        AnnealSchedule.piecewise([(2.0, 0.0, 2), (1.0, 0.0, 2)])  # decreasing beta
    sched = AnnealSchedule.exponential(1.0, 2.0, 10)
    with pytest.raises(ValueError):
        sched.beta_at(11)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: AnnealSchedule.exponential(0.1, 10, 500, gamma=0.0, gamma_f=1.0),
                 id="gamma-interpolated-from-zero"),
    pytest.param(lambda: AnnealSchedule.exponential(0.1, 10, 500, gamma=1.0, gamma_f=0.0),
                 id="gamma-interpolated-to-zero"),
    pytest.param(lambda: AnnealSchedule.exponential(0.1, 10, 500, gamma=1.0, gamma_f=-1.0),
                 id="negative-final-gamma"),
    pytest.param(lambda: AnnealSchedule.exponential(0.1, 10, 500, gamma=math.nan),
                 id="nan-gamma"),
    pytest.param(lambda: AnnealSchedule.exponential(0.1, math.inf, 500),
                 id="infinite-beta"),
    pytest.param(lambda: AnnealSchedule.piecewise([(1.0, 0.0, 3), (2.0, -0.5, 2)]),
                 id="negative-stage-gamma"),
    pytest.param(lambda: AnnealSchedule.piecewise([(1.0, math.inf, 3)]),
                 id="infinite-stage-gamma"),
    pytest.param(lambda: AnnealSchedule.exponential(0.1, 10, -3), id="negative-it-max"),
    pytest.param(lambda: AnnealSchedule.piecewise([(1.0, 0.0, 10), (2.0, 0.0, -5)]),
                 id="negative-stage-length"),
    pytest.param(lambda: AnnealSchedule.piecewise([(1.0, 0.0, 10), (2.0, 0.0, 0)]),
                 id="zero-stage-length"),
])
def test_schedule_rejects_invalid_values_at_construction(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: AnnealSchedule.piecewise(5), "stages must be a nonempty list"),
    (lambda: AnnealSchedule.piecewise([]), "stages must be a nonempty list"),
    (lambda: AnnealSchedule.piecewise([(1.0, 0.0, 5), (2.0, 0.0)]),
     "stage 1 must be a [beta, gamma, length] triple"),
    (lambda: AnnealSchedule.piecewise([(1.0, 0.0, 5.0)]), "stage 0 length must be an integer"),
    (lambda: AnnealSchedule.piecewise([("2", "0", "5")]), "stage 0 beta must be a finite real"),
    (lambda: AnnealSchedule.piecewise([(1.0, False, 5)]), "stage 0 gamma must be a finite real"),
    (lambda: AnnealSchedule.exponential("a", 1.0, 10), "beta_i must be a finite real"),
    (lambda: AnnealSchedule.exponential(0.1, True, 10), "beta_f must be a finite real"),
    (lambda: AnnealSchedule.exponential(0.1, 1.0, 10, gamma=1.0, gamma_f="2"),
     "gamma_f must be a finite real"),
    (lambda: AnnealSchedule.exponential(0.1, 1.0, 10.5), "it_max must be an integer >= 0"),
    (lambda: AnnealSchedule.exponential(0.1, 1.0, True), "it_max must be an integer >= 0"),
    (lambda: AnnealSchedule(it_max=5, mode="piecewise", stages=[(1.0, -1.0, 5)]),
     "stage 0 gamma must be nonnegative"),
    (lambda: AnnealSchedule(beta_f=1.0, it_max=10), "beta_i must be a finite real number, got None"),
    (lambda: AnnealSchedule(mode="piecewise", stages=[(1.0, 0.0, 5)], it_max=5.0),
     "schedule mode 'piecewise' does not read the keys ['it_max']"),
], ids=["stages-number", "stages-empty", "stage-pair", "length-float", "strings", "gamma-bool",
        "beta-string", "beta-bool", "gamma-f-string", "it-max-float",
        "it-max-bool", "direct-construction", "required-left-out", "piecewise-it-max-float"])
def test_schedule_refuses_values_of_the_wrong_type(build, message):
    """A value of the wrong type is refused, not converted; the error names it.
    Integers, numpy scalars included, are real numbers."""
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("fields, unread", [
    ({"beta_i": 0.1, "beta_f": 1.0, "it_max": 10, "stages": [(1.0, 0.0, 10)]}, "['stages']"),
    ({"mode": "piecewise", "stages": [(1.0, 0.0, 10)], "beta_i": 7.0}, "['beta_i']"),
    ({"mode": "piecewise", "stages": [(1.0, 0.5, 10)], "gamma_f": 2.0}, "['gamma_f']"),
    ({"mode": "piecewise", "stages": [(1.0, 0.5, 10)], "it_max": 10, "gamma": 0.5,
      "beta_f": 1.0}, "['beta_f', 'gamma', 'it_max']"),
], ids=["exponential-stages", "piecewise-beta-i", "piecewise-gamma-f", "piecewise-several"])
def test_schedule_refuses_a_key_its_mode_does_not_read(fields, unread):
    """A value that the mode would leave unused or overwrite is refused, in the
    words spec_values refuses a config's schedule spec with."""
    mode = fields.get("mode", "exponential")
    with pytest.raises(ValueError, match=re.escape(f"schedule mode {mode!r} does not read "
                                                   f"the keys {unread}")):
        AnnealSchedule(**fields)


def test_schedule_takes_integers_and_numpy_scalars_as_numbers():
    sched = AnnealSchedule.exponential(np.float64(0.5), 2, np.int64(4), gamma=np.float32(0.25))
    assert sched.values(0, 5)[0] == [0.5 * 4.0 ** (t / 4) for t in range(5)]
    sched = AnnealSchedule.piecewise([(1, 0, np.int64(3)), (np.float64(2.0), 1, 2)])
    assert sched.stages == ((1.0, 0.0, 3), (2.0, 1.0, 2)) and sched.it_max == 5


def test_zero_step_schedule_is_valid(two_state):
    sched = AnnealSchedule.exponential(0.1, 10.0, 0)
    assert (sched.mode, sched.gamma, sched.gamma_f) == ("exponential", 0.0, None)  # the defaults
    assert Chain(two_state, 2, sched, seed=1).run().iterations == 0
    # its one iteration, 0, has the initial values
    assert (sched.beta_at(0), sched.gamma_at(0)) == (0.1, 0.0)


def test_azencott_stage_lengths():
    # T_k = e^{m beta_k} (log kappa1 + C b)/C with m=1, kappa1=e, C=b=1
    sched = AnnealSchedule.azencott_stages(
        [math.log(k + 1) for k in range(1, 6)], m=1.0, kappa1=math.e,
        c_const=1.0, b_const=1.0)
    lengths = [t for _, _, t in sched.stages]
    assert lengths == [2 * (k + 1) for k in range(1, 6)]


def test_chain_determinism(two_state):
    sched = AnnealSchedule.exponential(0.5, 5.0, 2000)
    c1, c2 = Chain(two_state, 2, sched, seed=99), Chain(two_state, 2, sched, seed=99)
    s1, s2 = c1.run(), c2.run()
    assert s1.active_transitions == s2.active_transitions
    for r1, r2 in zip(c1.states, c2.states):
        assert np.array_equal(r1.w, r2.w)
    # the seed reaches the chain: these counts are pinned trajectories
    s3 = Chain(two_state, 2, sched, seed=100).run()
    assert (s1.active_transitions, s3.active_transitions) == (684, 752)


def test_chain_counts_active_transitions(double_well2):
    sched = AnnealSchedule.exponential(0.1, 10.0, 3000)
    chain = Chain(double_well2, 2, sched, seed=3)
    stats = chain.run()
    assert 0 < stats.active_transitions <= stats.iterations == 3000
    assert chain.ensemble.check_fields()


def test_chain_field_check_reads_the_states_spins(double_well2):
    sched = AnnealSchedule.exponential(0.1, 10.0, 300)
    chain = Chain(double_well2, 2, sched, seed=3)
    chain.run()
    assert chain.ensemble.check_fields()
    chain.states[0].w[0] *= -1  # behind the ensemble's back
    assert not chain.ensemble.check_fields()


def test_chain_caches_agree_with_recompute(tiny_tabulated):
    sched = AnnealSchedule.exponential(0.2, 2.0, 1500, gamma=0.7)
    chain = Chain(tiny_tabulated, 2, sched, kernel="two-stage", seed=17)
    chain.run()
    assert chain.states is chain.ensemble.states
    assert chain.ensemble.check_fields()
    for state in chain.states:
        assert state.energy == pytest.approx(tiny_tabulated.energy(state.w))


@pytest.mark.parametrize("schedule", [
    AnnealSchedule.exponential(0.5, 5.0, 0, gamma=0.3),
    AnnealSchedule.exponential(0.5, 5.0, 1, gamma=0.3),
    # 5000 steps end inside the second draw block
    AnnealSchedule.exponential(0.5, 5.0, 5000, gamma=0.3, gamma_f=0.9),
    AnnealSchedule.piecewise([(0.5, 0.0, 3000), (1.0, 0.4, 2000)]),
], ids=["zero-step", "one-step", "exponential", "piecewise"])
def test_chain_step_past_it_max_raises(two_state, schedule):
    # the schedule is defined on [0, it_max], so one step after run() is the last
    chain = Chain(two_state, 2, schedule, seed=8)
    chain.run()
    chain.step()
    with pytest.raises(ValueError):
        chain.step()
    assert chain.stats.iterations == schedule.it_max + 1


def test_chain_rejects_unknown_kernel(two_state):
    sched = AnnealSchedule.exponential(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        Chain(two_state, 1, sched, kernel="glauber")


def test_spawn_seed_independent_streams():
    s1 = spawn_seed(42, 0, 1)
    s2 = spawn_seed(42, 0, 2)
    s3 = spawn_seed(42, 0, 1)
    a = np.random.Generator(np.random.Philox(s1)).random(8)
    b = np.random.Generator(np.random.Philox(s2)).random(8)
    c = np.random.Generator(np.random.Philox(s3)).random(8)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_spawn_seed_takes_a_list_base_as_entropy_prefix():
    assert spawn_seed(3, 1).entropy == [3, 1]
    assert spawn_seed([0, 1, 1], 2).entropy == [0, 1, 1, 2]
    assert spawn_seed(np.int64(3)).entropy == [3]


def test_make_rng_reproducible():
    assert make_rng(7).random(4).tolist() == make_rng(7).random(4).tolist()


def _scalar_steps(rng, y, n, k):
    draws = ([], [], [])
    for _ in range(k):
        draws[0].append(int(rng.integers(y)))
        draws[1].append(int(rng.integers(n)))
        draws[2].append(rng.random())
    return draws


@pytest.mark.parametrize("k", [1, 7, 4000])
@pytest.mark.parametrize("halves_before", [0, 1, 15])
@pytest.mark.parametrize("y, n", [(10, 100), (3, 7840), (1, 25), (4, 1), (1, 1),
                                  (1, 2**31 + 1), (2**31 + 1, 1), (2**31 + 1, 3 * 2**30)])
def test_draw_steps_match_scalar_draws(y, n, halves_before, k):
    # an odd number of halves drawn before leaves one buffered in the generator;
    # 2^31 + 1 and 3 * 2^30 redraw about 50% and 25% of their draws
    block, scalar = make_rng(11), make_rng(11)
    for gen in (block, scalar):
        gen.integers(0, 2, size=halves_before)
    assert draw_steps(block, y, n, k) == _scalar_steps(scalar, y, n, k)
    assert block.integers(1000, size=3).tolist() == scalar.integers(1000, size=3).tolist()
    assert block.bit_generator.random_raw() == scalar.bit_generator.random_raw()


@pytest.mark.parametrize("y, n", [(10, 100), (1, 25), (4, 1), (1, 1), (3, 10**6),
                                  (2**31 + 1, 3 * 2**30)])
def test_chained_draw_blocks_match_scalar_draws(y, n):
    # blocks of odd and even length move the buffered half in and out; at
    # n = 10^6 short blocks are drawn vectorised and long ones often fall back
    block, scalar = make_rng(12), make_rng(12)
    for k in (1, 2, 3, 50, 9, 4000, 5):
        assert draw_steps(block, y, n, k) == _scalar_steps(scalar, y, n, k)
    assert block.bit_generator.random_raw() == scalar.bit_generator.random_raw()


def test_draw_steps_needs_a_philox_rng():
    with pytest.raises(TypeError):
        draw_steps(np.random.default_rng(0), 2, 3, 5)


def _pinned_chains():
    perceptron = PerceptronEnergy(generate_synthetic(count=16, dim=11, seed=3))
    perceptron_sched = AnnealSchedule.exponential(0.1, 1.0, 5000, gamma=0.5)
    even_perceptron = PerceptronEnergy(generate_synthetic(count=16, dim=10, seed=4))
    gen = make_rng(6)
    classifier = ClassifierDataset(gen.random((24, 3)), gen.integers(0, 3, 24), 3)
    pix = make_rng(7)
    pixels = ClassifierDataset(pix.integers(0, 256, (30, 5)) * (pix.random((30, 5)) < 0.5) / 255.0,
                               pix.integers(0, 3, 30), 3)
    return {
        # y*N = 33 is odd: the block draws start with a half buffered
        "perceptron-combined": Chain(perceptron, 3, perceptron_sched, kernel="combined",
                                     seed=31),
        "perceptron-two-stage": Chain(perceptron, 3, perceptron_sched, kernel="two-stage",
                                      seed=31),
        "tabulated": Chain(fixtures.random_integer_energies(3, make_rng(5)), 2,
                           AnnealSchedule.exponential(0.2, 5.0, 5000, gamma=0.7),
                           seed=32),
        "cross-entropy": Chain(CrossEntropyEnergy(classifier), 2,
                               AnnealSchedule.exponential(0.5, 20.0, 5000, gamma=0.3),
                               seed=33),
        # pixel values, whose flips decode the PIXEL_LEVELS table
        "cross-entropy-pixels": Chain(CrossEntropyEnergy(pixels), 2,
                                      AnnealSchedule.exponential(0.5, 20.0, 5000, gamma=0.3),
                                      seed=36),
        # y*N = 11 and 3 are odd as well, and a step draws one half: y = 1 draws
        # no replica and N = 1 no coordinate
        "perceptron-one-replica": Chain(perceptron, 1, perceptron_sched, seed=34),
        "tabulated-one-spin": Chain(fixtures.two_state(), 3,
                                    AnnealSchedule.exponential(0.2, 5.0, 5000, gamma=0.7),
                                    seed=35),
        # gamma_f set: gamma changes at every step
        "perceptron-gamma-interpolated": Chain(
            perceptron, 3, AnnealSchedule.exponential(0.1, 1.0, 5000, gamma=0.2, gamma_f=2.0),
            seed=37),
        # stage boundaries at 1500 and 3500 fall inside the first 4096-step
        # block and 4500 inside the second; gamma goes 0 -> 0.8 -> 0.3 -> 0
        "perceptron-piecewise": Chain(
            perceptron, 3, AnnealSchedule.piecewise(
                [(0.2, 0.0, 1500), (0.5, 0.8, 2000), (1.0, 0.3, 1000), (2.0, 0.0, 500)]),
            seed=38),
        # even N: off = 0 in q = off - margins, and zero margins occur
        "perceptron-even-n": Chain(even_perceptron, 3, perceptron_sched, seed=39),
    }


# (active transitions, sha256 prefix of the final spins, final energies, the
# generator's next random()), recorded with one scalar draw call per value
PINNED_TRAJECTORIES = {
    "perceptron-combined": (2514, "90e879575c314c31", [3.0, 5.0, 4.0], 0.43128363720230567),
    "perceptron-two-stage": (2387, "8f2c8ed4aa7b1889", [4.0, 5.0, 8.0], 0.43128363720230567),
    "tabulated": (884, "3053b491c2ed31eb", [0.0, 0.0], 0.41916977666855615),
    "cross-entropy": (594, "c6544aa8b5a3d5b3", [23.808499838970974, 24.92688341306466],
                      0.5053402987082218),
    "cross-entropy-pixels": (790, "b4a99949a9d9551f", [29.670933576196994, 29.67093357619697],
                             0.9069086783116378),
    "perceptron-one-replica": (3148, "3ad30f3de3d58ccf", [3.0], 0.6208560316548304),
    "tabulated-one-spin": (1484, "75c8fd04ad916aec", [0.0, 0.0, 0.0], 0.5007689804190346),
    "perceptron-gamma-interpolated": (2135, "d1903f2bb799afc7", [2.0, 2.0, 2.0],
                                      0.9473903983182277),
    "perceptron-piecewise": (2088, "5c8152e9b2fc0276", [2.0, 4.0, 5.0], 0.9955269516939377),
    "perceptron-even-n": (2759, "a6ec67ebe89ea565", [5.0, 2.0, 3.0], 0.9743010786048214),
}


@pytest.mark.parametrize("name", list(PINNED_TRAJECTORIES))
def test_block_draw_trajectories_are_pinned(name):
    chain = _pinned_chains()[name]
    chain.run()  # 5000 steps: a 4096-step block and a 904-step block
    spins = np.concatenate([s.w for s in chain.states])
    assert (chain.stats.active_transitions, hashlib.sha256(spins.tobytes()).hexdigest()[:16],
            [s.energy for s in chain.states], chain.rng.random()) == PINNED_TRAJECTORIES[name]


def test_integer_pins_hold_under_reduced_numpy_dispatch():
    """The perceptron and tabulated pins and criterion 10 do not depend on
    numpy's SIMD dispatch: they rerun in a subprocess with every dispatch
    target that this host supports above numpy's baseline switched off
    (NPY_DISABLE_CPU_FEATURES). The cross-entropy pins are left out: their
    exp and log1p loops round differently per target."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    disable = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    if not disable:
        pytest.skip("numpy dispatches nothing above its baseline on this host")
    tests = Path(__file__).parent
    node_ids = [f"{tests / 'test_annealer.py'}::test_block_draw_trajectories_are_pinned[{name}]"
                for name in PINNED_TRAJECTORIES if not name.startswith("cross-entropy")]
    node_ids.append(f"{tests / 'test_acceptance.py'}::test_criterion_10_reduction_to_classical_sa")
    script = ("import sys, pytest\n"
              f"from {umath.__name__} import __cpu_features__ as on\n"
              f"assert not any(on[f] for f in {disable!r}), 'dispatch not reduced'\n"
              "sys.exit(pytest.main(sys.argv[1:]))\n")
    done = subprocess.run(
        [sys.executable, "-c", script, "-q", "-p", "no:cacheprovider", *node_ids],
        cwd=tests.parent, env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disable)},
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert f"{len(node_ids)} passed" in done.stdout
