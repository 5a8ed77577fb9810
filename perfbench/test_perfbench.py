"""Tests of the benchmark's own code, on inputs far smaller than the workloads'."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from replica_anneal import annealer, exact, experiments
from replica_anneal.data_io import ExperimentConfig

from perfbench import checks, datagen, measure
from perfbench.tracing import Tracer
from perfbench.workloads import (CeMnist, ExactOracle, PassResult, PerceptronSweep,
                                 ce_bytes_per_delta, ce_lse_cache_error)

ROOT = Path(__file__).resolve().parent.parent


def small_sweep(tmp_path, seed=0):
    return PerceptronSweep(seed, tmp_path, it_max=300, count=8, dim=11, replicas=3)


def small_exact(seed=0):
    return ExactOracle(seed, gap_n=3, qbar_n=4, elev_n=3, dense_y=2)


def small_ce(tmp_path, seed=0):
    datagen.write_dataset(seed, tmp_path, n_train=300, n_test=100)
    return CeMnist(seed, tmp_path, it_max=200)


def test_datagen_is_deterministic_per_seed():
    (a_x, a_y), (a_tx, a_ty) = datagen.generate(3, n_train=200, n_test=50)
    (b_x, b_y), (b_tx, b_ty) = datagen.generate(3, n_train=200, n_test=50)
    (c_x, _), _ = datagen.generate(4, n_train=200, n_test=50)
    for a, b in ((a_x, b_x), (a_y, b_y), (a_tx, b_tx), (a_ty, b_ty)):
        assert np.array_equal(a, b)
    assert not np.array_equal(a_x, c_x)
    images = a_x.reshape(-1, datagen.SIDE, datagen.SIDE)
    assert not images[:, :datagen.BORDER, :].any() and not images[:, :, -datagen.BORDER:].any()
    assert 0.7 < np.mean(a_x == 0) < 0.9
    assert a_y.max() < datagen.NUM_CLASSES


def test_written_dataset_loads_through_the_library(tmp_path):
    props = datagen.write_dataset(5, tmp_path, n_train=120, n_test=40)
    train, test = experiments.build_dataset({"kind": "mnist", "directory": str(tmp_path)})
    assert (train.n, train.d, test.n) == (120, 784, 40)
    assert props["train"]["features_zero_in_every_image"] >= 784 - 24 * 24


def test_exact_inputs_are_deterministic_per_seed():
    a, b, c = ExactOracle(7), ExactOracle(7), ExactOracle(8)
    for name in ("gap", "qbar", "elev"):
        assert np.array_equal(getattr(a, name)[0].table, getattr(b, name)[0].table)
    assert not np.array_equal(a.qbar[0].table, c.qbar[0].table)


def test_sweep_pass_checks_pass_and_repeat(tmp_path):
    workload = small_sweep(tmp_path)
    first = workload.check(*workload.run_pass(), first=True)
    second = workload.check(*workload.run_pass(), first=False)
    assert first.failures == [] and first.failed_ops == 0 and first.ops == 4
    assert first.steps == 4 * 300
    assert first.digest == second.digest


def test_outcome_check_catches_an_energy_off_by_one():
    config = ExperimentConfig(
        dataset={"kind": "synthetic", "count": 8, "dim": 11, "seed": 1},
        schedule={"mode": "exponential", "beta_i": 0.1, "beta_f": 10.0, "gamma": 0.5,
                  "it_max": 200},
        replicas=3, seed=2)
    outcome = experiments.train_run(config)
    assert checks.check_outcome(outcome, 200) == []
    outcome.chain.states[1].energy += 1.0
    assert any("replica 1" in msg for msg in checks.check_outcome(outcome, 200))
    assert checks.check_outcome(outcome, 201) != []


def test_ce_pass_checks_and_catches_drift(tmp_path):
    workload = small_ce(tmp_path)
    wall, outcome = workload.run_pass()
    result = workload.check(wall, outcome, first=True)
    assert result.failures == [] and result.steps == 200
    assert result.props["ce_drift"] < checks.CE_REL_TOL
    assert 0.0 <= result.props["ce_lse_cache_error"] < 1e-9
    outcome.chain.states[2]._lse[0] += 0.5
    assert ce_lse_cache_error(outcome) == pytest.approx(0.5)
    # inputs and logits columns cost a cache line per sample, _lse and targets 8 bytes
    assert workload.bytes_per_delta == 300 * (64 + 64 + 8 + 8)
    del outcome.chain.states[0]._lse
    assert ce_bytes_per_delta(outcome) == 0 and ce_lse_cache_error(outcome) is None
    outcome.chain.states[1].energy += 1.0
    assert checks.check_outcome(outcome, 200, checks.CE_REL_TOL) != []


def test_exact_pass_checks_pass():
    workload = small_exact()
    result = workload.check(*workload.run_pass(), first=True)
    assert result.failures == []
    assert result.ops == result.solved == 2 + 1 + 1 + 5


def test_qbar_check_catches_a_small_perturbation():
    model, n, y = small_exact().gap
    direct, folded, _ = exact.enumerate_qbar(model, n, y, 2.0, 0.5)
    assert checks.check_qbar(direct, folded, "q") == []
    bad = folded.copy()
    bad[3] *= 1 + 1e-6
    assert checks.check_qbar(direct, bad, "q") != []


def test_kernel_check_catches_broken_balance():
    model, n, y = small_exact().gap
    _, qbar, _ = exact.enumerate_qbar(model, n, y, 2.0, 0.5)
    k_mat = exact.build_kernel_matrix(model, n, y, 2.0, 0.5)
    assert checks.check_kernel(k_mat, qbar, "k") == []
    k_mat[0, 1] += 1e-6
    assert checks.check_kernel(k_mat, qbar, "k") != []
    assert checks.check_kernel(k_mat, qbar * (1 + 1e-6), "k") != []


def test_psi_and_dense_mass_checks():
    assert checks.check_psi([(2.0, 0.3), (15.0, 1e-9)], "p") == []
    assert checks.check_psi([(2.0, 0.0)], "p") != []
    assert checks.check_psi([(2.0, 1.5)], "p") != []
    assert checks.check_dense_mass({0.0: (5 / 6) ** 2, 1.0: 0.87}, 2, "d") == []
    assert checks.check_dense_mass({0.0: (5 / 6) ** 2 + 1e-6}, 2, "d") != []


def test_exact_check_fails_a_corrupted_pass():
    workload = small_exact()
    wall, out = workload.run_pass()
    direct, folded, z = out[("qbar",)]
    folded = folded.copy()
    folded[0] *= 1 + 1e-6
    out[("qbar",)] = (direct, folded, z)
    out[("dense", 0.0)] = ValueError("raised")
    result = workload.check(wall, out, first=False)
    assert result.failed_ops == 2 and result.solved == result.ops - 2


def test_traced_and_untraced_passes_agree(tmp_path):
    workload = small_sweep(tmp_path)
    plain = workload.check(*workload.run_pass(), first=False)
    original_step = vars(annealer.Chain)["step"]
    tracer = Tracer()
    with tracer:
        assert vars(annealer.Chain)["step"] is not original_step
        traced = workload.check(*workload.run_pass(), first=False)
    assert vars(annealer.Chain)["step"] is original_step
    assert traced.digest == plain.digest
    assert tracer.absent == []
    assert tracer.stat("annealer.step").calls == 4 * 300
    assert len(tracer.samples["annealer.step"]) == 4 * 300
    assert tracer.stat("energies.delta").calls >= 4 * 300


def test_tracer_reports_missing_targets_as_absent():
    targets = [("annealer", "Chain.no_such_method", "annealer.gone", False, None),
               ("no_such_module", "f", "x.gone", False, None),
               ("annealer", "interaction_delta", "annealer.interaction", False, None)]
    original = annealer.interaction_delta
    with Tracer(targets) as tracer:
        assert annealer.interaction_delta is not original
    assert annealer.interaction_delta is original
    assert tracer.absent == ["annealer.Chain.no_such_method", "no_such_module.f"]


def test_metric_names_match_the_benchmark_definition(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = small_sweep(tmp_path)
    e2e, passes, _ = measure.end_to_end(workload, seconds=0)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(value > 0 for value, _ in e2e.values())
    layers, plain, traced, _ = measure.traced(workload, seconds=0)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert [unit for _, unit in layers.values()] == [m["unit"] for m in spec["per_layer"]]
    assert layers["trace.digest_match"][0] == 1
    assert measure.totals(passes + plain + traced)["failed"] == 0


class FixedWorkload:
    """Every pass takes 2 s at 100 steps/s and every set-up 0.5 s."""

    reference_s = 1.0
    setup_repeats = 1

    def setup_once(self):
        return 0.5

    def run_pass(self):
        return 2.0, None

    def check(self, wall, outputs, first):
        return PassResult(wall_s=wall, ops=1, solved=1, rates=[100.0])


def test_host_scaling_uses_the_neighbouring_reference_times(monkeypatch):
    calls = []

    def reference():  # 1 s before the first pass, 2 s after it, 4 s after the second
        calls.append(None)
        return [1.0, 2.0, 4.0][(len(calls) - 1) // 5]

    monkeypatch.setattr(measure, "interpreter_reference", reference)
    metrics, passes, raw = measure.end_to_end(FixedWorkload(), seconds=0)
    assert len(passes) == 2 and raw["interpreter_reference_s"] == [1.0, 2.0, 4.0]
    # the timed second pass sits between references 2 and 4: scaled by 1 / 3
    assert metrics["wall_s"][0] == pytest.approx(2.0 / 3)
    assert metrics["steps_per_s"][0] == pytest.approx(300.0)
    # set-ups scaled by 1, 1/2 and 1/4
    assert metrics["setup_s"][0] == pytest.approx(0.25)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-oracle",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
