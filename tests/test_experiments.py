import dataclasses

import numpy as np
import pytest

from replica_anneal.data_io import ExperimentConfig, read_results, write_results
from replica_anneal.energies import PerceptronEnergy, generate_synthetic
from replica_anneal.experiments import (
    build_dataset,
    build_model,
    build_schedule,
    robustness_eval,
    sweep_gamma,
    train_run,
)


def _small_config(**overrides):
    base = dict(
        dataset={"kind": "synthetic", "count": 10, "dim": 20, "seed": 1},
        model={"kind": "perceptron"},
        schedule={"mode": "exponential", "beta_i": 0.1, "beta_f": 100.0,
                  "gamma": 0.0, "it_max": 2000},
        replicas=2, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_build_dataset_synthetic():
    data, test = build_dataset({"kind": "synthetic", "count": 6, "dim": 9, "seed": 2})
    assert test is None
    assert data.patterns.shape == (6, 9)


def test_build_dataset_unknown_kind():
    with pytest.raises(ValueError):
        build_dataset({"kind": "cifar"})


@pytest.mark.parametrize("build", [
    pytest.param(lambda: build_schedule({"mode": "exponential", "beta_i": 0.1, "beta_f": 10.0,
                                         "gama": 0.8, "it_max": 100}),
                 id="schedule-typo"),
    pytest.param(lambda: sweep_gamma(_small_config(schedule={
                     "mode": "piecewise", "stages": [(1.0, 0.0, 50)]}), [2.0], repetitions=1),
                 id="gamma-sweep-over-piecewise"),
    pytest.param(lambda: build_dataset({"kind": "synthetic", "count": 6, "dimm": 300}),
                 id="dataset-typo"),
])
def test_config_specs_refuse_keys_they_do_not_read(build):
    with pytest.raises(ValueError, match="does not read"):
        build()


def test_piecewise_row_reports_its_stages():
    """A piecewise row's gamma and beta_i are the first stage's and beta_f is
    the last stage's; exponential rows keep their spec values."""
    stages = [[0.5, 0.3, 500], [5.0, 0.3, 500]]
    rec = train_run(_small_config(schedule={"mode": "piecewise", "stages": stages})).record
    assert (rec.gamma, rec.beta_i, rec.beta_f, rec.iterations) == (0.3, 0.5, 5.0, 1000)
    rec = train_run(_small_config()).record
    assert (rec.gamma, rec.beta_i, rec.beta_f) == (0.0, 0.1, 100.0)


def test_build_model_mismatch():
    cfg = _small_config(model={"kind": "cross-entropy"})
    with pytest.raises(ValueError):
        build_model(cfg)


def test_build_schedule_piecewise():
    sched = build_schedule({"mode": "piecewise", "stages": [(1.0, 0.0, 5), (2.0, 0.0, 5)]})
    assert sched.it_max == 10


def test_train_run_deterministic():
    cfg = _small_config()
    a = train_run(cfg)
    b = train_run(cfg)
    assert np.array_equal(a.best_weights, b.best_weights)
    assert a.record.train_loss == b.record.train_loss
    assert a.record.active_transitions == b.record.active_transitions
    assert a.record.config_hash == cfg.hash()


def test_train_run_picks_lowest_loss_replica():
    cfg = _small_config(replicas=4)
    out = train_run(cfg)
    losses = [s.energy for s in out.chain.states]
    assert out.record.train_loss == pytest.approx(min(losses))
    assert out.record.mean_train_loss == pytest.approx(float(np.mean(losses)))


def test_robustness_p_zero_unperturbed():
    patterns = generate_synthetic(count=10, dim=21, seed=3)
    model = PerceptronEnergy(patterns)
    w = np.ones(21, dtype=np.int8)
    curve = robustness_eval(w, model, [0.0], repetitions=50, seed=0)
    assert curve[0].mean_accuracy == model.accuracy(w)
    assert curve[0].ci_half_width == 0.0


def test_robustness_flips_exact_count():
    patterns = generate_synthetic(count=5, dim=20, seed=4)
    model = PerceptronEnergy(patterns)

    class CountingModel:
        n_spins = 20

        def __init__(self):
            self.hamming = []

        def accuracy(self, w):
            self.hamming.append(int(np.sum(w != 1)))
            return 1.0

    w = np.ones(20, dtype=np.int8)
    counter = CountingModel()
    robustness_eval(w, counter, [0.1, 0.5], repetitions=10, seed=0)
    assert counter.hamming[:10] == [2] * 10    # round(0.1 * 20)
    assert counter.hamming[10:] == [10] * 10   # round(0.5 * 20)


def test_robustness_deterministic_per_seed():
    patterns = generate_synthetic(count=10, dim=30, seed=5)
    model = PerceptronEnergy(patterns)
    w = np.ones(30, dtype=np.int8)
    a = robustness_eval(w, model, [0.1], repetitions=40, seed=7)
    b = robustness_eval(w, model, [0.1], repetitions=40, seed=7)
    assert a[0].mean_accuracy == b[0].mean_accuracy


def test_robustness_needs_a_repetition():
    model = PerceptronEnergy(generate_synthetic(count=5, dim=20, seed=4))
    with pytest.raises(ValueError):
        robustness_eval(np.ones(20, dtype=np.int8), model, [0.1], repetitions=0)


def test_sweep_gamma_order_independent():
    cfg = _small_config()
    full = sweep_gamma(cfg, [0.0, 0.5], repetitions=2)
    # re-running only the second grid point reproduces its records exactly,
    # because seeds derive from (base seed, point index, repetition)
    again = sweep_gamma(cfg, [0.0, 0.5], repetitions=2)
    for p1, p2 in zip(full, again):
        assert [r.train_loss for r in p1.records] == [r.train_loss for r in p2.records]
        assert [r.seed for r in p1.records] == [r.seed for r in p2.records]
    assert full[0].label == {"schedule": {"gamma": 0.0}}
    assert len(full[0].records) == 2


def test_sweep_needs_a_repetition():
    with pytest.raises(ValueError):
        sweep_gamma(_small_config(), [0.0], repetitions=0)


@pytest.mark.parametrize("jobs", [0, -2])
def test_sweep_needs_a_job(jobs):
    with pytest.raises(ValueError):
        sweep_gamma(_small_config(), [0.0], repetitions=1, jobs=jobs)


def test_sweep_gamma_distinct_seeds_per_repetition():
    cfg = _small_config()
    points = sweep_gamma(cfg, [0.2], repetitions=3)
    losses = [r.active_transitions for r in points[0].records]
    # independent streams: not all repetitions identical
    assert len(set(losses)) > 1


def test_sweep_gamma_jobs_match_serial():
    cfg = _small_config()
    serial = sweep_gamma(cfg, [0.0, 0.5], repetitions=2, jobs=1)
    pooled = sweep_gamma(cfg, [0.0, 0.5], repetitions=2, jobs=2)

    def without_timestamp(points):
        return [[dataclasses.replace(r, timestamp="") for r in p.records] for p in points]

    assert without_timestamp(pooled) == without_timestamp(serial)


def test_sweep_row_reruns_from_its_csv(tmp_path):
    cfg = _small_config()
    points = sweep_gamma(cfg, [0.0, 0.5], repetitions=2)
    path = tmp_path / "sweep.csv"
    write_results([r for p in points for r in p.records], path)
    rows = read_results(path)
    assert [r.seed for r in rows] == [[0, p, rep] for p in range(2) for rep in range(2)]
    row = rows[3]
    rerun_cfg = dataclasses.replace(cfg, schedule=dict(cfg.schedule, gamma=row.gamma))
    rerun = train_run(rerun_cfg, seed=row.seed).record
    assert rerun.config_hash == row.config_hash
    assert rerun.train_loss == row.train_loss
    assert rerun.active_transitions == row.active_transitions
