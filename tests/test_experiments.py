import dataclasses
import operator
import os
import pickle
import re

import numpy as np
import pytest

from replica_anneal import annealer, experiments
from replica_anneal.data_io import MNIST_FILES, ExperimentConfig, read_results, write_results
from replica_anneal.energies import PerceptronEnergy, generate_synthetic
from replica_anneal.experiments import (
    build_dataset,
    build_model,
    robustness_eval,
    sweep_gamma,
    train_run,
)

from conftest import write_mnist


def _small_config(**overrides):
    base = dict(
        dataset={"kind": "synthetic", "count": 10, "dim": 20, "seed": 1},
        model={"kind": "perceptron"},
        schedule={"mode": "exponential", "beta_i": 0.1, "beta_f": 100.0,
                  "gamma": 0.0, "it_max": 2000},
        replicas=2, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


def _ce_config(directory, **overrides):
    return _small_config(dataset={"kind": "mnist", "directory": str(directory)},
                         model={"kind": "cross-entropy"},
                         schedule={"mode": "exponential", "beta_i": 0.1, "beta_f": 10.0,
                                   "gamma": 0.0, "it_max": 300}, **overrides)


def _count_loads(monkeypatch) -> list:
    """Patches experiments.load_mnist to record each call's directory."""
    calls, load = [], experiments.load_mnist
    monkeypatch.setattr(experiments, "load_mnist",
                        lambda directory=None: calls.append(directory) or load(directory))
    return calls


def _without_timestamp(points):
    return [[dataclasses.replace(r, timestamp="") for r in p.records] for p in points]


def test_build_dataset_synthetic():
    data, test = build_dataset({"kind": "synthetic", "count": 6, "dim": 9, "seed": 2})
    assert test is None
    assert data.patterns.shape == (6, 9)


def test_build_dataset_unknown_kind():
    with pytest.raises(ValueError):
        build_dataset({"kind": "cifar"})


@pytest.mark.parametrize("build", [
    pytest.param(lambda: ExperimentConfig(schedule={"mode": "exponential", "beta_i": 0.1,
                                                    "beta_f": 10.0, "gama": 0.8, "it_max": 100}),
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


@pytest.mark.parametrize("overrides, message", [
    ({"model": {"kind": "bogus"}}, "unknown model kind 'bogus'"),
    ({"dataset": {"kind": "synthetic", "count": 0}}, "dataset count must be an integer >= 1"),
    ({"dataset": {"kind": "synthetic", "dim": True}}, "dataset dim must be an integer >= 1"),
    ({"dataset": None}, "the dataset spec must be an object"),
    ({"model": {"kind": "cross-entropy"}}, "a cross-entropy model needs a mnist dataset"),
    ({"dataset": {"kind": "mnist", "directory": "absent"}},
     "a perceptron model needs a synthetic dataset"),
], ids=["model-kind", "count", "dim", "dataset-null", "model-dataset", "dataset-model"])
def test_build_model_refuses_specs_before_building(overrides, message, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built a dataset from a refused spec")

    monkeypatch.setattr(experiments, "build_dataset", never)
    with pytest.raises(ValueError, match=re.escape(message)):
        build_model(_small_config(**overrides))


@pytest.mark.parametrize("spec, missing", [
    ({"mode": "exponential", "beta_f": 10.0, "it_max": 100}, "['beta_i']"),
    ({"beta_i": 0.1}, "['beta_f', 'it_max']"),
    ({"mode": "piecewise"}, "['stages']"),
])
def test_a_schedule_spec_names_a_missing_key(spec, missing):
    with pytest.raises(ValueError, match=re.escape(f"needs the keys {missing}")):
        ExperimentConfig(schedule=spec)


def test_piecewise_row_reports_its_stages():
    """A piecewise row's gamma and beta_i are the first stage's and beta_f is
    the last stage's; exponential rows keep their spec values."""
    stages = [[0.5, 0.3, 500], [5.0, 0.3, 500]]
    rec = train_run(_small_config(schedule={"mode": "piecewise", "stages": stages})).record
    assert (rec.gamma, rec.beta_i, rec.beta_f, rec.iterations) == (0.3, 0.5, 5.0, 1000)
    rec = train_run(_small_config()).record
    assert (rec.gamma, rec.beta_i, rec.beta_f) == (0.0, 0.1, 100.0)


def test_build_model_mismatch():
    with pytest.raises(ValueError):
        build_model(_small_config(model={"kind": "cross-entropy"}))


def test_a_piecewise_schedule_spec_builds_its_schedule():
    config = ExperimentConfig(schedule={"mode": "piecewise", "stages": [(1.0, 0.0, 5),
                                                                        (2.0, 0.0, 5)]})
    assert config.annealing.it_max == 10


def test_train_run_deterministic():
    cfg = _small_config()
    a = train_run(cfg)
    b = train_run(cfg)
    assert np.array_equal(a.best_weights, b.best_weights)
    assert a.record.train_loss == b.record.train_loss
    assert a.record.active_transitions == b.record.active_transitions
    assert a.record.config_hash == cfg.hash()


@pytest.mark.parametrize("seed", [True, [], -1, 1.5, [0, -1]],
                         ids=["bool", "empty-list", "negative", "real", "negative-entry"])
def test_train_run_refuses_a_seed_the_run_cannot_use(seed, monkeypatch):
    monkeypatch.setattr(experiments, "build_dataset", lambda spec: pytest.fail("built a dataset"))
    with pytest.raises(ValueError, match=re.escape(f"a seed is a non-negative integer or a "
                                                   f"list of them, got {seed!r}")):
        train_run(_small_config(), seed=seed)


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


@pytest.mark.parametrize("p", [1.5, -0.2, float("nan")])
def test_robustness_refuses_p_outside_the_unit_interval(p):
    class NeverEvaluated:
        def accuracy(self, w):
            raise AssertionError("evaluated before p was checked")

    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        robustness_eval(np.ones(20, dtype=np.int8), NeverEvaluated(), [0.0, p], repetitions=5)


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
    assert _without_timestamp(pooled) == _without_timestamp(serial)


def test_sweep_row_reruns_from_its_csv(tmp_path):
    cfg = _small_config()
    points = sweep_gamma(cfg, [0.0, 1 / 3], repetitions=2)
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


def test_ce_sweep_loads_its_dataset_once(tmp_path, monkeypatch):
    write_mnist(tmp_path)
    calls = _count_loads(monkeypatch)
    points = sweep_gamma(_ce_config(tmp_path), [0.0, 0.5], repetitions=2)
    assert calls == [str(tmp_path)]
    assert [len(p.records) for p in points] == [2, 2]


def test_rewritten_idx_file_is_loaded_again(tmp_path, monkeypatch):
    write_mnist(tmp_path, seed=0)
    calls = _count_loads(monkeypatch)
    cfg = _ce_config(tmp_path)
    first = train_run(cfg).model.dataset.inputs
    assert train_run(cfg).model.dataset.inputs is first and len(calls) == 1
    path = tmp_path / MNIST_FILES["train_images"]
    before = path.stat()
    write_mnist(tmp_path, seed=1)  # the same sizes, in the same files
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
    second = train_run(cfg).model.dataset.inputs
    assert len(calls) == 2 and second.shape == first.shape
    assert not np.array_equal(second, first)
    assert np.array_equal(second, experiments.load_mnist(tmp_path)[0].inputs)


def test_missing_idx_file_is_not_cached(tmp_path):
    write_mnist(tmp_path)
    (tmp_path / MNIST_FILES["test_labels"]).unlink()
    cfg = _ce_config(tmp_path)
    for _ in range(2):
        with pytest.raises(FileNotFoundError, match="t10k-labels-idx1-ubyte"):
            train_run(cfg)
    write_mnist(tmp_path)
    assert train_run(cfg).record.test_accuracy is not None


def test_default_idx_directory_is_keyed_as_load_mnist_reads_it(tmp_path, monkeypatch):
    """A spec without a directory reads REPLICA_ANNEAL_DATA; pointing it at
    other files loads those."""
    first, second = tmp_path / "a", tmp_path / "b"
    for seed, directory in enumerate((first, second)):
        directory.mkdir()
        write_mnist(directory, seed=seed)
    calls = _count_loads(monkeypatch)
    cfg = dataclasses.replace(_ce_config(tmp_path), dataset={"kind": "mnist"})
    monkeypatch.setenv("REPLICA_ANNEAL_DATA", str(first))
    train_run(cfg)
    train_run(cfg)
    monkeypatch.setenv("REPLICA_ANNEAL_DATA", str(second))
    inputs = train_run(cfg).model.dataset.inputs
    assert len(calls) == 2
    assert np.array_equal(inputs, experiments.load_mnist(second)[0].inputs)


@pytest.mark.parametrize("kind", ["perceptron", "cross-entropy"])
def test_sweep_rows_do_not_depend_on_the_model_cache(kind, tmp_path, monkeypatch):
    """Rows from a sweep that builds every run's model equal those from one
    that reuses a model built before it."""
    write_mnist(tmp_path)
    cfg = _small_config() if kind == "perceptron" else _ce_config(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_cached_model", experiments._cached_model.__wrapped__)
        cold = sweep_gamma(cfg, [0.0, 0.5], repetitions=2)
    train_run(cfg)
    assert experiments._cached_model.cache_info().currsize == 1
    warm = sweep_gamma(cfg, [0.0, 0.5], repetitions=2)
    assert experiments._cached_model.cache_info().misses == 1
    assert _without_timestamp(warm) == _without_timestamp(cold)


def test_ce_sweep_jobs_match_serial(tmp_path):
    write_mnist(tmp_path)
    cfg = _ce_config(tmp_path)
    pooled = sweep_gamma(cfg, [0.0, 0.5], repetitions=2, jobs=2)
    serial = sweep_gamma(cfg, [0.0, 0.5], repetitions=2, jobs=1)
    assert _without_timestamp(pooled) == _without_timestamp(serial)


def test_a_built_model_cannot_be_changed(tmp_path):
    write_mnist(tmp_path)
    outcome = train_run(_ce_config(tmp_path))
    dataset = outcome.model.dataset
    with pytest.raises(ValueError, match="read-only"):
        dataset.inputs[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        dataset.targets[0] = 1
    _, test = build_model(_ce_config(tmp_path))
    with pytest.raises(ValueError, match="read-only"):
        test.inputs[0, 0] = 0.5
    data = train_run(_small_config()).model.data
    with pytest.raises(ValueError, match="read-only"):
        data.patterns[0, 0] = -data.patterns[0, 0]
    with pytest.raises(ValueError, match="read-only"):
        data.labels[0] = -data.labels[0]


def test_each_config_made_builds_one_schedule(monkeypatch):
    """A sweep builds one AnnealSchedule per point's config, and its runs build
    none: 2 here, where building in train_run too made 8."""
    built, post_init = [], annealer.AnnealSchedule.__post_init__
    monkeypatch.setattr(annealer.AnnealSchedule, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    config = _small_config()
    assert len(built) == 1 and config.annealing is built[0]
    built.clear()
    points = sweep_gamma(config, [0.0, 0.5], repetitions=3)
    assert len(built) == 2
    assert [r.gamma for p in points for r in p.records] == [0.0] * 3 + [0.5] * 3
    train_run(config)
    assert len(built) == 2


@pytest.mark.parametrize("edit", [
    lambda c: c.model.__setitem__("kind", "cross-entropy"),
    lambda c: c.dataset.update(count=0),
    lambda c: c.schedule.pop("mode"),
    lambda c: c.schedule["stages"][0].__setitem__(2, 10**6),
    lambda c: c.schedule["stages"].append((2.0, 0.0, 5)),
    lambda c: operator.ior(c.schedule, {"mode": "exponential"}),
    lambda c: operator.iadd(c.schedule["stages"], [(2.0, 0.0, 5)]),
    lambda c: operator.delitem(c.dataset, "count"),
    lambda c: c.seed.append(-1),
], ids=["model-kind", "dataset-update", "schedule-pop", "stage-entry", "stage-list",
        "schedule-ior", "stage-list-iadd", "dataset-del", "seed-list"])
def test_a_config_refuses_an_edit_of_its_specs(edit):
    """The checked specs cannot change: the edit raises, not a later run."""
    config = _small_config(schedule={"mode": "piecewise", "stages": [[0.5, 0.0, 50]]},
                           seed=[1, 2])
    digest = config.hash()
    with pytest.raises(TypeError, match="a config's specs are read-only"):
        edit(config)
    assert config.hash() == digest
    assert train_run(config).record.iterations == 50


def test_a_config_keeps_a_copy_of_the_callers_specs():
    dataset = {"kind": "synthetic", "count": 10, "dim": 20, "seed": [1, 2]}
    schedule = {"mode": "piecewise", "stages": [[0.5, 0.0, 30], [2.0, 0.0, 20]]}
    seed = [3, 4]
    config = _small_config(dataset=dataset, schedule=schedule, seed=seed)
    doc, digest = config.to_dict(), config.hash()
    dataset["count"] = 0
    dataset["seed"].append(-1)
    seed.append(-1)
    schedule["stages"][1][2] = 0
    schedule["stages"].clear()
    assert config.to_dict() == doc and config.hash() == digest
    # to_dict gives plain dicts and lists, which the caller may edit
    assert type(doc["dataset"]) is dict and type(doc["schedule"]["stages"][0]) is list
    assert type(doc["seed"]) is list
    doc["dataset"]["count"] = 0
    assert config.to_dict()["dataset"]["count"] == 10
    assert train_run(config).record.iterations == 50


@pytest.mark.parametrize("copy", [lambda c: pickle.loads(pickle.dumps(c)),
                                  lambda c: dataclasses.replace(c)], ids=["pickle", "replace"])
def test_a_copied_config_is_equal_and_read_only(copy):
    """A worker's pickled config and a replaced one equal the config, hash as it
    does, keep read-only specs and hold the same schedule, which is frozen."""
    config = _small_config(schedule={"mode": "piecewise", "stages": [[0.5, 0.0, 30]]})
    other = copy(config)
    assert other == config and other.hash() == config.hash()
    assert other.annealing == config.annealing
    with pytest.raises(TypeError, match="read-only"):
        other.schedule["stages"][0][2] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        other.annealing.it_max = 7
    with pytest.raises(TypeError):  # a tuple, so no run anneals at another beta
        other.annealing.stages[0] = (9.0, 0.0, 30)


def _mnist_split_config(directory, seed):
    return dataclasses.replace(_ce_config(directory), dataset={
        "kind": "mnist", "directory": str(directory), "per_class_train": 2, "per_class_test": 1,
        "seed": seed})


def test_mnist_splits_are_balanced_disjoint_and_seeded(tmp_path):
    """per_class_train and per_class_test split the merged train and test files."""
    write_mnist(tmp_path)
    train_files, test_files = experiments.load_mnist(tmp_path)
    merged = np.concatenate([train_files.inputs, test_files.inputs])
    spec = _mnist_split_config(tmp_path, 4).dataset
    train, test = build_dataset(spec)
    assert train.num_classes == test.num_classes == train_files.num_classes
    assert np.bincount(train.targets, minlength=10).tolist() == [2] * 10
    assert np.bincount(test.targets, minlength=10).tolist() == [1] * 10
    # each row is a row of the merged set, and no row is in both splits
    rows = {row.tobytes(): k for k, row in enumerate(merged)}
    train_rows = {rows[row.tobytes()] for row in train.inputs}
    test_rows = {rows[row.tobytes()] for row in test.inputs}
    assert len(train_rows) == 20 and len(test_rows) == 10 and not train_rows & test_rows
    again, _ = build_dataset(spec)
    other, _ = build_dataset(_mnist_split_config(tmp_path, 5).dataset)
    assert np.array_equal(again.inputs, train.inputs)
    assert not np.array_equal(other.inputs, train.inputs)
    record = train_run(_mnist_split_config(tmp_path, 4)).record
    assert record.test_accuracy is not None


def test_mnist_subsample_keeps_the_requested_size(tmp_path):
    write_mnist(tmp_path)
    spec = {"kind": "mnist", "directory": str(tmp_path), "subsample": 25, "seed": 3}
    train, test = build_dataset(spec)
    full, full_test = experiments.load_mnist(tmp_path)
    assert train.n == 25 and test.n == full_test.n
    indices = [np.flatnonzero((full.inputs == row).all(axis=1))[0] for row in train.inputs]
    assert np.array_equal(train.targets, full.targets[indices])
    assert np.array_equal(build_dataset(spec)[0].inputs, train.inputs)
    assert not np.array_equal(build_dataset({**spec, "seed": 4})[0].inputs, train.inputs)
