"""Experiment harness: training runs, beta/gamma sweeps, robustness curves."""

from __future__ import annotations

import dataclasses
import datetime
import functools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .annealer import Chain, check, make_rng, spawn_seed
from .data_io import (
    MODELS,
    ExperimentConfig,
    ResultRecord,
    load_mnist,
    make_splits,
    mnist_paths,
    spec_values,
    subsample,
)
from .energies import ClassifierDataset, generate_synthetic

Z95 = 1.959963984540054  # two-sided 95% normal quantile


def _half_width(values: np.ndarray) -> float:
    """Half-width of the normal-approximation 95% CI of the mean of values; 0.0 for one value."""
    return float(Z95 * values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0

def build_dataset(spec: dict):
    """Returns (train, test_or_None) for a config dataset spec; one per_class_*
    key alone splits 6000 train and 1000 test samples a class for the other."""
    kind, spec = spec_values(spec, "dataset")
    if kind == "synthetic":
        return generate_synthetic(count=spec["count"], dim=spec["dim"], seed=spec["seed"]), None
    train, test = load_mnist(spec["directory"])
    per_train, per_test = spec["per_class_train"], spec["per_class_test"]
    if per_train or per_test:
        merged = ClassifierDataset(
            inputs=np.concatenate([train.inputs, test.inputs]),
            targets=np.concatenate([train.targets, test.targets]),
            num_classes=train.num_classes)
        train, test = make_splits(merged, per_train or 6000, per_test or 1000, seed=spec["seed"])
    if spec["subsample"]:
        train = subsample(train, spec["subsample"], seed=spec["seed"])
    return train, test


def build_model(config: ExperimentConfig):
    """Returns (model, test_dataset_or_None), built once per process for each
    (dataset, model) spec and reused by every later call with the same specs.

    The key is the canonical JSON of the two specs, as in ExperimentConfig.hash,
    and for an mnist dataset the resolved path, size, mtime and inode of each
    IDX file, so rewriting a file builds the model again; a missing file raises
    load_mnist's error. The cache holds one entry. The datasets' arrays are
    read-only, since later runs share them.
    """
    specs = json.dumps([config.dataset, config.model], sort_keys=True, separators=(",", ":"))
    return _cached_model(specs, _idx_files(config.dataset))


def _idx_files(spec: dict) -> tuple:
    """(path, st_size, st_mtime_ns, st_ino) of each IDX file an mnist spec
    reads, as load_mnist finds them; () for any other kind."""
    if spec.get("kind") != "mnist":
        return ()
    stats = ((path, path.stat()) for path in mnist_paths(spec.get("directory")).values())
    return tuple((str(path), st.st_size, st.st_mtime_ns, st.st_ino) for path, st in stats)


@functools.lru_cache(maxsize=1)
def _cached_model(specs: str, idx_files: tuple):
    """build_model's result for the JSON [dataset, model] specs. idx_files is
    only part of the key; a build that raises is not cached."""
    dataset_spec, model_spec = json.loads(specs)
    data, test = build_dataset(dataset_spec)
    for dataset in (data, test) if test is not None else (data,):
        for value in vars(dataset).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
    energy, _ = MODELS[spec_values(model_spec, "model")[0]]
    return energy(data), test


@dataclass
class TrainOutcome:
    record: ResultRecord
    best_weights: np.ndarray
    chain: Chain
    model: object


def train_run(config: ExperimentConfig, seed=None, run_id: str = "train") -> TrainOutcome:
    """One full annealing run; the reported model is the replica with the
    lowest final training loss, with the replica mean reported alongside. A
    seed given here replaces the config's, after the "seed" rule checks it."""
    seed = config.seed if seed is None else check("seed", seed, "seed")
    model, test = build_model(config)
    schedule = config.annealing
    chain = Chain(model, config.replicas, schedule, kernel=config.kernel, seed=seed)
    stats = chain.run()
    losses = [s.energy for s in chain.states]
    best = int(np.argmin(losses))
    best_w = chain.states[best].w.copy()
    accs = [model.accuracy(s.w) for s in chain.states]
    test_loss = test_acc = None
    if test is not None:
        test_model = type(model)(test)
        test_loss = test_model.energy(best_w) / test.n
        test_acc = test_model.accuracy(best_w)
    record = ResultRecord(
        run_id=run_id, config_hash=config.hash(),
        seed=int(seed) if np.isscalar(seed) else [int(v) for v in seed],
        gamma=float(schedule.gamma), beta_i=float(schedule.beta_i),
        beta_f=float(schedule.beta_f),
        replicas=config.replicas,
        train_loss=float(losses[best]), train_accuracy=float(accs[best]),
        test_loss=test_loss, test_accuracy=test_acc,
        mean_train_loss=float(np.mean(losses)), mean_train_accuracy=float(np.mean(accs)),
        active_transitions=stats.active_transitions, iterations=stats.iterations,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat())
    return TrainOutcome(record=record, best_weights=best_w, chain=chain, model=model)


@dataclass
class RobustnessPoint:
    p: float
    mean_accuracy: float
    ci_half_width: float


def robustness_eval(weights: np.ndarray, model, p_values, repetitions: int = 1000,
                    seed: int | list[int] = 0) -> list[RobustnessPoint]:
    """Accuracy after flipping exactly round(p*N) distinct random coordinates,
    averaged over repetitions with a normal-approximation 95% CI. Each p must
    lie in [0, 1]."""
    check("repetitions", repetitions, "integer >= 1")
    for p in p_values:
        check("p", p, "probability")
    n = weights.size
    curve = []
    for p_idx, p in enumerate(p_values):
        k = int(round(p * n))
        if k == 0:
            curve.append(RobustnessPoint(p=float(p),
                                         mean_accuracy=float(model.accuracy(weights)),
                                         ci_half_width=0.0))
            continue
        rng = make_rng(spawn_seed(seed, p_idx))
        accs = np.empty(repetitions)
        for r in range(repetitions):
            w = weights.copy()
            flip = rng.choice(n, size=k, replace=False)
            w[flip] = -w[flip]
            accs[r] = model.accuracy(w)
        curve.append(RobustnessPoint(p=float(p), mean_accuracy=float(accs.mean()),
                                     ci_half_width=_half_width(accs)))
    return curve


@dataclass
class SweepPoint:
    label: dict
    mean_train_accuracy: float
    ci_train_accuracy: float
    mean_train_loss: float
    ci_train_loss: float
    mean_test_accuracy: float | None
    mean_active_transitions: float
    records: list = field(default_factory=list)


def _one_sweep_run(task) -> ResultRecord:
    config, seed_entropy, run_id = task
    return train_run(config, seed=seed_entropy, run_id=run_id).record


def _aggregate(label, records) -> SweepPoint:
    t_acc = np.array([r.train_accuracy for r in records])
    t_loss = np.array([r.train_loss for r in records])
    test_accs = [r.test_accuracy for r in records if r.test_accuracy is not None]
    return SweepPoint(
        label=label,
        mean_train_accuracy=float(t_acc.mean()), ci_train_accuracy=_half_width(t_acc),
        mean_train_loss=float(t_loss.mean()), ci_train_loss=_half_width(t_loss),
        mean_test_accuracy=float(np.mean(test_accs)) if test_accs else None,
        mean_active_transitions=float(np.mean([r.active_transitions for r in records])),
        records=list(records))


def _run_grid(base: ExperimentConfig, points: list[dict], repetitions: int,
              jobs: int = 1) -> list[SweepPoint]:
    """points: list of {"schedule": overrides}; seeds are derived from
    (base seed, point index, repetition) so order does not matter. Every
    point's config is made before the first run, so a ValueError refuses a
    point that ExperimentConfig refuses before any run or pool starts."""
    check("repetitions", repetitions, "integer >= 1")
    check("jobs", jobs, "integer >= 1")
    tasks = []
    for p_idx, overrides in enumerate(points):
        config = dataclasses.replace(base, schedule={**base.schedule, **overrides["schedule"]})
        for rep in range(repetitions):
            entropy = spawn_seed(base.seed, p_idx, rep).entropy
            tasks.append((config, entropy, f"sweep-{p_idx}-{rep}"))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_one_sweep_run, tasks))
    else:
        results = [_one_sweep_run(t) for t in tasks]
    out = []
    for p_idx, overrides in enumerate(points):
        recs = results[p_idx * repetitions:(p_idx + 1) * repetitions]
        out.append(_aggregate(overrides, recs))
    return out


def sweep_gamma(base: ExperimentConfig, gammas, repetitions: int = 10,
                jobs: int = 1) -> list[SweepPoint]:
    points = [{"schedule": {"gamma": float(g)}} for g in gammas]
    return _run_grid(base, points, repetitions, jobs)


def sweep_beta(base: ExperimentConfig, beta_is, beta_fs, repetitions: int = 1,
               jobs: int = 1) -> list[SweepPoint]:
    points = [{"schedule": {"beta_i": float(bi), "beta_f": float(bf)}}
              for bi in beta_is for bf in beta_fs]
    return _run_grid(base, points, repetitions, jobs)
