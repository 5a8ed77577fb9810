"""Experiment harness: training runs, beta/gamma sweeps, robustness curves."""

from __future__ import annotations

import dataclasses
import datetime
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .annealer import AnnealSchedule, Chain, make_rng, spawn_seed
from .data_io import ExperimentConfig, ResultRecord, load_mnist, make_splits, subsample
from .energies import (
    ClassifierDataset,
    CrossEntropyEnergy,
    PatternSet,
    PerceptronEnergy,
    generate_synthetic,
)

Z95 = 1.959963984540054  # two-sided 95% normal quantile

# the keys each config spec reads, by its kind or mode; any other key is refused
SPEC_KEYS = {
    ("dataset", "synthetic"): ("kind", "count", "dim", "seed"),
    ("dataset", "mnist"): ("kind", "directory", "per_class_train", "per_class_test",
                           "subsample", "seed"),
    ("model", "perceptron"): ("kind",),
    ("model", "cross-entropy"): ("kind",),
    ("schedule", "exponential"): ("mode", "beta_i", "beta_f", "gamma", "gamma_f", "it_max"),
    ("schedule", "piecewise"): ("mode", "stages"),
}


def _spec_kind(spec: dict, section: str, key: str, default: str) -> str:
    """The spec's kind (or mode), after refusing an unknown one and every key
    that kind does not read."""
    kind = spec.get(key, default)
    if (section, kind) not in SPEC_KEYS:
        raise ValueError(f"unknown {section} {key} {kind!r}")
    unknown = sorted(set(spec) - set(SPEC_KEYS[section, kind]))
    if unknown:
        raise ValueError(f"{section} {key} {kind!r} does not read the keys {unknown}")
    return kind


def build_dataset(spec: dict):
    """Returns (train, test_or_None) for a config dataset spec."""
    if _spec_kind(spec, "dataset", "kind", "synthetic") == "synthetic":
        patterns = generate_synthetic(count=spec.get("count", 30),
                                      dim=spec.get("dim", 100),
                                      seed=spec.get("seed", 0))
        return patterns, None
    train, test = load_mnist(spec.get("directory"))
    per_train = spec.get("per_class_train")
    per_test = spec.get("per_class_test")
    if per_train or per_test:
        merged = ClassifierDataset(
            inputs=np.concatenate([train.inputs, test.inputs]),
            targets=np.concatenate([train.targets, test.targets]),
            num_classes=10)
        train, test = make_splits(merged, per_train or 6000, per_test or 1000,
                                  seed=spec.get("seed", 0))
    if spec.get("subsample"):
        train = subsample(train, spec["subsample"], seed=spec.get("seed", 0))
    return train, test


def build_model(config: ExperimentConfig):
    """Returns (model, test_dataset_or_None)."""
    kind = _spec_kind(config.model, "model", "kind", "perceptron")
    data, test = build_dataset(config.dataset)
    if kind == "perceptron":
        if not isinstance(data, PatternSet):
            raise ValueError("perceptron model needs a pattern dataset")
        return PerceptronEnergy(data), None
    if not isinstance(data, ClassifierDataset):
        raise ValueError("cross-entropy model needs a classifier dataset")
    return CrossEntropyEnergy(data), test


def build_schedule(spec: dict) -> AnnealSchedule:
    if _spec_kind(spec, "schedule", "mode", "exponential") == "exponential":
        return AnnealSchedule.exponential(
            beta_i=spec["beta_i"], beta_f=spec["beta_f"], it_max=int(spec["it_max"]),
            gamma=spec.get("gamma", 0.0), gamma_f=spec.get("gamma_f"))
    return AnnealSchedule.piecewise(spec["stages"])


@dataclass
class TrainOutcome:
    record: ResultRecord
    best_weights: np.ndarray
    chain: Chain
    model: object
    test_dataset: ClassifierDataset | None = None


def train_run(config: ExperimentConfig, seed=None, run_id: str = "train") -> TrainOutcome:
    """One full annealing run; the reported model is the replica with the
    lowest final training loss, with the replica mean reported alongside."""
    seed = config.seed if seed is None else seed
    model, test = build_model(config)
    schedule = build_schedule(config.schedule)
    chain = Chain(model, config.replicas, schedule, kernel=config.kernel, seed=seed)
    stats = chain.run()
    losses = [s.energy for s in chain.states]
    best = int(np.argmin(losses))
    best_w = chain.states[best].w.copy()
    accs = [model.accuracy(s.w) for s in chain.states]
    test_loss = test_acc = None
    if test is not None and isinstance(model, CrossEntropyEnergy):
        test_model = CrossEntropyEnergy(test)
        test_loss = test_model.energy(best_w) / test.n
        test_acc = test_model.accuracy(best_w)
    if schedule.mode == "piecewise":
        (beta_i, gamma, _), (beta_f, _, _) = schedule.stages[0], schedule.stages[-1]
    else:
        beta_i, beta_f, gamma = schedule.beta_i, schedule.beta_f, schedule.gamma_i
    record = ResultRecord(
        run_id=run_id, config_hash=config.hash(),
        seed=int(seed) if np.isscalar(seed) else [int(v) for v in seed],
        gamma=float(gamma), beta_i=float(beta_i), beta_f=float(beta_f),
        replicas=config.replicas,
        train_loss=float(losses[best]), train_accuracy=float(accs[best]),
        test_loss=test_loss, test_accuracy=test_acc,
        mean_train_loss=float(np.mean(losses)), mean_train_accuracy=float(np.mean(accs)),
        active_transitions=stats.active_transitions, iterations=stats.iterations,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat())
    return TrainOutcome(record=record, best_weights=best_w, chain=chain,
                        model=model, test_dataset=test)


@dataclass
class RobustnessPoint:
    p: float
    mean_accuracy: float
    ci_half_width: float


def robustness_eval(weights: np.ndarray, model, p_values, repetitions: int = 1000,
                    seed: int | list[int] = 0) -> list[RobustnessPoint]:
    """Accuracy after flipping exactly round(p*N) distinct random coordinates,
    averaged over repetitions with a normal-approximation 95% CI."""
    if repetitions < 1:
        raise ValueError(f"a robustness curve needs at least one repetition, got {repetitions}")
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
        half = Z95 * accs.std(ddof=1) / math.sqrt(repetitions) if repetitions > 1 else 0.0
        curve.append(RobustnessPoint(p=float(p), mean_accuracy=float(accs.mean()),
                                     ci_half_width=float(half)))
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


def _one_sweep_run(args):
    config_doc, seed_entropy, run_id = args
    config = ExperimentConfig.from_dict(config_doc)
    outcome = train_run(config, seed=seed_entropy, run_id=run_id)
    return outcome.record


def _aggregate(label, records) -> SweepPoint:
    t_acc = np.array([r.train_accuracy for r in records])
    t_loss = np.array([r.train_loss for r in records])
    test_accs = [r.test_accuracy for r in records if r.test_accuracy is not None]
    reps = len(records)
    ci = lambda arr: float(Z95 * arr.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return SweepPoint(
        label=label,
        mean_train_accuracy=float(t_acc.mean()), ci_train_accuracy=ci(t_acc),
        mean_train_loss=float(t_loss.mean()), ci_train_loss=ci(t_loss),
        mean_test_accuracy=float(np.mean(test_accs)) if test_accs else None,
        mean_active_transitions=float(np.mean([r.active_transitions for r in records])),
        records=list(records))


def _run_grid(base: ExperimentConfig, points: list[dict], repetitions: int,
              jobs: int = 1) -> list[SweepPoint]:
    """points: list of dicts of schedule/config overrides; seeds are derived
    from (base seed, point index, repetition) so order does not matter."""
    if repetitions < 1 or jobs < 1:
        raise ValueError(f"a sweep needs a repetition and a job, got {repetitions} and {jobs}")
    tasks = []
    for p_idx, overrides in enumerate(points):
        doc = base.to_dict()
        doc["schedule"] = dict(doc["schedule"], **overrides.get("schedule", {}))
        for key, value in overrides.items():
            if key != "schedule":
                doc[key] = value
        for rep in range(repetitions):
            entropy = spawn_seed(base.seed, p_idx, rep).entropy
            tasks.append((doc, entropy, f"sweep-{p_idx}-{rep}"))
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
