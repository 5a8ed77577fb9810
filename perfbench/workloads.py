"""The benchmark's workloads.

Each workload makes its inputs from the workload seed, runs one pass through
the library's public entry points (``experiments.sweep_gamma``,
``experiments.train_run`` and ``exact.*``) and checks that pass's outputs
outside the timed region. A pass repeats the same inputs, so every pass of one
run has the same trajectory digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from replica_anneal import data_io, exact, experiments, fixtures
from replica_anneal.data_io import ExperimentConfig
from replica_anneal.energies import TabulatedEnergy

from . import checks, datagen

clock = time.perf_counter


@dataclass
class PassResult:
    """One pass: its wall time, its ops and what the checks found."""

    wall_s: float
    ops: int = 0
    failed_ops: int = 0
    failures: list = field(default_factory=list)
    steps: int = 0          # chain proposals, or kernel transitions on exact-oracle
    accepted: int = 0
    rates: list = field(default_factory=list)  # steps per second of chain time, per run
    solved: int = 0
    digest: str = ""
    props: dict = field(default_factory=dict)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _record_fields(rec) -> list:
    return [rec.run_id, rec.gamma, rec.train_loss, rec.train_accuracy, rec.mean_train_loss,
            rec.test_loss, rec.test_accuracy, rec.active_transitions, rec.iterations]


def _op_failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@contextlib.contextmanager
def capture_returns(owner, attr: str, keep):
    """While the block runs, pass each return value of ``owner.attr`` through
    ``keep`` and store only what ``keep`` returns, so the caller still frees the
    value itself as it would without the wrapper. ``seconds`` is the time spent
    in ``keep``, for the caller to leave out of its timing."""
    original = getattr(owner, attr)
    captured = SimpleNamespace(kept=[], seconds=0.0)

    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        start = clock()
        captured.kept.append(keep(result))
        captured.seconds += clock() - start
        return result

    setattr(owner, attr, capturing)
    try:
        yield captured
    finally:
        setattr(owner, attr, original)


def with_it_max(config: ExperimentConfig, it_max: int) -> ExperimentConfig:
    doc = config.to_dict()
    doc["schedule"] = dict(doc["schedule"], it_max=it_max)
    return ExperimentConfig.from_dict(doc)


class PerceptronSweep:
    """sweep_gamma on the criterion-8 problem; records go through write_results."""

    name = "perceptron-sweep"
    is_chain = True
    # interpreter-bound: times are scaled to this speed of measure.interpreter_reference
    reference_s = 0.0382
    setup_repeats = 5
    gammas = (0.0, 0.5, 1.0, 2.0)

    def __init__(self, seed: int, workdir: Path, it_max: int = 20_000, count: int = 30,
                 dim: int = 100, replicas: int = 10):
        self.it_max = it_max
        self.config = ExperimentConfig(
            dataset={"kind": "synthetic", "count": count, "dim": dim, "seed": seed},
            model={"kind": "perceptron"},
            schedule={"mode": "exponential", "beta_i": 0.1, "beta_f": 1000.0,
                      "gamma": 0.0, "it_max": it_max},
            replicas=replicas, seed=seed, kernel="combined")
        self.zero_step = with_it_max(self.config, 0)
        self.results_path = Path(workdir) / "perceptron-sweep.csv"

    def setup_once(self) -> float:
        """A sweep of zero-step runs: datasets, models, chains and records."""
        start = clock()
        experiments.sweep_gamma(self.zero_step, self.gammas, repetitions=1, jobs=1)
        return clock() - start

    def _check_run(self, outcome):
        """Checked as each run returns, so that its chain is freed as it would
        be in sweep_gamma alone: (run_id, failures, chain seconds)."""
        return (outcome.record.run_id, checks.check_outcome(outcome, self.it_max),
                outcome.chain.stats.duration_seconds)

    def run_pass(self):
        self.results_path.unlink(missing_ok=True)
        error = None
        records = []
        with capture_returns(experiments, "train_run", self._check_run) as runs:
            start = clock()
            try:
                points = experiments.sweep_gamma(self.config, self.gammas, repetitions=1, jobs=1)
                records = [rec for point in points for rec in point.records]
                data_io.write_results(records, self.results_path)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                error = exc
            wall = clock() - start - runs.seconds
        return wall, (records, runs.kept, error)

    def check(self, wall, outputs, first: bool) -> PassResult:
        records, runs, error = outputs
        res = PassResult(wall_s=wall, ops=len(self.gammas))
        if error is not None:
            res.failed_ops = res.ops
            res.failures.append(_op_failure(error))
            return res
        by_id = {run_id: (msgs, chain_s) for run_id, msgs, chain_s in runs}
        rows = {row.run_id: row for row in data_io.read_results(self.results_path)}
        failed = set()
        if len(records) != res.ops:
            res.failures.append(f"{len(records)} records for {res.ops} runs")
            failed.update(range(len(records), res.ops))
        for k, rec in enumerate(records):
            msgs = []
            if rec.iterations != self.it_max:
                msgs.append(f"{rec.run_id}: {rec.iterations} of {self.it_max} steps")
            if rec.run_id in by_id:
                msgs += by_id[rec.run_id][0]
            row = rows.get(rec.run_id)
            if row is None or (row.iterations, row.active_transitions) != (
                    rec.iterations, rec.active_transitions):
                msgs.append(f"{rec.run_id}: written row does not match the record")
            if msgs:
                failed.add(k)
                res.failures += msgs
        res.failed_ops = len(failed)
        res.steps = sum(rec.iterations for rec in records)
        res.accepted = sum(rec.active_transitions for rec in records)
        if records and all(rec.run_id in by_id for rec in records):
            res.rates = [r.iterations / by_id[r.run_id][1] for r in records]
            res.props["chain_time_source"] = "RunStats.duration_seconds"
        else:
            res.rates = [res.steps / wall]
            res.props["chain_time_source"] = "pass wall time"
            res.props["replica_checks"] = "skipped: sweep_gamma did not call train_run"
        res.solved = sum(rec.train_loss == 0.0 for rec in records)
        res.props["accept_rate_by_gamma"] = {
            str(rec.gamma): rec.active_transitions / max(rec.iterations, 1) for rec in records}
        res.digest = digest([_record_fields(rec) for rec in records])
        return res

    def properties(self, passes) -> dict:
        return dict(passes[0].props)


def ce_bytes_per_delta(outcome) -> int:
    """Computed from shapes and strides, not measured.

    A flip_delta of weight (k, j) reads the input column ``inputs[:, j]``, the
    logit column ``_logits[:, k]``, the per-sample log-sum-exps ``_lse`` and
    the ``targets``. Each counts n times the bytes one of its elements pulls
    in: its stride along the sample axis, at least the item size and at most a
    64-byte cache line. 0 when any of the four is absent.
    """
    states = getattr(outcome.chain, "states", None)
    dataset = getattr(outcome.model, "dataset", None)
    if not states or dataset is None:
        return 0
    arrays = (getattr(dataset, "inputs", None), getattr(states[0], "_logits", None),
              getattr(states[0], "_lse", None), getattr(dataset, "targets", None))
    if not all(isinstance(a, np.ndarray) and a.ndim >= 1 for a in arrays):
        return 0
    return sum(dataset.n * min(64, max(a.itemsize, abs(a.strides[0]))) for a in arrays)


def ce_lse_cache_error(outcome):
    """Largest |cached - recomputed| per-sample log-sum-exp over the replicas,
    or None when a state has no ``_lse`` cache. It locates CE energy drift:
    the cache is updated additively in exp space, so rounding made while a
    sample's log-sum-exp was large grows once it falls."""
    states = getattr(outcome.chain, "states", None) or []
    worst = None
    for s in states:
        cached = getattr(s, "_lse", None)
        if not isinstance(cached, np.ndarray):
            return None
        logits = outcome.model.logits(s.w)
        top = logits.max(axis=1)
        lse = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
        worst = max(worst or 0.0, float(np.abs(cached - lse).max()))
    return worst


class CeMnist:
    """train_run with the cross-entropy model on a synthetic MNIST-shaped dataset."""

    name = "ce-mnist"
    is_chain = True
    reference_s = None
    setup_repeats = 1
    solved_accuracy = 0.5  # five times chance for K=10

    def __init__(self, seed: int, data_dir: Path, it_max: int = 5_000):
        self.it_max = it_max
        self.config = ExperimentConfig(
            dataset={"kind": "mnist", "directory": str(data_dir)},
            model={"kind": "cross-entropy"},
            schedule={"mode": "exponential", "beta_i": 1e-3, "beta_f": 1.0,
                      "gamma": 0.5, "it_max": it_max},
            replicas=3, seed=seed, kernel="combined")
        self.zero_step = with_it_max(self.config, 0)
        props_file = Path(data_dir) / datagen.PROPS_FILE
        self.dataset_props = json.loads(props_file.read_text()) if props_file.exists() else {}
        self.bytes_per_delta = None

    def setup_once(self) -> float:
        """A zero-step run: IDX parsing, the model, logit initialisation, evaluation."""
        start = clock()
        experiments.train_run(self.zero_step)
        return clock() - start

    def run_pass(self):
        start = clock()
        try:
            outcome = experiments.train_run(self.config)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outcome = exc
        return clock() - start, outcome

    def check(self, wall, outcome, first: bool) -> PassResult:
        res = PassResult(wall_s=wall, ops=1)
        if isinstance(outcome, Exception):
            res.failed_ops = 1
            res.failures.append(_op_failure(outcome))
            return res
        rec = outcome.record
        res.failures = checks.check_outcome(outcome, self.it_max, checks.CE_REL_TOL)
        if rec.test_accuracy is None or not 0.0 <= rec.test_accuracy <= 1.0:
            res.failures.append(f"test accuracy {rec.test_accuracy!r}")
        res.failed_ops = int(bool(res.failures))
        res.steps = rec.iterations
        res.accepted = rec.active_transitions
        stats = getattr(outcome.chain, "stats", None)
        res.rates = [rec.iterations / (stats.duration_seconds if stats is not None else wall)]
        res.solved = int(rec.test_accuracy is not None
                         and rec.test_accuracy >= self.solved_accuracy)
        if self.bytes_per_delta is None:
            self.bytes_per_delta = ce_bytes_per_delta(outcome)
        res.props = {
            "accept_rate": rec.active_transitions / max(rec.iterations, 1),
            "ce_drift": checks.max_relative_drift(outcome),
            "ce_lse_cache_error": ce_lse_cache_error(outcome),
            "train_accuracy": rec.train_accuracy,
            "test_accuracy": rec.test_accuracy,
        }
        res.digest = digest([_record_fields(rec),
                             hashlib.sha256(outcome.best_weights.tobytes()).hexdigest()])
        return res

    def properties(self, passes) -> dict:
        return dict(passes[0].props, dataset=self.dataset_props,
                    ce_bytes_per_delta_computed=self.bytes_per_delta or "absent",
                    ce_drift_max=max(p.props.get("ce_drift", 0.0) for p in passes),
                    ce_lse_cache_error_max=max(
                        (p.props["ce_lse_cache_error"] for p in passes
                         if p.props.get("ce_lse_cache_error") is not None), default="absent"))


def random_table(rng: np.random.Generator, n: int, high: int) -> TabulatedEnergy:
    """Random integer energies in [0, high], shifted so the minimum is 0."""
    table = rng.integers(0, high + 1, size=2**n).astype(np.float64)
    return TabulatedEnergy(table - table.min(), n=n)


class ExactOracle:
    """The exact engine on fixed-size instances; no chain runs."""

    name = "exact-oracle"
    is_chain = False
    reference_s = None
    setup_repeats = 4
    gamma = 0.5
    qbar_beta = 1.0
    dense_gammas = (0.0, 0.5, 1.0, 2.0, 3.0)
    kernels = ("combined", "two-stage")

    def __init__(self, seed: int, gap_n: int = 5, qbar_n: int = 8, elev_n: int = 6,
                 dense_y: int = 4):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 0xE4AC7])))
        # with 0/1 energies the elevation m is at most 1 (move one replica at a
        # time), so psi ~ e^{-beta m} stays far above eigvalsh's resolution on
        # the whole default beta grid; with 0..4 it can fall to ~1e-15
        self.gap = (random_table(rng, gap_n, 1), gap_n, 2)
        self.qbar = (random_table(rng, qbar_n, 4), qbar_n, 2)
        self.elev = (random_table(rng, elev_n, 4), elev_n, 2)
        self.dense = (fixtures.cluster_plus_isolated(4), 4, dense_y)
        self.beta_grid = np.linspace(2.0, 15.0, 14)  # compute_constants' default grid
        self.states = 2 ** (gap_n * 2)

    def setup_once(self) -> float:
        """The state-space tables every analysis starts from."""
        start = clock()
        for model, n, y in (self.gap, self.qbar, self.elev, self.dense):
            energy = exact.energy_table_of(model, n)
            exact.total_energy_table(energy, n, y)
            exact.fields_table(n, y)
        return clock() - start

    def run_pass(self):
        out = {}

        def op(key, fn, *args, **kwargs):
            try:
                out[key] = fn(*args, **kwargs)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out[key] = exc

        model, n, y = self.gap
        start = clock()
        for kernel in self.kernels:
            op(("constants", kernel), exact.compute_constants, model, n, y, self.gamma,
               kernel=kernel)
        op(("qbar",), exact.enumerate_qbar, *self.qbar, self.qbar_beta, self.gamma)
        op(("elevation",), exact.compute_elevation_m, *self.elev)
        dense_model, dense_n, dense_y = self.dense
        center = fixtures.dense_center_index(dense_n)
        for g in self.dense_gammas:
            op(("dense", g), exact.dense_region_mass, dense_model, dense_n, dense_y, g,
               center, 1)
        return clock() - start, out

    def _kernel_checks(self, kernel: str, psi_values) -> list[str]:
        """Kernels and qbar at both ends of the beta grid, recomputed after the
        timed pass; the pass's psi must match the gap of the checked kernel."""
        model, n, y = self.gap
        failures = []
        psi_by_beta = dict(psi_values)
        for beta in (self.beta_grid[0], self.beta_grid[-1]):
            tag = f"{kernel} kernel at beta {beta:g}"
            direct, folded, _ = exact.enumerate_qbar(model, n, y, beta, self.gamma)
            failures += checks.check_qbar(direct, folded, tag)
            k_mat = exact.build_kernel_matrix(model, n, y, beta, self.gamma, kernel)
            failures += checks.check_kernel(k_mat, folded, tag)
            _, _, psi = exact.stationary_and_gap(k_mat, folded)
            reported = psi_by_beta.get(float(beta))
            if reported is None or not abs(reported - psi) <= checks.PSI_MATCH_TOL:
                failures.append(f"{tag}: psi {reported!r} != checked gap {psi!r}")
        return failures

    def check(self, wall, out, first: bool) -> PassResult:
        res = PassResult(wall_s=wall, ops=len(out))
        summary = {}
        for key, value in out.items():
            tag = " ".join(str(k) for k in key)
            if isinstance(value, Exception):
                msgs = [f"{tag}: {_op_failure(value)}"]
            elif key[0] == "constants":
                msgs = checks.check_psi(value.psi_values, tag)
                if len(value.psi_values) != self.beta_grid.size:
                    msgs.append(f"{tag}: {len(value.psi_values)} gaps for "
                                f"{self.beta_grid.size} betas")
                if first and not msgs:
                    msgs += self._kernel_checks(key[1], value.psi_values)
                summary[tag] = [value.m, value.kappa1, value.c, value.C,
                                [psi for _, psi in value.psi_values]]
            elif key[0] == "qbar":
                direct, folded, z = value
                msgs = checks.check_qbar(direct, folded, tag)
                summary[tag] = [float(np.square(folded).sum()), int(np.argmax(folded)), z]
            elif key[0] == "elevation":
                model, n, y = self.elev
                top = float(exact.total_energy_table(model.table, n, y).max())
                msgs = [] if 0.0 <= value <= top else [f"{tag}: m = {value!r}"]
                summary[tag] = value
            else:
                msgs = checks.check_dense_mass({key[1]: value}, self.dense[2], tag)
                summary[tag] = value
            if msgs:
                res.failed_ops += 1
                res.failures += msgs
        res.solved = res.ops - res.failed_ops
        n, y = self.gap[1], self.gap[2]
        res.steps = len(self.kernels) * self.beta_grid.size * self.states * n * y
        res.rates = [res.steps / wall]
        res.props = {"elevation_m": summary.get("elevation"),
                     "gap_instance_m": [summary.get(f"constants {k}", [None])[0]
                                        for k in self.kernels]}
        res.digest = digest(json.loads(json.dumps(summary, default=float),
                                       parse_float=lambda s: f"{float(s):.12g}"))
        return res

    def properties(self, passes) -> dict:
        eigvalsh_calls = len(self.kernels) * self.beta_grid.size
        return dict(passes[0].props,
                    kernel_states=self.states,
                    kernel_bytes_computed=self.states ** 2 * 8,
                    eigvalsh_calls_per_pass=eigvalsh_calls,
                    eigvalsh_bytes_per_pass_computed=eigvalsh_calls * self.states ** 2 * 8,
                    qbar_states=2 ** (self.qbar[1] * self.qbar[2]),
                    elevation_states=2 ** (self.elev[1] * self.elev[2]),
                    dense_states=2 ** (self.dense[1] * self.dense[2]))


WORKLOADS = {cls.name: cls for cls in (PerceptronSweep, CeMnist, ExactOracle)}
