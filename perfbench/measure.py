"""Timed passes and the metrics computed from them.

Untraced (``--trace 0``): passes run until ``seconds`` have elapsed (at least
two). The first pass warms caches and is left out of the timing medians; every
pass is checked. Set-up is timed ``setup_repeats`` times before the first pass
and after each pass, so that its median samples the same stretch of time as
the passes do.

Host scaling: on a shared host the interpreter's speed drifts by up to a
factor of two over tens of seconds, while numpy- and BLAS-bound work drifts
far less. A workload whose time is interpreter overhead sets ``reference_s``;
``interpreter_reference`` is then timed at the same points as the set-ups, and
that workload's times are reported at the reference speed: a pass is scaled
by ``reference_s`` over the mean of the reference times just before and just
after it, a set-up by ``reference_s`` over the reference time next to it.
The raw times, and the unscaled medians of wall_s and steps_per_s, are kept
in the run's report.

Traced (``--trace 1``): untraced passes for half of ``seconds`` (at least two),
then passes under the tracer for the other half (at least one). The tracing
overhead is the difference of the two median pass times, and every traced pass
must reproduce the untraced trajectory digest.
"""

from __future__ import annotations

import math
import resource
import statistics
import time

import numpy as np

from .tracing import Tracer

clock = time.perf_counter


def run_passes(workload, seconds: float, min_passes: int, tracer=None, first: bool = True,
               after_pass=None):
    results = []
    start = clock()
    while len(results) < min_passes or clock() - start < seconds:
        if tracer is not None:
            with tracer:
                wall, outputs = workload.run_pass()
        else:
            wall, outputs = workload.run_pass()
        results.append(workload.check(wall, outputs, first=first and not results))
        outputs = None  # so that set-up and the next pass do not run beside this one's outputs
        if after_pass is not None:
            after_pass()
    return results


def totals(passes) -> dict:
    ops = sum(p.ops for p in passes)
    return {
        "attempted": ops,
        "failed": sum(p.failed_ops for p in passes),
        "correct": all(p.failed_ops == 0 for p in passes),
        "solved_frac": sum(p.solved for p in passes) / ops if ops else 0.0,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


REFERENCE_ITERATIONS = 3000


def interpreter_reference() -> float:
    """Seconds for fixed interpreter-bound work outside the library: a Python
    loop of small numpy and math calls, shaped like one chain step."""
    start = clock()
    margins = np.arange(-15, 15, dtype=np.int64)
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        shifted = margins - 2 * (i % 3)
        acc += float(np.sum(np.where(shifted > 0, (shifted + 1) / 2.0, 0.0)))
        acc += (i % 7) - math.log(2.0) + math.log1p(math.exp(-2.0 * (i % 5)))
    return clock() - start


def end_to_end(workload, seconds: float):
    """Returns (metrics, passes, raw) for an untraced run; raw holds the
    unscaled set-up and reference times and the unscaled wall_s and steps_per_s."""
    setups, references = [], []

    def between_passes():
        if workload.reference_s:
            references.append(statistics.median(interpreter_reference() for _ in range(5)))
        setups.append([workload.setup_once() for _ in range(workload.setup_repeats)])

    between_passes()
    passes = run_passes(workload, seconds, min_passes=2, after_pass=between_passes)
    if workload.reference_s:
        point = [workload.reference_s / r for r in references]
        factor = [2 * workload.reference_s / (a + b) for a, b in zip(references, references[1:])]
    else:
        point = [1.0] * len(setups)
        factor = [1.0] * len(passes)
    timed = range(1, len(passes))
    metrics = {
        "setup_s": (statistics.median(t * f for group, f in zip(setups, point) for t in group),
                    "s"),
        "wall_s": (statistics.median(passes[i].wall_s * factor[i] for i in timed), "s"),
        "steps_per_s": (statistics.median(r / factor[i] for i in timed for r in passes[i].rates),
                        "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "solved_frac": (totals(passes)["solved_frac"], "ratio"),
    }
    raw = {"setup_s": setups, "interpreter_reference_s": references,
           "raw_wall_s": statistics.median(passes[i].wall_s for i in timed),
           "raw_steps_per_s": statistics.median(r for i in timed for r in passes[i].rates)}
    return metrics, passes, raw


def traced(workload, seconds: float):
    """Returns (metrics, untraced passes, traced passes, tracer)."""
    plain = run_passes(workload, seconds / 2, min_passes=2)
    tracer = Tracer()
    under_trace = run_passes(workload, seconds / 2, min_passes=1, tracer=tracer, first=False)
    return layer_metrics(workload, tracer, plain, under_trace), plain, under_trace, tracer


def layer_metrics(workload, tracer: Tracer, plain, under_trace) -> dict:
    """Per-layer metrics; a layer the workload does not call reads 0."""
    stat = tracer.stat
    step = stat("annealer.step")
    chain_steps = sum(p.steps for p in under_trace) if workload.is_chain else 0
    n_steps = step.calls or chain_steps
    n_passes = len(under_trace)

    def per_call(name, scale=1e6, self_time=False):
        s = stat(name)
        return (s.self_time if self_time else s.inclusive) / s.calls * scale if s.calls else 0.0

    def per_step(name, attr="inclusive", scale=1e6):
        return getattr(stat(name), attr) / n_steps * scale if n_steps else 0.0

    def per_pass(name):
        return stat(name).inclusive / n_passes

    samples = tracer.samples.get("annealer.step") or []
    p50, p99 = (np.percentile(samples, [50, 99]) * 1e6) if samples else (0.0, 0.0)
    step_total = step.inclusive
    train = stat("experiments.train_run")
    loads = stat("data_io.load_mnist")
    traced_wall = statistics.median(p.wall_s for p in under_trace)
    plain_wall = statistics.median(p.wall_s for p in (plain[1:] or plain))
    pass_s = sum(p.wall_s for p in under_trace) / n_passes
    accepted = sum(p.accepted for p in under_trace)
    drift = max((p.props.get("ce_drift", 0.0) for p in under_trace), default=0.0)
    is_exact = not workload.is_chain
    states = getattr(workload, "states", 0)
    return {
        "annealer.step_us_p50": (float(p50), "us"),
        "annealer.step_us_p99": (float(p99), "us"),
        "annealer.step_us_mean": (per_step("annealer.step"), "us"),
        "annealer.schedule_us": (per_step("annealer.schedule"), "us"),
        "annealer.propose_us": (per_call("annealer.propose"), "us"),
        "annealer.interaction_us": (per_call("annealer.interaction"), "us"),
        "annealer.accept_us": (per_call("annealer.accept"), "us"),
        "annealer.residual_us": (per_step("annealer.step", "self_time"), "us"),
        "annealer.accept_rate": (accepted / chain_steps if chain_steps else 0.0, "ratio"),
        "spins.apply_us": (per_call("spins.apply"), "us"),
        "spins.apply_per_step": (per_step("spins.apply", "calls", 1), "ratio"),
        "energies.delta_us": (per_call("energies.delta"), "us"),
        "energies.delta_per_step": (per_step("energies.delta", "calls", 1), "ratio"),
        "energies.delta_share": (
            stat("energies.delta").inclusive / step_total if step_total else 0.0, "ratio"),
        "energies.apply_us": (per_call("energies.apply", self_time=True), "us"),
        "energies.apply_per_step": (per_step("energies.apply", "calls", 1), "ratio"),
        "energies.ce_bytes_per_delta": (getattr(workload, "bytes_per_delta", None) or 0, "B"),
        "energies.ce_drift": (drift, "ratio"),
        "energies.make_state_s": (per_call("energies.make_state", 1), "s"),
        "experiments.build_model_s": (per_call("experiments.build_model", 1), "s"),
        "data_io.load_mnist_s": (per_call("data_io.load_mnist", 1), "s"),
        "data_io.bytes_read": (stat("data_io.read_idx").counter / loads.calls
                               if loads.calls else 0, "B"),
        "experiments.overhead_s": (
            (train.inclusive - stat("annealer.run").inclusive) / train.calls
            if train.calls else 0.0, "s"),
        "data_io.write_results_s": (per_call("data_io.write_results", 1), "s"),
        "exact.enumerate_s": (per_pass("exact.enumerate"), "s"),
        "exact.kernel_build_s": (per_pass("exact.kernel_build"), "s"),
        "exact.eigvalsh_s": (per_pass("exact.eigvalsh"), "s"),
        "exact.elevation_s": (per_pass("exact.elevation"), "s"),
        "exact.pass_s": (pass_s if is_exact else 0.0, "s"),
        "exact.eigvalsh_share": (per_pass("exact.eigvalsh") / pass_s if is_exact else 0.0,
                                 "ratio"),
        "exact.states": (states, "count"),
        "exact.kernel_bytes": (states * states * 8, "B"),
        "trace.untraced_wall_s": (plain_wall, "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "trace.digest_match": (int(all(p.digest == plain[0].digest for p in under_trace)),
                               "bool"),
        "trace.absent": (len(tracer.absent), "count"),
    }
