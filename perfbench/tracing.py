"""Per-layer tracer: wraps public library functions and methods from outside src/.

Each wrapped call is a span. A span's inclusive time is its duration; its self
time is that minus the time of the wrapped calls it made. Spans are kept as
aggregates in memory (calls, inclusive, self, a counter), plus every duration
for the spans that need percentiles.

A target that does not exist (a later version of the library removed or
renamed it) is recorded as absent and not wrapped. Its time then stays in the
self time of the nearest wrapped caller, which for the chain is
``annealer.step``.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class SpanStat:
    calls: int = 0
    inclusive: float = 0.0
    self_time: float = 0.0
    counter: int = 0


def _file_size(args, kwargs, result) -> int:
    path = args[0] if args else kwargs.get("path")
    return Path(path).stat().st_size


# (module, attribute path, span name, keep every duration, counter)
TARGETS = [
    ("annealer", "Chain.run", "annealer.run", False, None),
    ("annealer", "Chain.step", "annealer.step", True, None),
    ("annealer", "Chain.propose", "annealer.propose", False, None),
    ("annealer", "AnnealSchedule.beta_at", "annealer.schedule", False, None),
    ("annealer", "AnnealSchedule.gamma_at", "annealer.schedule", False, None),
    ("annealer", "interaction_delta", "annealer.interaction", False, None),
    ("annealer", "accept_combined", "annealer.accept", False, None),
    ("annealer", "accept_two_stage", "annealer.accept", False, None),
    ("spins", "ReplicaEnsemble.apply_flip", "spins.apply", False, None),
    ("energies", "PerceptronState.flip_delta", "energies.delta", False, None),
    ("energies", "PerceptronState.apply_flip", "energies.apply", False, None),
    ("energies", "CrossEntropyState.flip_delta", "energies.delta", False, None),
    ("energies", "CrossEntropyState.apply_flip", "energies.apply", False, None),
    ("energies", "PerceptronEnergy.make_state", "energies.make_state", False, None),
    ("energies", "CrossEntropyEnergy.make_state", "energies.make_state", False, None),
    ("experiments", "train_run", "experiments.train_run", False, None),
    ("experiments", "build_model", "experiments.build_model", False, None),
    # experiments imports load_mnist by name, so the name it calls is patched
    ("experiments", "load_mnist", "data_io.load_mnist", False, None),
    ("data_io", "read_idx", "data_io.read_idx", False, _file_size),
    ("data_io", "write_results", "data_io.write_results", False, None),
    ("exact", "enumerate_qbar", "exact.enumerate", False, None),
    ("exact", "build_kernel_matrix", "exact.kernel_build", False, None),
    ("exact", "stationary_and_gap", "exact.eigvalsh", False, None),
    ("exact", "compute_elevation_m", "exact.elevation", False, None),
]


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted path inside a library module, or None."""
    try:
        owner = importlib.import_module(f"replica_anneal.{module_name}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Context manager that installs the wrappers on enter and removes them on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, SpanStat] = {}
        self.samples: dict[str, list] = {}
        self.absent: list[str] = []
        self._child_time = [0.0]
        self._patched = []

    def stat(self, name: str) -> SpanStat:
        return self.stats.get(name, SpanStat())

    def wrap(self, name: str, fn, keep_samples: bool = False, counter=None):
        stat = self.stats.setdefault(name, SpanStat())
        samples = self.samples.setdefault(name, []) if keep_samples else None
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = child_time.pop()
                child_time[-1] += duration
                stat.calls += 1
                stat.inclusive += duration
                stat.self_time += duration - children
                if samples is not None:
                    samples.append(duration)
            if counter is not None:
                stat.counter += counter(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for module_name, path, name, keep, counter in self.targets:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr = found
            # class attributes are read from __dict__ so that a method defined
            # on a base class is shadowed, then removed again, not overwritten
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            if isinstance(original, (staticmethod, classmethod)):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(name, original, keep, counter))
            self._patched.append((owner, attr, original, own))
        return self

    def __exit__(self, *exc):
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()
        return False
