"""Dataset ingestion (MNIST IDX, synthetic), splits, configs, result files."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .annealer import KERNELS, REQUIRED, SCHEDULE_SPECS, AnnealSchedule, check, make_rng
from .energies import ClassifierDataset, CrossEntropyEnergy, PerceptronEnergy

MAGIC_IMAGES = 2051
MAGIC_LABELS = 2049

DATA_DIR_ENV = "REPLICA_ANNEAL_DATA"

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


class IdxError(ValueError):
    pass


class BadMagicError(IdxError):
    pass


class TruncatedPayloadError(IdxError):
    pass


class CountMismatchError(IdxError):
    pass


@dataclass
class IdxFile:
    magic: int
    dims: tuple
    payload: np.ndarray  # flat uint8


def parse_idx(data: bytes) -> IdxFile:
    if len(data) < 4:
        raise TruncatedPayloadError("file shorter than the 4-byte magic")
    (magic,) = struct.unpack(">i", data[:4])
    if magic == MAGIC_IMAGES:
        ndim = 3
    elif magic == MAGIC_LABELS:
        ndim = 1
    else:
        raise BadMagicError(f"magic {magic} is neither {MAGIC_IMAGES} (images) nor {MAGIC_LABELS} (labels)")
    header = 4 + 4 * ndim
    if len(data) < header:
        raise TruncatedPayloadError("file too short for the dimension fields")
    # unsigned; math.prod, because np.prod would wrap in int64 for dims near 2^32
    dims = struct.unpack(f">{ndim}I", data[4:header])
    expected = math.prod(dims)
    if len(data) - header != expected:
        raise TruncatedPayloadError(
            f"payload has {len(data) - header} bytes, expected {expected} from dims {dims}")
    # a view of data, not a copy of it
    return IdxFile(magic=magic, dims=dims, payload=np.frombuffer(data, np.uint8, offset=header))


def read_idx(path) -> IdxFile:
    """The IDX file at path; an IdxError of parse_idx names the file."""
    try:
        return parse_idx(Path(path).read_bytes())
    except IdxError as err:
        raise type(err)(f"{path}: {err}") from None


def read_json(path):
    """The JSON document in a file; a ValueError names a file that does not parse."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def write_idx(path, idx: IdxFile) -> None:
    """Inverse of read_idx, mainly for fixtures and round-trip tests."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(">i", idx.magic))
        fh.write(struct.pack(f">{len(idx.dims)}I", *idx.dims))
        fh.write(np.asarray(idx.payload, dtype=np.uint8).tobytes())


def dataset_from_idx(images: IdxFile, labels: IdxFile) -> ClassifierDataset:
    """The dataset of an MNIST image file and label file: the ten digit classes."""
    if images.magic != MAGIC_IMAGES:
        raise BadMagicError("first argument is not an image file")
    if labels.magic != MAGIC_LABELS:
        raise BadMagicError("second argument is not a label file")
    if images.dims[0] != labels.dims[0]:
        raise CountMismatchError(
            f"{images.dims[0]} images but {labels.dims[0]} labels")
    n = images.dims[0]
    d = int(np.prod(images.dims[1:]))
    # pixel k is k / 255, bit for bit energies.PIXEL_LEVELS[k]; one float64 array is made
    inputs = images.payload.reshape(n, d) / 255.0
    return ClassifierDataset(inputs=inputs, targets=labels.payload.astype(np.int64),
                             num_classes=10)


def mnist_dir() -> Path | None:
    value = os.environ.get(DATA_DIR_ENV)
    return Path(value) if value else None


def mnist_paths(directory=None) -> dict[str, Path]:
    """The resolved path of each MNIST IDX file, by MNIST_FILES key, in a
    directory or, by default, the one named by REPLICA_ANNEAL_DATA; raises
    FileNotFoundError if there is no directory or a file is missing."""
    directory = Path(directory) if directory else mnist_dir()
    if directory is None:
        raise FileNotFoundError(
            f"no dataset directory: set {DATA_DIR_ENV} or pass a path; expected files "
            + ", ".join(MNIST_FILES.values()))
    paths = {key: (directory / name).resolve() for key, name in MNIST_FILES.items()}
    missing = [MNIST_FILES[key] for key, path in paths.items() if not path.exists()]
    if missing:
        raise FileNotFoundError(
            f"missing MNIST files in {directory}: {', '.join(missing)} "
            "(download the standard IDX files; no auto-download is performed)")
    return paths


def load_mnist(directory=None) -> tuple[ClassifierDataset, ClassifierDataset]:
    """Load the standard MNIST train/test IDX files from a directory; an
    IdxError names the file or the pair of files it refuses."""
    paths, sets = mnist_paths(directory), []
    for split in ("train", "test"):
        images, labels = paths[f"{split}_images"], paths[f"{split}_labels"]
        pair = read_idx(images), read_idx(labels)
        try:
            sets.append(dataset_from_idx(*pair))
        except IdxError as err:
            raise type(err)(f"{images}, {labels}: {err}") from None
    return tuple(sets)


def make_splits(dataset: ClassifierDataset, per_class_train: int, per_class_test: int,
                seed: int = 0):
    """Disjoint per-class-balanced (train, test) splits, deterministic per seed."""
    rng = make_rng(seed)
    train_idx, test_idx = [], []
    for cls in range(dataset.num_classes):
        members = np.flatnonzero(dataset.targets == cls)
        need = per_class_train + per_class_test
        if members.size < need:
            raise ValueError(
                f"class {cls} has {members.size} samples, need {need}")
        perm = rng.permutation(members)
        train_idx.append(perm[:per_class_train])
        test_idx.append(perm[per_class_train:need])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    make = lambda idx: ClassifierDataset(inputs=dataset.inputs[idx],
                                         targets=dataset.targets[idx],
                                         num_classes=dataset.num_classes)
    return make(train_idx), make(test_idx)


def subsample(dataset: ClassifierDataset, count: int, seed: int = 0) -> ClassifierDataset:
    """Uniform subsample to a target size, deterministic per seed."""
    if count > dataset.n:
        raise ValueError(f"cannot subsample {count} from {dataset.n}")
    idx = np.sort(make_rng(seed).choice(dataset.n, size=count, replace=False))
    return ClassifierDataset(inputs=dataset.inputs[idx], targets=dataset.targets[idx],
                             num_classes=dataset.num_classes)


SCHEMA_VERSION = 1


def _refuse_edit(self, *args, **kwargs):
    raise TypeError("a config's specs are read-only; dataclasses.replace makes a new config")


class _ReadOnlyDict(dict):  # an ExperimentConfig's spec
    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse_edit
    __reduce__ = lambda self: (type(self), (dict(self),))


class _ReadOnlyList(list):  # a list in an ExperimentConfig's spec
    __setitem__ = __delitem__ = __iadd__ = __imul__ = append = extend = insert = _refuse_edit
    pop = remove = clear = sort = reverse = _refuse_edit
    __reduce__ = lambda self: (type(self), (list(self),))


def _copy(value, as_dict=dict, as_list=list):
    """A deep copy of a spec value whose dicts are as_dict and lists as_list."""
    if isinstance(value, dict):
        return as_dict({k: _copy(v, as_dict, as_list) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        items = (_copy(v, as_dict, as_list) for v in value)
        return as_list(items) if isinstance(value, list) else tuple(items)
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One JSON-serializable document describing a run. Made in code, from a
    document or by dataclasses.replace, it refuses with a ValueError a
    schema_version other than the integer SCHEMA_VERSION, a field or spec that
    SPECS refuses, a model that does not read the dataset's kind and a schedule
    that AnnealSchedule refuses. It keeps read-only copies of the specs and of
    a seed list, which raise a TypeError on a change, and that AnnealSchedule
    as annealing, not a field."""

    dataset: dict = field(default_factory=lambda: {"kind": "synthetic", "count": 30, "dim": 100})
    model: dict = field(default_factory=lambda: {"kind": "perceptron"})
    schedule: dict = field(default_factory=lambda: {
        "mode": "exponential", "beta_i": 0.1, "beta_f": 1000.0,
        "gamma": 0.0, "it_max": 20000})
    replicas: int = 1
    seed: int = 0
    kernel: str = "combined"
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if type(self.schema_version) is not int or self.schema_version != SCHEMA_VERSION:
            raise ValueError(f"schema_version {self.schema_version!r} is not {SCHEMA_VERSION}")
        for name, (rule, _) in SPECS["config", None].items():
            check(name, getattr(self, name), rule)
        dataset, _ = spec_values(self.dataset, "dataset")
        model, _ = spec_values(self.model, "model")
        _, reads = MODELS[model]
        if reads != dataset:
            raise ValueError(f"a {model} model needs a {reads} dataset, not {dataset}")
        annealing = AnnealSchedule(**spec_values(self.schedule, "schedule")[1])
        vars(self).update({k: _copy(getattr(self, k), _ReadOnlyDict, _ReadOnlyList)
                           for k in ("dataset", "model", "schedule", "seed")}, annealing=annealing)

    def _fields(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def to_dict(self) -> dict:
        return _copy(self._fields())

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """The config of a document; a ValueError refuses a document that is not
        an object, an unknown field and a config that cls refuses."""
        if not isinstance(doc, dict):
            raise ValueError(f"a config must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path))

    def hash(self) -> str:
        canonical = json.dumps(self._fields(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# each model kind's energy class and dataset kind; only mnist has a test set
MODELS = {"perceptron": (PerceptronEnergy, "synthetic"),
          "cross-entropy": (CrossEntropyEnergy, "mnist")}

# Every key a config reads, with its rule (see annealer.check) and default:
# the config's own fields under ("config", None); for each spec section, the
# keys every spec of it reads under (section, None), the key that names its
# kind first, and the further keys of a kind, if any, under (section, kind).
# AnnealSchedule applies the schedule's rows, annealer.SCHEDULE_SPECS.
SPECS = {
    ("config", None): {"replicas": ("integer >= 1", ExperimentConfig.replicas),
                       "seed": ("seed", ExperimentConfig.seed),
                       "kernel": (KERNELS, ExperimentConfig.kernel)},
    ("dataset", None): {"kind": (("synthetic", "mnist"), "synthetic"), "seed": ("seed", 0)},
    ("dataset", "synthetic"): {"count": ("integer >= 1", 30), "dim": ("integer >= 1", 100)},
    ("dataset", "mnist"): {"directory": ("string", None), "per_class_train": ("integer >= 1", None),
                           "per_class_test": ("integer >= 1", None),
                           "subsample": ("integer >= 1", None)},
    ("model", None): {"kind": (tuple(MODELS), "perceptron")},
    **SCHEDULE_SPECS,
}


def spec_values(spec: dict, section: str) -> tuple[str, dict]:
    """(kind, values) of a dataset, model or schedule spec, values a new dict
    of each key the kind reads: the spec's value, else the default. A
    ValueError refuses a spec that SPECS does not allow; a schedule's values
    are left to AnnealSchedule, which checks them by the same rules."""
    if not isinstance(spec, dict):
        raise ValueError(f"the {section} spec must be an object, got {spec!r}")
    key, (kinds, default) = next(iter(SPECS[section, None].items()))
    kind = spec.get(key, default)
    if kind not in kinds:
        raise ValueError(f"unknown {section} {key} {kind!r}")
    rules = SPECS[section, None] | SPECS.get((section, kind), {})
    unknown = spec.keys() - rules.keys()
    if unknown:
        raise ValueError(f"{section} {key} {kind!r} does not read the keys {sorted(unknown)}")
    missing = [name for name, (_, value) in rules.items() if value is REQUIRED and name not in spec]
    if missing:
        raise ValueError(f"{section} {key} {kind!r} needs the keys {missing}")
    for name, value in spec.items():
        if name != key and section != "schedule":
            check(f"{section} {name}", value, rules[name][0])
    return kind, {name: spec.get(name, value) for name, (_, value) in rules.items()}


@dataclass
class ResultRecord:
    run_id: str
    config_hash: str
    seed: int | list[int]  # a scalar seed, or SeedSequence entropy [base, point, rep]
    gamma: float
    beta_i: float
    beta_f: float
    replicas: int
    train_loss: float
    train_accuracy: float
    test_loss: float | None
    test_accuracy: float | None
    mean_train_loss: float | None
    mean_train_accuracy: float | None
    active_transitions: int
    iterations: int
    timestamp: str = ""


RESULT_COLUMNS = [f.name for f in dataclasses.fields(ResultRecord)]


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, list):  # seed entropy, written base/point/rep
        return "/".join(str(v) for v in value)
    return str(value)  # a float's str is its repr: the shortest text that reads back as it


def _check_header(header: list, path) -> None:
    if header != RESULT_COLUMNS:
        raise ValueError(f"{path} has header {header}, expected {RESULT_COLUMNS}")


def check_results_path(path) -> bool:
    """Whether write_results would start the file at path, not append to it; an
    OSError refuses a path in no directory, a ValueError another header."""
    path = Path(path)
    if not path.parent.is_dir():
        raise FileNotFoundError(f"no directory {path.parent} for {path}")
    if not path.exists() or path.stat().st_size == 0:
        return True
    with open(path, newline="") as fh:
        _check_header(next(csv.reader(fh), []), path)
    return False


def write_results(records, path) -> None:
    new_file = check_results_path(path)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(RESULT_COLUMNS)
        for rec in records:
            writer.writerow([_fmt(getattr(rec, col)) for col in RESULT_COLUMNS])


def _parse_seed(text: str):
    return check("seed", [int(v) for v in text.split("/")] if "/" in text else int(text), "seed")


# a CSV column's parser, float where not listed; the optional columns read "" as None
_PARSERS = {"run_id": str, "config_hash": str, "seed": _parse_seed, "replicas": int,
            "active_transitions": int, "iterations": int, "timestamp": str}
_OPTIONAL = ("test_loss", "test_accuracy", "mean_train_loss", "mean_train_accuracy")


def read_results(path) -> list[ResultRecord]:
    """The records of a results file, none in an empty one. A ValueError names the
    file of a header other than RESULT_COLUMNS, also the line of a row of another
    length, and also the column of a cell that does not parse."""
    records = []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        _check_header(next(rows, RESULT_COLUMNS), path)
        for row in filter(None, rows):  # blank lines hold no record
            if len(row) != len(RESULT_COLUMNS):
                raise ValueError(f"{path} line {rows.line_num} has {len(row)} cells, "
                                 f"expected {len(RESULT_COLUMNS)}")
            cells = {}
            for col, text in zip(RESULT_COLUMNS, row):
                try:
                    cells[col] = (None if col in _OPTIONAL and not text
                                  else _PARSERS.get(col, float)(text))
                except ValueError as err:
                    raise ValueError(f"{path} line {rows.line_num} column {col}: {err}") from None
            records.append(ResultRecord(**cells))
    return records
