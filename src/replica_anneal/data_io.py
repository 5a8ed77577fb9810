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

from .annealer import make_rng
from .energies import ClassifierDataset

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
    payload = data[header:]
    if len(payload) != expected:
        raise TruncatedPayloadError(
            f"payload has {len(payload)} bytes, expected {expected} from dims {dims}")
    return IdxFile(magic=magic, dims=dims, payload=np.frombuffer(payload, dtype=np.uint8))


def read_idx(path) -> IdxFile:
    return parse_idx(Path(path).read_bytes())


def write_idx(path, idx: IdxFile) -> None:
    """Inverse of read_idx, mainly for fixtures and round-trip tests."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(">i", idx.magic))
        fh.write(struct.pack(f">{len(idx.dims)}I", *idx.dims))
        fh.write(np.asarray(idx.payload, dtype=np.uint8).tobytes())


def dataset_from_idx(images: IdxFile, labels: IdxFile, num_classes: int = 10) -> ClassifierDataset:
    if images.magic != MAGIC_IMAGES:
        raise BadMagicError("first argument is not an image file")
    if labels.magic != MAGIC_LABELS:
        raise BadMagicError("second argument is not a label file")
    if images.dims[0] != labels.dims[0]:
        raise CountMismatchError(
            f"{images.dims[0]} images but {labels.dims[0]} labels")
    n = images.dims[0]
    d = int(np.prod(images.dims[1:]))
    inputs = images.payload.reshape(n, d).astype(np.float64) / 255.0
    return ClassifierDataset(inputs=inputs, targets=labels.payload.astype(np.int64),
                             num_classes=num_classes)


def mnist_dir() -> Path | None:
    value = os.environ.get(DATA_DIR_ENV)
    return Path(value) if value else None


def load_mnist(directory=None) -> tuple[ClassifierDataset, ClassifierDataset]:
    """Load the standard MNIST train/test IDX files from a directory."""
    directory = Path(directory) if directory else mnist_dir()
    if directory is None:
        raise FileNotFoundError(
            f"no dataset directory: set {DATA_DIR_ENV} or pass a path; expected files "
            + ", ".join(MNIST_FILES.values()))
    missing = [name for name in MNIST_FILES.values() if not (directory / name).exists()]
    if missing:
        raise FileNotFoundError(
            f"missing MNIST files in {directory}: {', '.join(missing)} "
            "(download the standard IDX files; no auto-download is performed)")
    train = dataset_from_idx(read_idx(directory / MNIST_FILES["train_images"]),
                             read_idx(directory / MNIST_FILES["train_labels"]))
    test = dataset_from_idx(read_idx(directory / MNIST_FILES["test_images"]),
                            read_idx(directory / MNIST_FILES["test_labels"]))
    return train, test


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


@dataclass
class ExperimentConfig:
    """One JSON-serializable document describing a run."""

    dataset: dict = field(default_factory=lambda: {"kind": "synthetic", "count": 30, "dim": 100})
    model: dict = field(default_factory=lambda: {"kind": "perceptron"})
    schedule: dict = field(default_factory=lambda: {
        "mode": "exponential", "beta_i": 0.1, "beta_f": 1000.0,
        "gamma": 0.0, "it_max": 20000})
    replicas: int = 1
    seed: int = 0
    kernel: str = "combined"
    output: str | None = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    def hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


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
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_results(records, path, fmt: str = "csv") -> None:
    path = Path(path)
    if fmt == "csv":
        new_file = not path.exists() or path.stat().st_size == 0
        if not new_file:
            with open(path, newline="") as fh:
                header = next(csv.reader(fh), [])
            if header != RESULT_COLUMNS:
                raise ValueError(f"{path} has header {header}, expected {RESULT_COLUMNS}")
        with open(path, "a", newline="") as fh:
            writer = csv.writer(fh)
            if new_file:
                writer.writerow(RESULT_COLUMNS)
            for rec in records:
                writer.writerow([_fmt(getattr(rec, col)) for col in RESULT_COLUMNS])
    elif fmt == "jsonl":
        with open(path, "a") as fh:
            for rec in records:
                doc = dataclasses.asdict(rec)
                doc = {k: (round(v, 10) if isinstance(v, float) else v) for k, v in doc.items()}
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _parse_seed(text: str):
    return [int(v) for v in text.split("/")] if "/" in text else int(text)


# a CSV column's parser, float where not listed; the optional columns read "" as None
_PARSERS = {"run_id": str, "config_hash": str, "seed": _parse_seed, "replicas": int,
            "active_transitions": int, "iterations": int, "timestamp": str}
_OPTIONAL = ("test_loss", "test_accuracy", "mean_train_loss", "mean_train_accuracy")


def read_results(path, fmt: str = "csv"):
    path = Path(path)
    records = []
    if fmt == "csv":
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                records.append(ResultRecord(**{
                    col: None if col in _OPTIONAL and not text else _PARSERS.get(col, float)(text)
                    for col, text in row.items()}))
    elif fmt == "jsonl":
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    records.append(ResultRecord(**json.loads(line)))
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return records
