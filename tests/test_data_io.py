import dataclasses
import json
import re
import struct

import numpy as np
import pytest

from replica_anneal import experiments
from replica_anneal.annealer import SCHEDULE_SPECS, AnnealSchedule, check
from replica_anneal.data_io import (
    BadMagicError,
    CountMismatchError,
    ExperimentConfig,
    IdxFile,
    MAGIC_IMAGES,
    MAGIC_LABELS,
    REQUIRED,
    RESULT_COLUMNS,
    SPECS,
    ResultRecord,
    TruncatedPayloadError,
    dataset_from_idx,
    load_mnist,
    make_splits,
    parse_idx,
    read_idx,
    read_json,
    read_results,
    spec_values,
    subsample,
    write_idx,
    write_results,
)
from replica_anneal.energies import PIXEL_LEVELS, ClassifierDataset
from replica_anneal.experiments import build_dataset


def _image_bytes(images: np.ndarray) -> bytes:
    n, h, w = images.shape
    return struct.pack(">iiii", MAGIC_IMAGES, n, h, w) + images.astype(np.uint8).tobytes()


def _label_bytes(labels: np.ndarray) -> bytes:
    return struct.pack(">ii", MAGIC_LABELS, labels.size) + labels.astype(np.uint8).tobytes()


def test_parse_idx_image_header():
    # magic 00 00 08 03 -> image file with 3 dimension fields
    raw = _image_bytes(np.arange(8, dtype=np.uint8).reshape(2, 2, 2))
    assert raw[:4] == bytes([0, 0, 8, 3])
    idx = parse_idx(raw)
    assert idx.magic == MAGIC_IMAGES
    assert idx.dims == (2, 2, 2)
    assert idx.payload.tolist() == list(range(8))


def test_parse_idx_label_header():
    raw = _label_bytes(np.array([3, 1, 4]))
    assert raw[:4] == bytes([0, 0, 8, 1])
    idx = parse_idx(raw)
    assert idx.magic == MAGIC_LABELS
    assert idx.dims == (3,)


def test_parse_idx_bad_magic():
    with pytest.raises(BadMagicError):
        parse_idx(struct.pack(">i", 1234) + b"\x00" * 8)


def test_parse_idx_truncated_names_counts():
    raw = _image_bytes(np.zeros((2, 2, 2), dtype=np.uint8))[:-3]
    with pytest.raises(TruncatedPayloadError) as err:
        parse_idx(raw)
    assert "5" in str(err.value) and "8" in str(err.value)


@pytest.mark.parametrize("raw, message", [
    (b"\x00\x00\x08", "file shorter than the 4-byte magic"),
    (struct.pack(">ii", MAGIC_IMAGES, 2), "file too short for the dimension fields"),
], ids=["magic", "dims"])
def test_parse_idx_refuses_a_file_shorter_than_its_header(raw, message):
    with pytest.raises(TruncatedPayloadError, match=message):
        parse_idx(raw)


@pytest.mark.parametrize("data", [b"{", b'{"a": 1,}', b"\xff\xfe"],
                         ids=["open", "comma", "not-text"])
def test_read_json_names_the_file_it_refuses(data, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
        read_json(path)
    path.write_text('{"a": [1, 2]}')
    assert read_json(path) == {"a": [1, 2]}


def test_parse_idx_reads_dims_unsigned():
    # dims (-1, -1, 1) signed are (2^32 - 1, 2^32 - 1, 1) unsigned: their
    # signed product 1 would match the 1-byte payload
    raw = struct.pack(">iiii", MAGIC_IMAGES, -1, -1, 1) + b"\x00"
    with pytest.raises(TruncatedPayloadError) as err:
        parse_idx(raw)
    assert str((2**32 - 1) ** 2) in str(err.value)


def test_idx_round_trip(tmp_path):
    images = np.arange(2 * 2 * 2, dtype=np.uint8).reshape(2, 2, 2)
    idx = parse_idx(_image_bytes(images))
    path = tmp_path / "imgs.idx"
    write_idx(path, idx)
    back = read_idx(path)
    assert back.magic == idx.magic
    assert back.dims == idx.dims
    assert np.array_equal(back.payload, idx.payload)


def test_dataset_from_idx_scales_and_checks():
    # hand-built 2x2 fixture: pixel 255 -> 1.0, 0 -> 0.0
    images = parse_idx(_image_bytes(np.array([[[0, 255], [128, 0]]], dtype=np.uint8)))
    labels = parse_idx(_label_bytes(np.array([7])))
    ds = dataset_from_idx(images, labels)
    assert ds.inputs.shape == (1, 4)
    assert ds.inputs[0].tolist() == pytest.approx([0.0, 1.0, 128 / 255, 0.0])
    assert ds.targets.tolist() == [7]
    assert ds.num_classes == 10
    with pytest.raises(CountMismatchError):
        dataset_from_idx(images, parse_idx(_label_bytes(np.array([1, 2]))))
    with pytest.raises(BadMagicError, match="first argument is not an image file"):
        dataset_from_idx(labels, labels)
    with pytest.raises(BadMagicError, match="second argument is not a label file"):
        dataset_from_idx(images, images)


def test_dataset_from_idx_reads_each_pixel_as_its_level():
    pixels = np.arange(256, dtype=np.uint8)
    images = parse_idx(_image_bytes(pixels.reshape(16, 4, 4)))
    ds = dataset_from_idx(images, parse_idx(_label_bytes(np.zeros(16))))
    assert ds.inputs.shape == (16, 16)
    assert ds.inputs.tobytes() == (pixels.reshape(16, 16) / 255.0).tobytes()
    assert ds.inputs.tobytes() == PIXEL_LEVELS[pixels.reshape(16, 16)].tobytes()


def test_parse_idx_payload_is_a_view_of_the_file():
    raw = _image_bytes(np.arange(8, dtype=np.uint8).reshape(2, 2, 2))
    idx = parse_idx(raw)
    assert np.shares_memory(idx.payload, np.frombuffer(raw, np.uint8))
    assert idx.payload.tobytes() == raw[16:]


def test_load_mnist_missing_files_actionable(tmp_path, monkeypatch):
    monkeypatch.delenv("REPLICA_ANNEAL_DATA", raising=False)
    with pytest.raises(FileNotFoundError) as err:
        load_mnist()
    assert "REPLICA_ANNEAL_DATA" in str(err.value)
    with pytest.raises(FileNotFoundError) as err:
        load_mnist(tmp_path)
    assert "train-images-idx3-ubyte" in str(err.value)


def _toy_dataset(n_per_class=30, num_classes=3, d=4, seed=0):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    n = n_per_class * num_classes
    return ClassifierDataset(inputs=gen.random((n, d)),
                             targets=np.repeat(np.arange(num_classes), n_per_class),
                             num_classes=num_classes)


def test_make_splits_balanced_and_disjoint():
    ds = _toy_dataset()
    train, test = make_splits(ds, per_class_train=20, per_class_test=5, seed=1)
    assert train.n == 60 and test.n == 15
    for cls in range(3):
        assert np.sum(train.targets == cls) == 20
        assert np.sum(test.targets == cls) == 5
    # disjoint by content: rows drawn from distinct source indices
    train2, test2 = make_splits(ds, per_class_train=20, per_class_test=5, seed=1)
    assert np.array_equal(train.inputs, train2.inputs)
    joint = np.vstack([train.inputs, test.inputs])
    assert np.unique(joint, axis=0).shape[0] == joint.shape[0]


def test_make_splits_insufficient_samples():
    ds = _toy_dataset(n_per_class=5)
    with pytest.raises(ValueError):
        make_splits(ds, per_class_train=4, per_class_test=3)


def test_subsample_deterministic():
    ds = _toy_dataset()
    a = subsample(ds, 10, seed=4)
    b = subsample(ds, 10, seed=4)
    c = subsample(ds, 10, seed=5)
    assert a.n == 10
    assert np.array_equal(a.inputs, b.inputs)
    assert not np.array_equal(a.inputs, c.inputs)
    with pytest.raises(ValueError):
        subsample(ds, 1000)


def test_config_round_trip_and_hash(tmp_path):
    cfg = ExperimentConfig(replicas=3, seed=9)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
    back = ExperimentConfig.load(path)
    assert back == cfg
    assert back.hash() == cfg.hash()
    # hash stable under key reordering of the serialized form
    doc = json.loads(path.read_text())
    reordered = dict(reversed(list(doc.items())))
    assert ExperimentConfig.from_dict(reordered).hash() == cfg.hash()


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"not_a_field": 1})


@pytest.mark.parametrize("field, value, reason", [
    ("output", "results.csv", "unknown config fields"),
    ("schema_version", 7, "schema_version"),
    ("replicas", 0, "replicas"),
    ("replicas", 2.0, "replicas"),
    ("kernel", "bogus", "kernel"),
    ("seed", -1, "seed"),
    ("seed", [1, -2, 0], "seed"),
    ("seed", [], "seed"),
    ("schema_version", True, "schema_version"),
    ("schema_version", 1.0, "schema_version"),
])
def test_config_refuses_a_field_the_run_cannot_use(field, value, reason):
    doc = ExperimentConfig().to_dict()
    with pytest.raises(ValueError, match=reason):
        ExperimentConfig.from_dict({**doc, field: value})
    assert ExperimentConfig.from_dict({**doc, "seed": [0, 1, 1]}).seed == [0, 1, 1]


@pytest.mark.parametrize("make", [
    lambda fields: ExperimentConfig(**fields),
    lambda fields: dataclasses.replace(ExperimentConfig(), **fields),
], ids=["new", "replace"])
@pytest.mark.parametrize("fields, message", [
    ({"replicas": 2.0}, "replicas must be an integer >= 1, got 2.0"),
    ({"replicas": 0}, "replicas must be an integer >= 1, got 0"),
    ({"seed": -1}, "seed: a seed is a non-negative integer or a list of them, got -1"),
    ({"kernel": "x"}, "kernel must be one of ('two-stage', 'combined'), got 'x'"),
    ({"model": {"kind": "cross-entropy"}},
     "a cross-entropy model needs a mnist dataset, not synthetic"),
    ({"schedule": {"beta_i": 10.0, "beta_f": 1.0, "it_max": 0}}, "need beta_f >= beta_i > 0"),
], ids=["replicas-real", "replicas-0", "seed", "kernel", "model-dataset", "beta-order"])
def test_a_config_built_in_code_is_refused_when_made(make, fields, message, monkeypatch):
    """A config made in code is checked as one loaded from a document is,
    before train_run builds a dataset or a chain."""
    def never(*args, **kwargs):
        raise AssertionError("built from a refused config")

    monkeypatch.setattr(experiments, "build_dataset", never)
    monkeypatch.setattr(experiments, "Chain", never)
    with pytest.raises(ValueError, match=re.escape(message)):
        experiments.train_run(make(fields))


# a valid spec of each kind, without the keys that have defaults
_VALID = {
    ("dataset", "synthetic"): {"kind": "synthetic"},
    ("dataset", "mnist"): {"kind": "mnist"},
    ("model", "perceptron"): {"kind": "perceptron"},
    ("model", "cross-entropy"): {"kind": "cross-entropy"},
    ("schedule", "exponential"): {"beta_i": 0.1, "beta_f": 1.0, "it_max": 10},
    ("schedule", "piecewise"): {"mode": "piecewise", "stages": [[1.0, 0.0, 5]]},
}


def _apply_specs(section, spec):
    """The check that a config's spec goes through: from_dict for the
    config's own fields, the config's for a schedule, spec_values else."""
    if section == "config":
        return ExperimentConfig.from_dict({**ExperimentConfig().to_dict(), **spec})
    if section == "schedule":
        return ExperimentConfig(schedule=spec)
    return spec_values(spec, section)


@pytest.mark.parametrize("section, kind, key", [
    (section, kind, key) for (section, kind), keys in SPECS.items() for key in keys])
def test_every_spec_key_has_a_default_its_rule_takes_and_refuses_a_wrong_type(section, kind,
                                                                              key):
    rule, default = SPECS[section, kind][key]
    if default is not REQUIRED and default is not None:
        assert check(key, default, rule) == default
    kinds = [k for s, k in _VALID if s == section and (kind is None or k == kind)] or [None]
    for base in (_VALID.get((section, k), {}) for k in kinds):
        _apply_specs(section, base)
        wrong = 5 if rule == "string" else "x"
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            _apply_specs(section, {**base, key: wrong})


def test_the_schedule_rows_of_specs_are_the_table_annealschedule_applies():
    """A schedule spec is documented, refused and built by one table, whose
    keys are AnnealSchedule's fields."""
    rows = {key: keys for key, keys in SPECS.items() if key[0] == "schedule"}
    assert rows == SCHEDULE_SPECS
    assert all(rows[key] is keys for key, keys in SCHEDULE_SPECS.items())
    assert ([f.name for f in dataclasses.fields(AnnealSchedule) if f.init]
            == [key for keys in SCHEDULE_SPECS.values() for key in keys])


def test_defaults_are_applied_to_a_copy_of_the_spec():
    """A spec keeps only its own keys, so a config keeps its hash."""
    dataset = {"kind": "synthetic", "count": 3, "dim": 4}
    schedule = dict(_VALID["schedule", "exponential"])
    config = ExperimentConfig(dataset=dataset, schedule=schedule)
    digest = config.hash()
    build_dataset(dataset)
    ExperimentConfig(schedule=schedule)
    assert spec_values(dataset, "dataset")[1] == {"kind": "synthetic", "seed": 0, "count": 3,
                                                  "dim": 4}
    assert dataset == {"kind": "synthetic", "count": 3, "dim": 4}
    assert schedule == _VALID["schedule", "exponential"]
    assert config.hash() == digest


def _record(run_id="r0", test=None):
    return ResultRecord(run_id=run_id, config_hash="abc", seed=1, gamma=0.5,
                        beta_i=0.1, beta_f=1000.0, replicas=2, train_loss=1.25,
                        train_accuracy=0.875, test_loss=test, test_accuracy=test,
                        mean_train_loss=1.5, mean_train_accuracy=0.8,
                        active_transitions=120, iterations=1000, timestamp="t")


def test_results_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    # floats that 6 significant digits do not hold
    fine = dataclasses.replace(_record("r2", test=1e-300), gamma=1 / 3, beta_i=0.1 + 0.2,
                               train_loss=2.302585092994046)
    write_results([_record(), _record("r1", test=0.5), fine], path)
    back = read_results(path)
    assert back == [_record(), _record("r1", test=0.5), fine]
    assert back[0].test_loss is None


def test_results_append_safe(tmp_path):
    path = tmp_path / "out.csv"
    write_results([_record("a")], path)
    write_results([_record("b")], path)
    back = read_results(path)
    assert [r.run_id for r in back] == ["a", "b"]
    # exactly one header line
    lines = path.read_text().strip().splitlines()
    assert sum(1 for ln in lines if ln.startswith("run_id")) == 1


def test_results_append_refuses_a_different_header(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("run_id,seed,loss\nold,1,2.0\n")
    before = path.read_bytes()
    with pytest.raises(ValueError, match=r"run_id.*seed.*loss.*expected.*config_hash"):
        write_results([_record("b")], path)
    assert path.read_bytes() == before


def test_results_empty_list_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_results([], path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("run_id")


def _with_cell(line, col, text):
    """A CSV row of write_results with the cell of column col replaced by text."""
    cells = line.split(",")
    cells[RESULT_COLUMNS.index(col)] = text
    return ",".join(cells)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: ["run_id,seed,loss", "old,1,2.0"], r"has header \['run_id', 'seed', 'loss'\]"),
    (lambda lines: [*lines[:2], lines[2] + ",extra"], "line 3 has 17 cells, expected 16"),
    (lambda lines: [lines[0], "a,abc,1", *lines[2:]], "line 2 has 3 cells, expected 16"),
    (lambda lines: [lines[0], _with_cell(lines[1], "gamma", "abc"), *lines[2:]],
     "line 2 column gamma: could not convert string to float: 'abc'"),
    (lambda lines: [*lines[:2], _with_cell(lines[2], "seed", "-4")],
     "line 3 column seed: seed: a seed is a non-negative integer"),
], ids=["foreign-header", "extra-cell", "short-row", "bad-float-cell", "bad-seed-cell"])
def test_read_results_refuses_a_malformed_file(edit, message, tmp_path):
    path = tmp_path / "bad.csv"
    write_results([_record("a"), _record("b")], path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=re.escape(str(path)) + " " + message):
        read_results(path)


def test_read_results_of_an_empty_file_is_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert read_results(path) == []
