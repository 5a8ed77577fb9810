import json
import struct

import numpy as np
import pytest

from replica_anneal.data_io import (
    BadMagicError,
    CountMismatchError,
    ExperimentConfig,
    IdxFile,
    MAGIC_IMAGES,
    MAGIC_LABELS,
    ResultRecord,
    TruncatedPayloadError,
    dataset_from_idx,
    load_mnist,
    make_splits,
    parse_idx,
    read_idx,
    read_results,
    subsample,
    write_idx,
    write_results,
)
from replica_anneal.energies import ClassifierDataset


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
    with pytest.raises(CountMismatchError):
        dataset_from_idx(images, parse_idx(_label_bytes(np.array([1, 2]))))
    with pytest.raises(BadMagicError):
        dataset_from_idx(labels, labels)


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
    cfg.save(path)
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


def _record(run_id="r0", test=None):
    return ResultRecord(run_id=run_id, config_hash="abc", seed=1, gamma=0.5,
                        beta_i=0.1, beta_f=1000.0, replicas=2, train_loss=1.25,
                        train_accuracy=0.875, test_loss=test, test_accuracy=test,
                        mean_train_loss=1.5, mean_train_accuracy=0.8,
                        active_transitions=120, iterations=1000, timestamp="t")


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_results_round_trip(tmp_path, fmt):
    path = tmp_path / f"out.{fmt}"
    write_results([_record(), _record("r1", test=0.5)], path, fmt=fmt)
    back = read_results(path, fmt=fmt)
    assert back == [_record(), _record("r1", test=0.5)]
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
