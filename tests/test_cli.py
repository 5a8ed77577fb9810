import csv
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from replica_anneal import cli, experiments
from replica_anneal.data_io import MNIST_FILES, REQUIRED, SPECS, ExperimentConfig, read_results

from conftest import write_mnist


def _write_config(tmp_path, **overrides):
    base = dict(
        dataset={"kind": "synthetic", "count": 10, "dim": 20, "seed": 1},
        model={"kind": "perceptron"},
        schedule={"mode": "exponential", "beta_i": 0.1, "beta_f": 100.0,
                  "gamma": 0.0, "it_max": 1500},
        replicas=2, seed=0)
    doc = {**ExperimentConfig().to_dict(), **base, **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def test_train_writes_csv(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "results.csv"
    code = cli.main(["train", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    records = read_results(out)
    assert len(records) == 1
    assert records[0].iterations == 1500


def test_train_stdout_json(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc["iterations"] == 1500


def test_train_rerun_identical_rows(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["train", "--config", str(cfg), "--out", str(out1)])
    cli.main(["train", "--config", str(cfg), "--out", str(out2)])
    strip = lambda p: [",".join(ln.split(",")[:-1]) for ln in p.read_text().splitlines()]
    assert strip(out1) == strip(out2)  # identical minus the timestamp column


def test_desk_scale_cap(tmp_path, capsys):
    for schedule in ({"mode": "exponential", "beta_i": 0.1, "beta_f": 100.0, "gamma": 0.0,
                      "it_max": 300_000},
                     {"mode": "piecewise", "stages": [[1.0, 0.0, 150_000]]}):
        cfg = _write_config(tmp_path, schedule=schedule)
        with pytest.raises(SystemExit) as err:
            cli.main(["train", "--config", str(cfg)])
        assert err.value.code == 2
        out = capsys.readouterr().err
        assert out.startswith("replica-anneal train: it_max ") and "--full-scale" in out


@pytest.mark.parametrize("argv", [["train", "--jobs", "2"], ["robustness", "--out", "r.csv"],
                                  ["train", "--format", "jsonl"]])
def test_commands_refuse_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_seed_and_kernel_overrides(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    cli.main(["train", "--config", str(cfg), "--seed", "5", "--kernel", "two-stage"])
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc["seed"] == 5


def test_sweep_gamma_rows_per_point(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep-gamma", "--config", str(cfg), "--gamma", "0.0", "0.5",
                     "--repetitions", "2", "--out", str(out)])
    assert code == 0
    records = read_results(out)
    assert len(records) == 4  # one row per (gamma, repetition)
    assert sorted({r.gamma for r in records}) == [0.0, 0.5]


def test_train_reruns_a_sweep_row_from_its_seed(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    sweep_out, train_out = tmp_path / "sweep.csv", tmp_path / "train.csv"
    cli.main(["sweep-gamma", "--config", str(cfg), "--gamma", "0.0", "0.5",
              "--repetitions", "2", "--out", str(sweep_out)])
    with open(sweep_out, newline="") as fh:
        row = list(csv.DictReader(fh))[3]
    assert row["seed"] == "0/1/1"
    schedule = dict(ExperimentConfig.load(cfg).schedule, gamma=float(row["gamma"]))
    rerun_cfg = _write_config(tmp_path, schedule=schedule)
    assert cli.main(["train", "--config", str(rerun_cfg), "--seed", row["seed"],
                     "--out", str(train_out)]) == 0
    with open(train_out, newline="") as fh:
        (rerun,) = list(csv.DictReader(fh))
    for column in ("seed", "train_loss", "active_transitions"):
        assert rerun[column] == row[column]


def test_robustness_prints_curve(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code = cli.main(["robustness", "--config", str(cfg), "--p", "0.0", "0.1",
                     "--repetitions", "20"])
    assert code == 0
    lines = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
    assert [doc["p"] for doc in lines] == [0.0, 0.1]
    assert lines[0]["ci_half_width"] == 0.0


def test_robustness_takes_a_sweep_row_seed(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code = cli.main(["robustness", "--config", str(cfg), "--seed", "0/1/1", "--p", "0.1",
                     "--repetitions", "20"])
    assert code == 0
    (doc,) = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
    assert doc["p"] == 0.1 and 0.0 <= doc["mean_accuracy"] <= 1.0


def test_exact_verify_selected_suites(capsys):
    code = cli.main(["exact-verify", "--suite", "enumeration", "detailed-balance"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert [s["suite"] for s in report["suites"]] == ["enumeration", "detailed-balance"]


def test_exact_verify_dense_region_suite(capsys):
    code = cli.main(["exact-verify", "--suite", "dense-region"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    (suite,) = report["suites"]
    assert suite["suite"] == "dense-region" and suite["passed"] is True
    assert suite["max_closed_form_deviation"] <= 1e-10
    assert abs(suite["limit_mass"] - 5 / 6) <= 1e-6


def test_validate_schedule_azencott_passes(capsys):
    code = cli.main(["validate-schedule", "--azencott", "--horizon", "2000",
                     "--m", "1.0", "--kappa1", str(math.e)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "PASS"


def test_validate_schedule_stages_file_fails(tmp_path, capsys):
    stages = [[math.log(k), 1.0] for k in range(1, 2001)]
    path = tmp_path / "stages.json"
    path.write_text(json.dumps(stages))
    code = cli.main(["validate-schedule", "--stages-file", str(path), "--m", "1.0",
                     "--kappa1", str(math.e)])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "FAIL"


@pytest.mark.parametrize("stages, message", [
    ([], "at least two stages, got 0"),
    ([[1.0, 5]], "at least two stages, got 1"),
    ([[1.0, 5], [math.nan, 5]], "finite"),
    ([[1.0, 5], [2.0]], "not enough values to unpack"),
    ([1.0, 2.0], "each stage must be a [beta, T] pair"),
    ([["1", "5"], [True, "5"]], "stage 0 beta must be a finite real number, got '1'"),
    ([[1.0, 5], [True, 5]], "stage 1 beta must be a finite real number, got True"),
    ([[1.0, "5"], [2.0, 5]], "stage 0 T must be a finite real number, got '5'"),
    ([[1.0, 5], [2.0, False]], "stage 1 T must be a finite real number, got False"),
    ([[1.0, 5], [2.0, 0.5]], "stage 1 T must be >= 1, got 0.5"),
], ids=["empty", "one-stage", "nan-beta", "short-stage", "bare-number", "strings",
        "bool-beta", "string-t", "bool-t", "short-t"])
def test_validate_schedule_reports_an_unjudgeable_schedule(stages, message, tmp_path, capsys):
    """Exit code 2 and one line on stderr, no traceback; code 1 stays a FAIL
    verdict."""
    path = tmp_path / "stages.json"
    path.write_text(json.dumps(stages))
    with pytest.raises(SystemExit) as err:
        cli.main(["validate-schedule", "--stages-file", str(path), "--m", "1.0"])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("replica-anneal validate-schedule: ") and message in out.err
    assert "Traceback" not in out.err


def test_validate_schedule_names_a_malformed_stages_file(tmp_path, capsys):
    path = _text_file(tmp_path / "stages.json", "{")
    with pytest.raises(SystemExit) as err:
        cli.main(["validate-schedule", "--stages-file", str(path), "--m", "1.0"])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"replica-anneal validate-schedule: {path}: Expecting property name")


def test_validate_schedule_reports_a_missing_stages_file(tmp_path, capsys):
    path = tmp_path / "missing.json"
    with pytest.raises(SystemExit) as err:
        cli.main(["validate-schedule", "--stages-file", str(path), "--m", "1.0"])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("replica-anneal validate-schedule: [Errno 2] No such file or directory: "
                       f"'{path}'\n")


@pytest.mark.parametrize("horizon", ["0", "-5"])
def test_validate_schedule_refuses_a_non_positive_horizon(horizon, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["validate-schedule", "--azencott", "--horizon", horizon, "--m", "1.0"])
    assert err.value.code == 2
    assert "--horizon: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["sweep-beta", "--beta-i", "0.1", "--beta-f", "1.0", "--repetitions", "0"], "--repetitions"),
    (["sweep-beta", "--beta-i", "0.1", "--beta-f", "1.0", "--jobs", "-1"], "--jobs"),
    (["sweep-gamma", "--gamma", "0.5", "--jobs", "0"], "--jobs"),
    (["sweep-gamma", "--gamma", "0.5", "--repetitions", "-3"], "--repetitions"),
    (["robustness", "--repetitions", "0"], "--repetitions"),
])
def test_counts_are_refused_before_any_run(argv, flag, monkeypatch, capsys):
    _refuse_runs(monkeypatch)
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert f"{flag}: must be a positive integer" in capsys.readouterr().err


_SEED_SAYS = "--seed: must be a non-negative integer or a sweep row's base/point/rep, got "


def _refuse_runs(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran before the arguments were checked")

    for name in ("train_run", "sweep_beta", "sweep_gamma", "robustness_eval"):
        monkeypatch.setattr(cli, name, never)


@pytest.mark.parametrize("argv, message", [
    (["robustness", "--p", "1.5"], "--p: must be a probability in [0, 1], got 1.5"),
    (["robustness", "--p", "0.1", "-0.2"], "--p: must be a probability in [0, 1], got -0.2"),
    (["robustness", "--p", "nan"], "--p: must be a probability in [0, 1], got nan"),
    (["robustness", "--p", "inf"], "--p: must be a probability in [0, 1], got inf"),
    (["train", "--seed", "-1"], _SEED_SAYS + "-1"),
    (["robustness", "--seed", "1/-2/0"], _SEED_SAYS + "1/-2/0"),
    (["sweep-gamma", "--gamma", "0.5", "--seed", "-3"], _SEED_SAYS + "-3"),
    (["train", "--seed", "x"], _SEED_SAYS + "x"),
], ids=["p-above", "p-negative", "p-nan", "p-inf", "seed", "seed-entry", "seed-sweep",
        "seed-text"])
def test_values_out_of_range_are_refused_before_any_run(argv, message, monkeypatch, capsys):
    _refuse_runs(monkeypatch)
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def _text_file(path, text):
    path.write_text(text)
    return path


def _mnist_config(tmp_path, **spec):
    """A cross-entropy config over an mnist spec with these keys; no IDX file
    is read before the run."""
    return _write_config(tmp_path, dataset={"kind": "mnist", **spec},
                         model={"kind": "cross-entropy"})


def _idx_files_with(tmp_path, key, edit):
    """A directory of valid MNIST IDX files but the one under key, which edit rewrites."""
    directory = tmp_path / "idx"
    directory.mkdir()
    write_mnist(directory)
    path = directory / MNIST_FILES[key]
    path.write_bytes(edit(path.read_bytes()))
    return directory


def _idx_files_but_one(tmp_path):
    """A directory holding every MNIST IDX file name but the test labels."""
    directory = tmp_path / "idx"
    directory.mkdir()
    for key, name in MNIST_FILES.items():
        if key != "test_labels":
            (directory / name).write_bytes(b"")
    return directory


# _write_config writes the document unchecked, as a config file on disk may be
@pytest.mark.parametrize("argv, make, reason", [
    (["train"], lambda tmp: tmp / "missing.json", "No such file or directory"),
    (["train"], lambda tmp: _text_file(tmp / "bad.json", "{"),
     "bad.json: Expecting property name"),
    (["train"], lambda tmp: _text_file(tmp / "old.json", '{"output": "r.csv"}'),
     "unknown config fields: ['output']"),
    (["train"], lambda tmp: _write_config(tmp, schedule={
        "mode": "exponential", "beta_i": 10.0, "beta_f": 1.0, "it_max": 100}),
     "need beta_f >= beta_i > 0"),
    (["train"], lambda tmp: _write_config(tmp, replicas=0), "replicas must be an integer >= 1"),
    (["sweep-gamma", "--gamma", "0.5", "--jobs", "2"], lambda tmp: _write_config(tmp, replicas=0),
     "replicas must be an integer >= 1"),
    (["robustness"], lambda tmp: _write_config(tmp, kernel="bogus"), "kernel must be one of"),
    (["train"], lambda tmp: _write_config(tmp, schema_version=7), "schema_version 7 is not 1"),
    (["train"], lambda tmp: _write_config(tmp, seed=-1), "a seed is a non-negative integer"),
    (["sweep-gamma", "--gamma", "0.5", "--repetitions", "2", "--jobs", "2"],
     lambda tmp: _write_config(tmp, model={"kind": "bogus"}), "unknown model kind 'bogus'"),
    (["sweep-gamma", "--gamma", "0.5", "--repetitions", "2", "--jobs", "2"],
     lambda tmp: _write_config(tmp, dataset={"kind": "synthetic", "count": 0}),
     "dataset count must be an integer >= 1, got 0"),
    (["train"], lambda tmp: _write_config(tmp, dataset={"kind": "synthetic", "dim": 2.5}),
     "dataset dim must be an integer >= 1, got 2.5"),
    (["robustness"], lambda tmp: _write_config(tmp, dataset={"kind": "cifar"}),
     "unknown dataset kind 'cifar'"),
    (["sweep-gamma", "--gamma", "0.5", "--jobs", "2"],
     lambda tmp: _write_config(tmp, model={"kind": "cross-entropy"}),
     "a cross-entropy model needs a mnist dataset, not synthetic"),
    (["train"], lambda tmp: _write_config(tmp, model="perceptron"),
     "the model spec must be an object"),
    (["train"], lambda tmp: _write_config(tmp, schedule={
        "mode": "exponential", "beta_f": 100.0, "it_max": 100}),
     "schedule mode 'exponential' needs the keys ['beta_i']"),
    (["train"], lambda tmp: _text_file(tmp / "null.json", "null"),
     "a config must be a JSON object, got NoneType"),
    (["train"], lambda tmp: _text_file(tmp / "list.json", '["seed"]'),
     "a config must be a JSON object, got list"),
    (["train"], lambda tmp: _text_file(tmp / "number.json", "3"),
     "a config must be a JSON object, got int"),
    (["train"], lambda tmp: _write_config(tmp, schedule={"mode": "piecewise", "stages": 5}),
     "stages must be a nonempty list of [beta, gamma, length] triples, got 5"),
    (["train"], lambda tmp: _write_config(tmp, schedule={
        "mode": "piecewise", "stages": [[1.0, 0.0]]}),
     "stage 0 must be a [beta, gamma, length] triple, got [1.0, 0.0]"),
    (["train"], lambda tmp: _write_config(tmp, schedule={
        "mode": "exponential", "beta_i": "a", "beta_f": 1.0, "it_max": 100}),
     "beta_i must be a finite real number, got 'a'"),
    (["train"], lambda tmp: _write_config(tmp, schedule={
        "mode": "exponential", "beta_i": 0.1, "beta_f": 1.0, "gamma": True, "it_max": 100}),
     "gamma must be a finite real number, got True"),
    (["train"], lambda tmp: _write_config(tmp, schedule={
        "mode": "exponential", "beta_i": 0.1, "beta_f": 1.0, "it_max": 10.5}),
     "it_max must be an integer >= 0, got 10.5"),
    (["train"], lambda tmp: _write_config(tmp, schedule={
        "mode": "piecewise", "stages": [[1.0, 0.0, 10.5]]}),
     "stage 0 length must be an integer >= 1, got 10.5"),
    (["train"], lambda tmp: _write_config(tmp, schedule={
        "mode": "piecewise", "stages": [["2", "0", "5"]]}),
     "stage 0 beta must be a finite real number, got '2'"),
    (["train"], lambda tmp: _write_config(tmp, dataset={"kind": "synthetic", "seed": -1}),
     "dataset seed: a seed is a non-negative integer or a list of them, got -1"),
    (["sweep-gamma", "--gamma", "0.5", "--jobs", "2"],
     lambda tmp: _write_config(tmp, dataset={"kind": "synthetic", "seed": 1.5}),
     "dataset seed: a seed is a non-negative integer or a list of them, got 1.5"),
    (["train"], lambda tmp: _write_config(tmp, dataset={"kind": "synthetic", "seed": []}),
     "dataset seed: a seed is a non-negative integer or a list of them, got []"),
    (["train"], lambda tmp: _write_config(tmp, seed=[]),
     "a seed is a non-negative integer or a list of them, got []"),
    (["train"], lambda tmp: _write_config(tmp, schema_version=True),
     "schema_version True is not 1"),
    (["train"], lambda tmp: _mnist_config(tmp, subsample=2.5),
     "dataset subsample must be an integer >= 1, got 2.5"),
    (["sweep-gamma", "--gamma", "0.5", "--jobs", "2"],
     lambda tmp: _mnist_config(tmp, per_class_train=-3),
     "dataset per_class_train must be an integer >= 1, got -3"),
    (["robustness"], lambda tmp: _mnist_config(tmp, per_class_test=True),
     "dataset per_class_test must be an integer >= 1, got True"),
    (["train"], lambda tmp: _mnist_config(tmp, directory=5),
     "dataset directory must be a string, got 5"),
    (["train"], lambda tmp: _mnist_config(tmp, directory=str(tmp / "absent")),
     "missing MNIST files in "),
    (["sweep-gamma", "--gamma", "0.5", "--jobs", "2"],
     lambda tmp: _mnist_config(tmp, directory=str(_idx_files_but_one(tmp))),
     "missing MNIST files in "),
    (["train"], lambda tmp: _mnist_config(tmp, directory=str(_idx_files_with(
        tmp, "test_images", lambda data: data[:-3]))),
     "t10k-images-idx3-ubyte: payload has 317 bytes, expected 320 from dims (20, 4, 4)"),
    (["sweep-gamma", "--gamma", "0.5"], lambda tmp: _mnist_config(tmp, directory=str(
        _idx_files_with(tmp, "train_labels", lambda data: data[:2]))),
     "train-labels-idx1-ubyte: file shorter than the 4-byte magic"),
    (["robustness"], lambda tmp: _mnist_config(tmp, directory=str(_idx_files_with(
        tmp, "test_labels", lambda data: data[:8] + data[9:]))),
     "t10k-labels-idx1-ubyte: payload has 19 bytes, expected 20 from dims (20,)"),
    (["train"], lambda tmp: _mnist_config(tmp, directory=str(_idx_files_with(
        tmp, "train_labels", lambda data: data[:7] + b"\x3b" + data[8:-1]))),
     "train-labels-idx1-ubyte: 60 images but 59 labels"),
    (["train"], lambda tmp: _write_config(tmp, schedule={
        "mode": "exponential", "beta_i": 0.1, "beta_f": 10.0, "gamma": 1.0, "gamma_f": 0.0,
        "it_max": 100}),
     "interpolating gamma needs gamma > 0 and gamma_f > 0"),
], ids=["missing", "malformed", "unknown-field", "beta-order", "replicas", "replicas-jobs",
        "kernel", "schema-version", "seed", "model-kind", "dataset-count", "dataset-dim",
        "dataset-kind", "model-dataset", "model-not-object", "schedule-key", "null", "list", "number",
        "stages-not-list", "stage-pair", "beta-string", "gamma-bool", "it-max-float",
        "stage-length-float", "stage-strings", "dataset-seed-negative", "dataset-seed-float",
        "dataset-seed-empty", "seed-empty", "schema-version-bool", "mnist-subsample",
        "mnist-per-class-train", "mnist-per-class-test", "mnist-directory",
        "mnist-directory-absent", "mnist-file-absent", "mnist-images-truncated",
        "mnist-labels-no-magic", "mnist-labels-truncated", "mnist-count-mismatch", "gamma-to-zero"])
def test_a_refused_config_exits_2_before_any_run(argv, make, reason, tmp_path, monkeypatch,
                                                  capsys):
    _refuse_runs(monkeypatch)
    with pytest.raises(SystemExit) as err:
        cli.main([*argv, "--config", str(make(tmp_path))])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"replica-anneal {argv[0]}: ")
    assert reason in out.err


@pytest.mark.parametrize("argv, reason", [
    (["sweep-gamma", "--gamma", "0.5", "-1"], "gamma must be nonnegative, got -1.0"),
    (["sweep-gamma", "--gamma", "nan"], "gamma must be a finite real number, got nan"),
    (["sweep-beta", "--beta-i", "0", "--beta-f", "1"], "need beta_f >= beta_i > 0"),
    (["sweep-beta", "--beta-i", "1", "2", "--beta-f", "1", "--jobs", "2"],
     "need beta_f >= beta_i > 0"),
], ids=["gamma-negative", "gamma-nan", "beta-zero", "beta-order-jobs"])
def test_sweep_grid_values_are_refused_before_any_run(argv, reason, tmp_path, monkeypatch,
                                                      capsys):
    """Every grid point is checked before the first run and before a pool
    starts, including the points after a valid one."""
    def never(*args, **kwargs):
        raise AssertionError("ran before the grid was checked")

    monkeypatch.setattr(experiments, "train_run", never)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", never)
    with pytest.raises(SystemExit) as err:
        cli.main([*argv, "--config", str(_write_config(tmp_path))])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"replica-anneal {argv[0]}: {reason}\n"


@pytest.mark.parametrize("argv", [["train"], ["sweep-gamma", "--gamma", "0.5"],
                                  ["sweep-beta", "--beta-i", "0.1", "--beta-f", "1.0"]],
                         ids=["train", "sweep-gamma", "sweep-beta"])
def test_an_out_file_that_write_results_refuses_exits_2_before_any_run(argv, tmp_path,
                                                                       monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("ran before --out was checked")

    monkeypatch.setattr(cli, "train_run", never)
    monkeypatch.setattr(experiments, "train_run", never)
    other = _text_file(tmp_path / "other.csv", "run_id,loss\nr0,1.5\n")
    before = other.read_bytes()
    for out, reason in ((tmp_path / "nodir" / "x.csv", f"no directory {tmp_path / 'nodir'}"),
                        (other, f"{other} has header ['run_id', 'loss'], expected ")):
        with pytest.raises(SystemExit) as err:
            cli.main([*argv, "--config", str(_write_config(tmp_path)), "--out", str(out)])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"replica-anneal {argv[0]}: {reason}")
    assert other.read_bytes() == before
    assert not (tmp_path / "nodir").exists()


def test_sweep_gamma_over_a_piecewise_config_is_refused_before_any_run(tmp_path, monkeypatch,
                                                                       capsys):
    def never(*args, **kwargs):
        raise AssertionError("ran a refused grid point")

    monkeypatch.setattr(experiments, "train_run", never)
    cfg = _write_config(tmp_path, schedule={"mode": "piecewise", "stages": [[1.0, 0.0, 50]]})
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep-gamma", "--gamma", "0.5", "--config", str(cfg)])
    assert err.value.code == 2
    assert capsys.readouterr().err == ("replica-anneal sweep-gamma: schedule mode 'piecewise' "
                                       "does not read the keys ['gamma']\n")


def test_readme_spec_table_matches_spec_keys():
    """The README's table of config keys, rules and defaults is data_io.SPECS."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n| Spec | Key | Rule | Default |\n| --- | --- | --- | --- |\n",
                         1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        label, key, rule, default = (part.strip() for part in row.strip("|").split("|"))
        *kind, section = label.split()
        documented[section, *kind or [None], key.strip("`")] = (rule, default)

    def text(rule, default):
        rule = " or ".join(f"`{v}`" for v in rule) if isinstance(rule, tuple) else rule
        return rule, ("required" if default is REQUIRED else "none" if default is None
                      else f"`{json.dumps(default)}`")

    assert documented == {(section, kind, key): text(*spec)
                          for (section, kind), keys in SPECS.items()
                          for key, spec in keys.items()}


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert commands
    for words in commands:
        assert words[0] == "replica-anneal"
        cli.build_parser().parse_args(words[1:])


def test_validate_schedule_requires_input(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["validate-schedule", "--m", "1.0"])
    assert err.value.code == 2
    assert "one of the arguments --stages-file --azencott is required" in capsys.readouterr().err


def test_validate_schedule_takes_one_stage_source(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["validate-schedule", "--m", "1.0", "--azencott", "--stages-file", "x.json"])
    assert err.value.code == 2
    assert ("argument --stages-file: not allowed with argument --azencott"
            in capsys.readouterr().err)
