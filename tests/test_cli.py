import csv
import json
import math

import pytest

from replica_anneal import cli
from replica_anneal.data_io import ExperimentConfig, read_results


def _write_config(tmp_path, **overrides):
    base = dict(
        dataset={"kind": "synthetic", "count": 10, "dim": 20, "seed": 1},
        model={"kind": "perceptron"},
        schedule={"mode": "exponential", "beta_i": 0.1, "beta_f": 100.0,
                  "gamma": 0.0, "it_max": 1500},
        replicas=2, seed=0)
    base.update(overrides)
    path = tmp_path / "config.json"
    ExperimentConfig(**base).save(path)
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


def test_desk_scale_cap(tmp_path):
    cfg = _write_config(tmp_path, schedule={"mode": "exponential", "beta_i": 0.1,
                                            "beta_f": 100.0, "gamma": 0.0,
                                            "it_max": 300_000})
    with pytest.raises(SystemExit) as err:
        cli.main(["train", "--config", str(cfg)])
    assert "--full-scale" in str(err.value)


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


def test_validate_schedule_requires_input():
    with pytest.raises(SystemExit):
        cli.main(["validate-schedule", "--m", "1.0"])
