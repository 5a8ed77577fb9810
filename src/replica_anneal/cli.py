"""Command-line harness: train, sweeps, robustness, exact verification."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import exact, verify
from .data_io import ExperimentConfig, _parse_seed, write_results
from .experiments import build_schedule, robustness_eval, sweep_beta, sweep_gamma, train_run

DESK_SCALE_CAP = 100_000


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config.seed = args.seed
    if args.kernel:
        config.kernel = args.kernel
    it_max = build_schedule(config.schedule).it_max
    if not args.full_scale and it_max > DESK_SCALE_CAP:
        raise SystemExit(
            f"it_max {it_max} exceeds the desk-scale cap "
            f"{DESK_SCALE_CAP}; pass --full-scale to unlock long runs")
    return config


def _emit(records, args):
    if args.out:
        write_results(records, args.out, fmt=args.format)
    else:
        for rec in records:
            print(json.dumps(dataclasses.asdict(rec), sort_keys=True))


def cmd_train(args) -> int:
    config = _load_config(args)
    outcome = train_run(config, run_id="train")
    _emit([outcome.record], args)
    return 0


def _emit_sweep(points, args) -> int:
    _emit([r for p in points for r in p.records], args)
    for point in points:
        print(json.dumps({"point": point.label,
                          "train_accuracy": point.mean_train_accuracy,
                          "ci": point.ci_train_accuracy,
                          "train_loss": point.mean_train_loss,
                          "active_transitions": point.mean_active_transitions},
                         sort_keys=True))
    return 0


def cmd_sweep_beta(args) -> int:
    return _emit_sweep(sweep_beta(_load_config(args), args.beta_i, args.beta_f,
                                  repetitions=args.repetitions, jobs=args.jobs), args)


def cmd_sweep_gamma(args) -> int:
    return _emit_sweep(sweep_gamma(_load_config(args), args.gamma,
                                   repetitions=args.repetitions, jobs=args.jobs), args)


def cmd_robustness(args) -> int:
    config = _load_config(args)
    outcome = train_run(config, run_id="robustness-train")
    curve = robustness_eval(outcome.best_weights, outcome.model, args.p,
                            repetitions=args.repetitions, seed=config.seed)
    for point in curve:
        print(json.dumps({"p": point.p, "mean_accuracy": point.mean_accuracy,
                          "ci_half_width": point.ci_half_width}, sort_keys=True))
    return 0


def cmd_exact_verify(args) -> int:
    report = verify.run_suites(args.suite or None)
    print(json.dumps(report, indent=2, default=_json_default))
    return 0 if report["passed"] else 1


def cmd_validate_schedule(args) -> int:
    if args.azencott:
        stages = verify.azencott_stages(args.horizon)
    elif args.stages_file:
        doc = json.loads(open(args.stages_file).read())
        stages = [(float(b), float(t)) for b, t in doc]
    else:
        raise SystemExit("provide --stages-file or --azencott")
    verdict = exact.validate_schedule(stages, m=args.m, kappa1=args.kappa1)
    print(json.dumps(verdict.as_dict(), indent=2))
    return 0 if verdict.passed else 1


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="replica-anneal")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=_parse_seed, default=None,
                       help="an integer, or a sweep row's base/point/rep")
        p.add_argument("--kernel", choices=("two-stage", "combined"), default=None)
        p.add_argument("--full-scale", action="store_true",
                       help=f"allow runs beyond {DESK_SCALE_CAP} iterations")

    def records(p):
        p.add_argument("--out", help="result file path")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    def sweep(p):
        common(p)
        records(p)
        p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("train", help="single annealing run")
    common(p)
    records(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep-beta", help="grid over (beta_i, beta_f)")
    sweep(p)
    p.add_argument("--beta-i", dest="beta_i", type=float, nargs="+", required=True)
    p.add_argument("--beta-f", dest="beta_f", type=float, nargs="+", required=True)
    p.add_argument("--repetitions", type=int, default=1)
    p.set_defaults(func=cmd_sweep_beta)

    p = sub.add_parser("sweep-gamma", help="sweep over gamma values")
    sweep(p)
    p.add_argument("--gamma", type=float, nargs="+", required=True)
    p.add_argument("--repetitions", type=int, default=10)
    p.set_defaults(func=cmd_sweep_gamma)

    p = sub.add_parser("robustness", help="perturbation robustness of a trained model")
    common(p)
    p.add_argument("--p", type=float, nargs="+",
                   default=[0.0, 0.001, 0.01, 0.1, 0.5])
    p.add_argument("--repetitions", type=int, default=1000)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("exact-verify", help="run the exact-analysis suites")
    p.add_argument("--suite", nargs="*", choices=sorted(verify.ALL_SUITES))
    p.set_defaults(func=cmd_exact_verify)

    p = sub.add_parser("validate-schedule", help="check a cooling schedule")
    p.add_argument("--stages-file", help="JSON list of [beta_k, T_k]")
    p.add_argument("--azencott", action="store_true",
                   help="use the built-in stage generator fixture")
    p.add_argument("--horizon", type=int, default=10_000)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--kappa1", type=float, default=math.e)
    p.set_defaults(func=cmd_validate_schedule)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
