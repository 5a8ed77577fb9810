"""Command-line harness: train, sweeps, robustness, exact verification."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import NoReturn

from . import exact, verify
from .annealer import KERNELS, check
from .data_io import ExperimentConfig, _parse_seed, check_results_path, read_json, write_results
from .experiments import build_model, robustness_eval, sweep_beta, sweep_gamma, train_run

DESK_SCALE_CAP = 100_000


def _refuse(args, err: Exception) -> NoReturn:
    """Exit 2 with the reason on stderr."""
    print(f"replica-anneal {args.command}: {err}", file=sys.stderr)
    raise SystemExit(2) from err


def _load_config(args) -> ExperimentConfig:
    """The run's config. A config that cannot be read, is refused or exceeds the
    desk-scale cap, an --out file that write_results refuses and a dataset that
    cannot be built exit 2; the run reuses the model built here."""
    try:
        config = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
        flags = {"seed": args.seed, "kernel": args.kernel}
        config = dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})
        it_max = config.annealing.it_max
        if not args.full_scale and it_max > DESK_SCALE_CAP:
            raise ValueError(f"it_max {it_max} exceeds the desk-scale cap {DESK_SCALE_CAP}; "
                             "pass --full-scale to unlock long runs")
        if getattr(args, "out", None):  # robustness writes no records
            check_results_path(args.out)
        build_model(config)  # a missing or malformed IDX file raises OSError or IdxError
    except (ValueError, OSError) as err:
        _refuse(args, err)
    return config


def _emit(records, args):
    if args.out:
        write_results(records, args.out)
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


def _sweep(sweep, args, *grid) -> int:
    """Run a sweep over the grid; a grid point that the sweep refuses before
    its first run exits 2, with the reason on stderr."""
    config = _load_config(args)
    try:
        points = sweep(config, *grid, repetitions=args.repetitions, jobs=args.jobs)
    except ValueError as err:
        _refuse(args, err)
    return _emit_sweep(points, args)


def cmd_sweep_beta(args) -> int:
    return _sweep(sweep_beta, args, args.beta_i, args.beta_f)


def cmd_sweep_gamma(args) -> int:
    return _sweep(sweep_gamma, args, args.gamma)


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
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 1


def cmd_validate_schedule(args) -> int:
    try:
        stages = (verify.azencott_stages(args.horizon) if args.azencott
                  else read_json(args.stages_file))
        verdict = exact.validate_schedule(stages, m=args.m, kappa1=args.kappa1)
    except (ValueError, OSError) as err:
        # code 1 is a FAIL verdict; a schedule that cannot be judged is a usage error
        _refuse(args, err)
    print(json.dumps(verdict.as_dict(), indent=2))
    return 0 if verdict.passed else 1


def _argument(parse, rule: str, says: str):
    """An argparse type: the text parsed and checked by rule, else 'must be <says>'."""
    def convert(text: str):
        try:
            return check("", parse(text), rule)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {says}, got {text}") from None
    return convert


_positive_int = _argument(int, "integer >= 1", "a positive integer")
_probability = _argument(float, "probability", "a probability in [0, 1]")
_seed = _argument(_parse_seed, "seed", "a non-negative integer or a sweep row's base/point/rep")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="replica-anneal")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=_seed, default=None,
                       help="an integer, or a sweep row's base/point/rep")
        p.add_argument("--kernel", choices=KERNELS, default=None)
        p.add_argument("--full-scale", action="store_true",
                       help=f"allow runs beyond {DESK_SCALE_CAP} iterations")

    def records(p):
        p.add_argument("--out", help="result file path")

    def sweep(p):
        common(p)
        records(p)
        p.add_argument("--jobs", type=_positive_int, default=1)

    p = sub.add_parser("train", help="single annealing run")
    common(p)
    records(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep-beta", help="grid over (beta_i, beta_f)")
    sweep(p)
    p.add_argument("--beta-i", dest="beta_i", type=float, nargs="+", required=True)
    p.add_argument("--beta-f", dest="beta_f", type=float, nargs="+", required=True)
    p.add_argument("--repetitions", type=_positive_int, default=1)
    p.set_defaults(func=cmd_sweep_beta)

    p = sub.add_parser("sweep-gamma", help="sweep over gamma values")
    sweep(p)
    p.add_argument("--gamma", type=float, nargs="+", required=True)
    p.add_argument("--repetitions", type=_positive_int, default=10)
    p.set_defaults(func=cmd_sweep_gamma)

    p = sub.add_parser("robustness", help="perturbation robustness of a trained model")
    common(p)
    p.add_argument("--p", type=_probability, nargs="+",
                   default=[0.0, 0.001, 0.01, 0.1, 0.5])
    p.add_argument("--repetitions", type=_positive_int, default=1000)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("exact-verify", help="run the exact-analysis suites")
    p.add_argument("--suite", nargs="*", choices=sorted(verify.ALL_SUITES))
    p.set_defaults(func=cmd_exact_verify)

    p = sub.add_parser("validate-schedule", help="check a cooling schedule")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--stages-file", help="JSON list of [beta_k, T_k]")
    source.add_argument("--azencott", action="store_true",
                        help="use the built-in stage generator fixture")
    p.add_argument("--horizon", type=_positive_int, default=10_000)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--kappa1", type=float, default=math.e)
    p.set_defaults(func=cmd_validate_schedule)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
