"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/summarize.py --workloads ce-mnist,exact-oracle --seeds 0-9 \
        --seconds 24 [--trace 1] [--out FILE.json]

Each run is a fresh ``perfbench/run.py`` process, one after another. For each
metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median;
likewise the unscaled ``raw_wall_s`` and ``raw_steps_per_s`` of the report
line, for a workload whose times are host-scaled.
This is how the baseline in BASELINE.md was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


RAW_KEYS = ("raw_wall_s", "raw_steps_per_s")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line, with the report line's raw times added to its metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                          check=True)
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["perfbench_report"]
    for key, unit in zip(RAW_KEYS, ("s", "1/s")):
        if report.get("interpreter_reference_s"):
            result["metrics"][key] = {"value": report[key], "unit": unit}
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        names = runs[0]["metrics"]
        report[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {name: dict(summarise([r["metrics"][name]["value"] for r in runs]),
                                   unit=names[name]["unit"]) for name in names},
        }
        for name, s in report[workload]["metrics"].items():
            print(f"  {name:30s} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f} {s['unit']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
