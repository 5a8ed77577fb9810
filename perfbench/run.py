"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src. BLAS
threads are pinned to BLAS_THREADS before numpy loads. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it is a report with the environment, the
workload's properties, trajectory digests and any check failures.

Exits with code 2, printing no result, when ./src holds no replica_anneal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the keys of workloads.WORKLOADS, repeated so that arguments are parsed before
# numpy is imported with the pinned thread count
WORKLOAD_NAMES = ("perceptron-sweep", "ce-mnist", "exact-oracle")
DATAGEN_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description="replica-anneal benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    head = ROOT / ".git" / "HEAD"
    commit = "unavailable (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    sources = sorted(SRC.rglob("*.py"))
    src_digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()[:16]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "cpu_simd": simd.get("found", []),
        "git_commit": commit,
        "src_digest": src_digest,
    }


def make_workload(name: str, seed: int, workdir: Path):
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[name]
    if name == "ce-mnist":
        data_dir = workdir / "mnist"
        # a separate process, so that generation does not count in peak RSS
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
        subprocess.run([sys.executable, "-m", "perfbench.datagen", "--seed", str(seed),
                        "--out", str(data_dir)], cwd=ROOT, env=env, check=True,
                       timeout=DATAGEN_TIMEOUT_S)
        return cls(seed, data_dir)
    if name == "perceptron-sweep":
        return cls(seed, workdir)
    return cls(seed)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "replica_anneal" / "__init__.py").is_file():
        print(f"no replica_anneal package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import replica_anneal

    if Path(replica_anneal.__file__).resolve().parent != (SRC / "replica_anneal").resolve():
        print(f"replica_anneal was imported from {replica_anneal.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import measure

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment()}
        if args.trace:
            metrics, plain, traced, tracer = measure.traced(workload, args.seconds)
            passes = plain + traced
            report["absent"] = tracer.absent
            report["pass_wall_s"] = {"untraced": [p.wall_s for p in plain],
                                     "traced": [p.wall_s for p in traced]}
        else:
            metrics, passes, raw = measure.end_to_end(workload, args.seconds)
            report.update(raw)
            report["pass_wall_s"] = [p.wall_s for p in passes]
        summary = measure.totals(passes)
        report["digests"] = sorted({p.digest for p in passes})
        report["properties"] = workload.properties(passes)
        report["failures"] = [msg for p in passes for msg in p.failures][:50]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"perfbench_report": report}, sort_keys=True, default=str))
    result = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
