"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload score_mc --seed 1 --seconds 10 --trace 0

Run from the root of a checkout that holds ``src/veritas``; the program is
imported from there, never from an installed copy, and the run fails with
exit code 2 when it is missing.

Every sample runs in a fresh ``worker.py`` process with BLAS pinned to
``BLAS_THREADS`` threads. With ``--trace 0`` the workload first starts
``SETUP_SAMPLES - 1`` set-up-only processes and then the measured one, and
``setup_s`` is the median set-up time of all of them. Times are scaled by
a speed probe, as ``worker.py`` explains. The last stdout line
carries every ``end_to_end`` metric of ``BENCHMARK.json``. With
``--trace 1`` one traced process runs and the line carries every
``per_layer`` metric. The lines before it describe the run: environment,
output digest, failed checks. The same record, plus the spans of a traced
run, is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
BLAS_THREADS = "1"
SETUP_SAMPLES = 3
# Every run must end within 180 s; leave room for the set-up processes.
RUN_BUDGET_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: argparse.Namespace, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "veritas" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'veritas'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2

    try:
        setups = [] if args.trace else [run_worker(args, deadline, True) for _ in range(SETUP_SAMPLES - 1)]
        report = run_worker(args, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(report)

    measured = dict(report["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(r["setup_s"] for r in setups)
        measured["raw_setup_s"] = statistics.median(r["raw_setup_s"] for r in setups)
        measured["peak_rss_mb"] = report["peak_rss_mb"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"the worker did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": report["env"],
        "output_sha256": report["digest"],
        "requests_per_pass": report["requests_per_pass"],
        "work": f"{report['work']} {report['work_unit']}",
        "failed_ratio": report["failed"] / report["attempted"],
        "failed_checks": report["problems"],
        "setup_samples_s": [r["setup_s"] for r in setups],
        "all_measured": measured,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=2) + "\n", encoding="utf-8"
    )
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: info[k] for k in ("env", "output_sha256", "failed_ratio", "failed_checks")}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
