"""One benchmark process: set up a workload, measure it, print one JSON line.

``run.py`` starts this script in a fresh interpreter for every sample, so
set-up time and peak memory belong to that workload alone. It prints a
single JSON object on its last stdout line; ``run.py`` turns that into the
benchmark's result.

Modes:
  --setup-only   set up, report the set-up time and exit;
  --trace 0      cycle through the requests for ``--seconds`` (at least one
                 full pass, and whole rounds), timing each request;
  --trace 1      ``TRACE_PASSES`` untraced passes alternated with as many
                 traced ones, in which every public ``veritas`` function is
                 wrapped in spans; per-layer figures come from the traced
                 passes, the overhead from comparing each with the one before.

Every reported time is divided by the machine slowness that ``speed.py``
measures at each round boundary (see there for why); the raw figures are
reported next to them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
# Untraced and traced passes of a ``--trace 1`` run, alternated.
TRACE_PASSES = 3


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def interquartile_mean(values: list[float]) -> float:
    """Mean of the values between the first and third quartile (all of them when few)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def quantile_ms(values: list[float], q: float, half: float) -> float:
    """Quantile ``q`` (in %) as the mean of the values ranked within ``q +- half``.

    Request costs come in clusters (trees of one shape cost the same), so a
    plain order statistic can jump between clusters from run to run; the
    mean over a fixed share of ranks cannot.
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    lo = math.floor((q - half) / 100 * last)
    hi = math.ceil((q + half) / 100 * last)
    return statistics.fmean(ordered[max(lo, 0) : min(hi, last) + 1]) * 1e3


class Pass:
    """Requests run by one loop: timings, first-pass outputs, failures."""

    def __init__(self, n_requests: int, round_size: int) -> None:
        self.n_requests = n_requests
        self.round_size = round_size
        self.timed: dict[int, tuple[float, int]] = {}  # request index -> (raw seconds, work)
        self.probes: list[float] = []  # machine slowness at each round boundary
        self.attempted = 0
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.first: list = [None] * n_requests
        self.encoded: list[bytes | None] = [None] * n_requests

    def fail(self, index: int, messages: list[str]) -> None:
        self.failed.add(index)
        self.problems.extend(f"request {index}: {m}" for m in messages)

    def scale(self, index: int) -> float:
        """Normalisation factor of a request: one over its round's slowness."""
        r = index // self.round_size
        return 2.0 / (self.probes[r] + self.probes[r + 1])

    def seconds(self, normalised: bool = True) -> float:
        return sum(s * (self.scale(i) if normalised else 1.0) for i, (s, _) in self.timed.items())

    def round_rates(self) -> list[float]:
        """Normalised work per second of each round in which no request raised."""
        rates = []
        for r in range(self.attempted // self.round_size):
            indices = range(r * self.round_size, (r + 1) * self.round_size)
            if all(i in self.timed for i in indices):
                work = sum(self.timed[i][1] for i in indices)
                rates.append(work / sum(self.timed[i][0] * self.scale(i) for i in indices))
        return rates

    def request_latencies(self) -> list[float]:
        """Per distinct request of the pass, the interquartile mean of its normalised repetitions."""
        by_request: dict[int, list[float]] = {}
        for i, (s, _) in self.timed.items():
            by_request.setdefault(i % self.n_requests, []).append(s * self.scale(i))
        return [interquartile_mean(v) for _, v in sorted(by_request.items())]

    def digest(self) -> str:
        h = hashlib.sha256()
        for enc in self.encoded:
            h.update(enc if enc is not None else b"<failed>")
        return h.hexdigest()


def run_requests(workload, requests, seconds: float | None, tracer=None) -> Pass:
    """Closed loop over ``requests``: one full pass, then whole rounds until ``seconds``.

    Output checks and encoding run outside the timed region and, for a
    traced pass, after the tracer is removed.
    """
    n = len(requests)
    result = Pass(n, workload.round_size)
    deadline = perf_counter() + (seconds or 0.0)
    pending = []
    i = 0
    while i < n or i % result.round_size or (seconds is not None and perf_counter() < deadline):
        if i % result.round_size == 0:
            result.probes.append(speed.slowness())
        request = requests[i % n]
        result.attempted += 1
        if tracer is not None:
            tracer.request = i
        start = perf_counter()
        try:
            output = workload.call(request)
        except Exception:  # a failing request is counted, and the loop goes on
            result.fail(i, [traceback.format_exc(limit=3)])
            i += 1
            continue
        result.timed[i] = (perf_counter() - start, workload.work(request))
        if tracer is None:
            check_output(workload, result, i, request, output)
        else:
            pending.append((i, request, output))
        i += 1
    result.probes.append(speed.slowness())
    if tracer is not None:
        tracer.restore()
    for i, request, output in pending:
        check_output(workload, result, i, request, output)
    return result


def check_output(workload, result: Pass, i: int, request, output) -> None:
    problems = workload.check(request, output)
    encoded = workload.encode(request, output)
    k = i % result.n_requests
    if i < result.n_requests:
        result.first[k] = output
        result.encoded[k] = encoded
    elif encoded != result.encoded[k]:
        problems = problems + ["output differs from the same request's first output"]
    if problems:
        result.fail(i, problems)


def finish(workload, result: Pass) -> float:
    """Accuracy of the first pass; a failed request there makes it 0."""
    if any(o is None for o in result.first):
        return 0.0
    accuracy, problems = workload.finish(result.first)
    if problems:
        result.fail(0, problems)
    return accuracy


def measure(workload, requests, seconds: float) -> tuple[Pass, dict]:
    """Time-bounded run; the rate is the interquartile mean over rounds of equal work."""
    result = run_requests(workload, requests, seconds)
    accuracy = finish(workload, result)
    rates = result.round_rates()
    if not rates:
        return result, {}
    latencies = result.request_latencies()
    work = sum(w for _, w in result.timed.values())
    return result, {
        "work_per_s": interquartile_mean(rates),
        # the median window is wider: on score_mc the middle ranks hold
        # several clusters, and a window of +-2.5 jumped by up to 19% between seeds
        "op_p50_ms": quantile_ms(latencies, 50, 10.0),
        "op_p95_ms": quantile_ms(latencies, 95, 2.5),
        "accuracy": accuracy,
        "rounds": len(rates),
        "raw_work_per_s": work / result.seconds(normalised=False),
        "slowness": statistics.median(result.probes),
    }


def traced(workload, requests, setup_tracer, spans_path: Path) -> tuple[Pass, dict]:
    """Alternate ``TRACE_PASSES`` untraced and traced passes over the same requests.

    Counts come from the first traced pass and must repeat in the others;
    self times are the median over the traced passes; the overhead is the
    median ratio of each traced pass to the untraced pass just before it.
    Every pass must give the same output digest.
    """
    from spans import Tracer

    plains, runs = [], []
    for _ in range(TRACE_PASSES):
        plains.append(run_requests(workload, requests, None))
        tracer = Tracer()
        tracer.install()
        runs.append((run_requests(workload, requests, None, tracer), tracer))  # restores the tracer
    result, tracer = runs[0]
    finish(workload, result)
    # per traced pass: its totals and the factor that normalises its times
    all_totals = [(t.totals(), 1.0 / statistics.median(p.probes)) for p, t in runs]
    totals = all_totals[0][0]
    for k, p in enumerate(plains):
        if p.digest() != result.digest():
            result.fail(0, [f"untraced pass {k} gives other outputs than the first traced pass"])
    for k, ((p, t), (other, _)) in enumerate(zip(runs[1:], all_totals[1:]), 1):
        if p.digest() != result.digest():
            result.fail(0, [f"traced pass {k} gives other outputs than the first traced pass"])
        if t.counts != tracer.counts or any(other[n]["calls"] != v["calls"] for n, v in totals.items()):
            result.fail(0, [f"traced pass {k} gives other counts than the first traced pass"])

    setup_totals = setup_tracer.totals()
    setup_scale = 1.0 / statistics.median(plains[0].probes)
    metrics = {}
    for name in totals:
        # synth runs only while setting up; its spans come from the set-up phase
        if name.startswith("synth."):
            metrics[f"{name}.calls"] = setup_totals[name]["calls"]
            metrics[f"{name}.self_s"] = setup_totals[name]["self_s"] * setup_scale
        else:
            metrics[f"{name}.calls"] = totals[name]["calls"]
            metrics[f"{name}.self_s"] = statistics.median(t[name]["self_s"] * f for t, f in all_totals)
    n_tweets = sum(workload.tweets(r) for r in requests)
    rows = tracer.counts["nn.lstm_rows"]
    metrics["nn.lstm_rows"] = rows
    metrics["nn.lstm_rows_per_tweet"] = rows / n_tweets if n_tweets else 0.0
    metrics["data.embeds_per_tweet"] = totals["data.embed_tweet"]["calls"] / n_tweets if n_tweets else 0.0
    bundles = totals["uncertainty.bundle"]["calls"]
    metrics["uncertainty.passes_per_bundle"] = (
        totals["model.tree_branch_outputs"]["calls"] / bundles if bundles else 0.0
    )
    ratios = [r.seconds() / p.seconds() for p, (r, _) in zip(plains, runs)]
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    metrics["trace.overhead_pcts"] = [100.0 * (x - 1.0) for x in ratios]
    metrics["trace.plain_s"] = statistics.median(p.seconds() for p in plains)
    metrics["trace.traced_s"] = statistics.median(r.seconds() for r, _ in runs)
    metrics["trace.spans"] = sum(s is not None for s in tracer.spans)

    spans_path.write_text("phase,span,name,start,end,parent,request\n", encoding="utf-8")
    setup_tracer.write_spans(spans_path, "setup")
    tracer.write_spans(spans_path, "run")
    return result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="wall clock when the process was started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import veritas

    if not Path(veritas.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"veritas was imported from {veritas.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    try:
        return run(args, workloads.build(args.workload, workdir), Tracer())
    finally:
        if workdir.is_dir():
            for f in workdir.iterdir():
                f.unlink()
            workdir.rmdir()


def run(args: argparse.Namespace, workload, setup_tracer) -> int:
    if args.trace:
        setup_tracer.install()
    try:
        workload.setup(args.seed)
    finally:
        setup_tracer.restore()
    raw_setup_s = time.time() - args.spawned_at
    setup_s = raw_setup_s / speed.slowness()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    requests = workload.requests()
    if args.trace:
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}.spans.csv"
        result, metrics = traced(workload, requests, setup_tracer, spans_path)
    else:
        result, metrics = measure(workload, requests, args.seconds)
    if not metrics:
        print("every round had a request that raised:\n" + "\n".join(result.problems[:5]), file=sys.stderr)
        return 1

    print(json.dumps({
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "metrics": metrics,
        "attempted": result.attempted,
        "failed": len(result.failed),
        "problems": result.problems[:20],
        "digest": result.digest(),
        "requests_per_pass": len(requests),
        "work_unit": workload.unit,
        "work": sum(w for _, w in result.timed.values()),
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
