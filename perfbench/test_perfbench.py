"""Tests of the benchmark itself: tracer counts, output checks, digests.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q

Workloads run here at reduced sizes; the benchmark's own sizes are the
defaults of the workload classes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import veritas  # noqa: E402
import veritas.harness  # noqa: E402
import veritas.model  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402


def small_params():
    return veritas.init_params(W.EMBEDDER.dimension, 8, 1, len(W.CLASSES), seed=4)


def small_trees(n=5):
    return veritas.generate_synthetic(W.acceptance_spec(seed=21, trees_per_class=n))[: 2 * n]


def test_tracer_patches_every_binding_and_restores():
    originals = (veritas.data.branch_matrix, veritas.model.branch_matrix, veritas.harness.bundle, veritas.bundle)
    with Tracer():
        assert veritas.model.branch_matrix is veritas.data.branch_matrix
        assert veritas.harness.bundle is veritas.uncertainty.bundle is veritas.bundle
        assert veritas.model.branch_matrix.__wrapped__ is originals[0]
        assert veritas.bundle.__wrapped__ is originals[3]
    assert (veritas.data.branch_matrix, veritas.model.branch_matrix, veritas.harness.bundle, veritas.bundle) == originals


def test_traced_counts_match_independent_counts():
    params, trees, s = small_params(), small_trees(), 3
    passes = s + 2
    rows = sum(len(b) for t in trees for b in veritas.decompose_branches(t))
    with Tracer() as tracer:
        for t in trees:
            veritas.bundle(params, t, W.EMBEDDER, s, 0.2, seed=7)
    totals = tracer.totals()
    assert totals["uncertainty.bundle"]["calls"] == len(trees)
    assert totals["model.tree_branch_outputs"]["calls"] == passes * len(trees)
    assert tracer.counts["nn.lstm_rows"] == passes * rows
    assert totals["data.embed_tweet"]["calls"] == passes * rows
    assert totals["nn.backward"]["calls"] == 0
    assert all(v["self_s"] >= 0.0 for v in totals.values())


def test_self_time_excludes_children():
    params, trees = small_params(), small_trees(2)
    with Tracer() as tracer:
        veritas.bundle(params, trees[0], W.EMBEDDER, 2, 0.2)
    spans = [s for s in tracer.spans if s is not None]
    root = next(s for s in spans if tracer.names[s[0]] == "uncertainty.bundle")
    self_total = sum(v["self_s"] for v in tracer.totals().values())
    assert abs(self_total - (root[2] - root[1])) < 1e-9


def _traced_and_plain(workload, tmp_path):
    with Tracer() as setup_tracer:
        workload.setup(5)
    requests = workload.requests()
    result, metrics = worker.traced(workload, requests, setup_tracer, tmp_path / "spans.csv")
    plain = worker.run_requests(workload, requests, None)
    return requests, result, metrics, plain


def test_score_workload_trace_matches_untraced_run(tmp_path):
    workload = W.ScoreMC(trees_per_class=10, round_size=4)
    requests, result, metrics, plain = _traced_and_plain(workload, tmp_path)
    assert not result.failed, result.problems
    assert result.digest() == plain.digest()
    assert metrics["uncertainty.bundle.calls"] == len(requests)
    assert metrics["uncertainty.passes_per_bundle"] == W.UQ.n_samples + 2
    rows = sum(len(b) for t in requests for b in veritas.decompose_branches(t))
    assert metrics["nn.lstm_rows"] == rows * (W.UQ.n_samples + 2)
    assert metrics["nn.backward.calls"] == 0
    assert metrics["synth.generate_synthetic.calls"] == 2  # acceptance profile and pool
    assert len(metrics["trace.overhead_pcts"]) == worker.TRACE_PASSES
    header = (tmp_path / "spans.csv").read_text().splitlines()[0]
    assert header == "phase,span,name,start,end,parent,request"


def test_timeline_workload_checks_pass(tmp_path):
    workload = W.TimelineGrow(n_trees=2, n_tweets=6, trees_per_class=10)
    requests, result, metrics, plain = _traced_and_plain(workload, tmp_path)
    assert not result.failed, result.problems
    assert result.digest() == plain.digest()
    assert [t.size for t in requests] == [6, 6]
    assert metrics["harness.timeline_report.calls"] == 2
    assert metrics["uncertainty.bundle.calls"] == 12


def test_timeline_check_catches_a_wrong_last_step(tmp_path):
    workload = W.TimelineGrow(n_trees=1, n_tweets=5, trees_per_class=10)
    workload.setup(5)
    tree = workload.requests()[0]
    series = workload.call(tree)
    last = series.steps[-1]
    bad_bundle = veritas.UncertaintyBundle(**{**last.bundle.__dict__, "aleatoric": last.bundle.aleatoric + 1.0})
    bad = veritas.TimelineSeries(series.tree_id, series.steps[:-1] + (veritas.TimelineStep(
        last.n_tweets, last.predicted_class, bad_bundle, last.added_stance),))
    assert workload.check(tree, series) == []
    assert any("aleatoric" in p for p in workload.check(tree, bad))


def test_train_workload_repeats_and_checks():
    workload = W.TrainFold(trees_per_class=10)
    workload.setup(5)
    result = worker.run_requests(workload, workload.requests(), 0.0)
    again = worker.run_requests(workload, workload.requests(), 0.0)
    assert result.digest() == again.digest()
    accuracy = worker.finish(workload, result)
    assert not result.failed, result.problems
    assert W.ACCURACY_FLOOR <= accuracy <= 1.0


def test_select_workload_checks_pass(tmp_path):
    workload = W.SelectCalibrate(tmp_path / "work", n_test=600, n_random_cuts=3)
    workload.setup(5)
    out = workload.call(None)
    assert workload.check(None, out) == []
    assert set(out.supervised) == set(W.SelectCalibrate.BACKENDS)
    broken = W.SelectOutput(out.test[1:], out.dev, out.curves, out.random_cut_accuracy, out.supervised, out.calibration)
    assert "records changed in the CSV round trip" in workload.check(None, broken)


def test_inputs_depend_only_on_the_seed():
    a, b, c = W.dataset(3, 10), W.dataset(3, 10), W.dataset(4, 10)
    assert a == b
    assert a != c


def test_dataset_has_the_acceptance_shapes():
    profile = veritas.generate_synthetic(W.acceptance_spec(W.PROFILE_SEED))
    trees = W.dataset(8, 200)
    assert [t.tree_id for t in trees] == [t.tree_id for t in profile]
    exact = sum(W.shape(a) == W.shape(b) for a, b in zip(trees, profile))
    assert exact >= 0.95 * len(profile)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score_mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_the_workloads_and_setup_time():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(W.NAMES)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
