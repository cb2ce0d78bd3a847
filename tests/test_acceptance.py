"""Acceptance checks: one test per shipped guarantee.

Each test prints a single summary line; the pytest -v status line per
test is the pass/fail verdict for that guarantee.
"""

import json
import math
import time

import network_reference
import numpy as np
import pytest
from conftest import numeric_grad, rel_err

from veritas import (
    HashingEmbedder,
    ModelParams,
    SyntheticSpec,
    TrainingConfig,
    UncertaintyBundle,
    UncertaintyConfig,
    bundle,
    calibration_report,
    cross_validate,
    ece,
    evaluate,
    fit_histogram_binning,
    apply_calibration,
    generate_synthetic,
    kruskal_wallis,
    make_folds,
    make_record,
    mc_sample,
    min_uncertainty_prediction,
    random_reject,
    read_records_csv,
    supervised_reject,
    timeline_report,
    timeline_to_csv,
    train_meta,
    unsupervised_reject,
    variation_ratio,
    max_variance,
    predictive_entropy,
    softmax_confidences,
    write_records_csv,
)
from veritas import nn
from veritas.calibration import ConfidenceRecord
from veritas.cli import main as cli_main
from veritas.errors import make_rng
from veritas.model import forward_branch, init_params
from veritas.rejection import curve_to_csv, rejection_curve
from veritas.uncertainty import MEASURES, SampleSet

CLASSES = ("true", "false", "unverified")


# ---------------------------------------------------------------------------
# 1. gradients


def _random_layers(seed: int, variance_dim: int) -> dict:
    params = init_params(3, 4, 1, 3, seed=seed, variance_dim=variance_dim)
    jitter = make_rng(1000 + seed)
    return {k: v + 0.3 * jitter.standard_normal(v.shape) for k, v in params.layers.items()}


def test_criterion_1_gradient_suite():
    """The training step's gradients against central finite differences.

    Layer checks run on the derivative kernels ``nn.backward`` is built
    from; the full-loss check runs on ``nn.backward`` itself, against the
    inference forward pass with the same masks and noise (the rng is
    re-seeded for every evaluation).
    """
    started = time.monotonic()
    n_seeds = 24
    worst_layer = 0.0
    worst_full = 0.0

    for seed in range(n_seeds):
        rng = make_rng(seed)
        x_vec = rng.standard_normal(4)
        w = rng.standard_normal((3, 4))
        b_vec = rng.standard_normal(3)
        target = np.zeros(3)
        target[int(rng.integers(3))] = 1.0

        # dense (both activations), loss = sum of the outputs
        for activation in ("linear", "relu"):
            arrays = {"w": w.copy(), "b": b_vec.copy(), "x": x_vec.copy()}
            z = arrays["w"] @ arrays["x"] + arrays["b"]
            dz = np.ones(3) * (z > 0.0) if activation == "relu" else np.ones(3)
            dw, dx = nn._dense_backward(arrays["w"], arrays["x"], dz)
            grads = {"w": dw, "b": dz, "x": dx}
            for name in arrays:
                num = numeric_grad(
                    lambda a: float(
                        np.sum(nn.dense_forward(a["w"], a["b"], a["x"], activation))
                    ),
                    arrays,
                    name,
                )
                worst_layer = max(worst_layer, rel_err(grads[name], num))

        # lstm over a short sequence, loss = sum of the last hidden state
        steps = int(rng.integers(1, 5))
        seq = {
            "wx": rng.standard_normal((16, 3)) * 0.4,
            "wh": rng.standard_normal((16, 4)) * 0.4,
            "b": rng.standard_normal(16) * 0.4,
            "x": rng.standard_normal((steps, 3)),
        }
        states = nn._lstm_recurrence(seq["wx"], seq["wh"], seq["b"], seq["x"])
        d_hidden = np.zeros((steps, 4))
        d_hidden[-1] = 1.0
        dwx, dwh, db, das = nn._lstm_backward(seq["wh"], seq["x"], states, d_hidden)
        grads = {"wx": dwx, "wh": dwh, "b": db, "x": das @ seq["wx"]}
        for name in seq:
            num = numeric_grad(
                lambda a: float(np.sum(nn.lstm_forward(a["wx"], a["wh"], a["b"], a["x"])[-1])),
                seq,
                name,
            )
            worst_layer = max(worst_layer, rel_err(grads[name], num))

        # softmax cross-entropy, softplus, dropout (fixed mask via reseeding)
        arrays = {"z": rng.standard_normal(3) * 2.0}
        grad = nn._xent_backward(nn.softmax(arrays["z"]), target, 1.0)
        num = numeric_grad(lambda a: float(nn.softmax_xent(a["z"], target)), arrays, "z")
        worst_layer = max(worst_layer, rel_err(grad, num))

        arrays = {"z": rng.standard_normal(4) * 3.0}
        grad = nn._softplus_backward(arrays["z"], np.ones(4))
        num = numeric_grad(lambda a: float(np.sum(nn.softplus(a["z"]))), arrays, "z")
        worst_layer = max(worst_layer, rel_err(grad, num))

        arrays = {"z": rng.standard_normal(6)}
        grad = np.ones(6) * nn._draw_mask(6, 0.4, make_rng(50 + seed))
        num = numeric_grad(
            lambda a: float(np.sum(network_reference.dropout_forward(a["z"], 0.4, make_rng(50 + seed)))),
            arrays,
            "z",
        )
        worst_layer = max(worst_layer, rel_err(grad, num))

        # noise-sampled loss wrt logits and variance, shared and per-logit
        variance_dim = 1 if seed % 2 == 0 else 3
        eps = rng.standard_normal((4, 3))
        arrays = {
            "z": rng.standard_normal(3),
            "v": np.abs(rng.standard_normal(variance_dim)) + 0.1,
        }
        sqrt_sig = np.sqrt(arrays["v"])
        _, probs = nn._sampled_xent(arrays["z"], sqrt_sig, target, eps)
        dz, dv = nn._sampled_xent_backward(probs, sqrt_sig, target, eps, 1.0)
        grads = {"z": dz, "v": dv}
        for name in arrays:
            num = numeric_grad(
                lambda a: float(nn.sampled_xent(a["z"], a["v"], target, eps)), arrays, name
            )
            worst_layer = max(worst_layer, rel_err(grads[name], num))

        # full training loss through the whole network, with dropout
        layers = _random_layers(seed, variance_dim)
        vectors = rng.standard_normal((steps, 3)) * 0.5
        n_noise = 3

        def full_loss(arrs):
            step_rng = make_rng(2000 + seed)
            out = forward_branch(ModelParams(arrs), vectors, 0.3, step_rng)
            noise = step_rng.standard_normal((n_noise, 3))
            ce = float(nn.softmax_xent(out.logits, target))
            sampled = float(nn.sampled_xent(out.logits, out.variance, target, noise))
            return 1.0 * ce + 0.2 * sampled

        _, _, grads = nn.backward(layers, vectors, target, 0.3, make_rng(2000 + seed), n_noise, 1.0, 0.2)
        assert set(grads) == set(layers)
        for name in layers:
            num = numeric_grad(full_loss, layers, name)
            worst_full = max(worst_full, rel_err(grads[name], num))

    elapsed = time.monotonic() - started
    assert worst_layer < 1e-4
    assert worst_full < 1e-3
    assert elapsed < 30.0
    print(
        f"[criterion 1] gradients: layer err {worst_layer:.2e} (<1e-4), "
        f"full-loss err {worst_full:.2e} (<1e-3), {n_seeds} seeds, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 2. zero-noise reduction


def test_criterion_2_zero_noise_reduction():
    rng = make_rng(42)
    worst = 0.0
    for i in range(1000):
        n_classes = int(rng.integers(2, 7))
        logits = rng.standard_normal(n_classes) * 5.0
        target = np.zeros(n_classes)
        target[int(rng.integers(n_classes))] = 1.0
        n_draws = int(rng.integers(1, 11))
        variance = np.zeros(1 if i % 2 == 0 else n_classes)
        noise = make_rng(i).standard_normal((n_draws, n_classes))
        sampled = float(nn.sampled_xent(logits, variance, target, noise))
        plain = float(nn.softmax_xent(logits, target))
        worst = max(worst, abs(sampled - plain))
    assert worst <= 1e-12
    print(f"[criterion 2] zero-noise reduction: max |diff| {worst:.2e} over 1000 cases (<=1e-12)")


# ---------------------------------------------------------------------------
# 3. estimator oracles


def _random_prob_rows(rng, n_rows, n_classes):
    raw = np.abs(rng.standard_normal((n_rows, n_classes))) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


def _entropy_oracle(p):
    return -sum(v * math.log(v) for v in p if v > 0.0)


def _bin_oracle(c, m):
    return 1 if c <= 0.0 else min(m, math.ceil(c * m))


def _ece_oracle(pairs, m):
    bins = {}
    for c, ok in pairs:
        bins.setdefault(_bin_oracle(c, m), []).append((c, ok))
    total = len(pairs)
    out = 0.0
    for members in bins.values():
        acc = sum(ok for _, ok in members) / len(members)
        conf = sum(c for c, _ in members) / len(members)
        out += len(members) / total * abs(acc - conf)
    return out


def test_criterion_3_estimator_oracles():
    rng = make_rng(7)
    worst = 0.0

    for _ in range(1000):
        rows = _random_prob_rows(rng, int(rng.integers(1, 12)), int(rng.integers(2, 6)))
        sample_set = SampleSet(rows)

        votes = [max(range(rows.shape[1]), key=lambda c: (rows[i, c], -c)) for i in range(len(rows))]
        counts = [votes.count(c) for c in range(rows.shape[1])]
        worst = max(worst, abs(variation_ratio(sample_set) - (1.0 - max(counts) / len(rows))))

        mean = rows.mean(axis=0)
        worst = max(worst, abs(predictive_entropy(sample_set) - _entropy_oracle(mean)))

        variances = []
        for c in range(rows.shape[1]):
            col = rows[:, c]
            mu = sum(col) / len(col)
            variances.append(sum((v - mu) ** 2 for v in col) / len(col))
        expect = 0.0 if len(rows) < 2 else max(variances)
        worst = max(worst, abs(max_variance(sample_set) - expect))

        p = rows[0]
        conf = softmax_confidences(p)
        top = sorted(p, reverse=True)
        worst = max(worst, abs(conf.lcs - top[0]))
        worst = max(worst, abs(conf.margin - (top[0] - top[1])))
        worst = max(worst, abs(conf.ratio - top[1] / top[0]))
        worst = max(worst, abs(conf.entropy - _entropy_oracle(p)))

    for _ in range(1000):
        n = int(rng.integers(1, 50))
        pairs = [(float(c), bool(k)) for c, k in zip(rng.random(n), rng.random(n) > 0.5)]
        m = int(rng.integers(1, 15))
        records = [ConfidenceRecord(confidence=c, correct=k) for c, k in pairs]
        worst = max(worst, abs(ece(records, m) - _ece_oracle(pairs, m)))

    n_checks = 0
    for _ in range(50):
        n = int(rng.integers(1, 60))
        pairs = [(float(c), bool(k)) for c, k in zip(rng.random(n), rng.random(n) > 0.5)]
        m = int(rng.integers(1, 12))
        cal = fit_histogram_binning(
            [ConfidenceRecord(confidence=c, correct=k) for c, k in pairs], m
        )
        by_bin = {}
        for c, ok in pairs:
            by_bin.setdefault(_bin_oracle(c, m), []).append(ok)
        for b in range(1, m + 1):
            if b in by_bin:
                expect = sum(by_bin[b]) / len(by_bin[b])
            else:
                expect = (b - 0.5) / m
            worst = max(worst, abs(cal.calibrated[b - 1] - expect))
        for c in rng.random(20):
            c = float(c)
            expect_bin = _bin_oracle(c, m)
            expect_val = (
                sum(by_bin[expect_bin]) / len(by_bin[expect_bin])
                if expect_bin in by_bin
                else (expect_bin - 0.5) / m
            )
            worst = max(worst, abs(apply_calibration(cal, c) - expect_val))
            n_checks += 1

    hand = [
        ConfidenceRecord(confidence=c, correct=k)
        for c, k in [(0.9, True), (0.9, False), (0.6, True), (0.6, False)]
    ]
    assert ece(hand, 10) == 0.25

    assert worst <= 1e-10
    print(
        f"[criterion 3] estimator oracles: max |diff| {worst:.2e} (<=1e-10), "
        f"hand ece == 0.25 exactly, {n_checks} binning applications"
    )


# ---------------------------------------------------------------------------
# 4. dropout sanity


def test_criterion_4_dropout_sanity():
    emb = HashingEmbedder(dimension=24, seed=1)
    params = init_params(24, 6, 1, 3, seed=3)
    trees = generate_synthetic(SyntheticSpec(trees_per_class=10, ambiguity_max=0.4, seed=11))
    for tree in trees:
        samples = mc_sample(params, tree, emb, n_samples=8, dropout_rate=0.0, seed=5)
        assert variation_ratio(samples) == 0.0
        assert max_variance(samples) == 0.0

    rng = make_rng(7)
    zeroed = 0
    total = 0
    ones = np.ones(64)
    for _ in range(10000):
        kept = network_reference.dropout_forward(ones, 0.3, rng)
        zeroed += int(np.sum(kept == 0.0))
        total += kept.size
    fraction = zeroed / total
    assert abs(fraction - 0.3) <= 0.02
    print(
        f"[criterion 4] dropout: rate 0 gives zero spread on {len(trees)} trees; "
        f"10000 masks zero fraction {fraction:.4f} (0.3 +- 0.02)"
    )


# ---------------------------------------------------------------------------
# 5 & 8 share one seeded end-to-end run


@pytest.fixture(scope="module")
def big_run():
    spec = SyntheticSpec(
        trees_per_class=200,
        ambiguity_max=0.3,
        noise_rate=0.15,
        tokens_per_tweet=(4, 10),
        branching_prob=0.65,
        seed=13,
    )
    trees = generate_synthetic(spec)
    folds = make_folds(trees, "k_fold", k=5, seed=3, dev_fold=0)
    config = TrainingConfig(
        hidden_size=32,
        num_relu_layers=1,
        dropout_rate_train=0.2,
        learning_rate=0.05,
        epochs=15,
        aleatoric_samples=5,
        seed=0,
    )
    emb = HashingEmbedder(dimension=128, seed=1)
    uq = UncertaintyConfig(n_samples=15, dropout_rate=0.2, seed=5)
    started = time.monotonic()
    res = cross_validate(trees, folds, config, uq, emb)
    elapsed = time.monotonic() - started
    return dict(
        trees={t.tree_id: t for t in trees},
        folds=folds,
        emb=emb,
        uq=uq,
        res=res,
        train_seconds=elapsed,
    )


@pytest.mark.slow
def test_criterion_5_synthetic_end_to_end(big_run):
    started = time.monotonic()
    res = big_run["res"]
    records = res.records
    n = len(records)
    assert n == 480  # 600 trees minus the held-out dev fold

    base = evaluate(records, res.classes).accuracy
    assert base >= 0.70

    gains = {}
    for measure in ("variation_ratio", "aleatoric"):
        kept, _ = unsupervised_reject(records, measure, 0.8)
        gains[measure] = evaluate(kept, res.classes).accuracy - base
        assert gains[measure] >= 0.02

    deltas = []
    for seed in range(50):
        kept, _ = random_reject(records, 0.8, seed=seed)
        deltas.append(evaluate(kept, res.classes).accuracy - base)
    random_mean = float(np.mean(deltas))
    assert abs(random_mean) <= 0.01

    dev_pool = [r for recs in res.dev_records.values() for r in recs]
    meta = train_meta(dev_pool, backend="random_forest", seed=2)
    retained, _, n_removed = supervised_reject(meta, records, threshold=0.5)
    assert 0 < n_removed < n
    sup_acc = evaluate(retained, res.classes).accuracy
    same_count_fraction = 1.0 - (n_removed - 0.5) / n
    best_unsup = -1.0
    for measure in MEASURES:
        kept, removed = unsupervised_reject(records, measure, same_count_fraction)
        assert len(removed) == n_removed
        best_unsup = max(best_unsup, evaluate(kept, res.classes).accuracy)
    assert sup_acc >= best_unsup - 0.01

    total = big_run["train_seconds"] + (time.monotonic() - started)
    assert total < 300.0
    print(
        f"[criterion 5] end-to-end: acc {base:.3f} (>=0.70); gains vr {gains['variation_ratio']:+.3f} "
        f"alea {gains['aleatoric']:+.3f} (>=+0.02); random mean {random_mean:+.4f} (|.|<=0.01); "
        f"supervised {sup_acc:.3f} vs best unsup {best_unsup:.3f} at {n_removed} removed; {total:.0f}s (<300)"
    )


# ---------------------------------------------------------------------------
# 6. calibration


def _miscalibrated(rng, n):
    """Records whose stated confidence c overstates the true accuracy c^2."""
    ln3 = math.log(3)
    out = []
    for i in range(n):
        c = float(rng.uniform(0.0, 1.0))
        ok = bool(rng.random() < c * c)
        b = UncertaintyBundle(
            variation_ratio=1.0 - c,
            entropy=(1.0 - c) * ln3,
            variance=1.0 - c,
            aleatoric=1.0 - c,
            softmax_lcs=c,
            softmax_margin=c,
            softmax_ratio=1.0 - c,
            softmax_entropy=(1.0 - c) * ln3,
            mean_probs=(1.0, 0.0, 0.0),
            predicted_class=0,
        )
        out.append(make_record(f"t{i}", "true", "true" if ok else "false", b, fold=0))
    return out


def test_criterion_6_calibration_improvement():
    rng = make_rng(31)
    dev = _miscalibrated(rng, 5000)
    test = _miscalibrated(rng, 5000)
    results = []
    for measure in MEASURES:
        report = calibration_report(dev, test, measure, n_bins=10)
        assert report.ece_after < report.ece_before
        assert report.ece_after <= 0.05
        results.append(f"{measure} {report.ece_before:.3f}->{report.ece_after:.3f}")
    print(f"[criterion 6] calibration: {'; '.join(results)} (all post <= 0.05)")


# ---------------------------------------------------------------------------
# 7. rank test


def test_criterion_7_rank_test():
    h, _ = kruskal_wallis([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert abs(h - 3.857) <= 1e-3

    rng = make_rng(2024)
    rejections = 0
    trials = 1000
    for _ in range(trials):
        groups = [rng.normal(size=15).tolist() for _ in range(3)]
        _, p = kruskal_wallis(groups)
        rejections += p < 0.05
    rate = rejections / trials
    assert 0.03 <= rate <= 0.07
    print(f"[criterion 7] rank test: H {h:.6f} (3.857 +- 1e-3); null rejection rate {rate:.3f} in [0.03, 0.07]")


# ---------------------------------------------------------------------------
# 8. timelines


@pytest.mark.slow
def test_criterion_8_timeline_consistency(big_run):
    res, emb, uq = big_run["res"], big_run["emb"], big_run["uq"]
    folds = big_run["folds"]
    fallback_fold = min(res.models)
    classes = res.classes

    series_by_tree = {}
    mismatches = 0
    for tree in big_run["trees"].values():
        fold = folds.assignments[tree.tree_id]
        params = res.models.get(fold, res.models[fallback_fold])
        series = timeline_report(params, tree, emb, uq)
        whole = bundle(
            params, tree, emb, uq.n_samples, uq.dropout_rate, seed=uq.seed,
            branch_level=uq.branch_level,
        )
        if series.steps[-1].bundle != whole:
            mismatches += 1
        series_by_tree[tree.tree_id] = series
    assert mismatches == 0

    final_hits = 0
    min_u_hits = 0
    for record in res.records:
        series = series_by_tree[record.tree_id]
        final_hits += classes[series.steps[-1].predicted_class] == record.gold
        pick = min_uncertainty_prediction(series, "variation_ratio")
        min_u_hits += classes[pick] == record.gold
    final_acc = final_hits / len(res.records)
    min_u_acc = min_u_hits / len(res.records)
    assert min_u_acc >= final_acc - 0.01
    print(
        f"[criterion 8] timelines: final==whole-tree on {len(series_by_tree)}/600 trees; "
        f"min-uncertainty acc {min_u_acc:.4f} vs final {final_acc:.4f} (>= final - 0.01)"
    )


# ---------------------------------------------------------------------------
# 9. determinism


_PIPE_SPEC = json.dumps(
    {
        "trees_per_class": 8,
        "ambiguity_max": 0.3,
        "tokens_per_tweet": [3, 6],
        "branching_prob": 0.5,
        "seed": 17,
    }
)

_PIPE_CONFIG = json.dumps(
    {
        "model": {
            "hidden_size": 6,
            "num_relu_layers": 1,
            "dropout_rate_train": 0.2,
            "learning_rate": 0.05,
            "epochs": 3,
            "aleatoric_samples": 3,
            "seed": 0,
        },
        "uncertainty": {"n_samples": 4, "dropout_rate": 0.3, "seed": 9},
        "embedder": {"dimension": 32, "seed": 1},
    }
)


def _run_pipeline(root):
    from veritas.data import load_dataset

    root.mkdir()
    data = root / "data.jsonl"
    assert cli_main(["synth", "--spec", _PIPE_SPEC, "--out", str(data)]) == 0
    folds_path = root / "folds.json"
    make_folds(load_dataset(data), "k_fold", k=3, seed=2, dev_fold=0).save(folds_path)
    out = root / "run"
    rc = cli_main(
        [
            "train",
            "--data", str(data),
            "--folds", str(folds_path),
            "--config", _PIPE_CONFIG,
            "--out", str(out),
        ]
    )
    assert rc == 0

    records = read_records_csv(out / "records.csv")
    dev = read_records_csv(out / "dev_records.csv")
    curve = rejection_curve(records, "variation_ratio", CLASSES, fractions=(1.0, 0.8, 0.6))
    (out / "curve.csv").write_text(curve_to_csv(curve), encoding="utf-8")
    report = calibration_report(dev, records, "lcs", n_bins=5)
    (out / "calibration.csv").write_text(report.to_csv(), encoding="utf-8")

    target = records[0]
    params = ModelParams.load(out / f"fold_{target.fold}" / "params.json")
    series = timeline_report(
        params,
        {t.tree_id: t for t in load_dataset(data)}[target.tree_id],
        HashingEmbedder(dimension=32, seed=1),
        UncertaintyConfig(n_samples=4, dropout_rate=0.3, seed=9),
    )
    (out / "timeline.csv").write_text(timeline_to_csv(series), encoding="utf-8")


def test_criterion_9_deterministic_reports(tmp_path):
    _run_pipeline(tmp_path / "a")
    _run_pipeline(tmp_path / "b")
    files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
    rel_a = [p.relative_to(tmp_path / "a") for p in files_a]
    rel_b = [p.relative_to(tmp_path / "b") for p in files_b]
    assert rel_a == rel_b
    assert len(rel_a) >= 10
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), f"{pa.name} differs between reruns"
    print(f"[criterion 9] determinism: {len(rel_a)} report files byte-identical across reruns")
