"""Command-line entry points.

Exit status is 0 on success and 2 on any configuration or data error, so
shell pipelines can distinguish bad invocations from crashes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .calibration import calibration_report
from .data import (
    CANONICAL_LABELS,
    FoldSpec,
    HashingEmbedder,
    infer_classes,
    load_dataset,
    write_dataset,
)
from .errors import ConfigError, DataError, VeritasError, check_value, read_json, write_text
from .harness import (
    cross_validate,
    timeline_report,
    timeline_to_csv,
    min_uncertainty_prediction,
    write_history_csv,
    write_records_csv,
    read_records_csv,
)
from .metrics import evaluate
from .model import ModelParams, TrainingConfig
from .rejection import (
    RejectionCurve,
    curve_point,
    curve_to_csv,
    per_fold_reject,
    random_reject,
    supervised_reject,
    train_meta,
    unsupervised_reject,
)
from .synth import SyntheticSpec, generate_synthetic
from .uncertainty import UncertaintyConfig


def _load_json_arg(value: str, what: str) -> dict:
    """Accept either inline JSON or a path to a JSON file."""
    if not value.lstrip().startswith("{"):
        parsed = read_json(value, f"{what} file")
    else:
        try:
            parsed = json.loads(value)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(parsed, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return parsed


def _build(cls, raw: dict, what: str):
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ConfigError(f"invalid {what} options: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


# The top-level keys of a ``train --config`` document.
TRAIN_CONFIG_KEYS = ("model", "uncertainty", "embedder", "classes")


def _classes_for(n_classes: int) -> tuple[str, ...]:
    check_value("class count", n_classes, "int", f"[2, {len(CANONICAL_LABELS)}]")
    return CANONICAL_LABELS[:n_classes]


def _metrics_json(records, classes) -> str:
    report = evaluate(records, classes)
    return json.dumps(dataclasses.asdict(report), sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_train(args: argparse.Namespace) -> int:
    trees = load_dataset(args.data)
    folds = FoldSpec.load(args.folds)
    raw = _load_json_arg(args.config, "config")
    unknown = sorted(set(raw) - set(TRAIN_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; the known keys are {list(TRAIN_CONFIG_KEYS)}")
    config = _build(TrainingConfig, raw.get("model", {}), "model")
    uq = _build(UncertaintyConfig, raw.get("uncertainty", {}), "uncertainty")
    emb_raw = raw.get("embedder", {})
    embedder = _build(HashingEmbedder, emb_raw, "embedder")
    classes = raw.get("classes")
    if classes is None:
        classes = infer_classes(trees)
    elif isinstance(classes, list) and all(isinstance(c, str) for c in classes):
        classes = tuple(classes)
    else:
        raise ConfigError(f"config key 'classes' must be a list of strings, got {classes!r}")

    if args.dev_fold is not None:
        folds = FoldSpec(
            scheme=folds.scheme, assignments=folds.assignments, dev_fold=args.dev_fold
        )
    result = cross_validate(trees, folds, config, uq, embedder, classes=classes)

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for fold in result.models:
            (out / f"fold_{fold}").mkdir(exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write --out directory {out}: {exc}") from exc
    echo = {
        "model": dataclasses.asdict(config),
        "uncertainty": dataclasses.asdict(uq),
        "embedder": {"dimension": embedder.dimension, "seed": embedder.seed},
        "classes": list(classes),
        "scheme": folds.scheme,
        "dev_fold": folds.dev_fold,
    }
    write_text(out / "config.json", json.dumps(echo, indent=2, sort_keys=True) + "\n", "config file")
    for fold in sorted(result.models):
        result.models[fold].save(out / f"fold_{fold}" / "params.json")
        write_history_csv(result.histories[fold], out / f"fold_{fold}" / "history.csv")
    write_records_csv(result.records, out / "records.csv")
    pooled = [r for fold in sorted(result.dev_records) for r in result.dev_records[fold]]
    if pooled:
        write_records_csv(pooled, out / "dev_records.csv")
    print(
        json.dumps(
            {
                "folds": len(result.models),
                "n_records": len(result.records),
                "metrics": dataclasses.asdict(evaluate(result.records, classes)),
                "out": str(out),
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    records = read_records_csv(args.records)
    classes = _classes_for(args.classes)
    k = records[0].bundle.n_classes if records else args.classes
    if k != args.classes:
        raise ConfigError(f"--classes {args.classes} does not match the {k} probability columns of {args.records}")
    print(_metrics_json(records, classes))
    return 0


def _print_cut(measure: str, records, fraction: float, retained, classes) -> None:
    """A two-point curve: every record, then the retained ones."""
    points = (curve_point(1.0, records, classes), curve_point(fraction, retained, classes))
    print(curve_to_csv(RejectionCurve(measure=measure, points=points)), end="")


def _cmd_reject(args: argparse.Namespace) -> int:
    check_value("--seed", args.seed, "int", "[0, inf)")
    records = read_records_csv(args.records)
    if not records:
        raise DataError(f"no records in {args.records}")
    classes = _classes_for(records[0].bundle.n_classes)

    if args.mode == "sup":
        if args.meta is None:
            raise ConfigError("mode sup needs --meta")
        spec = _load_json_arg(args.meta, "meta")
        if "dev_records" not in spec:
            raise ConfigError("--meta JSON needs a dev_records path")
        for key in ("dev_records", "save"):
            if key in spec and not isinstance(spec[key], str):
                raise ConfigError(f"--meta key {key!r} must be a path string, got {spec[key]!r}")
        dev = read_records_csv(spec["dev_records"])
        backend = spec.get("backend", "random_forest")
        reserved = {"backend", "dev_records", "threshold", "save"}
        hyper = {k: v for k, v in spec.items() if k not in reserved}
        meta = train_meta(dev, backend=backend, hyperparams=hyper or None, seed=args.seed)
        if "save" in spec:
            meta.save(spec["save"])
        retained, _, _ = supervised_reject(meta, records, spec.get("threshold", 0.5))
        _print_cut(f"supervised_{backend}", records, len(retained) / len(records), retained, classes)
        return 0

    if args.retain is None:
        raise ConfigError(f"mode {args.mode} needs --retain")
    fraction = args.retain
    if args.mode == "random":
        measure = "random"
        retained, _ = random_reject(records, fraction, seed=args.seed)
    elif args.measure is None:
        raise ConfigError(f"mode {args.mode} needs --measure")
    else:
        measure = args.measure
        cut = per_fold_reject if args.mode == "perfold" else unsupervised_reject
        retained, _ = cut(records, measure, fraction)
    _print_cut(measure, records, fraction, retained, classes)
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    dev = read_records_csv(args.dev)
    test = read_records_csv(args.test)
    report = calibration_report(dev, test, args.measure, n_bins=args.bins)
    print(report.to_csv(), end="")
    return 0


def _find_config_echo(model_path: Path) -> dict:
    """The ``train`` config echo next to the model or one directory up."""
    for candidate in (model_path.parent / "config.json", model_path.parent.parent / "config.json"):
        if candidate.is_file():
            parsed = read_json(candidate, "config file")
            if not isinstance(parsed, dict):
                raise DataError(f"config file {candidate} is not a JSON object")
            return parsed
    print(
        f"no config.json next to {model_path}; "
        "using the default embedder and uncertainty settings",
        file=sys.stderr,
    )
    return {}


def _cmd_timeline(args: argparse.Namespace) -> int:
    params = ModelParams.load(args.model)
    trees = load_dataset(args.data)
    by_id = {t.tree_id: t for t in trees}
    if args.tree not in by_id:
        raise DataError(f"tree {args.tree!r} not found in {args.data}")
    echo = _find_config_echo(Path(args.model))
    uq = _build(UncertaintyConfig, echo.get("uncertainty", {}), "uncertainty")
    embedder = _build(HashingEmbedder, echo.get("embedder", {}), "embedder")
    series = timeline_report(params, by_id[args.tree], embedder, uq)
    pred = min_uncertainty_prediction(series, args.measure)
    print(timeline_to_csv(series), end="")
    classes = tuple(echo.get("classes", CANONICAL_LABELS[: series.steps[0].bundle.n_classes]))
    print(
        f"min-uncertainty prediction by {args.measure}: {classes[pred]}"
        f" (final step predicts {classes[series.steps[-1].predicted_class]})",
        file=sys.stderr,
    )
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    raw = _load_json_arg(args.spec, "spec")
    for key in ("classes", "tokens_per_tweet"):
        if key in raw and isinstance(raw[key], list):
            raw[key] = tuple(raw[key])
    spec = _build(SyntheticSpec, raw, "spec")
    trees = generate_synthetic(spec)
    write_dataset(trees, args.out)
    print(f"wrote {len(trees)} trees to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veritas",
        description="Rumour verification with uncertainty estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="cross-validate a model and write reports")
    p.add_argument("--data", required=True)
    p.add_argument("--folds", required=True)
    p.add_argument("--config", required=True, help="JSON file or inline JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--dev-fold", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("reject", help="selective prediction over a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--mode", required=True, choices=("unsup", "sup", "random", "perfold"))
    p.add_argument("--measure", default=None)
    p.add_argument("--retain", type=float, default=None)
    p.add_argument("--meta", default=None, help="JSON file or inline JSON")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_reject)

    p = sub.add_parser("calibrate", help="histogram-binning calibration report")
    p.add_argument("--dev", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--bins", type=int, required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("timeline", help="per-tweet uncertainty for one conversation")
    p.add_argument("--model", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--measure", required=True)
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="JSON file or inline JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VeritasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
