"""End-to-end CLI pipeline driven in process through main(argv)."""

import json
import shutil

import pytest

from veritas import MetaClassifier, make_folds, read_records_csv
from veritas.cli import main
from veritas.data import load_dataset

SPEC = {
    "trees_per_class": 8,
    "ambiguity_max": 0.3,
    "tokens_per_tweet": [3, 6],
    "branching_prob": 0.5,
    "seed": 17,
}

CONFIG = {
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


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.jsonl"
    assert main(["synth", "--spec", json.dumps(SPEC), "--out", str(data)]) == 0

    trees = load_dataset(data)
    folds_path = root / "folds.json"
    make_folds(trees, "k_fold", k=3, seed=2, dev_fold=0).save(folds_path)

    config_path = root / "config.json"
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    out = root / "run"
    rc = main(
        [
            "train",
            "--data", str(data),
            "--folds", str(folds_path),
            "--config", str(config_path),
            "--out", str(out),
        ]
    )
    assert rc == 0
    return dict(root=root, data=data, folds=folds_path, config=config_path, out=out)


class TestTrain:
    def test_writes_reports_per_fold(self, workspace):
        out = workspace["out"]
        assert (out / "config.json").is_file()
        assert (out / "records.csv").is_file()
        # dev fold 0 never becomes a test fold
        assert (out / "dev_records.csv").is_file()
        assert not (out / "fold_0").exists()
        for fold in (1, 2):
            assert (out / f"fold_{fold}" / "params.json").is_file()
            assert (out / f"fold_{fold}" / "history.csv").is_file()

    def test_records_cover_non_dev_trees(self, workspace):
        records = read_records_csv(workspace["out"] / "records.csv")
        assert len(records) == 16
        assert {r.fold for r in records} == {1, 2}

    def test_config_echo_round_trips(self, workspace):
        echo = json.loads((workspace["out"] / "config.json").read_text())
        assert echo["model"]["hidden_size"] == 6
        assert echo["uncertainty"]["n_samples"] == 4
        assert echo["embedder"] == {"dimension": 32, "seed": 1}
        assert echo["dev_fold"] == 0

    def test_stdout_summary(self, workspace, capfd):
        rc = main(
            [
                "train",
                "--data", str(workspace["data"]),
                "--folds", str(workspace["folds"]),
                "--config", str(workspace["config"]),
                "--out", str(workspace["root"] / "run2"),
            ]
        )
        assert rc == 0
        summary = json.loads(capfd.readouterr().out.strip().splitlines()[-1])
        assert summary["folds"] == 2
        assert summary["n_records"] == 16
        assert 0.0 <= summary["metrics"]["accuracy"] <= 1.0

    def test_rerun_byte_identical(self, workspace):
        first = (workspace["out"] / "records.csv").read_bytes()
        again = (workspace["root"] / "run2" / "records.csv").read_bytes()
        assert first == again


class TestEvaluate:
    def test_prints_metrics_json(self, workspace, capfd):
        rc = main(
            ["evaluate", "--records", str(workspace["out"] / "records.csv"), "--classes", "3"]
        )
        assert rc == 0
        doc = json.loads(capfd.readouterr().out)
        assert set(doc) == {"accuracy", "macro_f", "per_class_f1", "n_instances"}
        assert doc["n_instances"] == 16

    def test_missing_file_exits_2(self, workspace, capfd):
        rc = main(["evaluate", "--records", str(workspace["root"] / "nope.csv"), "--classes", "3"])
        assert rc == 2
        assert "error:" in capfd.readouterr().err


class TestReject:
    def test_unsupervised_curve(self, workspace, capfd):
        rc = main(
            [
                "reject",
                "--records", str(workspace["out"] / "records.csv"),
                "--mode", "unsup",
                "--measure", "variation_ratio",
                "--retain", "0.8",
            ]
        )
        assert rc == 0
        lines = capfd.readouterr().out.splitlines()
        assert lines[0] == "measure,retain_fraction,n_remaining,accuracy,macro_f"
        assert len(lines) == 3
        assert lines[1].startswith("variation_ratio,1.0,16,")

    def test_random_mode(self, workspace, capfd):
        rc = main(
            [
                "reject",
                "--records", str(workspace["out"] / "records.csv"),
                "--mode", "random",
                "--retain", "0.75",
                "--seed", "4",
            ]
        )
        assert rc == 0
        lines = capfd.readouterr().out.splitlines()
        assert lines[1].startswith("random,1.0,16,")
        assert lines[2].split(",")[2] == "12"

    def test_per_fold_mode(self, workspace, capfd):
        rc = main(
            [
                "reject",
                "--records", str(workspace["out"] / "records.csv"),
                "--mode", "perfold",
                "--measure", "entropy",
                "--retain", "0.8",
            ]
        )
        assert rc == 0
        assert capfd.readouterr().out.startswith("measure,")

    def test_supervised_trains_and_saves_meta(self, workspace, capfd):
        meta_path = workspace["root"] / "meta.json"
        spec = {
            "dev_records": str(workspace["out"] / "dev_records.csv"),
            "backend": "random_forest",
            "n_trees": 20,
            "threshold": 0.5,
            "save": str(meta_path),
        }
        rc = main(
            [
                "reject",
                "--records", str(workspace["out"] / "records.csv"),
                "--mode", "sup",
                "--meta", json.dumps(spec),
                "--seed", "7",
            ]
        )
        assert rc == 0
        lines = capfd.readouterr().out.splitlines()
        assert lines[1].startswith("supervised_random_forest,1.0,16,")
        loaded = MetaClassifier.load(meta_path)
        assert loaded.backend == "random_forest"

    def test_sup_without_meta_exits_2(self, workspace, capfd):
        rc = main(
            ["reject", "--records", str(workspace["out"] / "records.csv"), "--mode", "sup"]
        )
        assert rc == 2
        assert "meta" in capfd.readouterr().err

    def test_unsup_without_measure_exits_2(self, workspace, capfd):
        rc = main(
            [
                "reject",
                "--records", str(workspace["out"] / "records.csv"),
                "--mode", "unsup",
                "--retain", "0.8",
            ]
        )
        assert rc == 2
        assert "measure" in capfd.readouterr().err

    @pytest.mark.parametrize("mode", ["unsup", "perfold", "random"])
    def test_retain_above_one_exits_2(self, workspace, capfd, mode):
        rc = main(
            [
                "reject",
                "--records", str(workspace["out"] / "records.csv"),
                "--mode", mode,
                "--measure", "entropy",
                "--retain", "1.5",
            ]
        )
        assert rc == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert "retain_fraction must be in (0, 1]" in captured.err

    def test_unsup_at_full_retention_prints_both_rows(self, workspace, capfd):
        rc = main(
            [
                "reject",
                "--records", str(workspace["out"] / "records.csv"),
                "--mode", "unsup",
                "--measure", "entropy",
                "--retain", "1.0",
            ]
        )
        assert rc == 0
        lines = capfd.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("entropy,1.0,16,")
        assert lines[1] == lines[2]

    def test_unsup_without_retain_exits_2(self, workspace, capfd):
        rc = main(
            [
                "reject",
                "--records", str(workspace["out"] / "records.csv"),
                "--mode", "unsup",
                "--measure", "entropy",
            ]
        )
        assert rc == 2
        capfd.readouterr()


class TestCalibrate:
    def test_report_csv(self, workspace, capfd):
        rc = main(
            [
                "calibrate",
                "--dev", str(workspace["out"] / "dev_records.csv"),
                "--test", str(workspace["out"] / "records.csv"),
                "--measure", "lcs",
                "--bins", "5",
            ]
        )
        assert rc == 0
        lines = capfd.readouterr().out.splitlines()
        assert lines[0] == "measure,ece_before,ece_after,n_bins,n_dev,n_test"
        assert lines[1].startswith("lcs,")

    def test_deterministic_output(self, workspace, capfd):
        argv = [
            "calibrate",
            "--dev", str(workspace["out"] / "dev_records.csv"),
            "--test", str(workspace["out"] / "records.csv"),
            "--measure", "variation_ratio",
            "--bins", "10",
        ]
        assert main(argv) == 0
        first = capfd.readouterr().out
        assert main(argv) == 0
        assert capfd.readouterr().out == first


class TestTimeline:
    def test_emits_step_csv(self, workspace, capfd):
        records = read_records_csv(workspace["out"] / "records.csv")
        target = records[0]
        rc = main(
            [
                "timeline",
                "--model", str(workspace["out"] / f"fold_{target.fold}" / "params.json"),
                "--tree", target.tree_id,
                "--data", str(workspace["data"]),
                "--measure", "variation_ratio",
            ]
        )
        assert rc == 0
        out, err = capfd.readouterr()
        assert out.startswith("step,n_tweets,pred,")
        assert "min-uncertainty prediction by variation_ratio" in err

    def test_unknown_tree_exits_2(self, workspace, capfd):
        rc = main(
            [
                "timeline",
                "--model", str(workspace["out"] / "fold_1" / "params.json"),
                "--tree", "ghost",
                "--data", str(workspace["data"]),
                "--measure", "entropy",
            ]
        )
        assert rc == 2
        assert "ghost" in capfd.readouterr().err

    def _timeline(self, workspace, model):
        records = read_records_csv(workspace["out"] / "records.csv")
        model.parent.mkdir(parents=True)
        source = workspace["out"] / f"fold_{records[0].fold}" / "params.json"
        shutil.copyfile(source, model)
        return main(
            [
                "timeline",
                "--model", str(model),
                "--tree", records[0].tree_id,
                "--data", str(workspace["data"]),
                "--measure", "entropy",
            ]
        )

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"], ids=["corrupt", "not_object"])
    def test_unusable_config_exits_2(self, workspace, tmp_path, capfd, text):
        (tmp_path / "m").mkdir()
        config = tmp_path / "m" / "config.json"
        config.write_text(text, encoding="utf-8")
        assert self._timeline(workspace, tmp_path / "m" / "fold_1" / "params.json") == 2
        assert str(config) in capfd.readouterr().err

    def test_missing_config_says_defaults_are_used(self, workspace, tmp_path, capfd):
        assert self._timeline(workspace, tmp_path / "a" / "b" / "params.json") == 0
        out, err = capfd.readouterr()
        assert out.startswith("step,n_tweets,pred,")
        notes = [line for line in err.splitlines() if "default embedder and uncertainty" in line]
        assert len(notes) == 1


class TestSynth:
    def test_spec_file_and_inline_agree(self, workspace, tmp_path, capfd):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["synth", "--spec", str(spec_path), "--out", str(a)]) == 0
        assert main(["synth", "--spec", json.dumps(SPEC), "--out", str(b)]) == 0
        capfd.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == workspace["data"].read_bytes()

    def test_invalid_spec_exits_2(self, tmp_path, capfd):
        rc = main(
            ["synth", "--spec", '{"trees_per_class": 2, "noise_rate": 0.9}',
             "--out", str(tmp_path / "x.jsonl")]
        )
        assert rc == 2
        assert "noise_rate" in capfd.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capfd):
        rc = main(["synth", "--spec", "{oops", "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        capfd.readouterr()


class TestParser:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_mode_is_usage_error(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main(
                ["reject", "--records", str(workspace["out"] / "records.csv"), "--mode", "bogus"]
            )
        assert exc.value.code == 2

    def test_bad_train_config_exits_2(self, workspace, capfd):
        rc = main(
            [
                "train",
                "--data", str(workspace["data"]),
                "--folds", str(workspace["folds"]),
                "--config", '{"model": {"hidden_size": -3}}',
                "--out", str(workspace["root"] / "bad"),
            ]
        )
        assert rc == 2
        capfd.readouterr()


class TestBadInputExits2:
    """Malformed files and options exit 2 with an error naming the file or key."""

    def _train(self, workspace, folds, config):
        return main(
            [
                "train",
                "--data", str(workspace["data"]),
                "--folds", str(folds),
                "--config", config,
                "--out", str(workspace["root"] / "bad"),
            ]
        )

    @pytest.mark.parametrize(
        "doc",
        [
            {"scheme": "k_fold", "assignments": ["t0", 0]},
            {"scheme": "k_fold", "assignments": {"t0": 0, "t1": 1}, "dev_fold": 5},
            {"scheme": "k_fold", "assignments": {"t0": 0, "t1": 1.7}},
            {"scheme": "k_fold", "assignments": {"t0": 0, "t1": True}},
            {"scheme": "k_fold", "assignments": {"t0": 0, "t1": "1"}},
            {"scheme": "k_fold", "assignments": {"t0": 0, "t1": 1}, "dev_fold": 0.9},
            {"scheme": 5, "assignments": {"t0": 0, "t1": 1}},
            {"scheme": None, "assignments": {"t0": 0, "t1": 1}},
        ],
    )
    def test_bad_folds_file(self, workspace, tmp_path, capfd, doc):
        folds = tmp_path / "bad_folds.json"
        folds.write_text(json.dumps(doc), encoding="utf-8")
        assert self._train(workspace, folds, json.dumps(CONFIG)) == 2
        assert str(folds) in capfd.readouterr().err

    @pytest.mark.parametrize("classes", ["2", "4"])
    def test_evaluate_class_count_differs_from_the_records(self, workspace, capfd, classes):
        records = workspace["out"] / "records.csv"
        assert main(["evaluate", "--records", str(records), "--classes", classes]) == 2
        err = capfd.readouterr().err
        assert f"error: --classes {classes} does not match the 3 probability columns of {records}\n" in err

    @pytest.mark.parametrize("classes", [3, "ab", ["a", 1]])
    def test_classes_not_a_list_of_strings(self, workspace, capfd, classes):
        assert self._train(workspace, workspace["folds"], json.dumps({**CONFIG, "classes": classes})) == 2
        assert "'classes'" in capfd.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"threshold": "0.5"}, "threshold must be a finite number, got '0.5'"),
            ({"backend": "linear_hinge", "epochs": "many"}, "linear_hinge hyperparameter epochs must be an integer, got 'many'"),
            ({"n_trees": None}, "random_forest hyperparameter n_trees must be an integer, got None"),
            # fd 0 is /dev/null under pytest's capture, so reading it could not block
            ({"dev_records": 0}, "--meta key 'dev_records' must be a path string, got 0"),
            ({"dev_records": ["r.csv"]}, "--meta key 'dev_records' must be a path string, got ['r.csv']"),
            ({"save": 1}, "--meta key 'save' must be a path string, got 1"),
        ],
    )
    def test_bad_meta_value(self, workspace, capfd, extra, message):
        spec = {"dev_records": str(workspace["out"] / "dev_records.csv"), **extra}
        rc = main(
            [
                "reject",
                "--records", str(workspace["out"] / "records.csv"),
                "--mode", "sup",
                "--meta", json.dumps(spec),
            ]
        )
        assert rc == 2
        assert f"error: {message}\n" in capfd.readouterr().err

    @pytest.mark.parametrize(
        "backend, key, bad",
        [
            ("random_forest", "n_trees", 0),
            ("random_forest", "n_trees", 2.7),
            ("random_forest", "max_depth", -1),
            ("random_forest", "bootstrap_fraction", 0),
            ("linear_hinge", "epochs", -2),
            ("linear_hinge", "learning_rate", -0.5),
            ("linear_hinge", "l2", -1),
        ],
    )
    def test_meta_hyperparameter_out_of_range(self, workspace, tmp_path, capfd, backend, key, bad):
        saved = tmp_path / "meta.json"
        spec = {"dev_records": str(workspace["out"] / "dev_records.csv"), "backend": backend, key: bad, "save": str(saved)}
        rc = main(
            [
                "reject",
                "--records", str(workspace["out"] / "records.csv"),
                "--mode", "sup",
                "--meta", json.dumps(spec),
            ]
        )
        assert rc == 2
        err = capfd.readouterr().err
        assert f"error: {backend} hyperparameter {key} must be " in err
        assert not saved.exists()

    def test_diverged_hinge_exits_2_and_saves_nothing(self, workspace, tmp_path, capfd):
        saved = tmp_path / "meta.json"
        spec = {
            "dev_records": str(workspace["out"] / "dev_records.csv"),
            "backend": "linear_hinge",
            "learning_rate": 1e100,
            "save": str(saved),
        }
        rc = main(
            [
                "reject",
                "--records", str(workspace["out"] / "records.csv"),
                "--mode", "sup",
                "--meta", json.dumps(spec),
            ]
        )
        assert rc == 2
        err = capfd.readouterr().err
        assert "linear_hinge" in err and "learning_rate" in err
        assert not saved.exists()


    @pytest.mark.parametrize(
        "argv, named",
        [
            ("train --data {missing} --folds {folds} --config {config} --out {out}", "{missing}"),
            ("train --data {latin1} --folds {folds} --config {config} --out {out}", "{latin1}"),
            ("train --data {data} --folds {folds} --config {latin1} --out {out}", "{latin1}"),
            ("evaluate --records {latin1} --classes 3", "{latin1}"),
            ("calibrate --dev {latin1} --test {records} --measure entropy --bins 5", "{latin1}"),
            ("timeline --model {latin1} --tree {tree} --data {data} --measure entropy", "{latin1}"),
            ("train --data {deep} --folds {folds} --config {config} --out {out}", "{deep}"),
            ("train --data {data} --folds {folds} --config {deep_config} --out {out}", "config is not valid JSON"),
            ("timeline --model {negative} --tree {tree} --data {data} --measure entropy", "{negative}"),
            ("synth --spec {spec} --out {nodir}/x.jsonl", "{nodir}/x.jsonl"),
            ("train --data {data} --folds {folds} --config {config} --out {taken}", "{taken}"),
            ("reject --records {records} --mode sup --meta {save_meta}", "{nodir}/meta.json"),
        ],
        ids=[
            "train_data_missing",
            "train_data_not_utf8",
            "train_config_not_utf8",
            "evaluate_records_not_utf8",
            "calibrate_dev_not_utf8",
            "timeline_model_not_utf8",
            "train_data_nested_too_deep",
            "train_inline_config_nested_too_deep",
            "timeline_model_negative_shape",
            "synth_out_in_missing_directory",
            "train_out_is_a_file",
            "reject_meta_save_in_missing_directory",
        ],
    )
    def test_unreadable_or_unwritable_file_exits_2_naming_it(self, workspace, tmp_path, capfd, argv, named):
        deep = "[" * 200_000 + "]" * 200_000
        paths = {name: tmp_path / name for name in ("missing", "latin1", "deep", "negative", "nodir", "taken", "out")}
        paths["latin1"].write_bytes('{"x": "café"}\n'.encode("latin-1"))
        paths["deep"].write_text(deep + "\n", encoding="utf-8")
        paths["negative"].write_text(json.dumps({"lstm.wx": {"shape": [-1, -1], "values": [0.5]}}), encoding="utf-8")
        paths["taken"].write_text("", encoding="utf-8")
        paths.update(
            {name: workspace[name] for name in ("data", "folds", "config")},
            records=workspace["out"] / "records.csv",
            tree=load_dataset(workspace["data"])[0].tree_id,
            deep_config='{"model": ' + deep + "}",
            spec=json.dumps(SPEC),
            save_meta=json.dumps(
                {"dev_records": str(workspace["out"] / "dev_records.csv"), "save": str(paths["nodir"] / "meta.json")}
            ),
        )
        assert main([arg.format(**paths) for arg in argv.split(" ")]) == 2
        err = capfd.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and named.format(**paths) in errors[0]
        assert "Traceback" not in err
        assert not paths["nodir"].exists()


class TestSeedsAndConfigKeys:
    """A negative or non-integer seed and an unknown train config key exit 2 naming the field or key."""

    def test_negative_synth_seed_exits_2(self, tmp_path, capfd):
        rc = main(["synth", "--spec", '{"trees_per_class": 3, "seed": -1}', "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "spec: seed must be >= 0, got -1" in capfd.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("section", ["model", "uncertainty", "embedder"])
    def test_negative_train_config_seed_exits_2(self, workspace, capfd, section):
        config = {**CONFIG, section: {**CONFIG[section], "seed": -1}}
        out = workspace["root"] / f"negative_{section}_seed"
        rc = main(
            [
                "train",
                "--data", str(workspace["data"]),
                "--folds", str(workspace["folds"]),
                "--config", json.dumps(config),
                "--out", str(out),
            ]
        )
        assert rc == 2
        err = capfd.readouterr().err
        assert f"{section}: " in err and "seed must be" in err and "-1" in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [1.5, True])
    @pytest.mark.parametrize("section", ["model", "uncertainty", "embedder"])
    def test_non_integer_train_config_seed_exits_2(self, workspace, capfd, section, seed):
        config = {**CONFIG, section: {**CONFIG[section], "seed": seed}}
        out = workspace["root"] / f"non_integer_{section}_seed"
        rc = main(
            [
                "train",
                "--data", str(workspace["data"]),
                "--folds", str(workspace["folds"]),
                "--config", json.dumps(config),
                "--out", str(out),
            ]
        )
        assert rc == 2
        assert f"{section}: seed must be an integer, got {seed!r}" in capfd.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["random", "sup"])
    def test_negative_reject_seed_exits_2(self, workspace, capfd, mode):
        meta = json.dumps({"dev_records": str(workspace["out"] / "dev_records.csv")})
        rc = main(
            [
                "reject",
                "--records", str(workspace["out"] / "records.csv"),
                "--mode", mode,
                "--retain", "0.5",
                "--meta", meta,
                "--seed", "-3",
            ]
        )
        assert rc == 2
        assert "--seed must be >= 0, got -3" in capfd.readouterr().err

    def test_unknown_train_config_key_exits_2(self, workspace, capfd):
        out = workspace["root"] / "misspelt"
        rc = main(
            [
                "train",
                "--data", str(workspace["data"]),
                "--folds", str(workspace["folds"]),
                "--config", json.dumps({"modle": {"epochs": 1}, "uncertainty": CONFIG["uncertainty"]}),
                "--out", str(out),
            ]
        )
        assert rc == 2
        assert "unknown config keys ['modle']" in capfd.readouterr().err
        assert not out.exists()


class TestConfigFieldTypes:
    """A config field of the wrong type exits 2 with an error naming the section and the field."""

    @pytest.mark.parametrize(
        "section, key, value, rule",
        [
            ("uncertainty", "branch_level", "no", "a bool"),
            ("model", "variance_per_logit", "yes", "a bool"),
            ("model", "epochs", 1.5, "an integer"),
            ("model", "hidden_size", 4.0, "an integer"),
            ("uncertainty", "n_samples", 2.5, "an integer"),
            ("uncertainty", "n_samples", True, "an integer"),
            ("embedder", "dimension", 16.0, "an integer"),
            ("model", "learning_rate", True, "a finite number"),
            ("model", "dropout_rate_train", float("nan"), "a finite number"),
            ("uncertainty", "dropout_rate", float("inf"), "a finite number"),
        ],
    )
    def test_train_config_field_of_wrong_type_exits_2(self, workspace, capfd, section, key, value, rule):
        config = {**CONFIG, section: {**CONFIG[section], key: value}}
        out = workspace["root"] / f"wrong_type_{section}_{key}"
        rc = main(
            [
                "train",
                "--data", str(workspace["data"]),
                "--folds", str(workspace["folds"]),
                "--config", json.dumps(config),
                "--out", str(out),
            ]
        )
        assert rc == 2
        assert f"{section}: {key} must be {rule}, got {value!r}" in capfd.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"trees_per_class": 2.5}, "trees_per_class must be an integer, got 2.5"),
            ({"depth_cap": 1.5}, "depth_cap must be an integer, got 1.5"),
            ({"noise_rate": True}, "noise_rate must be a finite number, got True"),
            ({"tokens_per_tweet": [2.5, 4]}, "tokens_per_tweet must be integers 1 <= lo <= hi, got (2.5, 4)"),
            ({"classes": ["a", "b"]}, "classes must be among ['true', 'false', 'unverified', 'nonrumour'], got 'a'"),
        ],
    )
    def test_synth_spec_field_of_wrong_type_exits_2(self, tmp_path, capfd, extra, message):
        out = tmp_path / "x.jsonl"
        rc = main(["synth", "--spec", json.dumps({"trees_per_class": 2, **extra}), "--out", str(out)])
        assert rc == 2
        assert f"spec: {message}" in capfd.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("model", "learning_rate", 0, "model: learning_rate must be > 0, got 0"),
            ("uncertainty", "dropout_rate", 1.0, "uncertainty: dropout_rate must be in [0, 1), got 1.0"),
            ("embedder", "seed", 2**64, f"embedder: seed must be in [0, 2**64), got {2**64}"),
            ("spec", "ambiguity_max", 1.5, "spec: ambiguity_max must be in [0, 1], got 1.5"),
            ("meta", "n_trees", 3.0, "random_forest hyperparameter n_trees must be an integer, got 3.0"),
        ],
    )
    def test_each_section_names_itself_and_the_field(self, workspace, tmp_path, capfd, section, key, value, message):
        """One field per section: the error names the section (the backend for --meta), then the field."""
        out = tmp_path / "out"
        if section == "spec":
            argv = ["synth", "--spec", json.dumps({"trees_per_class": 2, key: value}), "--out", str(out)]
        elif section == "meta":
            meta = {"dev_records": str(workspace["out"] / "dev_records.csv"), key: value, "save": str(out)}
            argv = ["reject", "--records", str(workspace["out"] / "records.csv"), "--mode", "sup", "--meta", json.dumps(meta)]
        else:
            config = {**CONFIG, section: {**CONFIG[section], key: value}}
            argv = ["train", "--data", str(workspace["data"]), "--folds", str(workspace["folds"]),
                    "--config", json.dumps(config), "--out", str(out)]
        assert main(argv) == 2
        assert f"error: {message}\n" in capfd.readouterr().err
        assert not out.exists()
