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
        ],
    )
    def test_bad_folds_file(self, workspace, tmp_path, capfd, doc):
        folds = tmp_path / "bad_folds.json"
        folds.write_text(json.dumps(doc), encoding="utf-8")
        assert self._train(workspace, folds, json.dumps(CONFIG)) == 2
        assert str(folds) in capfd.readouterr().err

    @pytest.mark.parametrize("classes", [3, "ab", ["a", 1]])
    def test_classes_not_a_list_of_strings(self, workspace, capfd, classes):
        assert self._train(workspace, workspace["folds"], json.dumps({**CONFIG, "classes": classes})) == 2
        assert "'classes'" in capfd.readouterr().err

    @pytest.mark.parametrize(
        "extra, key",
        [
            ({"threshold": "0.5"}, "threshold"),
            ({"backend": "linear_hinge", "epochs": "many"}, "'epochs'"),
            ({"n_trees": None}, "'n_trees'"),
        ],
    )
    def test_bad_meta_value(self, workspace, capfd, extra, key):
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
        assert key in capfd.readouterr().err

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
        assert backend in err and repr(key) in err
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
