"""Every reader and writer of the package reports a failed read or write as a
DataError that names the file, and the readers keep their line-end rules:
a dataset reads with universal newlines, a records CSV as a file opened with
``newline=""`` (the reading of ``tests/rejection_reference.py``)."""

import dataclasses
import json

import pytest
from conftest import record_with

from veritas import (
    FoldSpec,
    MetaClassifier,
    ModelParams,
    SyntheticSpec,
    generate_synthetic,
    init_params,
    load_dataset,
    read_records_csv,
    write_dataset,
    write_history_csv,
    write_records_csv,
)
from veritas.errors import DataError
from veritas.model import EpochStats

import rejection_reference as ref

READERS = {
    "load_dataset": load_dataset,
    "FoldSpec.load": FoldSpec.load,
    "read_records_csv": read_records_csv,
    "ModelParams.load": ModelParams.load,
    "MetaClassifier.load": MetaClassifier.load,
}

WRITERS = {
    "write_dataset": lambda path: write_dataset(generate_synthetic(SyntheticSpec(trees_per_class=1, seed=3)), path),
    "FoldSpec.save": FoldSpec("k_fold", {"t0": 0, "t1": 1}).save,
    "write_records_csv": lambda path: write_records_csv([record_with("t0")], path),
    "write_history_csv": lambda path: write_history_csv([EpochStats(1, 1.5, 1.0, 0.5)], path),
    "ModelParams.save": init_params(input_dim=3, hidden_size=2, num_relu_layers=1, n_classes=3, seed=0).save,
    "MetaClassifier.save": MetaClassifier("linear_hinge", {"constant": 1.0}, 3, 15).save,
}


def _missing(tmp_path):
    return tmp_path / "nope.json"


def _directory(tmp_path):
    return tmp_path


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"scheme": "café"}\n'.encode("latin-1"))
    return path


@pytest.mark.parametrize("make_path", [_missing, _directory, _not_utf8], ids=["missing", "directory", "not_utf8"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_names_the_file_it_cannot_read(tmp_path, reader, make_path):
    path = make_path(tmp_path)
    with pytest.raises(DataError, match="^cannot read ") as info:
        READERS[reader](path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writer_names_the_file_it_cannot_write_and_creates_nothing(tmp_path, writer):
    path = tmp_path / "nodir" / "out.txt"
    with pytest.raises(DataError, match="^cannot write ") as info:
        WRITERS[writer](path)
    assert str(path) in str(info.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("reader", ["load_dataset", "MetaClassifier.load"])
def test_json_nested_too_deep_names_the_file(tmp_path, reader):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    with pytest.raises(DataError) as info:
        READERS[reader](path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("reader", ["FoldSpec.load", "ModelParams.load"])
def test_file_nested_too_deep_cannot_be_read(tmp_path, reader):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    with pytest.raises(DataError, match=f"^cannot read .* {path}: "):
        READERS[reader](path)


def _dataset_lines(n: int = 3) -> list[str]:
    trees = generate_synthetic(SyntheticSpec(trees_per_class=1, seed=5))[:n]
    return [
        json.dumps({"tree_id": t.tree_id, "event": t.event, "label": t.label, "tweets": [dataclasses.asdict(tw) for tw in t.tweets]})
        for t in trees
    ]


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_dataset_line_ends_read_as_newlines(tmp_path, end):
    lines = _dataset_lines()
    lf, other = tmp_path / "lf.jsonl", tmp_path / "other.jsonl"
    lf.write_bytes("\n".join(lines).encode("utf-8") + b"\n")
    other.write_bytes(end.join(lines).encode("utf-8") + end.encode("utf-8"))
    assert load_dataset(other) == load_dataset(lf)
    # a bad line is counted with each line end as one
    other.write_bytes((end.join(lines[:2] + ["{oops", lines[2]])).encode("utf-8"))
    with pytest.raises(DataError, match=f"^{other}:3: invalid JSON"):
        load_dataset(other)


def test_dataset_line_separator_character_is_no_line_end(tmp_path):
    line = json.loads(_dataset_lines(1)[0])
    line["tweets"][0]["text"] = "one\u2028two\x85three"
    path = tmp_path / "ls.jsonl"
    path.write_text(json.dumps(line, ensure_ascii=False) + "\n", encoding="utf-8")
    (tree,) = load_dataset(path)
    assert tree.tweets[0].text == "one\u2028two\x85three"


# csv quotes a field for a "\n", a "," or a '"' in it, not for a "\r" alone
@pytest.mark.parametrize("tree_id", ["a\n\rb", "a,\rb", 'a"\r', "a\r\nb", "a\nb", "a\u2028b", "a\x85b"])
def test_records_csv_quoted_line_ends_round_trip(tmp_path, tree_id):
    records = [record_with(tree_id), record_with("plain", fold=1)]
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    assert read_records_csv(path) == records == ref.read_records_csv(path)


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_records_csv_line_ends_read_as_a_file_opened_with_newline_empty(tmp_path, end):
    path = tmp_path / "records.csv"
    write_records_csv([record_with("t0"), record_with("t1", fold=2)], path)
    path.write_bytes(path.read_bytes().replace(b"\n", end.encode("ascii")))
    assert read_records_csv(path) == ref.read_records_csv(path)


def test_infinite_integer_field_names_the_file(tmp_path):
    line = json.loads(_dataset_lines(1)[0])
    line["tweets"][0]["timestamp"] = float("inf")
    path = tmp_path / "inf.jsonl"
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{path}:1: tree .*: bad tweet entry"):
        load_dataset(path)
    path = tmp_path / "meta.json"
    path.write_text('{"backend": "linear_hinge", "state": {"constant": 1.0}, "n_classes": 1e400, "n_features": 3}')
    with pytest.raises(DataError, match=f"^{path}: bad meta-classifier JSON: "):
        MetaClassifier.load(path)
