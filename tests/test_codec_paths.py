"""The record decoder, the table line encoder and the corpus readers against the code they replaced.

`schema.decode_record` runs code generated per record class, `_write_tables`
encodes each row with a format string per table, and the corpus directories
are read through one descriptor each. The references below are the plain
versions they replaced (a loop over field specs, the key-sorted JSON dump, a
glob and ``read_text``); each test requires the same record, line, text or
refusal.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from enum import Enum
from functools import cache
from operator import attrgetter
from pathlib import Path
from typing import Callable, Optional, get_args, get_origin, get_type_hints

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import REPO_ROOT, within_timeout
from test_pipeline import needs_proc_fd, open_descriptors
from test_schema import studies
from trialforge import ingest, pipeline, store
from trialforge.evidence import _BASE_OUTCOME_TYPES, OUTCOME_EVIDENCE_TAGS, TERMINATION_CATEGORIES, OutcomeLabel
from trialforge.schema import RELATION_TYPES, CanonicalStudy, RelationTriple, Source, decode_record, encode_record
from trialforge.store import TABLE_COLUMNS

# --- the record codec -------------------------------------------------------------


def _optional(convert: Callable) -> Callable:
    return lambda value: None if value is None else convert(value)


def _integer(value):
    if not isinstance(value, int):
        raise ValueError("not an integer")
    return value


def _list_of(kind: type) -> Callable:
    def convert(values):
        if not isinstance(values, list) or not all(isinstance(value, kind) for value in values):
            raise ValueError(f"not a list of {kind.__name__}")
        return list(values)

    return convert


def _converters(hint) -> tuple[Optional[Callable], Optional[Callable]]:
    args = get_args(hint)
    if type(None) in args:
        (inner,) = (arg for arg in args if arg is not type(None))
        encode, decode = _converters(inner)
        return (encode and _optional(encode)), (decode and _optional(decode))
    if isinstance(hint, type) and issubclass(hint, Enum):
        return attrgetter("value"), hint
    if get_origin(hint) is set:
        (kind,) = args
        return (lambda members: sorted(member.value for member in members)), (
            lambda values: {kind(value) for value in values}
        )
    if get_origin(hint) is list:
        return list, _list_of(args[0])
    if hint is int:
        return None, _integer
    return None, None


@cache
def _field_codecs(cls: type):
    hints = get_type_hints(cls)
    names = tuple(f.name for f in fields(cls))
    converters = [(name, *_converters(hints[name])) for name in names]
    return (
        names,
        tuple((name, encode) for name, encode, _ in converters if encode is not None),
        tuple((name, decode) for name, _, decode in converters if decode is not None),
    )


def reference_encode_record(record) -> dict:
    _, encoders, _ = _field_codecs(type(record))
    row = dict(vars(record))
    for name, encode in encoders:
        row[name] = encode(row[name])
    return row


def reference_decode_record(cls, row):
    if not isinstance(row, dict):
        raise ValueError(f"invalid {cls.__name__}: expected a JSON object, got {type(row).__name__}")
    names, _, decoders = _field_codecs(cls)
    values = {name: row[name] for name in names if name in row}
    for name, decode in decoders:
        if name in values:
            try:
                values[name] = decode(values[name])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"invalid {cls.__name__}: {name}: {exc}") from None
    try:
        return cls(**values)
    except TypeError as exc:
        raise ValueError(f"invalid {cls.__name__}: {exc}") from None


def outcome(decode, cls, row):
    """The record's fields with the type of each value, or the exception's type and message."""
    try:
        record = decode(cls, row)
    except Exception as exc:  # the decoders must fail alike, whatever the failure
        return type(exc), str(exc)
    return type(record), [(name, type(value), value) for name, value in vars(record).items()]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=5,
)

#: Text each OutcomeLabel field takes, so some generated labels decode.
LABEL_TEXT = {
    "outcome_type": [*_BASE_OUTCOME_TYPES, *(f"terminated:{c}" for c in TERMINATION_CATEGORIES), "terminated:x"],
    "evidence": list(OUTCOME_EVIDENCE_TAGS),
}


def field_values(cls: type, name: str, hint) -> st.SearchStrategy:
    """Values of the field's own type, the wrong JSON types and, for enums, unknown or non-text values."""
    args = get_args(hint)
    kind = next(arg for arg in args if arg is not type(None)) if type(None) in args else hint
    if isinstance(kind, type) and issubclass(kind, Enum):
        texts = st.sampled_from([member.value for member in kind])
        return texts | st.sampled_from(list(kind)) | st.text(max_size=4) | JSON_VALUES
    if get_origin(kind) is set:
        (member,) = get_args(kind)
        texts = st.sampled_from([m.value for m in member])
        # a string in `phases` is read one character at a time, as a set of one-letter members
        return st.lists(texts | st.text(max_size=3), max_size=3) | texts | st.sets(texts) | JSON_VALUES
    if get_origin(kind) is list:
        return st.lists(st.text(max_size=4), max_size=3) | st.lists(JSON_VALUES, max_size=2) | JSON_VALUES
    if kind is int:
        return st.integers() | st.booleans() | JSON_VALUES
    if cls is OutcomeLabel and name in LABEL_TEXT:
        return st.sampled_from(LABEL_TEXT[name]) | st.text(max_size=4) | JSON_VALUES
    return st.text(max_size=4) | JSON_VALUES


SOURCES = st.sampled_from(list(Source))

#: Records of each class, encoded: rows the decoder must take.
VALID_ROWS = {
    CanonicalStudy: studies().map(encode_record),
    RelationTriple: st.builds(
        RelationTriple, st.text(max_size=4), st.sampled_from(RELATION_TYPES), st.text(max_size=4), SOURCES, SOURCES
    ).map(encode_record),
    OutcomeLabel: st.builds(
        OutcomeLabel, st.text(max_size=4), st.sampled_from(LABEL_TEXT["outcome_type"][:-1]),
        st.sampled_from(LABEL_TEXT["evidence"]),
    ).map(encode_record),
}


@st.composite
def edited_rows(draw, cls: type) -> dict:
    """A valid row with one field removed or given another value, and maybe an unknown key."""
    hints = get_type_hints(cls)
    row = dict(draw(VALID_ROWS[cls]))
    name = draw(st.sampled_from(sorted(hints)))
    if draw(st.booleans()):
        del row[name]
    else:
        row[name] = draw(field_values(cls, name, hints[name]))
    if draw(st.booleans()):
        row["unknown"] = draw(JSON_VALUES)
    return row


def rows_of(cls: type) -> st.SearchStrategy:
    """Valid rows, rows with one field edited, rows of any subset of the fields, and values that are no object."""
    hints = get_type_hints(cls)
    optional = {name: field_values(cls, name, hint) for name, hint in hints.items()} | {"unknown": JSON_VALUES}
    return VALID_ROWS[cls] | edited_rows(cls) | st.fixed_dictionaries({}, optional=optional) | JSON_VALUES


CLASSES = (CanonicalStudy, RelationTriple, OutcomeLabel)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_decoder_equals_the_field_spec_loop(cls, data):
    row = data.draw(rows_of(cls))
    found = outcome(decode_record, cls, row)
    assert found == outcome(reference_decode_record, cls, row)
    if isinstance(found[1], list):
        record = decode_record(cls, row)
        assert encode_record(record) == reference_encode_record(record)


STUDY = {
    "study_id": "NCT01000001",
    "source": "CTGOV",
    "title": "A trial",
    "study_type": "INTERVENTIONAL",
    "start_year": 2015,
    "phases": ["PHASE2", "PHASE3"],
    "gender": "MALE/FEMALE",
    "status": "completed",
    "primary_outcomes": ["HbA1c"],
}


@pytest.mark.parametrize("cls, row", [
    (CanonicalStudy, STUDY),
    (CanonicalStudy, {}),
    (CanonicalStudy, {"source": "CTGOV"}),
    (CanonicalStudy, {"study_id": "x", "phases": ["PHASE9"], "status": "paused"}),
    (CanonicalStudy, STUDY | {"phases": "PHASE2"}),
    (CanonicalStudy, STUDY | {"phases": None}),
    (CanonicalStudy, STUDY | {"phases": 3}),
    (CanonicalStudy, STUDY | {"phases": [["PHASE2"]]}),
    (CanonicalStudy, STUDY | {"start_year": True, "target_accrual": False}),
    (CanonicalStudy, STUDY | {"start_year": "2015"}),
    (CanonicalStudy, STUDY | {"source": ["CTGOV"]}),
    (CanonicalStudy, STUDY | {"source": 5}),
    (CanonicalStudy, STUDY | {"source": None}),
    (CanonicalStudy, STUDY | {"gender": None, "study_type": None}),
    (CanonicalStudy, STUDY | {"gender": {"a": 1}}),
    (CanonicalStudy, STUDY | {"status": None}),
    (CanonicalStudy, STUDY | {"primary_outcomes": "HbA1c"}),
    (CanonicalStudy, STUDY | {"secondary_outcomes": [1]}),
    (CanonicalStudy, ["not", "an", "object"]),
    (RelationTriple, {"head_id": "1", "relation_type": "cite", "tail_id": "2", "head_source": "PUBMED",
                      "tail_source": "CTGOV"}),
    (RelationTriple, {"head_id": "1", "tail_source": "nowhere"}),
    (RelationTriple, {"head_source": True}),
    (OutcomeLabel, {"study_id": "NCT1", "outcome_type": "positive", "evidence": "llm"}),
    (OutcomeLabel, {"study_id": "NCT1", "outcome_type": "terminated:x", "evidence": "llm"}),
    (OutcomeLabel, {"study_id": "NCT1", "outcome_type": "positive", "evidence": ["llm"]}),
    (OutcomeLabel, {"study_id": "NCT1", "outcome_type": 5, "evidence": "llm"}),
    (OutcomeLabel, {"outcome_type": "positive"}),
    (OutcomeLabel, None),
])
def test_decoder_equals_the_field_spec_loop_on_pinned_rows(cls, row):
    assert outcome(decode_record, cls, row) == outcome(reference_decode_record, cls, row)


def test_decoded_default_factories_are_fresh():
    first = decode_record(CanonicalStudy, {"study_id": "a", "source": "CTGOV"})
    second = decode_record(CanonicalStudy, {"study_id": "b", "source": "CTGOV"})
    assert first.phases is not second.phases and first.primary_outcomes is not second.primary_outcomes


# --- the table line encoder ----------------------------------------------------------------


class Text(str):
    pass


#: Characters JSON escapes or keeps raw: quotes, backslash, control characters, DEL, non-ASCII, a lone surrogate.
HOSTILE = st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\n", "\r", "\t", "\x7f", "\x80", "é", " ", "😀", "\ud800"])
CELLS = st.text(alphabet=HOSTILE | st.characters(), max_size=6) | st.text(alphabet=HOSTILE, max_size=3).map(Text)


def reference_encode_row(row: dict) -> str:
    return json.dumps(row, sort_keys=True, ensure_ascii=False)


@pytest.mark.parametrize("table", sorted(TABLE_COLUMNS))
@given(data=st.data())
@example(data=None)
def test_line_encoder_equals_the_row_encoder(table, data, tmp_path_factory):
    columns = TABLE_COLUMNS[table]
    if data is None:  # every hostile character in every cell
        rows = [dict.fromkeys(columns, '"\\/\x00\x1f\n\r\t\x7f\x80é 😀')]
    else:
        rows = data.draw(st.lists(st.fixed_dictionaries(dict.fromkeys(columns, CELLS)), max_size=6))
    encode = store.line_encoder(columns)
    for row in rows:
        assert encode(row) == reference_encode_row(row) == store.encode_row(row)
    if all(not any(0xD800 <= ord(c) <= 0xDFFF for c in cell) for row in rows for cell in row.values()):
        # a file holds no lone surrogate
        directory = tmp_path_factory.getbasetemp() / f"rows-{table}"
        directory.mkdir(exist_ok=True)
        written = pipeline._write_sorted_rows(directory / "by-table.jsonl", rows, encode)
        assert written == pipeline._write_sorted_rows(directory / "by-row.jsonl", rows)
        assert (directory / "by-table.jsonl").read_bytes() == (directory / "by-row.jsonl").read_bytes()


# --- the corpus readers ----------------------------------------------------------------------


def reference_read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def reference_ctgov_docs(corpus_dir: Path) -> dict:
    docs, paths = {}, {}
    ctgov_dir = corpus_dir / "ctgov"
    if not ctgov_dir.is_dir():
        return docs
    for path in sorted(ctgov_dir.glob("*.json")):
        doc = reference_read_json(path)
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: expected a JSON object")
        try:
            nct_id = pipeline.ctgov_study_id(doc)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if nct_id in paths:
            raise ValueError(f"{paths[nct_id]} and {path} both hold CT.gov study {nct_id}")
        paths[nct_id] = path
        docs[nct_id] = pipeline.parse_ctgov_doc(doc)
    return docs


def reference_review_xmls(corpus_dir: Path) -> list:
    reviews_dir = corpus_dir / "reviews"
    if not reviews_dir.is_dir():
        return []
    return [(path.stem, path.read_text(encoding="utf-8")) for path in sorted(reviews_dir.glob("*.xml"))]


def reference_registry_batches(corpus_dir: Path) -> list:
    registry_dir = corpus_dir / "registry"
    if not registry_dir.is_dir():
        return []
    return [(path, reference_read_json(path)) for path in sorted(registry_dir.glob("*.json"))]


def read_alike(reader, reference, corpus_dir: Path):
    """The reader's result, after requiring the reference's result or the same refusal."""
    try:
        expected = reference(corpus_dir)
    except ValueError as exc:
        with pytest.raises(ValueError) as found:
            reader(corpus_dir)
        assert (type(found.value), str(found.value)) == (type(exc), str(exc))
        return None
    assert reader(corpus_dir) == expected
    return expected


def doc_text(nct_id: str, newline: str = "\n") -> str:
    doc = {"nctId": nct_id, "protocolSection": {"identificationModule": {"briefTitle": "T é"}}}
    return json.dumps(doc, indent=1).replace("\n", newline)


CTGOV_FILES = {
    "names": {
        "NCT2.json": doc_text("NCT2"),
        "NCT10.json": doc_text("NCT10"),
        ".NCT3.json": doc_text("NCT3"),  # a hidden name matches *.json
        ".json": doc_text("NCT4"),
        "NCT5.JSON": "not read",
        "NCT6.json.bak": "not read",
        "NCT7.xml": "not read",
        "été.json": doc_text("NCT8"),
    },
    "crlf": {"NCT1.json": doc_text("NCT1", "\r\n"), "NCT2.json": doc_text("NCT2", "\r")},
    "crlf-truncated": {"NCT1.json": doc_text("NCT1", "\r\n")[:40]},
    "cr-truncated": {"NCT1.json": doc_text("NCT1", "\r")[:40]},
    "bad-utf8": {"NCT1.json": b'{"nctId": "NCT1", "x": "\xff"}'},
    "bom": {"NCT1.json": "\ufeff" + doc_text("NCT1")},
    "empty": {"NCT1.json": ""},
    "array": {"NCT1.json": "[]"},
    "one-id-twice": {"a.json": doc_text("NCT1"), "b.json": doc_text("NCT1")},
}


def write_files(directory: Path, files: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))


@pytest.mark.parametrize("case", sorted(CTGOV_FILES))
def test_ctgov_reader_equals_glob_and_read_text(tmp_path, case):
    write_files(tmp_path / "ctgov", CTGOV_FILES[case])
    docs = read_alike(pipeline._corpus_ctgov_docs, reference_ctgov_docs, tmp_path)
    if case == "names":
        assert list(docs) == ["NCT3", "NCT4", "NCT10", "NCT2", "NCT8"]


@pytest.mark.parametrize("case, files", [
    ("newlines", {"1.xml": "<a>\r\n<b>x</b>\r<c/>\n</a>", "2.xml": "", ".3.xml": "<a/>", "4.XML": "no"}),
    ("bad-utf8", {"1.xml": b"<a>\xc3</a>"}),
])
def test_review_reader_equals_glob_and_read_text(tmp_path, case, files):
    write_files(tmp_path / "reviews", files)
    read_alike(pipeline._corpus_review_xmls, reference_review_xmls, tmp_path)


@pytest.mark.parametrize("files", [
    {"ANZCTR.json": "[\r\n{}\r\n]", "CTRI.json": "[]"},
    {"ANZCTR.json": "[\r\n{}\r\n"},
], ids=["crlf", "crlf-truncated"])
def test_registry_reader_equals_glob_and_read_text(tmp_path, files):
    write_files(tmp_path / "registry", files)
    read_alike(pipeline._corpus_registry_batches, reference_registry_batches, tmp_path)


def test_missing_corpus_directories_read_as_empty(tmp_path):
    (tmp_path / "reviews").write_text("a file, not a directory", encoding="utf-8")
    assert pipeline._corpus_ctgov_docs(tmp_path) == {}
    assert pipeline._corpus_review_xmls(tmp_path) == []
    assert pipeline._corpus_registry_batches(tmp_path) == []


@pytest.mark.parametrize("size", [3, 40000], ids=["grew", "shrank"])
def test_a_file_that_changed_since_its_stat_is_read_whole(tmp_path, monkeypatch, size):
    data = bytes(range(256)) * 80
    (tmp_path / "f").write_bytes(data)
    real_stat = os.stat

    def stale_stat(name, **options):  # only the stat through a directory reads stale
        info = real_stat(name, **options)
        return info if options.get("dir_fd") is None else os.stat_result((*info[:6], size, *info[7:10]))

    dir_fd = os.open(tmp_path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        monkeypatch.setattr(ingest.os, "stat", stale_stat)
        assert ingest.read_at(dir_fd, "f") == data
    finally:
        os.close(dir_fd)


def make_entry(path: Path, kind: str) -> None:
    if kind == "directory":
        path.mkdir()
    elif kind == "broken-link":
        path.symlink_to(path.parent / "nowhere")
    else:
        os.mkfifo(path)


ENTRY_KINDS = ("directory", "broken-link", "fifo")


@pytest.mark.parametrize("kind", ENTRY_KINDS)
@pytest.mark.parametrize("rel", ["ctgov/NCT09999999.json", "registry/ZZ.json", "reviews/99999999.xml"],
                         ids=["ctgov", "registry", "reviews"])
def test_a_corpus_entry_that_is_not_a_regular_file_exits_2_unopened(golden, tmp_path, rel, kind):
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    make_entry(corpus / rel, kind)
    command = [
        sys.executable, "-m", "trialforge.cli", "run-all", "--corpus", str(corpus), "--out", str(tmp_path / "out"),
        "--replay-dir", str(golden.replay), "--seed", str(golden.seed), "--allow-small",
    ]
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    env = {name: value for name, value in env.items() if not name.startswith("FORGE_")}
    result = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
    assert (result.returncode, result.stderr) == (2, f"invalid input: {corpus / rel}: not a regular file\n")


@needs_proc_fd
@pytest.mark.parametrize("kind", [*ENTRY_KINDS, "bad-json"])
def test_a_refused_corpus_entry_leaves_no_descriptor_open(tmp_path, kind):
    # a bad document stops the reader while the directory is still open
    write_files(tmp_path / "ctgov", {"NCT1.json": "{" if kind == "bad-json" else doc_text("NCT1")})
    if kind == "bad-json":
        write_files(tmp_path / "ctgov", {"NCT2.json": doc_text("NCT2")})
    else:
        make_entry(tmp_path / "ctgov" / "NCT2.json", kind)
    gc.collect()  # files an earlier test left to the collector close now, not while counting
    before = open_descriptors()

    def refusal():
        try:
            pipeline._corpus_ctgov_docs(tmp_path)
        except ValueError as exc:
            return str(exc)

    expected = f"{tmp_path / 'ctgov' / 'NCT2.json'}: not a regular file"
    if kind == "bad-json":
        expected = f"{tmp_path / 'ctgov' / 'NCT1.json'}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    assert within_timeout(refusal) == expected
    assert open_descriptors() == before


@needs_proc_fd
@pytest.mark.parametrize("kind", [*ENTRY_KINDS, "missing", "no-stage-dir"])
def test_a_manifest_that_is_not_a_regular_file_reads_as_none(tmp_path, kind):
    stage_dir = tmp_path / "03_link"
    if kind != "no-stage-dir":
        stage_dir.mkdir()
    if kind in ENTRY_KINDS:
        make_entry(stage_dir / "manifest.json", kind)
    gc.collect()
    before = open_descriptors()
    assert within_timeout(lambda: pipeline._load_manifest(stage_dir / "manifest.json")) == (None, "")
    assert open_descriptors() == before
