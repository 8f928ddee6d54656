"""The row path to the database against the straightforward code it replaced.

`write_database`, `table_row` and dedupe's study file each do their per-row
work once. The reference implementations below do it the plain way (check
every row, then every key, then the foreign keys, then sort by a tuple;
merge the extra fields into the record's; encode every surviving study
again), and each test requires the same bytes, or the same refusal.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import GOLDEN_CORPUS, REPO_ROOT
from test_pipeline import edit_json, replay_settings
from trialforge import schema, store
from trialforge.dedupe import dedupe_corpus
from trialforge.errors import ForeignKeyViolation
from trialforge.pipeline import STAGE_DIRS, run_pipeline
from trialforge.schema import GenderLabel, PhaseLabel, Source, StudyStatus, encode_record, read_studies_jsonl
from trialforge.store import FK_TABLES, MANIFEST_NAME, TABLE_COLUMNS, TABLE_KEYS, TABLE_ORDER, write_database


# --- write_database ---------------------------------------------------------------


def reference_write_database(tables: dict, out_dir: Path) -> store.DatabaseBundle:
    for name in tables:
        if name not in TABLE_COLUMNS:
            raise ValueError(f"unknown table {name!r}; expected one of {TABLE_ORDER}")
    full = {name: list(tables.get(name, [])) for name in TABLE_ORDER}
    for name, rows in full.items():
        columns = TABLE_COLUMNS[name]
        for row in rows:
            if set(row) != set(columns):
                missing = set(columns) - set(row)
                extra = set(row) - set(columns)
                raise ValueError(
                    f"table {name}: bad row shape (missing {sorted(missing)}, extra {sorted(extra)})"
                )
            for column, cell in row.items():
                if not isinstance(cell, str):
                    raise TypeError(f"table {name}: cell {column} must be str, got {type(cell).__name__}")
    for name, rows in full.items():
        seen = set()
        for row in rows:
            key = tuple(row[column] for column in TABLE_KEYS[name])
            if key in seen:
                raise ValueError(f"table {name}: duplicate key {key}")
            seen.add(key)
    study_ids = {row["study_id"] for row in full["studies"]}
    broken = [f"{name}:{row['study_id']}" for name in FK_TABLES for row in full[name] if row["study_id"] not in study_ids]
    if broken:
        shown = ", ".join(broken[:10])
        more = f" (+{len(broken) - 10} more)" if len(broken) > 10 else ""
        raise ForeignKeyViolation(f"unresolved study ids: {shown}{more}")

    out_dir.mkdir(parents=True, exist_ok=True)
    counts, file_hashes = {}, {}
    for name in TABLE_ORDER:
        columns, key_columns = TABLE_COLUMNS[name], TABLE_KEYS[name]
        rows = sorted(full[name], key=lambda row: tuple(row[c] for c in key_columns))
        payload = store.write_tsv(out_dir / f"{name}.tsv", columns, ([row[c] for c in columns] for row in rows))
        counts[name] = len(rows)
        file_hashes[name] = hashlib.sha256(payload).hexdigest()
    bundle_hash = store._bundle_hash(file_hashes)
    manifest_rows = [(name, str(counts[name]), file_hashes[name]) for name in TABLE_ORDER]
    manifest_rows.append(("bundle", str(sum(counts.values())), bundle_hash))
    store.write_tsv(out_dir / MANIFEST_NAME, ("table", "rows", "sha256"), manifest_rows)
    return store.DatabaseBundle(out_dir, counts, file_hashes, bundle_hash)


class _Text(str):
    """Text of a str subclass: a cell both writers take."""


# Cells lean on what the TSV codec escapes; key cells take few values, so keys collide.
_CELL = st.sampled_from(["", "a", "x\ty", "two\nlines", "back\\slash", "cr\r", "é", "Σ"]) | st.text(max_size=3)
_KEY_CELL = st.sampled_from(["", "a", "é"])
_ODD_CELL = st.sampled_from([0, 42, None, True, 1.5, ["a"], _Text("a")])
_STUDY_IDS = ("NCT1", "NCT2", "NCT3", "")


@st.composite
def database_tables(draw):
    """Tables of mostly well-formed rows; now and then a wrong shape, an odd cell or an unknown table.

    The studies table takes the ids in a drawn order, so its fifth and sixth
    rows repeat the first two ids; a child row names one of the first three,
    which the studies table may not hold.
    """
    names = ["studies", *draw(st.lists(st.sampled_from(TABLE_ORDER[1:]), unique=True, max_size=4))]
    study_ids = draw(st.permutations(_STUDY_IDS))
    tables = {}
    for name in names:
        columns, keys, rows = TABLE_COLUMNS[name], TABLE_KEYS[name], []
        for position in range(draw(st.integers(0, 6))):
            row = {column: draw(_KEY_CELL if column in keys else _CELL) for column in columns}
            if "study_id" in row:
                row["study_id"] = study_ids[position % 4] if name == "studies" else draw(st.sampled_from(study_ids[:3]))
            # faults sit inside the range: hypothesis draws its ends often
            fault = draw(st.integers(0, 99))
            if fault == 50:
                del row[draw(st.sampled_from(columns))]
            elif fault == 51:
                row[draw(st.sampled_from(["note", "rank"]))] = draw(_CELL)
            elif fault in (52, 53):
                row[draw(st.sampled_from(columns))] = draw(_ODD_CELL)
            rows.append(row)
        tables[name] = rows
    if draw(st.integers(0, 49)) == 25:
        tables["not_a_table"] = []
    return tables


def _outcome(write, tables: dict, out_dir: Path):
    """The bytes of every file written, or the refusal (type and message) and whether anything was written."""
    try:
        bundle = write(tables, out_dir)
    except (ValueError, TypeError, ForeignKeyViolation) as exc:
        return type(exc), str(exc), out_dir.exists()
    files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
    return files, bundle.counts, bundle.file_hashes, bundle.bundle_hash


@given(database_tables())
def test_write_database_matches_the_reference(tables):
    with tempfile.TemporaryDirectory() as work:
        expected = _outcome(reference_write_database, tables, Path(work) / "reference")
        assert _outcome(write_database, tables, Path(work) / "db") == expected
    if isinstance(expected[0], dict):
        assert set(expected[0]) == {f"{name}.tsv" for name in TABLE_ORDER} | {MANIFEST_NAME}


# --- table_row ----------------------------------------------------------------------


def reference_table_row(table: str, record, **extra) -> dict:
    return {column: store._cell((vars(record) | extra)[column]) for column in TABLE_COLUMNS[table]}


# Every kind of value a record field holds, and two no cell rule takes.
_VALUE = st.one_of(
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.integers(-5, 10**6),
    st.sampled_from([*Source, *PhaseLabel, *GenderLabel, *StudyStatus]),
    st.sets(st.sampled_from(list(PhaseLabel)), max_size=3),
    st.lists(st.text(max_size=3), max_size=3).map(tuple),
    st.sampled_from([1.5, ["a"]]),
)


@st.composite
def records_and_extras(draw):
    table = draw(st.sampled_from(TABLE_ORDER))
    columns = TABLE_COLUMNS[table]
    fields = {column: draw(_VALUE) for column in columns if draw(st.integers(0, 9))}
    fields["unused"] = draw(_VALUE)
    # extras supply columns the record lacks and override some it has
    extra = {column: draw(_VALUE) for column in columns if column not in fields or draw(st.integers(0, 5)) == 0}
    if extra and draw(st.integers(0, 9)) == 0:
        extra.pop(draw(st.sampled_from(sorted(extra))))  # a column neither supplies
    return table, SimpleNamespace(**fields), extra


def _row_or_refusal(make, table, record, extra):
    try:
        return make(table, record, **extra)
    except (KeyError, TypeError) as exc:
        return type(exc), str(exc)


@given(records_and_extras())
def test_table_row_matches_the_reference(case):
    table, record, extra = case
    assert _row_or_refusal(store.table_row, table, record, extra) == _row_or_refusal(
        reference_table_row, table, record, extra
    )


# --- dedupe's study file --------------------------------------------------------------


def reference_studies_bytes(merged: list) -> bytes:
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "studies.jsonl"
        header = {"schema": schema.SCHEMA_NAME, "version": schema.SCHEMA_VERSION}
        store.write_jsonl(path, chain([header], map(encode_record, merged)))
        return path.read_bytes()


def merges_by_id_and_title(corpus: Path) -> None:
    """Registry and PubMed records repeated under their own id, once with the same title and once with another."""

    def repeat_rows(rows):
        rows.append(dict(rows[0]))
        rows.append(dict(rows[1], **{"Public title": "Another trial altogether"}))

    def repeat_articles(articles):
        articles.append(dict(articles[0]))
        articles.append(dict(articles[1], title="A different report entirely"))

    edit_json(corpus / "registry" / "ANZCTR.json", repeat_rows)
    edit_json(corpus / "pubmed" / "articles.json", repeat_articles)


@pytest.mark.parametrize("edit", [None, merges_by_id_and_title], ids=["golden", "id-and-title-merges"])
@pytest.mark.parametrize("ingest_in", ["this-run", "another-process"])
def test_dedupe_studies_are_the_merged_studies_encoded(golden, tmp_path, monkeypatch, edit, ingest_in):
    corpus = GOLDEN_CORPUS
    if edit is not None:
        corpus = shutil.copytree(GOLDEN_CORPUS, tmp_path / "corpus")
        edit(corpus)
    settings = replay_settings(golden, tmp_path / "out", corpus_dir=corpus)
    if ingest_in == "another-process":
        subprocess.run(
            [sys.executable, "-m", "trialforge.cli", "ingest", "--corpus", str(corpus), "--out", str(settings.out_dir),
             "--replay-dir", str(golden.replay), "--seed", str(golden.seed), "--allow-small"],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")), check=True, capture_output=True,
        )
    encode_study, encoded = schema.encode_study, []
    monkeypatch.setattr(schema, "encode_study", lambda study: encoded.append(study) or encode_study(study))

    summary = run_pipeline(settings, until="dedupe")
    assert summary["stages"]["ingest"]["skipped"] is (ingest_in == "another-process")

    dedupe_dir = settings.out_dir / STAGE_DIRS["dedupe"]
    ingested = read_studies_jsonl(settings.out_dir / STAGE_DIRS["ingest"] / "studies.jsonl")
    merged = dedupe_corpus(ingested, threshold=settings.dedupe_threshold)[0]
    assert (dedupe_dir / "studies.jsonl").read_bytes() == reference_studies_bytes(merged)

    evidence = {row[3] for row in store.read_tsv(dedupe_dir / "decisions.tsv")[1]}
    assert "title-similarity" in evidence
    if edit is not None:
        assert {"id-match", "id-conflict"} <= evidence
    # Handed on, ingest's lines serve every study dedupe passed through as
    # it was; read from the file, every study is encoded again.
    ingested_ids = set(map(id, ingested))
    merged_here = sum(id(study) not in ingested_ids for study in merged)
    if ingest_in == "this-run":
        assert len(encoded) == len(ingested) + merged_here
    else:
        assert len(encoded) == len(merged)
