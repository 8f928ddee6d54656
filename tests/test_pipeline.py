import builtins
import errno
import hashlib
import io
import json
import logging
import os
import shutil
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import within_timeout

from trialforge import DATA_DIR, pipeline, store
from trialforge.benchgen.splits import numeric_id_key
from trialforge.clients import ReplayStore, request_hash
from trialforge.errors import ReplayMiss
from trialforge.pipeline import (
    STAGE_DIRS,
    STAGES,
    PipelineSettings,
    hash_corpus,
    run_pipeline,
)


def replay_settings(golden, out_dir: Path, **overrides) -> PipelineSettings:
    base = dict(
        corpus_dir=golden.corpus,
        out_dir=out_dir,
        seed=golden.seed,
        mode="replay",
        replay_dir=golden.replay,
        allow_small_split=True,
    )
    base.update(overrides)
    return PipelineSettings(**base)


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# --- recorded golden run -----------------------------------------------------

def test_golden_record_run_live_calls(golden):
    # Unique requests per service over the whole corpus; repeats hit the store.
    assert golden.summary["live_calls"] == {"annotator": 21, "llm": 14, "rxnorm": 1}


def test_all_stages_ran(golden):
    assert list(golden.summary["stages"]) == list(STAGES)
    assert not any(stage["skipped"] for stage in golden.summary["stages"].values())
    for name in STAGES:
        assert (golden.record_out / STAGE_DIRS[name] / "manifest.json").exists()


def test_stage_manifest_shape(golden):
    for name in STAGES:
        manifest = json.loads(
            (golden.record_out / STAGE_DIRS[name] / "manifest.json").read_text(encoding="utf-8")
        )
        # No timestamps, hosts, or paths: resume must be content-addressed.
        assert set(manifest) == {"stage", "input_hash", "counts", "outputs"}
        assert manifest["stage"] == name
        assert "manifest.json" not in manifest["outputs"]


def test_merge_rekeys_absorbed_registry_document(golden):
    """One cluster merges ANZCTR + CTGOV + PubMed records of the same trial.

    The surviving id is the ANZCTR one (smallest source tag), but the
    CT.gov document carries the results, drugs, and p-values, so every
    derived row must come out keyed to the survivor.
    """
    survivor = "ACTRN12620000000001"
    decisions = (golden.record_out / STAGE_DIRS["dedupe"] / "decisions.tsv").read_text(
        encoding="utf-8"
    )
    assert f"ANZCTR\t{survivor}\tCTGOV:NCT01000001;PUBMED:27000001" in decisions

    drugs = read_jsonl(golden.record_out / STAGE_DIRS["link"] / "drugs.jsonl")
    aflibercept = [row for row in drugs if row["cleaned_name"] == "aflibercept"]
    assert len(aflibercept) == 1
    assert aflibercept[0]["study_id"] == survivor
    assert aflibercept[0]["rxnorm_method"] == "remote"
    assert aflibercept[0]["rxcui"] == "1232150"

    outcomes = {
        row["study_id"]: row
        for row in read_jsonl(golden.record_out / STAGE_DIRS["extract"] / "trial_outcomes.jsonl")
    }
    assert outcomes[survivor]["outcome_type"] == "positive"
    assert outcomes[survivor]["evidence"] == "pvalue@0.01"

    for table in ("trial_results", "adverse_events", "disposition"):
        rows = read_jsonl(golden.record_out / STAGE_DIRS["extract"] / f"{table}.jsonl")
        assert any(row["study_id"] == survivor for row in rows), table
        assert not any(row["study_id"] == "NCT01000001" for row in rows), table


def dedupe_registry_and_article(tmp_path, registry_id, pmid):
    """Run ``until="dedupe"`` on one ANZCTR row and one PubMed article sharing a title."""
    corpus = tmp_path / "corpus"
    (corpus / "registry").mkdir(parents=True)
    (corpus / "pubmed").mkdir()
    title = "Intravitreal Aflibercept for Persistent Diabetic Macular Edema"
    registry = [{"Registration number": registry_id, "Public title": title, "Study type": "Interventional"}]
    (corpus / "registry" / "ANZCTR.json").write_text(json.dumps(registry), encoding="utf-8")
    articles = [{"pmid": pmid, "title": title, "year": 2009}]
    (corpus / "pubmed" / "articles.json").write_text(json.dumps(articles), encoding="utf-8")
    settings = PipelineSettings(corpus_dir=corpus, out_dir=tmp_path / "out", replay_dir=tmp_path / "replay")
    run_pipeline(settings, until="dedupe")
    decisions = tmp_path / "out" / STAGE_DIRS["dedupe"] / "decisions.tsv"
    return settings, decisions.read_text(encoding="utf-8").splitlines()


def dedupe_aliases(settings: PipelineSettings) -> dict[str, str]:
    run = pipeline._RunContext(settings, None, "")
    run.stage = pipeline.STAGE_TABLE[STAGES.index("link")]
    return run.aliases


def test_alias_survives_a_tab_in_the_survivor_id(tmp_path):
    settings, lines = dedupe_registry_and_article(tmp_path, "ACTRN126\t0001", "111")
    assert "ANZCTR\tACTRN126\\t0001\tPUBMED:111\ttitle-similarity\t1.0000" in lines
    assert {len(line.split("\t")) for line in lines} == {5}
    assert dedupe_aliases(settings) == {"111": "ACTRN126\t0001"}


def test_alias_keeps_a_semicolon_in_the_absorbed_id(tmp_path):
    settings, lines = dedupe_registry_and_article(tmp_path, "ACTRN1", "11;1")
    assert "ANZCTR\tACTRN1\tPUBMED:11;1\ttitle-similarity\t1.0000" in lines
    assert dedupe_aliases(settings) == {"11;1": "ACTRN1"}


def test_untitled_article_passes_dedupe_flagged(golden, tmp_path):
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    path = corpus / "pubmed" / "articles.json"
    articles = json.loads(path.read_text(encoding="utf-8"))
    articles.append({"pmid": "39000001", "title": "", "year": 2024})
    path.write_text(json.dumps(articles), encoding="utf-8")

    summary = run_pipeline(replay_settings(golden, tmp_path / "out", corpus_dir=corpus))
    assert list(summary["stages"]) == list(STAGES)
    dedupe_dir = tmp_path / "out" / STAGE_DIRS["dedupe"]
    kept = [row for row in read_jsonl(dedupe_dir / "studies.jsonl")[1:] if row["study_id"] == "39000001"]
    assert [(row["title"], row["flagged"]) for row in kept] == [("", True)]
    decisions = (dedupe_dir / "decisions.tsv").read_text(encoding="utf-8").splitlines()
    assert "PUBMED\t39000001\t\tflagged-passthrough\t" in decisions


def test_outcome_labels_cover_completed_and_terminated(golden):
    outcomes = {
        row["study_id"]: (row["outcome_type"], row["evidence"])
        for row in read_jsonl(golden.record_out / STAGE_DIRS["extract"] / "trial_outcomes.jsonl")
    }
    assert outcomes["NCT02823470"] == (
        "terminated:enrollment issues",
        "stop-reason-similarity",
    )
    assert outcomes["NCT00056836"] == ("positive", "llm")


def test_database_bundle_counts_match_tables(golden):
    counts = golden.summary["stages"]["database"]["counts"]
    db_dir = golden.record_out / STAGE_DIRS["database"] / "db"
    for table, expected in counts.items():
        if table == "bundle_hash":
            continue
        lines = (db_dir / f"{table}.tsv").read_text(encoding="utf-8").splitlines()
        assert len(lines) - 1 == expected, table


def test_recency_split_sends_newest_items_to_test(golden, tmp_path):
    out = tmp_path / "out"
    run_pipeline(replay_settings(
        golden, out, split_test_size=1, split_validation_size=1, search_test_size=1
    ))
    splits: dict[str, dict[str, str]] = {}
    for path in sorted((out / STAGE_DIRS["benchmarks"]).glob("*.jsonl")):
        task, split, _ = path.name.split(".")
        for record in read_jsonl(path):
            splits.setdefault(task, {})[record["id"]] = split
    assert splits["arm_design"]["arm_design:NCT00593450"] == "test"
    assert splits["arm_design"]["arm_design:NCT00000150"] == "train"
    for task, by_id in splits.items():
        newest_first = sorted(by_id, key=lambda item_id: (-numeric_id_key(item_id), item_id))
        assert [by_id[item_id] for item_id in newest_first[:1]] == ["test"], task
        if task != "study_search" and len(newest_first) > 1:
            assert by_id[newest_first[1]] == "validation", task


# --- replay and resume -------------------------------------------------------

def test_replay_run_matches_recording_without_live_calls(golden, tmp_path):
    summary = run_pipeline(replay_settings(golden, tmp_path / "out"))
    assert summary["live_calls"] == {"annotator": 0, "llm": 0, "rxnorm": 0}
    assert (
        summary["stages"]["database"]["counts"]["bundle_hash"]
        == golden.summary["stages"]["database"]["counts"]["bundle_hash"]
    )


def test_replay_twice_is_byte_identical(golden, tmp_path):
    first = run_pipeline(replay_settings(golden, tmp_path / "a"))
    second = run_pipeline(replay_settings(golden, tmp_path / "b"))
    assert first["pipeline_hash"] == second["pipeline_hash"]
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


GOLDEN_PIPELINE_HASH = "e22397124f1ff8f2843baa43da4abd7675e491fd0dc41b245eae0d1bd33dc3b1"
GOLDEN_BUNDLE_HASH = "ab4ca7ee8a4549461a5b531b5b7f8453e1843ae8786fb521c831da43f8ecb5fa"


def test_golden_hashes_are_pinned(golden, tmp_path):
    """The record run of the golden corpus and a replay of it produce these exact output bytes.

    A change that alters output bytes on purpose updates both pins and
    says so in CHANGES.md; any other change must leave them as they are.
    """
    for summary in (golden.summary, run_pipeline(replay_settings(golden, tmp_path / "out"))):
        assert summary["pipeline_hash"] == GOLDEN_PIPELINE_HASH
        assert summary["stages"]["database"]["counts"]["bundle_hash"] == GOLDEN_BUNDLE_HASH


def test_vocab_without_the_hlt_and_hlgt_levels_gives_the_same_bundle(golden, tmp_path):
    # MedDRA mapping reads the LLT and PT levels only
    vocab = shutil.copytree(DATA_DIR / "vocab", tmp_path / "vocab")
    for name in ("meddra_hlt.tsv", "meddra_hlgt.tsv"):
        (vocab / name).unlink(missing_ok=True)
    summary = run_pipeline(replay_settings(golden, tmp_path / "out", vocab_dir=vocab))
    assert summary["stages"]["database"]["counts"]["bundle_hash"] == GOLDEN_BUNDLE_HASH


def test_stages_after_dedupe_do_not_depend_on_the_order_of_the_studies(golden, tmp_path, monkeypatch):
    def reversed_studies(records, **kwargs):
        merged, decisions, triples = dedupe_corpus(records, **kwargs)
        return merged[::-1], decisions, triples

    dedupe_corpus = pipeline.dedupe_corpus
    monkeypatch.setattr(pipeline, "dedupe_corpus", reversed_studies)
    settings = replay_settings(golden, tmp_path / "out")
    run_pipeline(settings)
    for stage in ("link", "extract", "database", "benchmarks"):
        files, reference = (
            pipeline._tree_digests(root / STAGE_DIRS[stage]) for root in (settings.out_dir, golden.record_out)
        )
        assert len(files) > 1
        del files["manifest.json"], reference["manifest.json"]
        assert files == reference


def test_rerun_skips_every_intact_stage(golden, tmp_path):
    settings = replay_settings(golden, tmp_path / "out")
    first = run_pipeline(settings)
    second = run_pipeline(settings)
    assert not any(stage["skipped"] for stage in first["stages"].values())
    assert all(stage["skipped"] for stage in second["stages"].values())
    assert first["pipeline_hash"] == second["pipeline_hash"]


def file_states(root: Path) -> dict[str, tuple]:
    """``(sha256 or None for a directory, inode, mtime)`` of every path under ``root``."""
    states = {}
    for path in sorted(root.rglob("*")):
        info = path.stat()
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
        states[path.relative_to(root).as_posix()] = (digest, info.st_ino, info.st_mtime_ns)
    return states


def test_noop_rerun_writes_nothing(golden, tmp_path):
    settings = replay_settings(golden, tmp_path / "out")
    run_pipeline(settings)
    # back-date every path, so a rewrite shows even within the file system's timestamp granularity
    for path in settings.out_dir.rglob("*"):
        os.utime(path, ns=(10**9, 10**9))
    before = file_states(settings.out_dir)
    rerun = run_pipeline(settings)
    assert all(stage["skipped"] for stage in rerun["stages"].values())
    assert file_states(settings.out_dir) == before


def test_pipeline_manifest_is_rewritten_only_when_its_bytes_differ(golden, tmp_path):
    settings = replay_settings(golden, tmp_path / "out")
    run_pipeline(settings)
    path = settings.out_dir / "pipeline_manifest.json"
    reference = path.read_bytes()
    damage = {
        "deleted": lambda: path.unlink(),
        "emptied": lambda: path.write_bytes(b""),
        "truncated": lambda: path.write_bytes(reference[: len(reference) // 2]),
        "one byte edited": lambda: path.write_bytes(reference[:-2] + b"X" + reference[-1:]),
        "appended to": lambda: path.write_bytes(reference + b"\n"),
    }
    for case, apply in damage.items():
        apply()
        rerun = run_pipeline(settings)
        assert all(stage["skipped"] for stage in rerun["stages"].values()), case
        assert path.read_bytes() == reference, case


def test_resume_after_lost_stage_recomputes_only_that_stage(golden, tmp_path):
    # A cold run hands every stage's outputs on in memory; a stage rerun on
    # its own reads them from the files of the skipped stages instead, and
    # must write the same bytes. Its manifest is then byte-identical too, so
    # the downstream input hashes still match and those stages skip.
    out = tmp_path / "out"
    settings = replay_settings(golden, out)
    first = run_pipeline(settings)
    cold = tree_bytes(out)
    for name in STAGES[1:]:
        (out / STAGE_DIRS[name] / "manifest.json").unlink()
        second = run_pipeline(settings)
        skipped = {stage: state["skipped"] for stage, state in second["stages"].items()}
        assert skipped == {stage: stage != name for stage in STAGES}
        assert second["pipeline_hash"] == first["pipeline_hash"]
        assert tree_bytes(out) == cold, name


def test_resume_detects_corrupted_output(golden, tmp_path):
    settings = replay_settings(golden, tmp_path / "out")
    first = run_pipeline(settings)
    target = tmp_path / "out" / STAGE_DIRS["benchmarks"] / "arm_design.test.jsonl"
    clean = target.read_bytes()
    target.write_bytes(clean + b"tampered\n")

    second = run_pipeline(settings)
    assert second["stages"]["benchmarks"]["skipped"] is False
    assert target.read_bytes() == clean
    assert second["pipeline_hash"] == first["pipeline_hash"]


def test_inputs_are_read_once_per_context_span(golden, tmp_path, monkeypatch):
    readers = ("_corpus_ctgov_docs", "_corpus_pubmed_articles", "read_studies_jsonl")
    counted = (*readers, "own_output_rows")
    calls = dict.fromkeys(counted, 0)

    def counting(name):
        original = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in readers:
        monkeypatch.setattr(pipeline, name, counting(name))
    out = tmp_path / "out"
    read_jsonl = store.read_jsonl

    def counting_read_jsonl(path):
        if Path(path).is_relative_to(out):
            calls["own_output_rows"] += 1
        return read_jsonl(path)

    monkeypatch.setattr(store, "read_jsonl", counting_read_jsonl)
    settings = replay_settings(golden, out)

    def run_and_count() -> tuple[dict, dict]:
        calls.update(dict.fromkeys(counted, 0))
        summary = run_pipeline(settings)
        return summary, dict(calls)

    # One context for the run: the docs are parsed once and kept, and every
    # stage takes the studies and rows an earlier stage wrote in this run
    # from memory, never from its files.
    _, cold = run_and_count()
    assert cold == {
        "_corpus_ctgov_docs": 1,
        "_corpus_pubmed_articles": 1,
        "read_studies_jsonl": 0,
        "own_output_rows": 0,
    }

    noop, counts = run_and_count()
    assert all(stage["skipped"] for stage in noop["stages"].values())
    assert counts == dict.fromkeys(counted, 0)

    target = tmp_path / "out" / STAGE_DIRS["extract"] / "trial_results.jsonl"
    target.write_bytes(target.read_bytes() + b"{}\n")
    repair, counts = run_and_count()
    assert [name for name, stage in repair["stages"].items() if not stage["skipped"]] == ["extract"]
    assert all(count <= 1 for count in counts.values()), counts


def test_vocabulary_and_mapping_loaders_run_once_per_cold_run(golden, tmp_path, monkeypatch):
    loaders = (
        "load_source_mapping", "load_drug_resources", "load_drug_normalization",
        "load_biomarker_index", "load_meddra", "load_termination_keywords",
    )
    calls = dict.fromkeys(loaders, 0)

    def counting(name):
        original = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in loaders:
        monkeypatch.setattr(pipeline, name, counting(name))
    settings = replay_settings(golden, tmp_path / "out")
    registry_files = len(list((golden.corpus / "registry").glob("*.json")))

    run_pipeline(settings)
    assert calls == {name: registry_files if name == "load_source_mapping" else 1 for name in loaders}
    calls.update(dict.fromkeys(loaders, 0))
    assert all(stage["skipped"] for stage in run_pipeline(settings)["stages"].values())
    assert calls == dict.fromkeys(loaders, 0)


# --- the stage table -----------------------------------------------------------

def test_stage_dirs_come_from_table_positions():
    assert STAGE_DIRS == {
        "ingest": "01_ingest",
        "dedupe": "02_dedupe",
        "link": "03_link",
        "extract": "04_extract",
        "graph": "05_graph",
        "database": "06_database",
        "benchmarks": "07_benchmarks",
    }


@pytest.mark.parametrize("stage", pipeline.STAGE_TABLE, ids=STAGES)
def test_reading_an_undeclared_input_raises(tmp_path, stage):
    every_input = {*pipeline._INPUT_READERS, *pipeline._LAST_READER}
    undeclared = sorted(every_input - set(stage.reads))[0]
    run = pipeline._RunContext(PipelineSettings(corpus_dir=tmp_path, out_dir=tmp_path / "out"), None, "")
    run.stage = stage
    with pytest.raises(RuntimeError, match=f"stage {stage.name} read undeclared input '{undeclared}'"):
        run.read(undeclared)


def test_cold_run_reads_every_declared_input(golden, tmp_path, monkeypatch):
    # `read` refuses undeclared inputs, so equality here means no declaration is stale.
    read = pipeline._RunContext.read
    seen = {name: set() for name in STAGES}

    def recording(run, name):
        seen[run.stage.name].add(name)
        return read(run, name)

    monkeypatch.setattr(pipeline._RunContext, "read", recording)
    run_pipeline(replay_settings(golden, tmp_path / "out"))
    assert seen == {stage.name: set(stage.reads) for stage in pipeline.STAGE_TABLE}


def test_stages_are_called_through_the_stage_funcs_dict(golden, tmp_path, monkeypatch):
    # A wrapped entry must run: perfbench times each stage by wrapping its entry.
    calls = []
    stage_graph = pipeline._STAGE_FUNCS["graph"]

    def counting(run, out):
        calls.append(out.name)
        return stage_graph(run, out)

    monkeypatch.setitem(pipeline._STAGE_FUNCS, "graph", counting)
    summary = run_pipeline(replay_settings(golden, tmp_path / "out"))
    assert calls == ["05_graph"]
    assert summary["stages"]["graph"]["skipped"] is False


def test_stage_subset_must_be_known(golden, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="unknown stage 'nope'"):
        run_pipeline(replay_settings(golden, out), until="nope")
    assert not out.exists()


def test_stage_prefix_runs_without_pipeline_manifest(golden, tmp_path):
    out = tmp_path / "out"
    summary = run_pipeline(replay_settings(golden, out), until="dedupe")
    assert list(summary["stages"]) == ["ingest", "dedupe"]
    manifest = out / STAGE_DIRS["dedupe"] / "manifest.json"
    assert summary["pipeline_hash"] == hashlib.sha256(manifest.read_bytes()).hexdigest()
    assert (out / STAGE_DIRS["dedupe"]).exists()
    assert not (out / STAGE_DIRS["link"]).exists()
    assert not (out / "pipeline_manifest.json").exists()


def test_later_stages_reuse_earlier_prefix(golden, tmp_path):
    out = tmp_path / "out"
    run_pipeline(replay_settings(golden, out), until="dedupe")
    summary = run_pipeline(replay_settings(golden, out))
    assert summary["stages"]["ingest"]["skipped"] is True
    assert summary["stages"]["dedupe"]["skipped"] is True
    assert summary["stages"]["link"]["skipped"] is False


def test_sorted_rows_match_sort_then_write(tmp_path):
    rows = [
        {"x": "z"},
        {"x": "é"},
        {"x": "e", "y": 2},
        {"x": "ÿ"},
        {"x": "\u2028"},
        {"x": "\x7f"},
        {"x": "a"},
        {"x": "a\nb"},
        {"x": "é"},
        {"b": "Σ", "a": 1},
        {"a": 1, "b": "s"},
        {"x": ""},
    ]
    old = tmp_path / "old.jsonl"
    new = tmp_path / "new.jsonl"
    # the repeated {"x": "é"} is written and returned once
    ordered = sorted(rows[:8] + rows[9:], key=lambda row: json.dumps(row, sort_keys=True))
    expected = store.write_jsonl(old, ordered)
    written = pipeline._write_sorted_rows(new, rows)
    assert written == ordered
    assert len(written) == expected == len(rows) - 1
    assert new.read_bytes() == old.read_bytes()
    lines = new.read_text(encoding="utf-8").split("\n")
    # The escaped key orders "\u00e9" before "z" and "\u007f" before "a";
    # the written lines would not.
    assert lines.index('{"x": "é"}') < lines.index('{"x": "z"}')
    assert lines.index('{"x": "\x7f"}') < lines.index('{"x": "a"}')


# --- client modes ------------------------------------------------------------

def test_replay_miss_names_stage_service_and_digest(golden, tmp_path):
    empty_replay = tmp_path / "empty_replay"
    empty_replay.mkdir()
    settings = replay_settings(golden, tmp_path / "out", replay_dir=empty_replay)
    with pytest.raises(ReplayMiss) as excinfo:
        run_pipeline(settings)
    message = str(excinfo.value)
    assert message.startswith("stage link: ")
    assert "rxnorm:" in message


def test_switching_mode_over_an_external_store_recomputes_nothing(golden, tmp_path):
    settings = replay_settings(golden, tmp_path / "out", mode="record", replay_dir=tmp_path / "replay")
    recorded = run_pipeline(settings, transports=golden.transports)
    for mode in ("replay", "record"):
        rerun = run_pipeline(replace(settings, mode=mode), transports=golden.transports)
        assert recomputed(rerun) == [], mode
        assert rerun["pipeline_hash"] == recorded["pipeline_hash"] == GOLDEN_PIPELINE_HASH


def test_record_mode_short_circuits_on_store_hits(golden, tmp_path):
    def explode(service, request):
        raise AssertionError("transport must not be called when the store has the response")

    settings = replay_settings(golden, tmp_path / "out", mode="record")
    summary = run_pipeline(
        settings, transports={"llm": explode, "annotator": explode, "rxnorm": explode}
    )
    assert summary["live_calls"] == {"annotator": 0, "llm": 0, "rxnorm": 0}


# --- hashing -----------------------------------------------------------------

def test_hash_corpus_ignores_directory_listing_order(golden, tmp_path):
    # Same bytes at the same relative paths must hash equal from a copy.
    copy = tmp_path / "copy"
    for path in sorted(golden.corpus.rglob("*")):
        if path.is_file():
            rel = path.relative_to(golden.corpus)
            (copy / rel).parent.mkdir(parents=True, exist_ok=True)
            (copy / rel).write_bytes(path.read_bytes())
    assert hash_corpus(copy) == hash_corpus(golden.corpus)


def test_hash_corpus_changes_with_content(golden, tmp_path):
    copy = tmp_path / "copy"
    for path in sorted(golden.corpus.rglob("*")):
        if path.is_file():
            rel = path.relative_to(golden.corpus)
            (copy / rel).parent.mkdir(parents=True, exist_ok=True)
            (copy / rel).write_bytes(path.read_bytes())
    (copy / "pubmed" / "articles.json").write_text("[]", encoding="utf-8")
    assert hash_corpus(copy) != hash_corpus(golden.corpus)


# The digest walk before it moved to os.scandir and unbuffered reads: the
# oracles for `hash_corpus`, `_hash_outputs` and `_changed_file`.

def reference_sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def reference_hash_corpus(corpus_dir: Path, skip: Path | None = None) -> str:
    files = []
    for dirpath, dirnames, filenames in os.walk(corpus_dir):
        here = Path(dirpath)
        dirnames[:] = [name for name in dirnames if here / name != skip]
        files.extend(here / name for name in filenames)
    digest = hashlib.sha256()
    for path in sorted(files):
        if not path.is_file():
            continue
        rel = path.relative_to(corpus_dir).as_posix()
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(reference_sha256_file(path).encode("ascii"))
        digest.update(b"\x00")
    return digest.hexdigest()


def reference_hash_outputs(stage_dir: Path) -> dict:
    outputs = {}
    for path in sorted(stage_dir.rglob("*")):
        if not path.is_file() or path.name == "manifest.json":
            continue
        outputs[path.relative_to(stage_dir).as_posix()] = reference_sha256_file(path)
    return outputs


def reference_changed_file(root: Path, recorded: dict) -> str | None:
    for rel, expected in recorded.items():
        path = root / rel
        if not path.is_file() or reference_sha256_file(path) != expected:
            return rel
    return None


@pytest.fixture
def awkward_tree(tmp_path) -> Path:
    """Names whose string order differs from their path-part order, non-ASCII
    names, empty dirs, a store subtree to skip, links of every kind and a FIFO."""
    root = tmp_path / "tree"
    files = {
        "a/b": b"ab",
        "a-b/x": b"a-b x",
        "a.b": b"dot",
        "ab": b"",
        "big.bin": bytes(range(256)) * 800,  # several read chunks
        "données/été.json": "é".encode("utf-8"),
        "z/深/層.txt": b"deep",
        "replay/llm/f.json": b"{}",
        "sub/manifest.json": b"nested manifest",
        "manifest.json": b"top manifest",
    }
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    (root / "empty").mkdir()
    (root / "z" / "empty").mkdir()
    (root / "link-file").symlink_to(root / "a" / "b")
    (root / "link-dir").symlink_to(root / "a", target_is_directory=True)
    (root / "broken").symlink_to(root / "nowhere")
    os.mkfifo(root / "fifo")
    return root


def test_hash_corpus_matches_reference(awkward_tree, tmp_path):
    for skip in (None, awkward_tree / "replay", awkward_tree / "a", awkward_tree, tmp_path / "replay"):
        assert within_timeout(lambda: pipeline.hash_corpus(awkward_tree, skip=skip)) == reference_hash_corpus(
            awkward_tree, skip
        )
    assert pipeline.hash_corpus(tmp_path / "missing") == reference_hash_corpus(tmp_path / "missing")


def test_hash_outputs_matches_reference(awkward_tree):
    outputs = within_timeout(lambda: pipeline._hash_outputs(awkward_tree))
    assert outputs == reference_hash_outputs(awkward_tree)
    assert list(outputs) == list(reference_hash_outputs(awkward_tree))  # a/b before a-b/x
    assert "link-file" in outputs and "sub/manifest.json" not in outputs


def test_changed_file_matches_reference(awkward_tree):
    recorded = reference_hash_outputs(awkward_tree)
    assert within_timeout(lambda: pipeline._changed_file(awkward_tree, recorded)) is None
    sha_of_ab = recorded["a/b"]
    cases = {
        "missing": {"gone.json": sha_of_ab},
        "broken link": {"broken": sha_of_ab},
        "a dir": {"a": sha_of_ab},
        "a symlinked dir": {"link-dir": sha_of_ab},
        "a FIFO": {"fifo": sha_of_ab},
        "below a file": {"a.b/x": sha_of_ab},
        "changed bytes": {"a.b": sha_of_ab},
    }
    for case, changed in cases.items():
        checked = {"a/b": sha_of_ab, **changed}
        [rel] = changed
        assert within_timeout(lambda: pipeline._changed_file(awkward_tree, checked)) == rel, case
        assert reference_changed_file(awkward_tree, checked) == rel, case
    assert pipeline._changed_file(awkward_tree, {"link-file": sha_of_ab}) is None


needs_proc_fd = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@needs_proc_fd
def test_digest_checks_close_every_descriptor(awkward_tree):
    recorded = reference_hash_outputs(awkward_tree)
    sha_of_ab = recorded["a/b"]
    before = open_descriptors()
    # missing, a directory, a FIFO, a broken link, below a missing directory, below a file
    for rel in ("gone.json", "a", "fifo", "broken", "nowhere/b", "a.b/x"):
        checked = {"a/b": sha_of_ab, "z/深/層.txt": recorded["z/深/層.txt"], rel: sha_of_ab}
        assert within_timeout(lambda: pipeline._changed_file(awkward_tree, checked)) == rel
        assert reference_changed_file(awkward_tree, checked) == rel
        assert open_descriptors() == before, rel
    # through a symlinked directory, as the reference reads it
    through_link = {"link-dir/b": sha_of_ab}
    assert reference_changed_file(awkward_tree, through_link) is None
    assert within_timeout(lambda: pipeline._changed_file(awkward_tree, through_link)) is None
    assert within_timeout(lambda: pipeline._changed_file(awkward_tree, recorded)) is None
    assert within_timeout(lambda: pipeline.hash_corpus(awkward_tree)) == reference_hash_corpus(awkward_tree)
    assert within_timeout(lambda: pipeline._hash_outputs(awkward_tree)) == recorded
    assert open_descriptors() == before


@needs_proc_fd
@pytest.mark.parametrize("check", ["changed_file", "hash_corpus", "hash_outputs"])
def test_a_read_error_propagates_and_closes_every_descriptor(awkward_tree, monkeypatch, check):
    recorded = reference_hash_outputs(awkward_tree)
    run_check = {
        "changed_file": lambda: pipeline._changed_file(awkward_tree, recorded),
        "hash_corpus": lambda: pipeline.hash_corpus(awkward_tree),
        "hash_outputs": lambda: pipeline._hash_outputs(awkward_tree),
    }[check]
    os_read = os.read
    failed = []

    def failing_once(fd, size):
        # the deepest file, read with every directory above it open
        if not failed and os.readlink(f"/proc/self/fd/{fd}").endswith("/z/深/層.txt"):
            failed.append(fd)
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return os_read(fd, size)

    before = open_descriptors()
    monkeypatch.setattr(os, "read", failing_once)
    with pytest.raises(OSError) as raised:
        run_check()
    monkeypatch.undo()
    assert raised.value.errno == errno.EIO and failed
    assert open_descriptors() == before


def test_config_changes_invalidate_resume(golden, tmp_path):
    out = tmp_path / "out"
    run_pipeline(replay_settings(golden, out))
    # A different seed must force a full re-run, not a silent skip.
    summary = run_pipeline(replay_settings(golden, out, seed=golden.seed + 1))
    assert not any(stage["skipped"] for stage in summary["stages"].values())


def test_vocab_edit_reruns_every_stage(golden, tmp_path):
    vocab = tmp_path / "vocab"
    shutil.copytree(DATA_DIR / "vocab", vocab)
    settings = replay_settings(golden, tmp_path / "out", vocab_dir=vocab)
    run_pipeline(settings)
    (vocab / "fda.tsv").write_text("", encoding="utf-8")
    rerun = run_pipeline(settings)
    fresh = run_pipeline(replace(settings, out_dir=tmp_path / "fresh"))
    assert not any(stage["skipped"] for stage in rerun["stages"].values())
    assert rerun["pipeline_hash"] == fresh["pipeline_hash"]


@pytest.mark.parametrize("setting, bundled", [
    ("vocab_dir", DATA_DIR / "vocab"),
    ("mapping_dir", DATA_DIR / "sources"),
])
def test_fingerprint_keys_on_directory_contents_not_path(tmp_path, setting, bundled):
    copy = shutil.copytree(bundled, tmp_path / "copy")
    moved = shutil.copytree(bundled, tmp_path / "moved")
    settings = PipelineSettings(corpus_dir=tmp_path / "corpus", out_dir=tmp_path / "out", **{setting: copy})
    before = settings.fingerprint()
    assert replace(settings, **{setting: moved}).fingerprint() == before
    edited = sorted(copy.iterdir())[0]
    edited.write_text(edited.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    assert settings.fingerprint() != before


def test_fingerprint_is_every_setting_not_typed_as_a_path(tmp_path):
    # config_hash, and with it every stage key, hashes this dict; the mode decides only what a miss does.
    settings = PipelineSettings(corpus_dir=tmp_path / "corpus", out_dir=tmp_path / "out", replay_dir=tmp_path / "replay")
    assert replace(settings, mode="record").fingerprint() == settings.fingerprint() == {
        "seed": 7,
        "dedupe_threshold": 0.95,
        "awaiting": "emit",
        "allow_small_split": False,
        "split_test_size": 1000,
        "split_validation_size": 500,
        "search_test_size": 100,
    }


# --- stage keys over an in-corpus replay store --------------------------------

def recomputed(summary: dict) -> list[str]:
    return [name for name, stage in summary["stages"].items() if not stage["skipped"]]


def stage_manifest(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / STAGE_DIRS[name] / "manifest.json").read_text(encoding="utf-8"))


def in_corpus_settings(golden, in_corpus, out_dir: Path, **overrides) -> PipelineSettings:
    return replay_settings(golden, out_dir, corpus_dir=in_corpus.corpus, replay_dir=in_corpus.replay_dir, **overrides)


def test_record_run_then_rerun_recomputes_nothing(golden, in_corpus, tmp_path):
    settings = in_corpus_settings(golden, in_corpus, tmp_path / "out", mode="record")
    first = run_pipeline(settings, transports=golden.transports)
    second = run_pipeline(settings, transports=golden.transports)
    assert first["live_calls"] == golden.summary["live_calls"]
    assert recomputed(second) == []
    assert second["live_calls"] == {"annotator": 0, "llm": 0, "rxnorm": 0}
    assert second["pipeline_hash"] == first["pipeline_hash"]
    # The corpus key leaves the store out, so recording does not move it.
    assert first["corpus_hash"] == second["corpus_hash"] == hash_corpus(golden.corpus)
    served = {}
    for name in STAGES:
        served.update(stage_manifest(settings.out_dir, name)["responses"])
    assert stage_manifest(settings.out_dir, "ingest")["responses"] == {}
    assert len(served) == sum(first["live_calls"].values())
    for key, sha in served.items():
        assert hashlib.sha256((in_corpus.store / key).read_bytes()).hexdigest() == sha


def test_switching_mode_over_an_in_corpus_store_recomputes_nothing(golden, in_corpus, tmp_path):
    settings = in_corpus_settings(golden, in_corpus, tmp_path / "out", mode="record")
    recorded = run_pipeline(settings, transports=golden.transports)
    for mode in ("replay", "record"):
        rerun = run_pipeline(replace(settings, mode=mode), transports=golden.transports)
        assert recomputed(rerun) == [], mode
        assert rerun["pipeline_hash"] == recorded["pipeline_hash"]
    # a replay into a fresh out dir writes the record run's manifests, served fixtures and all
    fresh = run_pipeline(replace(settings, mode="replay", out_dir=tmp_path / "fresh"))
    assert tree_bytes(tmp_path / "fresh") == tree_bytes(settings.out_dir)


def test_noop_rerun_reads_each_recorded_file_once(golden, in_corpus, tmp_path, monkeypatch):
    settings = in_corpus_settings(golden, in_corpus, tmp_path / "out", mode="record")
    run_pipeline(settings, transports=golden.transports)
    manifests = {settings.out_dir / STAGE_DIRS[name] / "manifest.json" for name in STAGES}
    outputs, responses = [], []
    for name in STAGES:
        manifest = stage_manifest(settings.out_dir, name)
        outputs += [settings.out_dir / STAGE_DIRS[name] / rel for rel in manifest["outputs"]]
        responses += [in_corpus.store / rel for rel in manifest["responses"]]
    corpus_files = [
        path for path in in_corpus.corpus.rglob("*")
        if path.is_file() and not path.is_relative_to(in_corpus.store)
    ]
    assert responses and corpus_files

    reads: Counter = Counter()
    os_open, io_open = os.open, io.open

    def opened(path, dir_fd=None) -> tuple[int, int, str]:
        """The device and inode of the directory a file is opened through, and its name there."""
        if dir_fd is None:
            path = Path(path).resolve()
            folder, path = os.stat(path.parent), path.name
        else:
            folder = os.fstat(dir_fd)
        return folder.st_dev, folder.st_ino, os.fspath(path)

    def counting_os_open(path, flags, *args, dir_fd=None, **kwargs):
        if flags & os.O_ACCMODE == os.O_RDONLY and not flags & os.O_DIRECTORY:
            reads[opened(path, dir_fd)] += 1
        return os_open(path, flags, *args, dir_fd=dir_fd, **kwargs)

    def counting_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and not set(mode) & set("wax+"):
            reads[opened(file)] += 1
        return io_open(file, mode, *args, **kwargs)

    def no_live_call(service, request):
        raise AssertionError(f"live {service} call on a no-op")

    monkeypatch.setattr(os, "open", counting_os_open)
    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    summary = run_pipeline(settings, transports={name: no_live_call for name in golden.transports})
    monkeypatch.undo()

    assert recomputed(summary) == []
    assert summary["live_calls"] == {"annotator": 0, "llm": 0, "rxnorm": 0}
    # the stage manifests too: one read is parsed and digested for the next stage's key;
    # and the pipeline manifest, read to find it already holds the bytes it would get
    pipeline_manifest = settings.out_dir / "pipeline_manifest.json"
    recorded = outputs + responses + corpus_files + sorted(manifests) + [pipeline_manifest]
    assert reads == Counter({opened(path): 1 for path in recorded})


def test_unrelated_fixture_recomputes_nothing(golden, in_corpus, tmp_path):
    shutil.copytree(golden.replay, in_corpus.store)
    settings = in_corpus_settings(golden, in_corpus, tmp_path / "out")
    first = run_pipeline(settings)
    request = {"prompt": "a prompt no stage sends"}
    ReplayStore(in_corpus.store).put("llm", request_hash(request), request, {"text": "unused"})
    second = run_pipeline(settings)
    assert recomputed(second) == []
    assert second["pipeline_hash"] == first["pipeline_hash"]


def test_edited_fixture_reruns_the_stage_that_served_it(golden, in_corpus, tmp_path):
    shutil.copytree(golden.replay, in_corpus.store)
    settings = in_corpus_settings(golden, in_corpus, tmp_path / "out")
    first = run_pipeline(settings)
    fixtures = [in_corpus.store / key for key in sorted(stage_manifest(settings.out_dir, "link")["responses"])]
    payloads = {path: json.loads(path.read_text(encoding="utf-8")) for path in fixtures if path.parent.name == "annotator"}
    fixture = next(path for path, payload in payloads.items() if payload["response"]["annotations"])
    payloads[fixture]["response"]["annotations"] = []
    fixture.write_text(json.dumps(payloads[fixture]), encoding="utf-8")

    rerun = run_pipeline(settings)
    fresh = run_pipeline(replace(settings, out_dir=tmp_path / "fresh"))
    assert rerun["stages"]["ingest"]["skipped"] is True
    assert rerun["stages"]["dedupe"]["skipped"] is True
    assert rerun["stages"]["link"]["skipped"] is False
    assert rerun["pipeline_hash"] == fresh["pipeline_hash"] != first["pipeline_hash"]
    assert tree_bytes(settings.out_dir) == tree_bytes(tmp_path / "fresh")


def test_rerun_reasons_are_logged(golden, in_corpus, tmp_path, caplog):
    shutil.copytree(golden.replay, in_corpus.store)
    settings = in_corpus_settings(golden, in_corpus, tmp_path / "out")
    caplog.set_level(logging.INFO, logger="trialforge.pipeline")

    def reasons(**overrides) -> list[str]:
        caplog.clear()
        run_pipeline(replace(settings, **overrides))
        return [record.getMessage() for record in caplog.records if ": running" in record.getMessage()]

    assert reasons() == [f"stage {name}: running (no readable manifest)" for name in STAGES]
    assert reasons() == []
    assert reasons(seed=golden.seed + 1) == [f"stage {name}: running (input key changed)" for name in STAGES]
    reasons()

    tampered = settings.out_dir / STAGE_DIRS["extract"] / "trial_results.jsonl"
    tampered.write_bytes(tampered.read_bytes() + b"{}\n")
    assert reasons() == ["stage extract: running (output trial_results.jsonl changed)"]

    key = sorted(stage_manifest(settings.out_dir, "link")["responses"])[0]
    fixture = in_corpus.store / key
    fixture.write_bytes(fixture.read_bytes() + b"\n")
    assert reasons()[0] == f"stage link: running (recorded response {key.removesuffix('.json')} changed)"


def test_repair_rerun_hashes_each_extract_output_twice(golden, tmp_path, monkeypatch):
    settings = replay_settings(golden, tmp_path / "out")
    run_pipeline(settings)
    extract_dir = settings.out_dir / STAGE_DIRS["extract"]
    outputs = sorted(stage_manifest(settings.out_dir, "extract")["outputs"])
    tampered = extract_dir / "trial_results.jsonl"
    tampered.write_bytes(tampered.read_bytes() + b"{}\n")

    hashed: Counter = Counter()
    sha256_at = pipeline._sha256_at

    def counting(dir_fd, name, *args):
        # the directory now at extract_dir's path: the old one while checking, the new one after the rerun
        if os.path.samestat(os.fstat(dir_fd), os.stat(extract_dir)):
            hashed[name] += 1
        return sha256_at(dir_fd, name, *args)

    monkeypatch.setattr(pipeline, "_sha256_at", counting)
    summary = run_pipeline(settings)
    assert recomputed(summary) == ["extract"]
    # once to find the changed output, once to record the recomputed ones
    assert {rel: hashed[rel] for rel in outputs} == {rel: 2 for rel in outputs}


@pytest.mark.parametrize("manifest", [
    b"\xff\xfe{",
    b"[]\n",
    b'{"input_hash": "x", "outputs": []}\n',
    "responses-not-a-map",
], ids=["not-utf8", "not-an-object", "outputs-not-a-map", "responses-not-a-map"])
def test_corrupt_manifest_reruns_only_its_stage(golden, tmp_path, manifest):
    settings = replay_settings(golden, tmp_path / "out")
    first = run_pipeline(settings)
    path = settings.out_dir / STAGE_DIRS["link"] / "manifest.json"
    if manifest == "responses-not-a-map":
        manifest = json.dumps(stage_manifest(settings.out_dir, "link") | {"responses": []}).encode()
    path.write_bytes(manifest)
    second = run_pipeline(settings)
    fresh = run_pipeline(replace(settings, out_dir=tmp_path / "fresh"))
    assert recomputed(second) == ["link"]
    assert second["pipeline_hash"] == fresh["pipeline_hash"] == first["pipeline_hash"]


def test_corpus_is_hashed_once_per_run(golden, tmp_path, monkeypatch):
    calls = []
    original = pipeline.hash_corpus

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "hash_corpus", counting)
    summary = run_pipeline(replay_settings(golden, tmp_path / "out"))
    assert len(calls) == 1
    header, *rows = (tmp_path / "out" / STAGE_DIRS["benchmarks"] / "benchmarks.tsv").read_text(encoding="utf-8").splitlines()
    assert header.split("\t")[3] == "corpus_hash"
    assert {row.split("\t")[3] for row in rows} == {summary["corpus_hash"]}


def test_mapping_naming_another_source_stops_ingest(golden, tmp_path):
    # such a mapping used to write the DRKS records as ISRCTN ones, and the run exited 0
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    mappings = shutil.copytree(DATA_DIR / "sources", tmp_path / "mappings")
    mapping = json.loads((mappings / "drks.json").read_text(encoding="utf-8"))
    row = {mapping["fields"]["study_id"]: "DRKS00000001", mapping["fields"]["title"]: "A registry row"}
    (corpus / "registry" / "DRKS.json").write_text(json.dumps([row]), encoding="utf-8")
    (mappings / "drks.json").write_text(json.dumps(dict(mapping, source="ISRCTN")), encoding="utf-8")
    settings = replay_settings(golden, tmp_path / "out", corpus_dir=corpus, mapping_dir=mappings)
    with pytest.raises(ValueError, match="drks.json: 'source' is 'ISRCTN', expected 'DRKS'$"):
        run_pipeline(settings, until="ingest")


def test_ingest_rereads_an_edited_mapping(golden, tmp_path):
    mappings = shutil.copytree(DATA_DIR / "sources", tmp_path / "mappings")
    settings = replay_settings(golden, tmp_path / "out", mapping_dir=mappings)
    run_pipeline(settings, until="ingest")
    studies = settings.out_dir / STAGE_DIRS["ingest"] / "studies.jsonl"
    before = studies.read_bytes()
    mapping = json.loads((mappings / "anzctr.json").read_text(encoding="utf-8"))
    mapping["fields"]["title"] = "no_such_column"
    (mappings / "anzctr.json").write_text(json.dumps(mapping), encoding="utf-8")

    run_pipeline(settings, until="ingest")
    run_pipeline(replace(settings, out_dir=tmp_path / "fresh"), until="ingest")
    assert studies.read_bytes() != before
    assert studies.read_bytes() == (tmp_path / "fresh" / STAGE_DIRS["ingest"] / "studies.jsonl").read_bytes()


# --- repeated records ------------------------------------------------------------

def record_golden_copy(golden, tmp_path, edit, **transports) -> dict:
    """Record a run over a golden corpus copy that ``edit(corpus)`` changed, with the golden transports."""
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    edit(corpus)
    settings = replay_settings(golden, tmp_path / "out", corpus_dir=corpus, mode="record", replay_dir=tmp_path / "replay")
    return run_pipeline(settings, transports={**golden.transports, **transports})


def edit_json(path: Path, change) -> None:
    value = json.loads(path.read_text(encoding="utf-8"))
    change(value)
    path.write_text(json.dumps(value), encoding="utf-8")


def article(articles: list, pmid: str) -> dict:
    [found] = [entry for entry in articles if entry["pmid"] == pmid]
    return found


def repeat_outcome(doc):
    outcomes = doc["protocolSection"]["outcomesModule"]
    outcomes["secondaryOutcomes"] = list(outcomes["primaryOutcomes"])


def repeat_article(articles):
    articles.append(dict(article(articles, "17021318")))


@pytest.mark.parametrize("rel, repeat", [
    ("ctgov/NCT00056836.json", repeat_outcome),
    ("pubmed/articles.json", repeat_article),
], ids=["outcome-as-secondary", "article-twice"])
def test_exact_repeat_gives_the_golden_bundle(golden, tmp_path, rel, repeat):
    summary = record_golden_copy(golden, tmp_path, lambda corpus: edit_json(corpus / rel, repeat))
    assert summary["stages"]["database"]["counts"]["bundle_hash"] == GOLDEN_BUNDLE_HASH
    assert summary["stages"]["extract"]["counts"] == golden.summary["stages"]["extract"]["counts"]


def test_article_listed_again_under_another_title_is_one_flagged_study(golden, tmp_path):
    def retitled(articles):
        articles.append(dict(article(articles, "31000001"), title="Levetiracetam add-on therapy for refractory epilepsy"))

    record_golden_copy(golden, tmp_path, lambda corpus: edit_json(corpus / "pubmed" / "articles.json", retitled))
    dedupe_dir = tmp_path / "out" / STAGE_DIRS["dedupe"]
    kept = [row for row in read_jsonl(dedupe_dir / "studies.jsonl")[1:] if row["study_id"] == "31000001"]
    assert [row["flagged"] for row in kept] == [True]
    decisions = [line.split("\t") for line in (dedupe_dir / "decisions.tsv").read_text(encoding="utf-8").splitlines()]
    [conflict] = [row for row in decisions if row[3] == "id-conflict"]
    assert conflict[:3] == ["PUBMED", "31000001", "PUBMED:31000001"]
    assert float(conflict[4]) < 0.95


_SECOND_AFLIBERCEPT_PICO = {
    "population": "Eyes with persistent diabetic macular edema",
    "population_n": 120,
    "outcomes": [
        {
            "intervention": "Intravitreal aflibercept 2 mg",
            "is_control": False,
            "outcome": "Central subfield thickness fell by 185 microns at 12 months",
        },
        {
            "intervention": "Intravitreal aflibercept 2 mg every 8 weeks",
            "is_control": False,
            "outcome": "Central subfield thickness fell by 170 microns at 12 months",
        },
    ],
}


def test_second_report_of_a_trial_numbers_its_arms_after_the_first(golden, tmp_path):
    def second_report(articles):
        first = article(articles, "27000001")
        articles.append(dict(first, pmid="27000002", abstract="EXTENSION: " + first["abstract"]))

    def llm(service, request):
        if "EXTENSION: " in request["prompt"]:
            return {"text": json.dumps(_SECOND_AFLIBERCEPT_PICO)}
        return golden.transports["llm"](service, request)

    record_golden_copy(golden, tmp_path, lambda corpus: edit_json(corpus / "pubmed" / "articles.json", second_report), llm=llm)
    decisions = (tmp_path / "out" / STAGE_DIRS["dedupe"] / "decisions.tsv").read_text(encoding="utf-8")
    assert "ANZCTR\tACTRN12620000000001\tCTGOV:NCT01000001;PUBMED:27000001;PUBMED:27000002\t" in decisions
    rows = read_jsonl(tmp_path / "out" / STAGE_DIRS["extract"] / "disposition.jsonl")
    arms = {row["design_group_id"]: row["treatment_name"] for row in rows if row["design_group_id"].startswith("ACTRN12620000000001:pico:")}
    assert arms == {
        "ACTRN12620000000001:pico:g0": "Intravitreal aflibercept 2 mg",
        "ACTRN12620000000001:pico:g1": "Macular laser",
        "ACTRN12620000000001:pico:g2": "Intravitreal aflibercept 2 mg every 8 weeks",
    }


def test_adverse_event_under_a_second_organ_system_is_its_own_row(golden, tmp_path):
    def second_system(doc):
        events = doc["resultsSection"]["adverseEventsModule"]["otherEvents"]
        [haemorrhage] = [event for event in events if event["term"] == "Conjunctival haemorrhage"]
        events.append(dict(haemorrhage, organSystem="Nervous system disorders"))

    summary = record_golden_copy(golden, tmp_path, lambda corpus: edit_json(corpus / "ctgov" / "NCT01000001.json", second_system))
    assert summary["stages"]["database"]["counts"]["adverse_events"] == 5
    rows = read_jsonl(tmp_path / "out" / STAGE_DIRS["extract"] / "adverse_events.jsonl")
    haemorrhage = {(row["arm_description"], row["organ_system"]) for row in rows if row["term"] == "Conjunctival haemorrhage"}
    assert haemorrhage == {
        ("Aflibercept", "Eye disorders"),
        ("Macular laser", "Eye disorders"),
        ("Aflibercept", "Nervous system disorders"),
        ("Macular laser", "Nervous system disorders"),
    }
