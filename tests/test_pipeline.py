import builtins
import hashlib
import io
import json
import logging
import os
import shutil
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from trialforge import pipeline
from trialforge.benchgen import numeric_id_key
from trialforge.clients import ReplayStore, request_hash
from trialforge.errors import LiveCallForbidden, ReplayMiss
from trialforge.ingest import _default_mapping_dir
from trialforge.ontology._vocabio import default_vocab_dir
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


GOLDEN_PIPELINE_HASH = "2930a769afeafc8fe1805655cfd0faee0cec9c6f4bae91bc973acb8395f2d780"
GOLDEN_BUNDLE_HASH = "ab4ca7ee8a4549461a5b531b5b7f8453e1843ae8786fb521c831da43f8ecb5fa"


def test_golden_hashes_are_pinned(golden, tmp_path):
    """A replay of the golden corpus produces these exact output bytes.

    A change that alters output bytes on purpose updates both pins and
    says so in CHANGES.md; any other change must leave them as they are.
    """
    summary = run_pipeline(replay_settings(golden, tmp_path / "out"))
    assert summary["pipeline_hash"] == GOLDEN_PIPELINE_HASH
    assert summary["stages"]["database"]["counts"]["bundle_hash"] == GOLDEN_BUNDLE_HASH


def test_rerun_skips_every_intact_stage(golden, tmp_path):
    settings = replay_settings(golden, tmp_path / "out")
    first = run_pipeline(settings)
    second = run_pipeline(settings)
    assert not any(stage["skipped"] for stage in first["stages"].values())
    assert all(stage["skipped"] for stage in second["stages"].values())
    assert first["pipeline_hash"] == second["pipeline_hash"]


def test_resume_after_lost_stage_recomputes_only_that_stage(golden, tmp_path):
    settings = replay_settings(golden, tmp_path / "out")
    first = run_pipeline(settings)
    (tmp_path / "out" / STAGE_DIRS["extract"] / "manifest.json").unlink()

    # The recomputed manifest is byte-identical, so the downstream input
    # hashes still match and those stages skip.
    second = run_pipeline(settings)
    skipped = {name: stage["skipped"] for name, stage in second["stages"].items()}
    assert skipped == {
        "ingest": True,
        "dedupe": True,
        "link": True,
        "extract": False,
        "graph": True,
        "database": True,
        "benchmarks": True,
    }
    assert second["pipeline_hash"] == first["pipeline_hash"]


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
    calls = dict.fromkeys(readers, 0)

    def counting(name):
        original = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in readers:
        monkeypatch.setattr(pipeline, name, counting(name))
    settings = replay_settings(golden, tmp_path / "out")

    def run_and_count() -> tuple[dict, dict]:
        calls.update(dict.fromkeys(readers, 0))
        summary = run_pipeline(settings)
        return summary, dict(calls)

    _, cold = run_and_count()
    assert all(1 <= count <= 3 for count in cold.values()), cold

    noop, counts = run_and_count()
    assert all(stage["skipped"] for stage in noop["stages"].values())
    assert counts == dict.fromkeys(readers, 0)

    target = tmp_path / "out" / STAGE_DIRS["extract"] / "trial_results.jsonl"
    target.write_bytes(target.read_bytes() + b"{}\n")
    repair, counts = run_and_count()
    assert [name for name, stage in repair["stages"].items() if not stage["skipped"]] == ["extract"]
    assert all(count <= 1 for count in counts.values()), counts


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
    expected = pipeline._write_rows_jsonl(old, sorted(rows, key=lambda row: json.dumps(row, sort_keys=True)))
    assert pipeline._write_sorted_rows(new, rows) == expected == len(rows)
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


def test_offline_mode_forbids_unrecorded_calls(golden, tmp_path):
    empty_replay = tmp_path / "empty_replay"
    empty_replay.mkdir()
    settings = replay_settings(
        golden, tmp_path / "out", mode="offline", replay_dir=empty_replay
    )
    with pytest.raises(LiveCallForbidden) as excinfo:
        run_pipeline(settings)
    assert str(excinfo.value).startswith("stage link: ")


def test_offline_mode_with_complete_store_succeeds(golden, tmp_path):
    summary = run_pipeline(replay_settings(golden, tmp_path / "out", mode="offline"))
    assert summary["live_calls"] == {"annotator": 0, "llm": 0, "rxnorm": 0}
    assert (
        summary["stages"]["database"]["counts"]["bundle_hash"]
        == golden.summary["stages"]["database"]["counts"]["bundle_hash"]
    )


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


def within_timeout(fn, seconds: float = 10.0):
    """``fn()``'s result; fails instead of hanging if it blocks (say, opening a FIFO)."""
    result = []
    worker = threading.Thread(target=lambda: result.append(fn()), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "blocked"
    return result[0]


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


def test_config_changes_invalidate_resume(golden, tmp_path):
    out = tmp_path / "out"
    run_pipeline(replay_settings(golden, out))
    # A different seed must force a full re-run, not a silent skip.
    summary = run_pipeline(replay_settings(golden, out, seed=golden.seed + 1))
    assert not any(stage["skipped"] for stage in summary["stages"].values())


def test_vocab_edit_reruns_every_stage(golden, tmp_path):
    vocab = tmp_path / "vocab"
    shutil.copytree(default_vocab_dir(), vocab)
    settings = replay_settings(golden, tmp_path / "out", vocab_dir=vocab)
    run_pipeline(settings)
    (vocab / "fda.tsv").write_text("", encoding="utf-8")
    rerun = run_pipeline(settings)
    fresh = run_pipeline(replace(settings, out_dir=tmp_path / "fresh"))
    assert not any(stage["skipped"] for stage in rerun["stages"].values())
    assert rerun["pipeline_hash"] == fresh["pipeline_hash"]


@pytest.mark.parametrize("setting, bundled", [
    ("vocab_dir", default_vocab_dir()),
    ("mapping_dir", _default_mapping_dir()),
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
    # config_hash, and with it every stage key, hashes this dict.
    settings = PipelineSettings(corpus_dir=tmp_path / "corpus", out_dir=tmp_path / "out", replay_dir=tmp_path / "replay")
    assert settings.fingerprint() == {
        "seed": 7,
        "dedupe_threshold": 0.95,
        "mode": "replay",
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

    def counting_os_open(path, flags, *args, **kwargs):
        if flags & os.O_ACCMODE == os.O_RDONLY:
            reads[Path(path).resolve()] += 1
        return os_open(path, flags, *args, **kwargs)

    def counting_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and not set(mode) & set("wax+"):
            reads[Path(file).resolve()] += 1
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
    recorded = [path.resolve() for path in outputs + responses + corpus_files]
    assert {path: reads[path] for path in recorded} == {path: 1 for path in recorded}
    # the rest is the stage manifests: parsed, and digested for the next stage's key
    assert set(reads) - set(recorded) == {path.resolve() for path in manifests}


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


def test_ingest_rereads_an_edited_mapping(golden, tmp_path):
    mappings = shutil.copytree(_default_mapping_dir(), tmp_path / "mappings")
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
