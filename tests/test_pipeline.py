import hashlib
import json
from pathlib import Path

import pytest

from trialforge import pipeline
from trialforge.benchgen import numeric_id_key
from trialforge.errors import LiveCallForbidden, ReplayMiss
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


def test_config_changes_invalidate_resume(golden, tmp_path):
    out = tmp_path / "out"
    run_pipeline(replay_settings(golden, out))
    # A different seed must force a full re-run, not a silent skip.
    summary = run_pipeline(replay_settings(golden, out, seed=golden.seed + 1))
    assert not any(stage["skipped"] for stage in summary["stages"].values())
