"""Tests for the benchmark's corpus generator, transports and tracer.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(REPO_ROOT / "src")]

import corpusgen  # noqa: E402
import tracing  # noqa: E402
from child import dedupe_truth  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from trialforge.dedupe import normalize_title  # noqa: E402
from trialforge.pipeline import PipelineSettings, hash_corpus, run_pipeline  # noqa: E402

MAPPING_DIR = REPO_ROOT / "src" / "trialforge" / "data" / "sources"
SMALL_SKEWED = corpusgen.CorpusSpec(groups=40, dup_share=0.25, dropped_article_pairs=3, lead_share=0.5, acronym_titles=False, rich=False)
SMALL_RICH = corpusgen.CorpusSpec(groups=60, dup_share=0.1, dropped_article_pairs=0, lead_share=0.0, acronym_titles=True, rich=True)


def _generate(tmp_path: Path, name: str, seed: int, spec: corpusgen.CorpusSpec) -> tuple[Path, dict]:
    corpus = tmp_path / name / "corpus"
    return corpus, corpusgen.generate(corpus, seed, spec, MAPPING_DIR)


@pytest.mark.parametrize("spec", [SMALL_SKEWED, SMALL_RICH])
def test_same_seed_same_corpus_hash(tmp_path, spec):
    first, _ = _generate(tmp_path, "a", 5, spec)
    second, _ = _generate(tmp_path, "b", 5, spec)
    other, _ = _generate(tmp_path, "c", 6, spec)
    assert hash_corpus(first) == hash_corpus(second)
    assert hash_corpus(first) != hash_corpus(other)


def test_truth_accounts_for_every_record(tmp_path):
    corpus, truth = _generate(tmp_path, "a", 3, SMALL_SKEWED)
    listed = [tuple(r) for r in truth["distinct"]] + [tuple(r) for pair in truth["planted_pairs"] for r in pair]
    assert len(listed) == len(set(listed)) == truth["records"]["total"]
    assert len(truth["planted_pairs"]) == round(SMALL_SKEWED.groups * SMALL_SKEWED.dup_share)
    assert len(truth["dropped_article_pairs"]) == SMALL_SKEWED.dropped_article_pairs
    assert not (corpus / corpusgen.TRUTH_NAME).exists(), "truth must stay outside the hashed corpus"


def test_title_shape_does_not_depend_on_seed(tmp_path):
    def lengths(seed):
        corpus, _ = _generate(tmp_path, f"s{seed}", seed, SMALL_SKEWED)
        titles = [a["title"] for a in json.loads((corpus / "pubmed" / "articles.json").read_text())]
        for path in sorted((corpus / "registry").glob("*.json")):
            titles += [next(v for k, v in row.items() if "title" in k.lower()) for row in json.loads(path.read_text())]
        titles += [json.loads(p.read_text())["protocolSection"]["identificationModule"]["briefTitle"] for p in (corpus / "ctgov").glob("*.json")]
        return sorted(len(normalize_title(t)) for t in titles)

    assert lengths(1) == lengths(2)


@pytest.mark.parametrize("spec", [SMALL_SKEWED, SMALL_RICH])
def test_record_pass_is_fully_scripted_and_replays(tmp_path, spec):
    corpus, truth = _generate(tmp_path, "a", 9, spec)
    common = dict(corpus_dir=corpus, replay_dir=tmp_path / "replay", allow_small_split=True)
    recorded = run_pipeline(PipelineSettings(out_dir=tmp_path / "rec", mode="record", **common), transports=corpusgen.TRANSPORTS)
    assert sum(recorded["live_calls"].values()) > 0
    replayed = run_pipeline(PipelineSettings(out_dir=tmp_path / "rep", mode="replay", **common))
    assert replayed["stages"]["database"]["counts"] == recorded["stages"]["database"]["counts"]

    recall, problems = dedupe_truth(tmp_path / "rep", truth)
    assert problems == []
    planted, dropped = len(truth["planted_pairs"]), len(truth["dropped_article_pairs"])
    # first-token blocking never compares a title with its article-less twin
    assert recall == (planted - dropped) / planted


def test_unscripted_prompt_raises():
    with pytest.raises(ValueError, match="no scripted answer"):
        corpusgen.llm_transport("llm", {"prompt": "Translate this abstract into French"})


def test_workload_specs_are_valid():
    for workload in WORKLOADS.values():
        assert workload.mode in ("record", "replay")
        assert workload.spec.dropped_article_pairs <= round(workload.spec.groups * workload.spec.dup_share)


def test_trace_targets_resolve_and_a_renamed_one_fails(monkeypatch):
    for _key, module_name, path, _kind in tracing.TARGETS:
        tracing._resolve(module_name, path)
    monkeypatch.setattr(tracing, "TARGETS", (("x", "trialforge.pipeline", "no_such_entry_point", "span"),))
    with pytest.raises(LookupError, match="no_such_entry_point"):
        tracing.Tracer().install()
