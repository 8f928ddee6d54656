"""The per-study join and the link and extract kernels.

Per-table link and extract stages live in `_reference_stages`; a build
through them must write the same bytes as a build through the kernels, on
the golden corpus and on shuffled and perturbed synthetic corpora. Each
kernel must also be local: its rows for one joined study id are exactly
the full run's rows for that id.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from _reference_stages import reference_extract, reference_link
from conftest import load_script
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trialforge import DATA_DIR, cli, pipeline, store
from trialforge.pipeline import STAGE_DIRS, STAGES, PipelineSettings, build_clients, run_pipeline

corpusgen = load_script("corpusgen", directory="perfbench")

# The bulk-replay and dedupe-skewed shapes of the benchmark: the latter at its size, the former smaller.
SHAPES = {
    "bulk": corpusgen.CorpusSpec(groups=200, dup_share=0.1, dropped_article_pairs=0, lead_share=0.0, acronym_titles=True, rich=True),
    "skew": corpusgen.CorpusSpec(groups=140, dup_share=0.18, dropped_article_pairs=4, lead_share=0.5, acronym_titles=False, rich=False),
}


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` but the per-entry memos, which the reference stages do not keep."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.parent != root / "memo"
    }


def reference_build(settings: PipelineSettings, **options) -> dict:
    """``run_pipeline`` with link and extract run by the reference stages."""
    with mock.patch.dict(pipeline._STAGE_FUNCS, link=reference_link, extract=reference_extract):
        return run_pipeline(settings, **options)


def test_kernels_write_the_reference_bytes_on_golden(golden, tmp_path):
    settings = PipelineSettings(
        corpus_dir=golden.corpus, out_dir=tmp_path / "out", seed=golden.seed,
        replay_dir=golden.replay, allow_small_split=True,
    )
    reference_build(settings)
    assert tree_bytes(settings.out_dir) == tree_bytes(golden.record_out)


def shared_id_corpus(golden, target: Path) -> Path:
    """A golden copy whose one added ANZCTR row, under another title, is registered as CT.gov's NCT00000150."""
    corpus = shutil.copytree(golden.corpus, target)
    path = corpus / "registry" / "ANZCTR.json"
    rows = json.loads(path.read_text(encoding="utf-8"))
    rows.append(dict(rows[0], **{"Registration number": "NCT00000150", "Public title": "An unrelated trial of sleep"}))
    path.write_text(json.dumps(rows), encoding="utf-8")
    return corpus


SHARED = "study id NCT00000150 survives dedupe twice, from ANZCTR and CTGOV"


def test_two_sources_surviving_under_one_id_stop_the_run_at_dedupe(golden, tmp_path, capsys):
    """Both studies survive dedupe; the run stops there, before any service call and before link."""
    corpus = shared_id_corpus(golden, tmp_path / "corpus")
    called = []
    transports = {
        name: lambda service, request, _transport=transport: called.append(service) or _transport(service, request)
        for name, transport in golden.transports.items()
    }
    settings = PipelineSettings(corpus_dir=corpus, out_dir=tmp_path / "record", mode="record", replay_dir=tmp_path / "replay")
    with pytest.raises(ValueError, match=f"^{SHARED}$"):
        run_pipeline(settings, transports=transports)
    assert called == []
    assert sorted(path.name for path in settings.out_dir.iterdir()) == [STAGE_DIRS["ingest"], STAGE_DIRS["dedupe"]]
    assert not (settings.out_dir / STAGE_DIRS["dedupe"] / "manifest.json").exists()

    for verb in ("run-all", "dedupe"):
        out = tmp_path / verb
        args = ["--corpus", str(corpus), "--out", str(out), "--replay-dir", str(golden.replay), "--seed", str(golden.seed)]
        assert cli.main([verb, *args]) == 2
        assert capsys.readouterr().err == f"invalid input: {SHARED}\n"
        assert not (out / STAGE_DIRS["link"]).exists()


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    """Each shape's corpus, generated once; the store every build records into."""
    root = tmp_path_factory.mktemp("synthetic")
    corpora = {}
    for name, spec in SHAPES.items():
        corpora[name] = root / name
        corpusgen.generate(corpora[name], 5, spec, DATA_DIR / "sources")
    return corpora, root / "replay"


def perturbed_copy(corpus: Path, target: Path, rng: random.Random) -> None:
    """``corpus`` with its articles, each registry file's rows and its CT.gov documents' files reordered.

    Some articles are repeated under their pmid with another year. Some
    trials get a twin: a copy of the CT.gov document under a larger NCT id
    without its results section, and a copy of each article naming the
    trial, under a new pmid and naming the twin instead. Dedupe merges each
    twin into the trial's study, so that study absorbs a second document and
    is cited through two NCT ids.
    """
    shutil.copytree(corpus, target)
    articles = json.loads((target / "pubmed" / "articles.json").read_text(encoding="utf-8"))
    articles += [dict(article, year=article["year"] + 1) for article in articles if rng.random() < 0.1]
    for path in sorted((target / "ctgov").glob("*.json")):
        if rng.random() < 0.25:
            doc = json.loads(path.read_text(encoding="utf-8"))
            nct_id, twin_id = doc["nctId"], "NCT9" + doc["nctId"][4:]
            doc.pop("resultsSection", None)
            doc["nctId"] = doc["protocolSection"]["identificationModule"]["nctId"] = twin_id
            (target / "ctgov" / f"{twin_id}.json").write_text(json.dumps(doc), encoding="utf-8")
            articles += [
                dict(article, pmid="9" + article["pmid"], accession_numbers=[twin_id],
                     abstract=article["abstract"].replace(nct_id, twin_id))
                for article in articles
                if nct_id in article.get("abstract", "")
            ]
    for path in [target / "pubmed" / "articles.json", *sorted((target / "registry").glob("*.json"))]:
        rows = articles if path.parent.name == "pubmed" else json.loads(path.read_text(encoding="utf-8"))
        rng.shuffle(rows)
        path.write_text(json.dumps(rows), encoding="utf-8")
    docs = sorted((target / "ctgov").glob("*.json"))
    texts = [path.read_bytes() for path in docs]
    rng.shuffle(texts)
    for path, text in zip(docs, texts):
        path.write_bytes(text)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(shape=st.sampled_from(sorted(SHAPES)), rng=st.randoms(use_true_random=False))
def test_kernels_write_the_reference_bytes_on_perturbed_corpora(synthetic, shape, rng):
    corpora, replay = synthetic
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        perturbed_copy(corpora[shape], corpus, rng)
        trees = []
        for build in (run_pipeline, reference_build):
            out = Path(tmp) / build.__name__
            settings = PipelineSettings(corpus_dir=corpus, out_dir=out, mode="record", replay_dir=replay)
            build(settings, transports=corpusgen.TRANSPORTS, until="extract")
            trees.append(tree_bytes(out))
        kernel, reference = trees
        assert any(name.startswith(STAGE_DIRS["extract"]) for name in kernel)
        assert kernel == reference


def table_rows(out: Path, stage: str, name: str) -> list[dict]:
    path = out / STAGE_DIRS[stage] / f"{name}.jsonl"
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_each_kernel_gives_the_full_runs_rows_for_its_study_id(golden):
    settings = PipelineSettings(corpus_dir=golden.corpus, out_dir=golden.record_out, replay_dir=golden.replay)
    run = pipeline._RunContext(settings, build_clients(settings), "")

    def kernel_rows(stage: str) -> tuple[list, dict[str, dict[str, list[str]]]]:
        """The join for ``stage`` and, by study id, each table's lines as its kernel gives them for that entry alone."""
        run.stage = pipeline.STAGE_TABLE[STAGES.index(stage)]
        if stage == "link":
            entries = list(run.join(()))
            vocab = run.read("drug_vocab"), run.read("drug_normalization"), run.read("biomarker_vocab")
            rows = [pipeline._link_rows(entry, run.clients, *vocab, {}, {}, {}) for entry in entries]
        else:
            entries = list(run.join(run.read("pubmed")))
            extras = run.read("meddra_vocab"), run.read("termination_keywords")
            counts = {"skipped_no_results": 0, "pico_rows": 0}
            rows = [pipeline._extract_rows(entry, run.clients, *extras, counts) for entry in entries]
        return entries, {
            entry.study_id: {name: sorted(set(map(store.encode_row, table))) for name, table in tables.items()}
            for entry, tables in zip(entries, rows)
        }

    for stage, names in (("link", pipeline._LINK_TABLES), ("extract", pipeline._EXTRACT_TABLES)):
        entries, by_id = kernel_rows(stage)
        assert [entry.study_id for entry in entries] == sorted(by_id)
        for name in names:
            full: dict[str, list[str]] = {study_id: [] for study_id in by_id}
            for row in table_rows(golden.record_out, stage, name):
                full[row["study_id"]].append(store.encode_row(row))
            for study_id, lines in full.items():
                assert by_id[study_id][name] == sorted(lines), (stage, name, study_id)
        assert any(lines for tables in by_id.values() for lines in tables.values()), stage
