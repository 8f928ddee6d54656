"""The per-entry memo of the link and extract stages, and the in-place edit sweep.

An in-place rerun after any edit must leave the out tree a cold build of the
edited inputs would write, byte for byte, the memos included, or fail with
the same exit code and error type. The memo may serve an entry's rows only
when the entry's inputs, the code, the settings and every fixture its kernel
read are as they were; a memo file that is damaged or not a regular file
serves nothing.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import REPO_ROOT, load_script, within_timeout

from trialforge import DATA_DIR, pipeline
from trialforge.errors import ClientError, DataError
from trialforge.ingest import load_source_mapping
from trialforge.pipeline import STAGE_DIRS, STAGES, PipelineSettings, build_clients, run_pipeline

corpusgen = load_script("corpusgen", directory="perfbench")

MAP_STAGES = ("link", "extract")


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def outcome(run) -> tuple:
    """``run()``'s summary, or the exit code `forge` gives its error and the error's type."""
    try:
        return ("ok", run())
    except (DataError, ValueError) as exc:
        return (2, type(exc).__name__)
    except ClientError as exc:
        return (3, type(exc).__name__)


def reran(summary: dict) -> list[str]:
    return [name for name, stage in summary["stages"].items() if not stage["skipped"]]


def reuse(summary: dict) -> dict[str, tuple[int, int]]:
    """Per map stage that ran, its entries reused and computed."""
    stages = summary["stages"]
    return {name: (stages[name]["reused"], stages[name]["computed"]) for name in MAP_STAGES if "reused" in stages[name]}


def golden_settings(golden, out_dir: Path, **overrides) -> PipelineSettings:
    base = dict(corpus_dir=golden.corpus, out_dir=out_dir, seed=golden.seed, replay_dir=golden.replay, allow_small_split=True)
    return PipelineSettings(**(base | overrides))


def corrupt(out_dir: Path, stage: str, name: str) -> None:
    path = out_dir / STAGE_DIRS[stage] / name
    path.write_bytes(path.read_bytes() + b"{}\n")


def count_kernel_calls(monkeypatch) -> dict[str, list[str]]:
    """The study id of each entry each map kernel is called for, by stage."""
    calls: dict[str, list[str]] = {name: [] for name in MAP_STAGES}
    for stage, kernel in (("link", "_link_rows"), ("extract", "_extract_rows")):
        original = getattr(pipeline, kernel)

        def counting(entry, *args, _stage=stage, _original=original):
            calls[_stage].append(entry.study_id)
            return _original(entry, *args)

        monkeypatch.setattr(pipeline, kernel, counting)
    return calls


def joined(settings: PipelineSettings, stage: str) -> dict:
    """The per-study join ``stage`` maps its kernel over, read from ``settings.out_dir``, by study id."""
    run = pipeline._RunContext(settings, None, "")
    run.stage = pipeline.STAGE_TABLE[STAGES.index(stage)]
    entries = run.join(run.read("pubmed") if stage == "extract" else ())
    return {entry.study_id: entry for entry in entries}


# --- the memo on the golden corpus ------------------------------------------


def test_a_repair_rerun_reuses_every_record_and_calls_no_kernel(golden, tmp_path, monkeypatch):
    settings = golden_settings(golden, tmp_path / "out")
    cold = run_pipeline(settings)
    assert reuse(cold) == {"link": (0, len(joined(settings, "link"))), "extract": (0, len(joined(settings, "extract")))}
    reference = tree_bytes(settings.out_dir)
    corrupt(settings.out_dir, "extract", "trial_results.jsonl")
    calls = count_kernel_calls(monkeypatch)
    repair = run_pipeline(settings)
    assert reran(repair) == ["extract"]
    assert reuse(repair) == {"extract": (len(joined(settings, "extract")), 0)}
    assert calls == {"link": [], "extract": []}
    assert repair["pipeline_hash"] == cold["pipeline_hash"]
    assert tree_bytes(settings.out_dir) == reference


def test_a_repair_rerun_that_reuses_every_entry_leaves_the_memo_file_as_it_was(golden, tmp_path):
    settings = golden_settings(golden, tmp_path / "out")
    run_pipeline(settings)
    memo = settings.out_dir / "memo" / "extract.memo"
    before = memo.stat()
    corrupt(settings.out_dir, "extract", "trial_results.jsonl")
    assert reuse(run_pipeline(settings)) == {"extract": (len(joined(settings, "extract")), 0)}
    after = memo.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_a_memo_lists_its_keys_in_the_joins_study_id_order(golden, tmp_path, monkeypatch):
    keyed: dict[str, list[tuple[str, str]]] = {stage: [] for stage in MAP_STAGES}
    entry_keys = pipeline._RunContext.entry_keys

    def recording(run):
        key_of, taken = entry_keys(run), keyed[run.stage.name]

        def key(entry):
            taken.append((entry.study_id, key_of(entry)))
            return taken[-1][1]

        return key

    monkeypatch.setattr(pipeline._RunContext, "entry_keys", recording)
    settings = golden_settings(golden, tmp_path / "out")
    run_pipeline(settings)
    for stage in MAP_STAGES:
        ids, keys = map(list, zip(*keyed[stage]))
        assert ids == sorted(joined(settings, stage))
        first = (settings.out_dir / "memo" / f"{stage}.memo").read_text(encoding="utf-8").split("\n", 1)[0]
        assert first.split(" ") == keys != sorted(keys)


def truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def garble(path: Path) -> None:
    data = bytearray(path.read_bytes())
    middle = data.index(b'"study_id"', len(data) // 2)
    data[middle + 1] ^= 0x20  # one letter of one row changes case
    path.write_bytes(bytes(data))


def into_directory(path: Path) -> None:
    path.unlink()
    (path / "inner").mkdir(parents=True)


def into_fifo(path: Path) -> None:
    path.unlink()
    os.mkfifo(path)


def into_broken_link(path: Path) -> None:
    path.unlink()
    path.symlink_to(path.parent / "missing")


@pytest.mark.parametrize("damage", [truncate, garble, into_directory, into_fifo, into_broken_link],
                         ids=["truncated", "garbled", "directory", "fifo", "broken-link"])
def test_a_damaged_or_irregular_memo_is_ignored(golden, tmp_path, damage):
    settings = golden_settings(golden, tmp_path / "out")
    run_pipeline(settings)
    reference = tree_bytes(settings.out_dir)
    damage(settings.out_dir / "memo" / "extract.memo")
    corrupt(settings.out_dir, "extract", "trial_results.jsonl")
    repair = within_timeout(lambda: run_pipeline(settings))
    assert reuse(repair) == {"extract": (0, len(joined(settings, "extract")))}
    assert tree_bytes(settings.out_dir) == reference


def isolated_reads(settings: PipelineSettings, stage: str) -> dict[str, set[str]]:
    """Each entry's fixtures as its kernel reads them alone: a new client and empty run-wide caches per entry."""
    run = pipeline._RunContext(settings, None, "")
    run.stage = pipeline.STAGE_TABLE[STAGES.index(stage)]
    vocab = run.read("drug_vocab"), run.read("drug_normalization"), run.read("biomarker_vocab")
    reads = {}
    for entry in run.join(()):
        clients = build_clients(settings)
        pipeline._link_rows(entry, clients, *vocab, {}, {}, {})
        reads[entry.study_id] = set(clients.store.served)
    return reads


def test_an_external_fixture_edit_recomputes_just_the_records_that_read_it(golden, tmp_path, monkeypatch):
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    store = shutil.copytree(golden.replay, tmp_path / "replay")
    settings = golden_settings(golden, tmp_path / "out", corpus_dir=corpus, replay_dir=store)
    run_pipeline(settings)
    reads = isolated_reads(settings, "link")
    annotated = sorted(
        key for key in set().union(*reads.values())
        if key.startswith("annotator/") and json.loads((store / key).read_text(encoding="utf-8"))["response"]["annotations"]
    )
    fixture = annotated[0]
    readers = sorted(study_id for study_id, keys in reads.items() if fixture in keys)
    assert 0 < len(readers) < len(reads)
    payload = json.loads((store / fixture).read_text(encoding="utf-8"))
    payload["response"]["annotations"] = []
    (store / fixture).write_text(json.dumps(payload), encoding="utf-8")
    # an edit of a store outside the corpus alone leaves every stage up to date; a corpus edit that no map entry
    # reads reruns them all
    pairs = corpus / "protocols" / "pairs.json"
    pairs.write_bytes(pairs.read_bytes() + b"\n")

    calls = count_kernel_calls(monkeypatch)
    rerun = run_pipeline(settings)
    assert reran(rerun) == list(STAGES)
    assert calls == {"link": readers, "extract": []}
    assert reuse(rerun) == {"link": (len(reads) - len(readers), len(readers)), "extract": (len(joined(settings, "extract")), 0)}
    monkeypatch.undo()
    fresh = run_pipeline(replace(settings, out_dir=tmp_path / "fresh"))
    assert rerun["pipeline_hash"] == fresh["pipeline_hash"]
    assert tree_bytes(settings.out_dir) == tree_bytes(tmp_path / "fresh")


SUBPROCESS_BUILD = """
import importlib.util, json, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("build_golden_replay", sys.argv[1])
builder = importlib.util.module_from_spec(spec)
spec.loader.exec_module(builder)
from trialforge import pipeline
settings = pipeline.PipelineSettings(
    corpus_dir=Path(sys.argv[2]), out_dir=Path(sys.argv[3]), replay_dir=Path(sys.argv[4]), seed=builder.GOLDEN_SEED,
    mode="record", allow_small_split=True,
)
summary = pipeline.run_pipeline(settings, transports=builder.TRANSPORTS)
print(json.dumps({"package": pipeline.__file__, "stages": summary["stages"]}))
"""


def test_a_prompt_word_changed_in_the_code_reuses_no_record(golden, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(REPO_ROOT / "src" / "trialforge", copy / "src" / "trialforge", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(REPO_ROOT / "scripts", copy / "scripts")
    endpoints = copy / "src" / "trialforge" / "ontology" / "endpoints.py"
    text = endpoints.read_text(encoding="utf-8")
    assert text.count("You are a clinical research expert.") == 1
    endpoints.write_text(text.replace("You are a clinical research expert.", "You are a careful clinical research expert."), encoding="utf-8")

    store = shutil.copytree(golden.replay, tmp_path / "replay")
    settings = golden_settings(golden, tmp_path / "out", replay_dir=store, mode="record")
    run_pipeline(settings, transports=golden.transports)
    entries = {stage: len(joined(settings, stage)) for stage in MAP_STAGES}

    def rerun_link_and_extract(code: Path | None) -> dict:
        corrupt(settings.out_dir, "link", "endpoints.jsonl")
        corrupt(settings.out_dir, "extract", "trial_results.jsonl")
        if code is None:
            return run_pipeline(settings, transports=golden.transports)
        done = subprocess.run(
            [sys.executable, "-c", SUBPROCESS_BUILD, str(code / "scripts" / "build_golden_replay.py"),
             str(settings.corpus_dir), str(settings.out_dir), str(store)],
            env=dict(os.environ, PYTHONPATH=str(code / "src")), check=True, capture_output=True, text=True, timeout=120,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        assert Path(result["package"]).is_relative_to(code)
        return result

    # the same code reuses every record; a changed prompt keys every record anew
    assert reuse(rerun_link_and_extract(None)) == {stage: (count, 0) for stage, count in entries.items()}
    assert reuse(rerun_link_and_extract(copy)) == {stage: (0, count) for stage, count in entries.items()}


def test_one_added_ctgov_document_runs_the_kernels_for_just_the_entries_it_changed(golden, tmp_path, monkeypatch):
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    settings = golden_settings(golden, tmp_path / "out", corpus_dir=corpus)
    run_pipeline(settings)
    grown_from = tree_bytes(settings.out_dir)
    before = {stage: joined(settings, stage) for stage in MAP_STAGES}

    doc = json.loads((corpus / "ctgov" / "NCT00056836.json").read_text(encoding="utf-8"))
    doc["protocolSection"]["identificationModule"]["nctId"] = "NCT09990001"
    doc.pop("nctId", None)
    (corpus / "ctgov" / "NCT09990001.json").write_text(json.dumps(doc), encoding="utf-8")

    calls = count_kernel_calls(monkeypatch)
    rerun = run_pipeline(settings)
    monkeypatch.undo()
    after = {stage: joined(settings, stage) for stage in MAP_STAGES}
    changed = {
        stage: sorted(study_id for study_id, entry in after[stage].items() if before[stage].get(study_id) != entry)
        for stage in MAP_STAGES
    }
    assert changed["link"] and changed["extract"]
    assert calls == changed
    assert reuse(rerun) == {stage: (len(after[stage]) - len(changed[stage]), len(changed[stage])) for stage in MAP_STAGES}
    fresh = run_pipeline(replace(settings, out_dir=tmp_path / "fresh"))
    assert rerun["pipeline_hash"] == fresh["pipeline_hash"]
    assert tree_bytes(settings.out_dir) == tree_bytes(tmp_path / "fresh")

    # taken away again, every entry left is reused, and the memos shrink back to the first build's
    (corpus / "ctgov" / "NCT09990001.json").unlink()
    shrunk = run_pipeline(settings)
    assert reuse(shrunk) == {stage: (len(before[stage]), 0) for stage in MAP_STAGES}
    assert tree_bytes(settings.out_dir) == grown_from


def test_a_fixture_read_through_the_run_wide_drug_cache_keys_each_entry_that_used_it(golden, tmp_path, monkeypatch):
    """A second study of the same drug links it from the cache; editing the RxNorm answer recomputes both."""
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    store = shutil.copytree(golden.replay, tmp_path / "replay")
    settings = golden_settings(golden, tmp_path / "out", corpus_dir=corpus, replay_dir=store, mode="record")
    run_pipeline(settings, transports=golden.transports)
    reads = isolated_reads(settings, "link")
    fixture = next(key for study_id in sorted(reads) for key in sorted(reads[study_id]) if key.startswith("rxnorm/"))
    drug_entry = next(study_id for study_id in sorted(reads) if fixture in reads[study_id])
    doc_id = joined(settings, "link")[drug_entry].doc.nct_id
    doc = json.loads((corpus / "ctgov" / f"{doc_id}.json").read_text(encoding="utf-8"))
    doc.pop("nctId", None)
    identification = doc["protocolSection"]["identificationModule"]
    identification["nctId"] = "NCT09990002"
    identification["briefTitle"] = identification["officialTitle"] = "An open extension study of the same treatment"
    (corpus / "ctgov" / "NCT09990002.json").write_text(json.dumps(doc), encoding="utf-8")
    # a cold build, where the second study takes the drug from the cache its first one filled
    run_pipeline(replace(settings, out_dir=tmp_path / "grown"), transports=golden.transports)
    settings = replace(settings, out_dir=tmp_path / "grown")
    readers = sorted(study_id for study_id, keys in isolated_reads(settings, "link").items() if fixture in keys)
    assert len(readers) == 2

    payload = json.loads((store / fixture).read_text(encoding="utf-8"))
    payload["response"]["rxcui"] = None if payload["response"].get("rxcui") else "999999"
    (store / fixture).write_text(json.dumps(payload), encoding="utf-8")
    pairs = corpus / "protocols" / "pairs.json"
    pairs.write_bytes(pairs.read_bytes() + b"\n")
    calls = count_kernel_calls(monkeypatch)
    run_pipeline(settings, transports=golden.transports)
    assert calls["link"] == readers
    monkeypatch.undo()
    run_pipeline(replace(settings, out_dir=tmp_path / "fresh"), transports=golden.transports)
    assert tree_bytes(settings.out_dir) == tree_bytes(tmp_path / "fresh")


# --- the edit sweep ------------------------------------------------------------

SHAPE = corpusgen.CorpusSpec(groups=24, dup_share=0.2, dropped_article_pairs=0, lead_share=0.0, acronym_titles=True, rich=True)
WORDS = ("placebo", "diabetes", "NCT10000003", "hypertension", "", "0", "aflibercept", "terminated")


def string_leaves(value, found: list) -> list:
    """Every (container, key) whose value is text, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        if isinstance(item, str):
            found.append((value, key))
        else:
            string_leaves(item, found)
    return found


def edit_json_value(rng: random.Random, case: Path, settings: PipelineSettings) -> PipelineSettings:
    corpus = case / "corpus"
    path = rng.choice([*sorted(corpus.glob("ctgov/*.json")), corpus / "pubmed" / "articles.json", *sorted(corpus.glob("registry/*.json"))])
    data = json.loads(path.read_text(encoding="utf-8"))
    container, key = rng.choice(string_leaves(data, []))
    container[key] = rng.choice([container[key] + " " + rng.choice(WORDS), rng.choice(WORDS)])
    path.write_text(json.dumps(data), encoding="utf-8")
    return settings


def edit_review_xml(rng: random.Random, case: Path, settings: PipelineSettings) -> PipelineSettings:
    corpus = case / "corpus"
    path = rng.choice(sorted(corpus.glob("reviews/*.xml")))
    text = path.read_text(encoding="utf-8")
    spans = [match.span() for match in re.finditer(r"NCT\d{8}|\d{8}", text)]
    start, end = rng.choice(spans)
    other = rng.choice(sorted(p.stem for p in corpus.glob("ctgov/*.json")))
    path.write_text(text[:start] + rng.choice([other, "", text[start:end] + "0"]) + text[end:], encoding="utf-8")
    return settings


def edit_registry_rows(rng: random.Random, case: Path, settings: PipelineSettings) -> PipelineSettings:
    path = rng.choice(sorted((case / "corpus" / "registry").glob("*.json")))
    rows = json.loads(path.read_text(encoding="utf-8"))
    if rng.random() < 0.5:
        rows.pop(rng.randrange(len(rows)))
    else:
        id_column = load_source_mapping(path.stem, settings.mapping_dir)["fields"]["study_id"]
        row = dict(rng.choice(rows))
        row[id_column] = f"{row[id_column]}9"
        rows.insert(rng.randrange(len(rows) + 1), row)
    path.write_text(json.dumps(rows), encoding="utf-8")
    return settings


def edit_data_file(rng: random.Random, case: Path, settings: PipelineSettings) -> PipelineSettings:
    path = rng.choice(sorted([*(case / "vocab").rglob("*.*"), *(case / "sources").glob("*.json")]))
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    n = rng.randrange(len(lines))
    lines[n] = rng.choice(["", lines[n].replace("a", "e", 1), lines[n] + lines[n]])
    path.write_text("".join(lines), encoding="utf-8")
    return settings


def edit_setting(rng: random.Random, case: Path, settings: PipelineSettings) -> PipelineSettings:
    return replace(settings, **rng.choice([
        {"seed": settings.seed + 1}, {"dedupe_threshold": 0.8}, {"awaiting": rng.choice(["cite", "drop"])},
        {"split_test_size": 3},
    ]))


def edit_fixture(rng: random.Random, case: Path, settings: PipelineSettings) -> PipelineSettings:
    path = rng.choice(sorted((case / "corpus" / "replay").glob("*/*.json")))
    payload = json.loads(path.read_text(encoding="utf-8"))
    response = payload["response"]
    if "annotations" in response:
        response["annotations"] = response["annotations"][1:] if response["annotations"] else [
            {"semantic_type": "T047", "mesh_id": "D000001", "mesh_term": "Added", "ancestors": []}]
    elif "rxcui" in response:
        response["rxcui"] = None if response["rxcui"] else "123456"
    else:
        text = response["text"]
        response["text"] = rng.choice([text.replace("positive", "negative"), text.replace("Physiological", "Mortality"), text + " "])
    path.write_text(json.dumps(payload), encoding="utf-8")
    return settings


EDITS = {
    "json-value": edit_json_value,
    "review-xml": edit_review_xml,
    "registry-row": edit_registry_rows,
    "data-file": edit_data_file,
    "setting": edit_setting,
    "fixture": edit_fixture,
}


@pytest.fixture(scope="module")
def sweep_base(tmp_path_factory):
    """A corpusgen corpus recorded into its own store, with copies of the packaged tables, built once."""
    base = tmp_path_factory.mktemp("sweep")
    corpusgen.generate(base / "corpus", 11, SHAPE, DATA_DIR / "sources")
    shutil.copytree(DATA_DIR / "vocab", base / "vocab")
    shutil.copytree(DATA_DIR / "sources", base / "sources")
    run_pipeline(sweep_settings(base, base / "out"), transports=corpusgen.TRANSPORTS)
    return base


def test_an_edited_citing_article_recomputes_the_trial_it_cites(sweep_base, tmp_path):
    """An article that names a trial feeds the trial's outcome label: the trial's key covers it."""
    for name in ("corpus", "vocab", "sources", "out"):
        shutil.copytree(sweep_base / name, tmp_path / name)
    path = tmp_path / "corpus" / "pubmed" / "articles.json"
    articles = json.loads(path.read_text(encoding="utf-8"))
    citing = [article for article in articles if re.search(r"NCT\d{8}", article.get("abstract") or "")]
    assert citing
    for article in citing:
        article["abstract"] += " The trial was stopped early for benefit."
    path.write_text(json.dumps(articles), encoding="utf-8")
    settings = sweep_settings(tmp_path, tmp_path / "out")
    rerun = run_pipeline(settings, transports=corpusgen.TRANSPORTS)
    run_pipeline(replace(settings, out_dir=tmp_path / "cold"), transports=corpusgen.TRANSPORTS)
    assert reuse(rerun)["extract"][1] > len(citing)  # the articles' own studies and the trials they cite
    assert tree_bytes(settings.out_dir) == tree_bytes(tmp_path / "cold")


def sweep_settings(case: Path, out_dir: Path) -> PipelineSettings:
    return PipelineSettings(
        corpus_dir=case / "corpus", out_dir=out_dir, seed=3, mode="record", allow_small_split=True,
        vocab_dir=case / "vocab", mapping_dir=case / "sources",
    )


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("edit", sorted(EDITS))
def test_an_in_place_rerun_after_an_edit_equals_a_cold_build(sweep_base, tmp_path, edit, seed):
    case = tmp_path / "case"
    for name in ("corpus", "vocab", "sources", "out"):
        shutil.copytree(sweep_base / name, case / name, symlinks=True)
    settings = EDITS[edit](random.Random(f"{edit}:{seed}"), case, sweep_settings(case, case / "out"))

    in_place = outcome(lambda: run_pipeline(settings, transports=corpusgen.TRANSPORTS))
    cold = outcome(lambda: run_pipeline(replace(settings, out_dir=tmp_path / "cold"), transports=corpusgen.TRANSPORTS))
    if in_place[0] != "ok" or cold[0] != "ok":
        assert in_place == cold
        print(f"{edit} {seed}: both refused, exit {cold[0]} ({cold[1]})")
        return
    assert tree_bytes(settings.out_dir) == tree_bytes(tmp_path / "cold")
    summary = in_place[1]
    print(f"{edit} {seed}: reran {len(reran(summary))} of {len(STAGES)} stages; "
          + "; ".join(f"{name} reused {done[0]}, computed {done[1]}" for name, done in reuse(summary).items()))
    if edit == "setting" and settings.dedupe_threshold == sweep_settings(case, case / "out").dedupe_threshold:
        # a `seed`, `awaiting` or split-size edit, which only graph and benchmarks read
        assert [computed for _, computed in reuse(summary).values()] == [0, 0]


@pytest.mark.parametrize("change", [{"allow_small_split": False}, {"split_validation_size": 2}, {"search_test_size": 1}],
                         ids=lambda change: next(iter(change)))
def test_a_setting_only_benchmarks_read_runs_no_kernel(sweep_base, tmp_path, monkeypatch, change):
    """The late settings the sweep does not edit: like its `seed`, `awaiting` and split-size edits, each keys no entry."""
    for name in ("corpus", "vocab", "sources", "out"):
        shutil.copytree(sweep_base / name, tmp_path / name)
    settings = replace(sweep_settings(tmp_path, tmp_path / "out"), **change)
    calls = count_kernel_calls(monkeypatch)
    in_place = outcome(lambda: run_pipeline(settings, transports=corpusgen.TRANSPORTS))
    assert calls == {"link": [], "extract": []}
    monkeypatch.undo()
    cold = outcome(lambda: run_pipeline(replace(settings, out_dir=tmp_path / "cold"), transports=corpusgen.TRANSPORTS))
    if in_place[0] != "ok" or cold[0] != "ok":  # a corpus too small to split unless allowed
        assert in_place == cold
        return
    assert reran(in_place[1]) == list(STAGES)
    assert tree_bytes(settings.out_dir) == tree_bytes(tmp_path / "cold")
