"""End-to-end corpus pipeline: raw dumps in, database and benchmarks out.

The pipeline is a fixed chain of seven stages, each reading files written
by the previous one and writing its own outputs plus a ``manifest.json``.
A stage manifest records the hash of everything the stage depended on, so
a rerun can prove a stage is already up to date and skip it. Nothing in
any output carries a timestamp; two runs over the same corpus with the
same settings are byte-identical.

Expected corpus layout::

    corpus_dir/
      registry/<SOURCE>.json   JSON array of raw rows, filename = source tag
      ctgov/<nctid>.json       one registry document per trial
      pubmed/articles.json     JSON array of {pmid, title, abstract, ...}
      reviews/index.json       JSON array of review metadata dicts
      reviews/<pmid>.xml       full-text reference sections (JATS-style)
      protocols/pairs.json     JSON array of protocol/registry pairs
      replay/                  default replay store (override with replay_dir)

Every subdirectory is optional; missing ones simply contribute nothing.

Stages read the inputs they share (CT.gov docs, PubMed articles, review
index, merged studies, dedupe aliases, document index) through a run
context that reads each on first use and keeps it, so a skipped stage
reads nothing. ``run_pipeline`` starts a fresh context before ``dedupe``
and before ``database``, so one span runs ``dedupe`` to ``graph`` and
another ``database`` and ``benchmarks``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import shutil
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Optional

from . import store
from .benchgen import (
    DESIGN_FIELDS,
    gen_completion_items,
    gen_design_mcq,
    gen_evidence_mcq,
    gen_sample_size_items,
    gen_screening_items,
    gen_search_items,
    split_by_numeric_id,
    split_search_items,
    write_benchmark_files,
)
from .benchgen.review_tasks import _include_map
from .clients import (
    MODES,
    ReplayStore,
    ServiceClient,
    annotator_callable,
    llm_callable,
    rxnorm_callable,
)
from .config import ForgeConfig
from .dedupe import dedupe_corpus
from .errors import ForgeError, MissingResultsSection
from .evidence import (
    AdverseEventRow,
    DispositionRow,
    OutcomeLabel,
    TrialResultRow,
    build_disposition,
    classify_completed_outcome,
    disposition_tables_from_ctgov,
    extract_pubmed_pico,
    label_terminated_study,
    parse_adverse_events,
    parse_ctgov_results,
    pico_disposition_rows,
    primary_pvalues,
)
from .ingest import extract_pubmed_study, parse_ctgov_study, parse_registry_record
from .ontology.biomarkers import load_biomarker_index, match_biomarker
from .ontology.conditions import annotate_conditions
from .ontology.drugs import link_drug, load_drug_resources
from .ontology.endpoints import classify_endpoint
from .ontology.meddra import load_meddra
from .relations import (
    assemble_graph,
    extract_nct_links,
    extract_review_references,
    write_relation_counts_tsv,
    write_relations_tsv,
)
from .schema import (
    CanonicalStudy,
    RelationTriple,
    Source,
    StudyStatus,
    read_studies_jsonl,
    write_studies_jsonl,
)

logger = logging.getLogger(__name__)

STAGES = ("ingest", "dedupe", "link", "extract", "graph", "database", "benchmarks")

STAGE_DIRS = {
    "ingest": "01_ingest",
    "dedupe": "02_dedupe",
    "link": "03_link",
    "extract": "04_extract",
    "graph": "05_graph",
    "database": "06_database",
    "benchmarks": "07_benchmarks",
}

# Longest biomarker name in the vocabulary is five tokens; six gives headroom.
_BIOMARKER_MAX_TOKENS = 6


@dataclass(frozen=True)
class PipelineSettings:
    """Everything a run depends on besides the corpus bytes themselves."""

    corpus_dir: Path
    out_dir: Path
    seed: int = 7
    dedupe_threshold: float = 0.95
    mode: str = "replay"
    replay_dir: Optional[Path] = None
    awaiting: str = "emit"
    allow_small_split: bool = False
    split_test_size: int = 1000
    split_validation_size: int = 500
    search_test_size: int = 100
    vocab_dir: Optional[Path] = None
    mapping_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    @classmethod
    def from_config(cls, config: ForgeConfig) -> "PipelineSettings":
        corpus_dir = config.get_path("corpus_dir")
        out_dir = config.get_path("out_dir")
        if corpus_dir is None or out_dir is None:
            raise ValueError("config needs corpus_dir and out_dir")
        return cls(
            corpus_dir=corpus_dir,
            out_dir=out_dir,
            seed=config.get_int("seed", 7),
            dedupe_threshold=config.get_float("dedupe_threshold", 0.95),
            mode=config.get("mode", "replay"),
            replay_dir=config.get_path("replay_dir"),
            awaiting=config.get("awaiting", "emit"),
            allow_small_split=config.get_bool("allow_small_split", False),
            split_test_size=config.get_int("split_test_size", 1000),
            split_validation_size=config.get_int("split_validation_size", 500),
            search_test_size=config.get_int("search_test_size", 100),
            vocab_dir=config.get_path("vocab_dir"),
            mapping_dir=config.get_path("mapping_dir"),
        )

    def fingerprint(self) -> dict:
        return {
            "seed": self.seed,
            "dedupe_threshold": self.dedupe_threshold,
            "mode": self.mode,
            "awaiting": self.awaiting,
            "allow_small_split": self.allow_small_split,
            "split_test_size": self.split_test_size,
            "split_validation_size": self.split_validation_size,
            "search_test_size": self.search_test_size,
        }

    @property
    def replay_root(self) -> Path:
        return self.replay_dir if self.replay_dir is not None else self.corpus_dir / "replay"


@dataclass
class _Clients:
    llm: Callable[[str], str]
    annotator: Callable[[dict], dict]
    rxnorm: Callable[[dict], dict]
    raw: dict = field(default_factory=dict)

    def live_calls(self) -> dict:
        return {name: client.live_calls for name, client in self.raw.items()}


def build_clients(settings: PipelineSettings, transports: Optional[dict] = None) -> _Clients:
    """One replay-backed client per external service.

    ``transports`` maps service names to live callables and only matters
    in record mode; replay and offline runs never touch them.
    """
    transports = transports or {}
    root = settings.replay_root
    clients = {
        name: ServiceClient(settings.mode, ReplayStore(root), transport=transports.get(name))
        for name in ("llm", "annotator", "rxnorm")
    }
    return _Clients(
        llm=llm_callable(clients["llm"]),
        annotator=annotator_callable(clients["annotator"]),
        rxnorm=rxnorm_callable(clients["rxnorm"]),
        raw=clients,
    )


# ---------------------------------------------------------------------------
# hashing and manifests


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def hash_corpus(corpus_dir: Path) -> str:
    """Order-independent digest of every file under the corpus root."""
    digest = hashlib.sha256()
    for path in sorted(corpus_dir.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(corpus_dir).as_posix()
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(_sha256_file(path).encode("ascii"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _hash_outputs(stage_dir: Path) -> dict:
    outputs = {}
    for path in sorted(stage_dir.rglob("*")):
        if not path.is_file() or path.name == "manifest.json":
            continue
        outputs[path.relative_to(stage_dir).as_posix()] = _sha256_file(path)
    return outputs


def _load_manifest(path: Path) -> Optional[dict]:
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError):
        return None


def _outputs_intact(stage_dir: Path, manifest: dict) -> bool:
    recorded = manifest.get("outputs")
    if not isinstance(recorded, dict):
        return False
    for rel, expected in recorded.items():
        path = stage_dir / rel
        if not path.is_file() or _sha256_file(path) != expected:
            return False
    return True


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def _write_rows_jsonl(path: Path, rows: Iterable[dict]) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")
            count += 1
    return count


def _read_rows_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# corpus readers


def _json_list(path: Path, sort_key: str) -> list[dict]:
    """A JSON array of objects ordered by one field; empty when the file is absent."""
    if not path.is_file():
        return []
    rows = json.loads(path.read_text(encoding="utf-8"))
    return sorted(rows, key=lambda row: str(row.get(sort_key, "")))


def _corpus_registry_batches(corpus_dir: Path) -> list[tuple[str, list[dict]]]:
    registry_dir = corpus_dir / "registry"
    if not registry_dir.is_dir():
        return []
    batches = []
    for path in sorted(registry_dir.glob("*.json")):
        rows = json.loads(path.read_text(encoding="utf-8"))
        batches.append((path.stem, rows))
    return batches


def _corpus_ctgov_docs(corpus_dir: Path) -> dict[str, dict]:
    ctgov_dir = corpus_dir / "ctgov"
    docs = {}
    if not ctgov_dir.is_dir():
        return docs
    for path in sorted(ctgov_dir.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        nct_id = str(doc.get("nctId", "")).strip()
        if nct_id:
            docs[nct_id] = doc
    return docs


def _corpus_pubmed_articles(corpus_dir: Path) -> list[dict]:
    return _json_list(corpus_dir / "pubmed" / "articles.json", "pmid")


def _corpus_review_xmls(corpus_dir: Path) -> list[tuple[str, str]]:
    reviews_dir = corpus_dir / "reviews"
    if not reviews_dir.is_dir():
        return []
    return [
        (path.stem, path.read_text(encoding="utf-8"))
        for path in sorted(reviews_dir.glob("*.xml"))
    ]


def _corpus_protocol_pairs(corpus_dir: Path) -> list[dict]:
    return _json_list(corpus_dir / "protocols" / "pairs.json", "nct_id")


# ---------------------------------------------------------------------------
# run context


class _DocIndex:
    """Corpus registry documents, reachable through surviving study ids.

    A merged study can absorb the record that carried the document id
    (the surviving id is lexicographic, not source-ranked), so lookups
    follow the dedupe aliases in both directions.
    """

    def __init__(self, docs: dict[str, dict], aliases: dict[str, str]) -> None:
        self.docs = docs
        self.by_survivor: dict[str, str] = {}
        for doc_id in sorted(docs):
            survivor = aliases.get(doc_id, doc_id)
            self.by_survivor.setdefault(survivor, doc_id)
        self.absorbed: dict[str, list[str]] = {}
        for absorbed_id, survivor in aliases.items():
            self.absorbed.setdefault(survivor, []).append(absorbed_id)

    def doc_for(self, study_id: str) -> Optional[dict]:
        doc_id = self.by_survivor.get(study_id)
        return self.docs.get(doc_id) if doc_id else None

    def all_ids(self, study_id: str) -> list[str]:
        return [study_id] + sorted(self.absorbed.get(study_id, []))


class _RunContext:
    """Settings, clients and the stage inputs shared within one run span.

    Stages share what they read here and must not mutate it. Readers are
    module globals looked up at call time, so they can be wrapped.
    """

    def __init__(self, settings: PipelineSettings, clients: _Clients) -> None:
        self.settings = settings
        self.clients = clients

    def stage_dir(self, name: str) -> Path:
        return self.settings.out_dir / STAGE_DIRS[name]

    @cached_property
    def ctgov_docs(self) -> dict[str, dict]:
        return _corpus_ctgov_docs(self.settings.corpus_dir)

    @cached_property
    def pubmed_articles(self) -> list[dict]:
        return _corpus_pubmed_articles(self.settings.corpus_dir)

    @cached_property
    def reviews(self) -> list[dict]:
        return _json_list(self.settings.corpus_dir / "reviews" / "index.json", "pmid")

    @cached_property
    def studies(self) -> list[CanonicalStudy]:
        """The merged study table written by dedupe."""
        return read_studies_jsonl(self.stage_dir("dedupe") / "studies.jsonl")

    @cached_property
    def aliases(self) -> dict[str, str]:
        """Absorbed study id to surviving study id, from the dedupe audit."""
        path = self.stage_dir("dedupe") / "decisions.tsv"
        aliases: dict[str, str] = {}
        if not path.is_file():
            return aliases
        with open(path, encoding="utf-8") as fh:
            next(fh, None)
            for line in fh:
                cells = line.rstrip("\n").split("\t")
                if len(cells) < 4 or not cells[2]:
                    continue
                survivor_id = cells[1]
                for chunk in cells[2].split(";"):
                    _, _, absorbed_id = chunk.partition(":")
                    if absorbed_id and absorbed_id != survivor_id:
                        aliases[absorbed_id] = survivor_id
        return aliases

    @cached_property
    def doc_index(self) -> _DocIndex:
        return _DocIndex(self.ctgov_docs, self.aliases)


# ---------------------------------------------------------------------------
# stages


def _stage_ingest(run: _RunContext, out: Path) -> dict:
    mapping_dir = run.settings.mapping_dir
    registry = [
        parse_registry_record(raw, source_tag, mapping_dir=mapping_dir)
        for source_tag, rows in _corpus_registry_batches(run.settings.corpus_dir)
        for raw in rows
    ]
    docs = run.ctgov_docs
    ctgov = [parse_ctgov_study(docs[nct_id]) for nct_id in sorted(docs)]
    pubmed = [extract_pubmed_study(record) for record in run.pubmed_articles]

    studies = sorted(registry + ctgov + pubmed, key=lambda s: (s.source.value, s.study_id))
    write_studies_jsonl(studies, out / "studies.jsonl")
    return {
        "registry": len(registry),
        "ctgov": len(ctgov),
        "pubmed": len(pubmed),
        "total": len(studies),
        "flagged": sum(1 for s in studies if s.flagged),
    }


def _stage_dedupe(run: _RunContext, out: Path) -> dict:
    records = read_studies_jsonl(run.stage_dir("ingest") / "studies.jsonl")
    merged, decisions, triples = dedupe_corpus(records, threshold=run.settings.dedupe_threshold)
    write_studies_jsonl(merged, out / "studies.jsonl")

    with open(out / "decisions.tsv", "w", encoding="utf-8") as fh:
        fh.write("survivor_source\tsurvivor_id\tabsorbed\tevidence\tscore\n")
        for decision in decisions:
            fh.write("\t".join(decision.to_row()) + "\n")

    _write_rows_jsonl(out / "dup_links.jsonl", [store.table_row("relations", t) for t in triples])
    return {
        "input": len(records),
        "output": len(merged),
        "absorbed": len(records) - len(merged),
        "links": len(triples),
    }


def _candidate_spans(text: str) -> list[str]:
    tokens = text.split()
    spans = []
    for width in range(1, _BIOMARKER_MAX_TOKENS + 1):
        for start in range(len(tokens) - width + 1):
            spans.append(" ".join(tokens[start : start + width]))
    return spans


def _stage_link(run: _RunContext, out: Path) -> dict:
    studies, index, clients = run.studies, run.doc_index, run.clients

    resources = load_drug_resources(run.settings.vocab_dir)
    drug_rows: list[dict] = []
    seen_drugs: set[tuple[str, str]] = set()
    linked: dict[str, object] = {}
    for study in sorted(studies, key=lambda s: s.study_id):
        doc = index.doc_for(study.study_id)
        if doc is None:
            continue
        module = (doc.get("protocolSection") or {}).get("armsInterventionsModule") or {}
        for intervention in module.get("interventions") or []:
            if str(intervention.get("type", "")).upper() != "DRUG":
                continue
            name = str(intervention.get("name") or "").strip()
            if not name or (study.study_id, name) in seen_drugs:
                continue
            seen_drugs.add((study.study_id, name))
            if name not in linked:
                linked[name] = link_drug(name, resources, remote_client=clients.rxnorm)
            drug_rows.append(store.table_row("drugs", linked[name], study_id=study.study_id))

    condition_rows: list[dict] = []
    for study in studies:
        for annotation in annotate_conditions(study, clients.annotator):
            condition_rows.append(store.table_row("conditions", annotation))

    endpoint_rows: list[dict] = []
    classified: dict[str, list] = {}
    for study in studies:
        for text in (*study.primary_outcomes, *study.secondary_outcomes):
            text = text.strip()
            if not text:
                continue
            if text not in classified:
                classified[text] = classify_endpoint(text, clients.llm)
            for classification in classified[text]:
                endpoint_rows.append(store.table_row(
                    "endpoints",
                    classification,
                    study_id=study.study_id,
                    outcome_text=classification.outcome,
                ))

    bio_index = load_biomarker_index(run.settings.vocab_dir)
    biomarker_rows: list[dict] = []
    seen_marks: set[tuple[str, str, str]] = set()
    for study in studies:
        for text in (*study.primary_outcomes, *study.secondary_outcomes):
            for span in _candidate_spans(text):
                match = match_biomarker(span, bio_index)
                if match is None:
                    continue
                key = (study.study_id, match.span, match.biomarker_name)
                if key in seen_marks:
                    continue
                seen_marks.add(key)
                biomarker_rows.append(store.table_row("biomarkers", match, study_id=study.study_id))

    counts = {}
    for name, rows in (
        ("conditions", condition_rows),
        ("drugs", drug_rows),
        ("endpoints", endpoint_rows),
        ("biomarkers", biomarker_rows),
    ):
        rows.sort(key=lambda row: json.dumps(row, sort_keys=True))
        counts[name] = _write_rows_jsonl(out / f"{name}.jsonl", rows)
    return counts


def _stage_extract(run: _RunContext, out: Path) -> dict:
    studies, aliases, index, clients = run.studies, run.aliases, run.doc_index, run.clients
    articles = run.pubmed_articles
    surviving = {s.study_id for s in studies}
    hierarchy = load_meddra(run.settings.vocab_dir)

    # (surviving id, document) pairs; rows parsed out of a document get
    # re-keyed when the document id was absorbed during dedupe.
    live_docs = []
    for study_id in sorted(surviving):
        doc = index.doc_for(study_id)
        if doc is not None:
            live_docs.append((study_id, doc))

    def rekey(study_id: str, rows: list) -> list:
        return [
            row if row.study_id == study_id else replace(row, study_id=study_id)
            for row in rows
        ]

    result_rows: list[TrialResultRow] = []
    skipped_no_results = 0
    for study_id, doc in live_docs:
        try:
            result_rows.extend(rekey(study_id, parse_ctgov_results(doc)))
        except MissingResultsSection:
            skipped_no_results += 1

    ae_rows: list[AdverseEventRow] = [
        row
        for study_id, doc in live_docs
        for row in rekey(study_id, parse_adverse_events(doc, hierarchy))
    ]

    disposition_rows: list[DispositionRow] = []
    for study_id, doc in live_docs:
        groups, interventions, links = disposition_tables_from_ctgov(doc)
        disposition_rows.extend(rekey(study_id, build_disposition(groups, interventions, links)))

    # PICO results for linked abstracts, re-keyed to the surviving study id.
    pico_count = 0
    for article in articles:
        pmid = str(article.get("pmid", "")).strip()
        title = str(article.get("title") or "").strip()
        abstract = str(article.get("abstract") or "").strip()
        if not pmid or not title or not abstract:
            continue
        study_id = aliases.get(pmid, pmid)
        if study_id not in surviving:
            logger.info("skip PICO for %s: no surviving study", pmid)
            continue
        pico_rows = extract_pubmed_pico(study_id, title, abstract, clients.llm)
        result_rows.extend(pico_rows)
        disposition_rows.extend(pico_disposition_rows(study_id, pico_rows))
        pico_count += len(pico_rows)

    # Outcome labels for every completed or terminated study.
    nct_abstracts: dict[str, list[dict]] = {}
    for article in articles:
        for triple in extract_nct_links(article):
            if triple.tail_source is Source.CTGOV:
                nct_abstracts.setdefault(triple.tail_id, []).append(article)

    labels: list[OutcomeLabel] = []
    for study in sorted(studies, key=lambda s: s.study_id):
        doc = index.doc_for(study.study_id)
        if study.status is StudyStatus.COMPLETED:
            pvalues: list[float] = []
            if doc is not None:
                try:
                    pvalues = primary_pvalues(doc)
                except MissingResultsSection:
                    pvalues = []
            linked = []
            seen_pmids: set[str] = set()
            for alias in index.all_ids(study.study_id):
                for article in nct_abstracts.get(alias, []):
                    pmid = str(article.get("pmid", ""))
                    if pmid not in seen_pmids:
                        seen_pmids.add(pmid)
                        linked.append(article)
            labels.append(classify_completed_outcome(study, linked, clients.llm, pvalues))
        elif study.status is StudyStatus.TERMINATED:
            status_module = {}
            if doc is not None:
                status_module = (doc.get("protocolSection") or {}).get("statusModule") or {}
            stop_reason = str(status_module.get("whyStopped") or "")
            labels.append(label_terminated_study(study, stop_reason))

    tables = {
        "trial_results": [store.table_row("trial_results", r) for r in result_rows],
        "adverse_events": [store.table_row("adverse_events", r) for r in ae_rows],
        "disposition": [store.table_row("disposition", r) for r in disposition_rows],
        "trial_outcomes": [store.table_row("trial_outcomes", label) for label in labels],
    }
    counts = {"skipped_no_results": skipped_no_results, "pico_rows": pico_count}
    for name, rows in tables.items():
        rows.sort(key=lambda row: json.dumps(row, sort_keys=True))
        counts[name] = _write_rows_jsonl(out / f"{name}.jsonl", rows)
    return counts


def _stage_graph(run: _RunContext, out: Path) -> dict:
    triples: list[RelationTriple] = []
    review_ids: set[str] = set()

    for pmid, xml_text in _corpus_review_xmls(run.settings.corpus_dir):
        review_ids.add(pmid)
        triples.extend(extract_review_references(pmid, xml_text, awaiting=run.settings.awaiting))
    for review in run.reviews:
        review_ids.add(str(review.get("pmid", "")))

    for article in run.pubmed_articles:
        triples.extend(extract_nct_links(article))

    dup_links = _read_rows_jsonl(run.stage_dir("dedupe") / "dup_links.jsonl")
    triples.extend(store.relation_from_row(row) for row in dup_links)

    graph = assemble_graph(triples, review_ids=review_ids)
    for head in graph.dangling_heads:
        logger.warning("relation head %s is not a known review", head)

    _write_rows_jsonl(out / "relations.jsonl", [store.table_row("relations", t) for t in graph.triples])
    write_relations_tsv(graph, out / "relations.tsv")
    write_relation_counts_tsv(graph, out / "relation_counts.tsv")
    return {
        "triples": len(graph),
        "dangling_heads": len(graph.dangling_heads),
        "types": {k: v for k, v in sorted(graph.type_counts.items())},
    }


def _stage_database(run: _RunContext, out: Path) -> dict:
    link_dir = run.stage_dir("link")
    extract_dir = run.stage_dir("extract")
    graph_dir = run.stage_dir("graph")

    tables = {
        "studies": [store.table_row("studies", s) for s in run.studies],
        "conditions": _read_rows_jsonl(link_dir / "conditions.jsonl"),
        "drugs": _read_rows_jsonl(link_dir / "drugs.jsonl"),
        "disposition": _read_rows_jsonl(extract_dir / "disposition.jsonl"),
        "adverse_events": _read_rows_jsonl(extract_dir / "adverse_events.jsonl"),
        "trial_results": _read_rows_jsonl(extract_dir / "trial_results.jsonl"),
        "trial_outcomes": _read_rows_jsonl(extract_dir / "trial_outcomes.jsonl"),
        "endpoints": _read_rows_jsonl(link_dir / "endpoints.jsonl"),
        "biomarkers": _read_rows_jsonl(link_dir / "biomarkers.jsonl"),
        "relations": _read_rows_jsonl(graph_dir / "relations.jsonl"),
    }
    bundle = store.write_database(tables, out / "db")
    return {name: len(rows) for name, rows in tables.items()} | {
        "bundle_hash": bundle.bundle_hash
    }


def _stage_benchmarks(run: _RunContext, out: Path) -> dict:
    settings, clients, reviews = run.settings, run.clients, run.reviews
    relation_rows = _read_rows_jsonl(run.stage_dir("graph") / "relations.jsonl")
    triples = [store.relation_from_row(row) for row in relation_rows]

    review_pmids = {str(r.get("pmid", "")) for r in reviews}
    review_groups: dict[str, list[str]] = {}
    for triple in triples:
        if triple.head_id in review_pmids and triple.tail_source is Source.CTGOV:
            group = review_groups.setdefault(triple.head_id, [])
            if triple.tail_id not in group:
                group.append(triple.tail_id)

    items = []
    for field_name in DESIGN_FIELDS:
        items.extend(gen_design_mcq(review_groups, run.ctgov_docs, field_name, settings.seed))

    items.extend(gen_sample_size_items(_corpus_protocol_pairs(settings.corpus_dir), clients.llm))

    outcome_rows = _read_rows_jsonl(run.stage_dir("extract") / "trial_outcomes.jsonl")
    outcomes = {
        row["study_id"]: OutcomeLabel(row["study_id"], row["outcome_type"], row["evidence"])
        for row in outcome_rows
    }
    completion_trials = []
    for study in sorted(run.studies, key=lambda s: s.study_id):
        doc = run.doc_index.doc_for(study.study_id)
        if doc is not None:
            completion_trials.append((study, doc))
    items.extend(gen_completion_items(completion_trials, outcomes))

    search_items = gen_search_items(reviews, triples)
    items.extend(search_items)

    titles = {
        str(a.get("pmid", "")): str(a.get("title") or "") for a in run.pubmed_articles
    }
    items.extend(gen_screening_items(reviews, triples, titles, settings.seed))

    include_map = _include_map(triples)
    evidence_reviews = [
        {
            "pmid": str(review["pmid"]),
            "review_text": str(review.get("review_text") or ""),
            "included_pmids": include_map.get(str(review["pmid"]), []),
        }
        for review in reviews
        if str(review.get("review_text") or "").strip()
    ]
    items.extend(gen_evidence_mcq(evidence_reviews, clients.llm))

    # Item ids are "<task>:<registry or PubMed id>" and no task name has a
    # digit, so the item id itself carries the recency key.
    by_task: dict[str, list] = {}
    for item in items:
        by_task.setdefault(item.task, []).append(item)
    assignments: dict[str, str] = {}
    for task, task_items in sorted(by_task.items()):
        if task == "study_search":
            task_assignments = split_search_items(task_items, settings.search_test_size)
        else:
            task_assignments = split_by_numeric_id(
                task_items,
                id_extractor=lambda item: item.item_id,
                test_size=settings.split_test_size,
                validation_size=settings.split_validation_size,
                allow_small=settings.allow_small_split,
            )
        for assignment in task_assignments:
            assignments[assignment.item_id] = assignment.split

    corpus_hash = hash_corpus(settings.corpus_dir)
    write_benchmark_files(items, assignments, out, corpus_hash, settings.seed)

    counts = {task: len(task_items) for task, task_items in sorted(by_task.items())}
    counts["total"] = len(items)
    return counts


_STAGE_FUNCS = {
    "ingest": _stage_ingest,
    "dedupe": _stage_dedupe,
    "link": _stage_link,
    "extract": _stage_extract,
    "graph": _stage_graph,
    "database": _stage_database,
    "benchmarks": _stage_benchmarks,
}


def run_pipeline(
    settings: PipelineSettings | ForgeConfig,
    transports: Optional[dict] = None,
    until: str = "benchmarks",
) -> dict:
    """Run the stage chain from ``ingest`` through ``until``.

    Stages whose manifests still match their inputs are skipped. An
    unknown ``until`` is a ``ValueError``. Returns a summary dict with
    per-stage counts and the chained pipeline hash (the hash of the
    ``until`` stage's manifest); a run through ``benchmarks`` also writes
    it to ``out_dir/pipeline_manifest.json``.
    """
    if isinstance(settings, ForgeConfig):
        settings = PipelineSettings.from_config(settings)
    if until not in STAGES:
        raise ValueError(f"unknown stage {until!r}; expected one of {STAGES}")
    wanted = STAGES[: STAGES.index(until) + 1]

    settings.out_dir.mkdir(parents=True, exist_ok=True)
    corpus_hash = hash_corpus(settings.corpus_dir)
    config_hash = _sha256_text(json.dumps(settings.fingerprint(), sort_keys=True))
    clients = build_clients(settings, transports)
    run = _RunContext(settings, clients)

    upstream = ""
    summary: dict = {"corpus_hash": corpus_hash, "config_hash": config_hash, "stages": {}}
    for name in wanted:
        if name in ("dedupe", "database"):
            # dedupe and database read no corpus file but hold every record or
            # every table, so earlier parses are dropped before them (one context
            # for the whole run raised peak RSS by 13% on bulk-replay).
            run = _RunContext(settings, clients)
        stage_dir = settings.out_dir / STAGE_DIRS[name]
        manifest_path = stage_dir / "manifest.json"
        input_hash = _sha256_text(f"{corpus_hash}:{config_hash}:{upstream}")

        existing = _load_manifest(manifest_path)
        if (
            existing is not None
            and existing.get("input_hash") == input_hash
            and _outputs_intact(stage_dir, existing)
        ):
            logger.info("stage %s: up to date", name)
            summary["stages"][name] = {"counts": existing.get("counts", {}), "skipped": True}
        else:
            if stage_dir.exists():
                shutil.rmtree(stage_dir)
            stage_dir.mkdir(parents=True)
            logger.info("stage %s: running", name)
            try:
                counts = _STAGE_FUNCS[name](run, stage_dir)
            except ForgeError as exc:
                exc.args = (f"stage {name}: {exc}",)
                raise
            _write_json(manifest_path, {
                "stage": name,
                "input_hash": input_hash,
                "counts": counts,
                "outputs": _hash_outputs(stage_dir),
            })
            summary["stages"][name] = {"counts": counts, "skipped": False}
        upstream = _sha256_file(manifest_path)

    summary["pipeline_hash"] = upstream
    summary["live_calls"] = clients.live_calls()
    if wanted == STAGES:
        _write_json(settings.out_dir / "pipeline_manifest.json", {
            "corpus_hash": corpus_hash,
            "config_hash": config_hash,
            "pipeline_hash": upstream,
        })
    return summary
