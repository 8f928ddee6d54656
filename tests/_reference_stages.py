"""Per-table link and extract stages: the references the per-study kernels are tested against.

Each walks its inputs table by table, building the dedupe aliases and the
study -> CT.gov document map itself, and writes its tables row by row
through the pipeline's sorted writer, `store.write_sorted_lines`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from trialforge import pipeline, store
from trialforge.errors import MissingResultsSection
from trialforge.evidence import (
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
from trialforge.ontology.biomarkers import BiomarkerMatch
from trialforge.ontology.conditions import annotate_conditions
from trialforge.ontology.drugs import link_drug
from trialforge.ontology.endpoints import classify_endpoint
from trialforge.relations import extract_nct_links
from trialforge.schema import StudyStatus
from trialforge.views import Article, CtgovDoc


def write_sorted_rows(path: Path, rows: list[dict], encode: Callable[[dict], str] = store.encode_row) -> list[dict]:
    """Write ``rows`` as JSON lines by `store.write_sorted_lines`, ``encode`` giving each line; return them in that order.

    Equal rows have equal lines, so an exact repeat is written and returned
    once: each table holds each distinct row once.
    """
    unique = dict(zip(map(encode, rows), rows))
    return list(map(unique.__getitem__, store.write_sorted_lines(path, unique)))


def write_tables(run, out: Path, tables: dict[str, list[dict]]) -> dict[str, int]:
    """Write each table to ``out/<name>.jsonl`` with `write_sorted_rows` and hold it; return its row count by name."""
    counts = {}
    for name, rows in tables.items():
        path = out / f"{name}.jsonl"
        encode = store.line_encoder(store.TABLE_COLUMNS[name])
        counts[name] = len(run.hold(path, write_sorted_rows(path, rows, encode)))
    return counts


def dedupe_aliases(run) -> dict[str, str]:
    """Absorbed study id to surviving study id, from the dedupe links."""
    links = run.read("dedupe/dup_links.jsonl")
    return {row["tail_id"]: row["head_id"] for row in links if row["tail_id"] != row["head_id"]}


def study_docs(run) -> dict[str, CtgovDoc]:
    """Surviving study id to its CT.gov document, in study id order; of several, the smallest document id's."""
    docs, aliases = run.read("ctgov"), dedupe_aliases(run)
    by_study: dict[str, CtgovDoc] = {}
    for doc_id in sorted(docs):
        by_study.setdefault(aliases.get(doc_id, doc_id), docs[doc_id])
    return dict(sorted(by_study.items()))


def reference_link(run, out: Path) -> dict:
    studies, docs, clients = run.read("dedupe/studies.jsonl"), study_docs(run), run.clients

    resources, normalization = run.read("drug_vocab"), run.read("drug_normalization")
    drug_rows: list[dict] = []
    linked: dict[str, object] = {}
    for study in sorted(studies, key=lambda s: s.study_id):
        doc = docs.get(study.study_id)
        if doc is None:
            continue
        for intervention in doc.interventions:
            if intervention.type.upper() != "DRUG":
                continue
            name = intervention.name.strip()
            if not name:
                continue
            if name not in linked:
                linked[name] = link_drug(name, resources, normalization, remote_client=clients.rxnorm)
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

    bio_index = run.read("biomarker_vocab")
    biomarker_rows: list[dict] = []
    matched: dict[str, list[BiomarkerMatch]] = {}
    for study in studies:
        for text in (*study.primary_outcomes, *study.secondary_outcomes):
            if text not in matched:
                matched[text] = pipeline._biomarker_matches(text, bio_index)
            for match in matched[text]:
                biomarker_rows.append(store.table_row("biomarkers", match, study_id=study.study_id))

    return write_tables(run, out, {
        "conditions": condition_rows,
        "drugs": drug_rows,
        "endpoints": endpoint_rows,
        "biomarkers": biomarker_rows,
    })


def reference_extract(run, out: Path) -> dict:
    studies, aliases, docs, clients = run.read("dedupe/studies.jsonl"), dedupe_aliases(run), study_docs(run), run.clients
    articles = run.read("pubmed")
    hierarchy = run.read("meddra_vocab")

    # Rows parsed out of a document are keyed to its surviving study, which
    # may have absorbed the document's own id during dedupe.
    result_rows: list[dict] = []
    skipped_no_results = 0
    for study_id, doc in docs.items():
        try:
            rows = parse_ctgov_results(doc)
        except MissingResultsSection:
            skipped_no_results += 1
            continue
        result_rows.extend(store.table_row("trial_results", row, study_id=study_id) for row in rows)

    ae_rows = [
        store.table_row("adverse_events", row, study_id=study_id)
        for study_id, doc in docs.items()
        for row in parse_adverse_events(doc, hierarchy)
    ]

    disposition_rows = [
        store.table_row("disposition", row, study_id=study_id)
        for study_id, doc in docs.items()
        for row in build_disposition(doc, disposition_tables_from_ctgov(doc))
    ]

    # PICO results for linked abstracts, keyed to the surviving study id; a
    # study's arms are numbered across all of its distinct reports.
    pico: dict[str, list] = {}
    for article in dict.fromkeys(articles):
        title, abstract = article.title.strip(), article.abstract.strip()
        if title and abstract:
            study_id = aliases.get(article.pmid, article.pmid)
            pico.setdefault(study_id, []).extend(extract_pubmed_pico(study_id, title, abstract, clients.llm))
    pico_count = 0
    for study_id, rows in pico.items():
        rows = list(dict.fromkeys(rows))
        pico_count += len(rows)
        result_rows.extend(store.table_row("trial_results", row) for row in rows)
        disposition_rows.extend(store.table_row("disposition", row) for row in pico_disposition_rows(study_id, rows))

    # Outcome labels for every completed or terminated study. A study's linked
    # abstracts come in the order of its own id, then its absorbed ids sorted;
    # `rank_abstracts` keeps that order on ties, so it decides the prompt.
    nct_abstracts: dict[str, list[Article]] = {}
    for article in articles:
        for triple in extract_nct_links(article):
            nct_abstracts.setdefault(triple.tail_id, []).append(article)
    absorbed: dict[str, list[str]] = {}
    for absorbed_id, study_id in sorted(aliases.items()):
        absorbed.setdefault(study_id, []).append(absorbed_id)

    label_rows: list[dict] = []
    keyword_tokens = run.read("termination_keywords")
    for study in sorted(studies, key=lambda s: s.study_id):
        doc = docs.get(study.study_id)
        if study.status is StudyStatus.COMPLETED:
            pvalues = primary_pvalues(doc) if doc is not None else []
            linked: dict[str, Article] = {}
            for alias in (study.study_id, *absorbed.get(study.study_id, ())):
                for article in nct_abstracts.get(alias, ()):
                    linked.setdefault(article.pmid, article)
            label = classify_completed_outcome(study, list(linked.values()), clients.llm, pvalues)
        elif study.status is StudyStatus.TERMINATED:
            label = label_terminated_study(study, doc.why_stopped if doc is not None else "", keyword_tokens)
        else:
            continue
        label_rows.append(store.table_row("trial_outcomes", label))

    return {"skipped_no_results": skipped_no_results, "pico_rows": pico_count} | write_tables(run, out, {
        "trial_results": result_rows,
        "adverse_events": ae_rows,
        "disposition": disposition_rows,
        "trial_outcomes": label_rows,
    })
