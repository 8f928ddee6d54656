"""Review-to-study and cross-registry relation graph.

Three edge producers feed one assembler:

* review full texts (JATS-style XML) yield include / exclude / awaiting /
  cite edges from their reference sections,
* articles yield ``linked_to`` edges from accession numbers and
  registration sentences in the abstract,
* :func:`assemble_graph` deduplicates everything, rejects self-loops, and
  computes the per-source-pair tallies used for the counts export.

The edge list and the counts export are written with ``store.write_tsv``,
so their cells are escaped exactly as the database's ``relations.tsv``.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from .errors import MalformedXml, SelfLoop
from .schema import RELATION_TYPES, RelationTriple, Source
from .store import write_tsv
from .views import Article

NCT_PATTERN = re.compile(r"\bNCT\d{8}\b")

#: How `extract_review_references` treats awaiting-assessment sections.
AWAITING_MODES = ("emit", "cite", "drop")


def classify_reference_section(title: str) -> str:
    """Map a reference-section title to a relation type.

    Keyword containment over the lowercased title; anything that is not an
    included / excluded / awaiting-assessment section is a plain citation
    list ("Additional references", "Other published versions", ...).
    """
    lowered = title.lower()
    if "included in this review" in lowered:
        return "include"
    if "excluded from this review" in lowered:
        return "exclude"
    if "awaiting" in lowered:
        return "awaiting"
    return "cite"


def _ref_list_title(ref_list: ET.Element) -> str:
    node = ref_list.find("title")
    return "".join(node.itertext()) if node is not None else ""


def extract_review_references(
    review_pmid: str,
    fulltext_xml: str,
    awaiting: str = "emit",
) -> list[RelationTriple]:
    """Pull relation edges out of a review's reference sections.

    The XML is expected to carry JATS-style ``<ref-list>`` elements, each
    with a ``<title>`` and ``<ref>`` children. Nested ref-lists are walked
    individually, so a citation is classified by its nearest enclosing
    list. Each citation contributes an edge to its PMID (when a
    ``<pub-id pub-id-type="pmid">`` is present) and one edge per NCT id
    found in the citation text.

    ``awaiting`` selects what happens to awaiting-assessment sections:
    "emit" keeps them as first-class edges, "cite" folds them into plain
    citations, "drop" discards them.
    """
    if awaiting not in AWAITING_MODES:
        raise ValueError(f"awaiting mode must be one of {AWAITING_MODES}, got {awaiting!r}")
    try:
        root = ET.fromstring(fulltext_xml)
    except ET.ParseError as exc:
        raise MalformedXml(f"review {review_pmid}: {exc}") from exc

    triples: list[RelationTriple] = []
    for ref_list in root.iter("ref-list"):
        # only refs directly under this list; nested lists classify their own
        direct_refs = [child for child in ref_list if child.tag == "ref"]
        if not direct_refs:
            continue
        relation = classify_reference_section(_ref_list_title(ref_list))
        if relation == "awaiting":
            if awaiting == "drop":
                continue
            if awaiting == "cite":
                relation = "cite"
        for ref in direct_refs:
            pmid_node = ref.find(".//pub-id[@pub-id-type='pmid']")
            pmid = (pmid_node.text or "").strip() if pmid_node is not None else ""
            if pmid:
                triples.append(
                    RelationTriple(review_pmid, relation, pmid, Source.PUBMED, Source.PUBMED)
                )
            citation_text = " ".join(ref.itertext())
            for nct_id in NCT_PATTERN.findall(citation_text):
                triples.append(
                    RelationTriple(review_pmid, relation, nct_id, Source.PUBMED, Source.CTGOV)
                )
    return triples


def extract_nct_links(article: Article) -> list[RelationTriple]:
    """Link an article to the trials it reports on.

    Reads NCT ids from the article's ``accession_numbers`` and from the
    abstract text ("... registered as NCT00004563."), takes the union, and
    emits one ``linked_to`` edge per id. An article without any NCT id
    yields nothing.
    """
    found = [nct_id for accession in article.accession_numbers for nct_id in NCT_PATTERN.findall(accession)]
    found.extend(NCT_PATTERN.findall(article.abstract))
    return [
        RelationTriple(article.pmid, "linked_to", nct_id, Source.PUBMED, Source.CTGOV)
        for nct_id in dict.fromkeys(found)  # first mention order, once each
    ]


@dataclass(frozen=True)
class RelationGraph:
    """Deduplicated edge store plus the tallies derived from it."""

    triples: tuple[RelationTriple, ...]
    type_counts: dict[str, int]
    source_counts: dict[tuple[str, str, str], int]
    percentages: dict[tuple[str, str, str], float]
    dangling_heads: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.triples)


def assemble_graph(
    triples: list[RelationTriple] | tuple[RelationTriple, ...],
    review_ids: set[str] | None = None,
) -> RelationGraph:
    """Deduplicate edges and compute per-type and per-source-pair counts.

    Percentages are over the deduplicated edge total, keyed by
    (head_source, relation_type, tail_source); they sum to 100 within
    0.01. A self-loop anywhere in the input is a hard error naming the
    offending triple. When ``review_ids`` is given, include/exclude heads
    missing from it are reported in ``dangling_heads`` (the edges are
    kept; dropping them would hide the upstream defect).

    Sorting by triple key makes the result independent of input order and
    a second pass over its own output a no-op.
    """
    for triple in triples:
        if triple.relation_type not in RELATION_TYPES:
            raise ValueError(
                f"unknown relation type {triple.relation_type!r}; expected one of {RELATION_TYPES}"
            )
        if triple.head_id == triple.tail_id:
            raise SelfLoop(
                f"({triple.head_id}, {triple.relation_type}, {triple.tail_id})"
            )

    unique = sorted({triple.key(): triple for triple in triples}.values(), key=lambda t: t.key())

    type_counts: dict[str, int] = {}
    source_counts: dict[tuple[str, str, str], int] = {}
    for triple in unique:
        type_counts[triple.relation_type] = type_counts.get(triple.relation_type, 0) + 1
        source_key = (triple.head_source.value, triple.relation_type, triple.tail_source.value)
        source_counts[source_key] = source_counts.get(source_key, 0) + 1

    total = len(unique)
    percentages = {
        key: 100.0 * count / total for key, count in source_counts.items()
    }
    if percentages:
        drift = abs(math.fsum(percentages.values()) - 100.0)
        if drift > 0.01:
            raise AssertionError(f"percentage drift {drift} exceeds 0.01")

    dangling: list[str] = []
    if review_ids is not None:
        seen_dangling = set()
        for triple in unique:
            if triple.relation_type in ("include", "exclude") and triple.head_id not in review_ids:
                if triple.head_id not in seen_dangling:
                    seen_dangling.add(triple.head_id)
                    dangling.append(triple.head_id)

    return RelationGraph(
        triples=tuple(unique),
        type_counts=type_counts,
        source_counts=source_counts,
        percentages=percentages,
        dangling_heads=tuple(dangling),
    )


def write_relations_tsv(graph: RelationGraph, path) -> None:
    """Write the edge list: head_id, relation_type, tail_id, sources."""
    write_tsv(
        path,
        ("head_id", "relation_type", "tail_id", "sources"),
        (
            (t.head_id, t.relation_type, t.tail_id, f"{t.head_source.value}->{t.tail_source.value}")
            for t in graph.triples
        ),
    )


def write_relation_counts_tsv(graph: RelationGraph, path) -> None:
    """Write per-source-pair tallies with share-of-total percentages."""
    write_tsv(
        path,
        ("head_source", "relation_type", "tail_source", "count", "percentage"),
        (
            (*key, str(graph.source_counts[key]), f"{graph.percentages[key]:.3f}")
            for key in sorted(graph.source_counts)
        ),
    )
