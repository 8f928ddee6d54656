"""Condition annotation through a MeSH concept annotator.

The annotator is any callable ``(request: dict) -> dict`` (live HTTP or a
replay wrapper). Request shape::

    {"text": "<title and summary>", "semantic_types": ["T047"]}

The response is read as `views.AnnotatorAnswer`: annotations with their
MeSH id, term, semantic type and ancestors, which run from the immediate
parent up to the tree top. The matched concept itself is labeled
``mesh-list``, intermediate ancestors ``mesh-ancestor``, and the top-level
ancestor ``mesh-ancestor-main``. ClinicalTrials.gov records already carry
curated MeSH terms, so they are skipped here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from trialforge.schema import CanonicalStudy, Source
from trialforge.views import AnnotatorAnswer, parse_answer

MESH_TYPES = ("mesh-list", "mesh-ancestor", "mesh-ancestor-main")

DISEASE_SEMANTIC_TYPE = "T047"

AnnotatorClient = Callable[[dict], dict]


@dataclass(frozen=True)
class ConditionAnnotation:
    study_id: str
    mesh_id: str
    mesh_term: str
    mesh_type: str

    def __post_init__(self) -> None:
        if self.mesh_type not in MESH_TYPES:
            raise ValueError(f"unknown mesh_type {self.mesh_type!r}")


def annotate_conditions(study: CanonicalStudy, annotator_client: AnnotatorClient) -> list[ConditionAnnotation]:
    """Annotate one study's title and summary with disease MeSH terms.

    Only ``T047`` (disease or syndrome) concepts are kept. Returns an empty
    list for ClinicalTrials.gov studies and for studies with no text.
    Whatever the annotator raises propagates untouched; an answer that is
    not an `AnnotatorAnswer` is a ``MalformedResponse``.
    """
    if study.source is Source.CTGOV:
        return []
    parts = [part.strip() for part in (study.title, study.brief_summary) if part and part.strip()]
    if not parts:
        return []
    text = "\n".join(parts)

    response = annotator_client({"text": text, "semantic_types": [DISEASE_SEMANTIC_TYPE]})
    answer = parse_answer(AnnotatorAnswer, response, f"annotator answer for {study.study_id}")

    out: list[ConditionAnnotation] = []
    seen: set[tuple[str, str]] = set()

    def emit(mesh_id: str, mesh_term: str, mesh_type: str) -> None:
        key = (mesh_id, mesh_type)
        if key in seen:
            return
        seen.add(key)
        out.append(ConditionAnnotation(study.study_id, mesh_id, mesh_term, mesh_type))

    for annotation in answer.annotations:
        if annotation.semantic_type != DISEASE_SEMANTIC_TYPE:
            continue
        emit(annotation.mesh_id, annotation.mesh_term, "mesh-list")
        for position, ancestor in enumerate(annotation.ancestors):
            label = "mesh-ancestor-main" if position == len(annotation.ancestors) - 1 else "mesh-ancestor"
            emit(ancestor.mesh_id, ancestor.mesh_term, label)
    return out
