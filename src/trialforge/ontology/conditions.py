"""Condition annotation through a MeSH concept annotator.

The annotator is any callable ``(request: dict) -> dict`` (live HTTP or a
replay wrapper). Request shape::

    {"text": "<title and summary>", "semantic_types": ["T047"]}

Expected response shape::

    {"annotations": [
        {"mesh_id": "D003924", "mesh_term": "Diabetes Mellitus, Type 2",
         "semantic_type": "T047",
         "ancestors": [{"mesh_id": ..., "mesh_term": ...}, ...]},
        ...
    ]}

``ancestors`` runs from the immediate parent up to the tree top. The
matched concept itself is labeled ``mesh-list``, intermediate ancestors
``mesh-ancestor``, and the top-level ancestor ``mesh-ancestor-main``.
ClinicalTrials.gov records already carry curated MeSH terms, so they are
skipped here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from trialforge.errors import MalformedResponse
from trialforge.schema import CanonicalStudy, Source

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
    Whatever the annotator raises propagates untouched; an answer without
    a usable annotation list, or whose kept annotation or one of its
    ancestors is not an object with ``mesh_id`` and ``mesh_term``, is a
    ``MalformedResponse``.
    """
    if study.source is Source.CTGOV:
        return []
    parts = [part.strip() for part in (study.title, study.brief_summary) if part and part.strip()]
    if not parts:
        return []
    text = "\n".join(parts)

    response = annotator_client({"text": text, "semantic_types": [DISEASE_SEMANTIC_TYPE]})
    if not isinstance(response, dict) or not isinstance(response.get("annotations"), list):
        raise MalformedResponse(f"annotator returned no usable annotation list for {study.study_id}")

    out: list[ConditionAnnotation] = []
    seen: set[tuple[str, str]] = set()

    def emit(mesh_id: str, mesh_term: str, mesh_type: str) -> None:
        key = (mesh_id, mesh_type)
        if key in seen:
            return
        seen.add(key)
        out.append(ConditionAnnotation(study.study_id, mesh_id, mesh_term, mesh_type))

    for annotation in response["annotations"]:
        if not isinstance(annotation, dict):
            raise MalformedResponse(f"annotation entry is {type(annotation).__name__}, expected object")
        if annotation.get("semantic_type") != DISEASE_SEMANTIC_TYPE:
            continue
        emit(*_mesh_concept(annotation, "annotation"), "mesh-list")
        ancestors = annotation.get("ancestors") or []
        if not isinstance(ancestors, list):
            raise MalformedResponse(f"annotation ancestors are {type(ancestors).__name__}, expected list")
        for position, ancestor in enumerate(ancestors):
            label = "mesh-ancestor-main" if position == len(ancestors) - 1 else "mesh-ancestor"
            emit(*_mesh_concept(ancestor, "ancestor"), label)
    return out


def _mesh_concept(entry, kind: str) -> tuple[str, str]:
    """An annotation or ancestor entry's ``(mesh_id, mesh_term)``; any other shape is a ``MalformedResponse``."""
    if not isinstance(entry, dict):
        raise MalformedResponse(f"{kind} entry is {type(entry).__name__}, expected object")
    try:
        return entry["mesh_id"], entry["mesh_term"]
    except KeyError as exc:
        raise MalformedResponse(f"{kind} entry missing {exc}") from exc
