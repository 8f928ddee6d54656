"""Canonical study record: the unified shape every source is normalized into.

One CanonicalStudy per registration or publication. Validation is
deliberately non-throwing: `validate_study` returns a list of violation
strings so callers can decide whether to flag, drop, or repair a record.

Serialized form is JSONL with a single header line carrying the schema
name and version, then one record object per line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable

from .errors import SchemaVersionMismatch

SCHEMA_NAME = "trialforge.studies"
SCHEMA_VERSION = "1"


class Source(str, Enum):
    """Where a record came from: one trial registry, PubMed, or CT.gov."""

    ANZCTR = "ANZCTR"
    CHICTR = "ChiCTR"
    CRIS = "CRiS"
    CTRI = "CTRI"
    DRKS = "DRKS"
    EUCTR = "EUCTR"
    IRCT = "IRCT"
    ISRCTN = "ISRCTN"
    JRCT = "jRCT"
    NTR = "NTR"
    PACTR = "PACTR"
    REPEC = "REPEC"
    RPCEC = "RPCEC"
    SLCTR = "SLCTR"
    TCTR = "TCTR"
    CTGOV = "CTGOV"
    PUBMED = "PUBMED"


def source_rank(source: Source) -> int:
    """Merge precedence: CT.gov beats registries, registries beat PubMed."""
    if source is Source.CTGOV:
        return 0
    if source is Source.PUBMED:
        return 2
    return 1


class StudyType(str, Enum):
    INTERVENTIONAL = "INTERVENTIONAL"
    OBSERVATIONAL = "OBSERVATIONAL"
    EXPANDED_ACCESS = "EXPANDED_ACCESS"
    PUBLICATION = "PUBLICATION"
    OTHER = "OTHER"


class PhaseLabel(str, Enum):
    EARLY_PHASE1 = "EARLY_PHASE1"
    PHASE1 = "PHASE1"
    PHASE2 = "PHASE2"
    PHASE3 = "PHASE3"
    PHASE4 = "PHASE4"
    NA = "NA"


class GenderLabel(str, Enum):
    MALE = "MALE"
    FEMALE = "FEMALE"
    BOTH = "MALE/FEMALE"


class StudyStatus(str, Enum):
    COMPLETED = "completed"
    TERMINATED = "terminated"
    WITHDRAWN = "withdrawn"
    SUSPENDED = "suspended"
    RECRUITING = "recruiting"
    OTHER = "other"


_SOURCE_VALUES = frozenset(s.value for s in Source)
_PHASE_VALUES = frozenset(p.value for p in PhaseLabel)
_STUDY_TYPE_VALUES = frozenset(t.value for t in StudyType)
_GENDER_VALUES = frozenset(g.value for g in GenderLabel)
_STATUS_VALUES = frozenset(s.value for s in StudyStatus)


@dataclass
class CanonicalStudy:
    study_id: str
    source: Source
    title: str = ""
    brief_summary: str = ""
    study_type: StudyType | None = None
    sponsor: str = ""
    start_year: int | None = None
    phases: set[PhaseLabel] = field(default_factory=set)
    gender: GenderLabel | None = None
    min_age: str | None = None  # raw text span, e.g. "18 Years"
    max_age: str | None = None
    healthy_volunteers: bool | None = None
    status: StudyStatus = StudyStatus.OTHER
    raw_status: str | None = None  # source wording, kept for downstream rules
    target_accrual: int | None = None
    actual_accrual: int | None = None
    results_text: str | None = None
    flagged: bool = False
    primary_outcomes: list[str] = field(default_factory=list)
    secondary_outcomes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "study_id": self.study_id,
            "source": self.source.value,
            "title": self.title,
            "brief_summary": self.brief_summary,
            "study_type": self.study_type.value if self.study_type else None,
            "sponsor": self.sponsor,
            "start_year": self.start_year,
            "phases": sorted(p.value for p in self.phases),
            "gender": self.gender.value if self.gender else None,
            "min_age": self.min_age,
            "max_age": self.max_age,
            "healthy_volunteers": self.healthy_volunteers,
            "status": self.status.value,
            "raw_status": self.raw_status,
            "target_accrual": self.target_accrual,
            "actual_accrual": self.actual_accrual,
            "results_text": self.results_text,
            "flagged": self.flagged,
            "primary_outcomes": list(self.primary_outcomes),
            "secondary_outcomes": list(self.secondary_outcomes),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CanonicalStudy":
        problems = validate_study(d)
        if problems:
            raise ValueError("invalid study record: " + "; ".join(problems))
        return cls(
            study_id=d["study_id"],
            source=Source(d["source"]),
            title=d.get("title", ""),
            brief_summary=d.get("brief_summary", ""),
            study_type=StudyType(d["study_type"]) if d.get("study_type") else None,
            sponsor=d.get("sponsor", ""),
            start_year=d.get("start_year"),
            phases={PhaseLabel(p) for p in d.get("phases", [])},
            gender=GenderLabel(d["gender"]) if d.get("gender") else None,
            min_age=d.get("min_age"),
            max_age=d.get("max_age"),
            healthy_volunteers=d.get("healthy_volunteers"),
            status=StudyStatus(d.get("status", "other")),
            raw_status=d.get("raw_status"),
            target_accrual=d.get("target_accrual"),
            actual_accrual=d.get("actual_accrual"),
            results_text=d.get("results_text"),
            flagged=bool(d.get("flagged", False)),
            primary_outcomes=list(d.get("primary_outcomes", [])),
            secondary_outcomes=list(d.get("secondary_outcomes", [])),
        )


#: Relation vocabulary for the knowledge-graph edges.
RELATION_TYPES = ("include", "exclude", "cite", "awaiting", "linked_to")


@dataclass
class RelationTriple:
    """One knowledge-graph edge between two records.

    Heads and tails are study identifiers in their source's namespace
    (PMIDs for PubMed, NCT ids for CT.gov, registry ids otherwise).
    """

    head_id: str
    relation_type: str  # one of RELATION_TYPES
    tail_id: str
    head_source: Source
    tail_source: Source

    def key(self) -> tuple:
        return (
            self.head_id,
            self.relation_type,
            self.tail_id,
            self.head_source.value,
            self.tail_source.value,
        )


def needs_flag(study_id: str, title: str) -> bool:
    """A record missing either critical field must carry flagged=True."""
    return not study_id.strip() or not title.strip()


def validate_study(record: "CanonicalStudy | dict") -> list[str]:
    """Return a violation report. Empty list means the record is clean.

    Accepts either a decoded CanonicalStudy or a raw dict (pre-decode),
    never raises, and is idempotent: validating twice reports the same
    violations.
    """
    if isinstance(record, CanonicalStudy):
        return _validate_decoded(record)
    return _validate_raw(record)


def _validate_decoded(s: CanonicalStudy) -> list[str]:
    out: list[str] = []
    if not s.study_id.strip():
        out.append("study_id: empty")
    if not s.title.strip():
        out.append("title: empty")
    if needs_flag(s.study_id, s.title) and not s.flagged:
        out.append("flagged: must be true when a critical field is empty")
    if s.actual_accrual is not None and s.actual_accrual <= 0:
        out.append(f"actual_accrual: must be positive, got {s.actual_accrual}")
    return out


def _validate_raw(d: dict) -> list[str]:
    out: list[str] = []
    study_id = d.get("study_id")
    if not isinstance(study_id, str) or not study_id.strip():
        out.append("study_id: empty")
    src = d.get("source")
    if src not in _SOURCE_VALUES:
        out.append(f"source: unknown source {src!r}")
    title = d.get("title", "")
    if not isinstance(title, str) or not title.strip():
        out.append("title: empty")
    if isinstance(study_id, str) and isinstance(title, str):
        if needs_flag(study_id, title) and not d.get("flagged", False):
            out.append("flagged: must be true when a critical field is empty")
    for p in d.get("phases", []):
        if p not in _PHASE_VALUES:
            out.append(f"phases: unknown phase {p!r}")
    st = d.get("study_type")
    if st is not None and st not in _STUDY_TYPE_VALUES:
        out.append(f"study_type: unknown value {st!r}")
    g = d.get("gender")
    if g is not None and g not in _GENDER_VALUES:
        out.append(f"gender: unknown value {g!r}")
    status = d.get("status", "other")
    if status not in _STATUS_VALUES:
        out.append(f"status: unknown value {status!r}")
    for key in ("target_accrual", "actual_accrual", "start_year"):
        v = d.get(key)
        if v is not None and not isinstance(v, int):
            out.append(f"{key}: not an integer")
    aa = d.get("actual_accrual")
    if isinstance(aa, int) and aa <= 0:
        out.append(f"actual_accrual: must be positive, got {aa}")
    for key in ("primary_outcomes", "secondary_outcomes"):
        v = d.get(key, [])
        if not isinstance(v, list) or any(not isinstance(x, str) for x in v):
            out.append(f"{key}: not a list of strings")
    return out


# --- JSONL serialization ----------------------------------------------------

def encode_study(study: CanonicalStudy) -> str:
    return json.dumps(study.to_dict(), sort_keys=True, ensure_ascii=False)


def decode_study(line: str) -> CanonicalStudy:
    return CanonicalStudy.from_dict(json.loads(line))


def write_studies_jsonl(studies: Iterable[CanonicalStudy], path: str | Path) -> None:
    header = json.dumps(
        {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION}, sort_keys=True
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for s in studies:
            fh.write(encode_study(s) + "\n")


def read_studies_jsonl(path: str | Path) -> list[CanonicalStudy]:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise SchemaVersionMismatch(f"{path}: empty file, missing header line")
        header = json.loads(first)
        if header.get("schema") != SCHEMA_NAME or header.get("version") != SCHEMA_VERSION:
            raise SchemaVersionMismatch(
                f"{path}: expected {SCHEMA_NAME} v{SCHEMA_VERSION}, got header {header}"
            )
        return [decode_study(line) for line in fh if line.strip()]
