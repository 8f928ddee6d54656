"""Canonical study record: the unified shape every source is normalized into.

One CanonicalStudy per registration or publication. Validation is
deliberately non-throwing: `validate_study` returns a list of violation
strings so callers can decide whether to flag, drop, or repair a record.

One codec (`encode_record`/`decode_record`) reads a dataclass's fields
and type hints, so a record's shape is declared only in its class; studies,
relation rows and outcome labels all go through it. Enums are written as
their value, sets of enums as sorted lists. Reading looks enums up and
checks `int` and `list[str]` fields; text and flag fields are kept as
written (the CT.gov parser lets through only text or null ages and a
boolean, text or null healthy-volunteer value).

Serialized form is JSONL with a single header line carrying the schema
name and version, then one record object per line. `check_study` passes a
record that `validate_study` finds clean, or a flagged one whose only
faults are an empty `study_id` or `title`: ingest keeps such records and
dedupe passes them through. `decode_study` applies it to every line read,
and the pipeline to every study one stage hands the next in memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Optional, TypeVar, get_args, get_origin, get_type_hints

from .errors import SchemaVersionMismatch
from .store import encode_row, write_jsonl

T = TypeVar("T")

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


#: The faults a flagged record may keep.
_FLAGGED_FAULTS = ("study_id: empty", "title: empty")


def validate_study(study: CanonicalStudy) -> list[str]:
    """Return a violation report. Empty list means the record is clean.

    Never raises, and is idempotent: validating twice reports the same
    violations.
    """
    out = []
    for name in ("study_id", "title"):
        value = getattr(study, name)
        if not isinstance(value, str):
            out.append(f"{name}: not a string")
        elif not value.strip():
            out.append(f"{name}: empty")
    if out and not study.flagged and set(out) <= set(_FLAGGED_FAULTS):
        out.append("flagged: must be true when a critical field is empty")
    if study.actual_accrual is not None and study.actual_accrual <= 0:
        out.append(f"actual_accrual: must be positive, got {study.actual_accrual}")
    return out


# --- record codec --------------------------------------------------------------


def _optional(convert: Callable) -> Callable:
    return lambda value: None if value is None else convert(value)


def _integer(value):
    if not isinstance(value, int):
        raise ValueError("not an integer")
    return value


def _list_of(kind: type) -> Callable:
    def convert(values):
        if not isinstance(values, list) or not all(isinstance(value, kind) for value in values):
            raise ValueError(f"not a list of {kind.__name__}")
        return list(values)

    return convert


def _converters(hint) -> tuple[Optional[Callable], Optional[Callable]]:
    """(encode, decode) for one field type; None keeps the value as written."""
    args = get_args(hint)
    if type(None) in args:
        (inner,) = (arg for arg in args if arg is not type(None))
        encode, decode = _converters(inner)
        return (encode and _optional(encode)), (decode and _optional(decode))
    if isinstance(hint, type) and issubclass(hint, Enum):
        return attrgetter("value"), hint
    if get_origin(hint) is set:
        (kind,) = args
        return (lambda members: sorted(member.value for member in members)), (
            lambda values: {kind(value) for value in values}
        )
    if get_origin(hint) is list:
        return list, _list_of(args[0])
    if hint is int:
        return None, _integer
    return None, None


@cache
def _field_codecs(cls: type) -> tuple[tuple[str, ...], tuple, tuple]:
    """The field names, then ``(name, encode)`` and ``(name, decode)`` for each converted field."""
    hints = get_type_hints(cls)
    names = tuple(f.name for f in fields(cls))
    converters = [(name, *_converters(hints[name])) for name in names]
    return (
        names,
        tuple((name, encode) for name, encode, _ in converters if encode is not None),
        tuple((name, decode) for name, _, decode in converters if decode is not None),
    )


def encode_record(record) -> dict:
    """The JSON form of a dataclass record: one key per field."""
    _, encoders, _ = _field_codecs(type(record))
    row = dict(vars(record))
    for name, encode in encoders:
        row[name] = encode(row[name])
    return row


def decode_record(cls: type[T], row) -> T:
    """The ``cls`` record of a JSON object written by :func:`encode_record`.

    Absent keys take the field's default and unknown keys are ignored. A
    value that does not convert to its field's type, or a missing value
    the field has no default for, is a ``ValueError`` naming the field.
    """
    if not isinstance(row, dict):
        raise ValueError(f"invalid {cls.__name__}: expected a JSON object, got {type(row).__name__}")
    names, _, decoders = _field_codecs(cls)
    values = {name: row[name] for name in names if name in row}
    for name, decode in decoders:
        if name in values:
            try:
                values[name] = decode(values[name])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"invalid {cls.__name__}: {name}: {exc}") from None
    try:
        return cls(**values)
    except TypeError as exc:
        raise ValueError(f"invalid {cls.__name__}: {exc}") from None


# --- JSONL serialization ----------------------------------------------------


def encode_study(study: CanonicalStudy) -> str:
    return encode_row(encode_record(study))


def check_study(study: CanonicalStudy) -> CanonicalStudy:
    """``study`` itself; a ``ValueError`` for any fault but a flagged record's empty id or title."""
    problems = validate_study(study)
    if study.flagged:
        problems = [problem for problem in problems if problem not in _FLAGGED_FAULTS]
    if problems:
        raise ValueError("invalid CanonicalStudy: " + "; ".join(problems))
    return study


def decode_study(line: str) -> CanonicalStudy:
    """One study line, decoded and passed through :func:`check_study`."""
    return check_study(decode_record(CanonicalStudy, json.loads(line)))


def write_studies_jsonl(studies: Iterable[CanonicalStudy], path: str | Path) -> None:
    header = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION}
    write_jsonl(path, chain([header], map(encode_record, studies)))


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
