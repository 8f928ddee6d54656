"""Canonical study record: the unified shape every source is normalized into.

One CanonicalStudy per registration or publication. Validation is
deliberately non-throwing: `validate_study` returns a list of violation
strings so callers can decide whether to flag, drop, or repair a record.

One codec (`encode_record`/`decode_record`) reads a dataclass's fields
and type hints, so a record's shape is declared only in its class; studies,
relation rows and outcome labels all go through it. Enums are written as
their value, sets of enums as sorted lists. Reading runs a decoder written
out for each class at its first use: it looks enums up and checks `int`
and `list[str]` fields; text and flag fields are kept as written (the
CT.gov parser lets through only text or null ages and a boolean, text or
null healthy-volunteer value).

Serialized form is JSONL with a single header line carrying the schema
name and version, then one record object per line. `check_study` passes a
record that `validate_study` finds clean, or a flagged one whose only
faults are an empty `study_id` or `title`: ingest keeps a record without a
title (it refuses one without an id) and dedupe passes it through. `decode_study` applies it to every line read,
and the pipeline to every study one stage hands the next in memory.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from functools import cache
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Optional, TypeVar, get_args, get_origin, get_type_hints

from .errors import SchemaVersionMismatch
from .store import encode_row, write_lines

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


_type_hints = cache(get_type_hints)


def _encoder(hint) -> Optional[Callable]:
    """How one field type is written; None keeps the value as it is."""
    args = get_args(hint)
    if type(None) in args:
        (inner,) = (arg for arg in args if arg is not type(None))
        encode = _encoder(inner)
        return encode and (lambda value: None if value is None else encode(value))
    if isinstance(hint, type) and issubclass(hint, Enum):
        return attrgetter("_value_")
    if get_origin(hint) is set:
        return lambda members: sorted(member._value_ for member in members)
    if get_origin(hint) is list:
        return list
    return None


@cache
def _encoders(cls: type) -> tuple:
    """``(name, encode)`` for each field of ``cls`` that is not written as it is."""
    hints = _type_hints(cls)
    return tuple((f.name, encode) for f in fields(cls) if (encode := _encoder(hints[f.name])) is not None)


def encode_record(record) -> dict:
    """The JSON form of a dataclass record: one key per field."""
    row = dict(vars(record))
    for name, encode in _encoders(type(record)):
        row[name] = encode(row[name])
    return row


_ABSENT = object()


def _member(label: str, kind: type[Enum], value):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{label}{exc}") from None


def _members(label: str, kind: type[Enum], values) -> set:
    lookup = kind._value2member_map_
    try:
        return {lookup[value] if type(value) is str and value in lookup else kind(value) for value in values}
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{label}{exc}") from None


def _list_of(label: str, kind: type, values) -> list:
    if not isinstance(values, list) or not all(isinstance(value, kind) for value in values):
        raise ValueError(f"{label}not a list of {kind.__name__}")
    return list(values)


def _construct(cls: type, names: tuple, values: tuple):
    """``cls`` built by keyword from the ``values`` given: the call whose error names a missing field."""
    return cls(**{name: value for name, value in zip(names, values) if value is not _ABSENT})


@cache
def _decoder(cls: type):
    """A function ``decode(row)`` that reads a ``cls`` record from a JSON object.

    Its code is written out from the dataclass fields, one check per field,
    as `views._reader` writes its readers, so decoding runs no loop over
    field specs. An absent key reads as the field's default, which passes
    its own check. An enum's text is looked up among its members and only a
    miss calls the enum, which refuses it. For `RelationTriple` it reads::

        v0, v1, v2, v3, v4, = map(row.get, names, defaults)
        if type(v3) is str: v3 = m3.get(v3, v3)
        if type(v3) is not k3 and v3 is not absent: v3 = member(l3, k3, v3)

    and so on for ``v4``; the record is ``cls(v0, ..., v4)``, or `_construct` when a required field is absent.
    """
    prefix, specs = f"invalid {cls.__name__}: ", fields(cls)
    env = {
        "cls": cls, "names": tuple(f.name for f in specs), "absent": _ABSENT, "prefix": prefix,
        "defaults": tuple(_ABSENT if f.default is MISSING else f.default for f in specs),
        "member": _member, "members": _members, "list_of": _list_of, "construct": _construct,
    }
    hints, values, required = _type_hints(cls), [f"v{n}" for n in range(len(specs))], []
    code = [
        "def decode(row):",
        "    if not isinstance(row, dict): raise ValueError(prefix + 'expected a JSON object, got ' + type(row).__name__)",
        f"    {', '.join(values)}, = map(row.get, names, defaults)",
    ]
    for n, f in enumerate(specs):
        v, args = f"v{n}", get_args(hints[f.name])
        kind = next(arg for arg in args if arg is not type(None)) if type(None) in args else hints[f.name]
        kept = ["None"] if type(None) in args else []  # values that pass as given
        env[f"l{n}"] = f"{prefix}{f.name}: "
        if f.default_factory is not MISSING:
            env[f"f{n}"] = f.default_factory
            code.append(f"    if {v} is absent: {v} = f{n}()")
        elif f.default is MISSING:
            required.append(v)
            kept.append("absent")
        kept = [f"{v} is not {value}" for value in kept]
        if isinstance(kind, type) and issubclass(kind, Enum):
            env[f"k{n}"], env[f"m{n}"] = kind, kind._value2member_map_
            code.append(f"    if type({v}) is str: {v} = m{n}.get({v}, {v})")
            code.append(f"    if {' and '.join([f'type({v}) is not k{n}', *kept])}: {v} = member(l{n}, k{n}, {v})")
        elif get_origin(kind) in (set, list):
            (env[f"k{n}"],) = get_args(kind)
            convert = "members" if get_origin(kind) is set else "list_of"
            # a field with a default factory reaches its check only when given
            branch = "elif" if f.default_factory is not MISSING else "if"
            test = f"{branch} {' and '.join(kept)}: " if kept else "else: " if branch == "elif" else ""
            code.append(f"    {test}{v} = {convert}(l{n}, k{n}, {v})")
        elif kind is int:  # a boolean passes, as isinstance has it
            test = " and ".join([f"type({v}) is not int", *kept, f"not isinstance({v}, int)"])
            code.append(f"    if {test}: raise ValueError(l{n} + 'not an integer')")
    code.append("    try:")
    if required:
        code.append(f"        if {' or '.join(f'{v} is absent' for v in required)}:")
        code.append(f"            return construct(cls, names, ({', '.join(values)},))")
    code.append(f"        return cls({', '.join(values)})")
    code.append("    except TypeError as exc:")
    code.append("        raise ValueError(prefix + str(exc)) from None")
    exec("\n".join(code), env)
    return env["decode"]


def decode_record(cls: type[T], row) -> T:
    """The ``cls`` record of a JSON object written by :func:`encode_record`.

    Absent keys take the field's default and unknown keys are ignored. A
    value that does not convert to its field's type, or a missing value
    the field has no default for, is a ``ValueError`` naming the field.
    """
    return _decoder(cls)(row)


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


def write_studies_jsonl(
    studies: Iterable[CanonicalStudy], path: str | Path, known: Optional[dict[int, str]] = None
) -> list[str]:
    """Write the header line, then one :func:`encode_study` line per study; return the study lines.

    ``known`` maps the ``id`` of a study object to the line already encoded
    for that very object, which is written as is; the caller keeps each such
    object alive and unchanged meanwhile.
    """
    known = known or {}
    lines = [known.get(id(study)) or encode_study(study) for study in studies]
    write_lines(path, chain([encode_row({"schema": SCHEMA_NAME, "version": SCHEMA_VERSION})], lines))
    return lines


def read_studies_jsonl(path: str | Path, lines: Optional[list[str]] = None) -> list[CanonicalStudy]:
    """The studies of a study file, decoded; ``lines``, when given, gains each study's line, newline cut."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise SchemaVersionMismatch(f"{path}: empty file, missing header line")
        header = json.loads(first)
        if header.get("schema") != SCHEMA_NAME or header.get("version") != SCHEMA_VERSION:
            raise SchemaVersionMismatch(
                f"{path}: expected {SCHEMA_NAME} v{SCHEMA_VERSION}, got header {header}"
            )
        if lines is None:
            return [decode_study(line) for line in fh if line.strip()]
        lines.extend(line.rstrip("\n") for line in fh if line.strip())
        return list(map(decode_study, lines))
