"""Per-source parsers that turn raw records into CanonicalStudy rows.

Registry rows arrive as flat column->value maps; each registry carries a
field-mapping config under data/sources/<tag>.json so new registries can
be onboarded without code changes. PubMed articles and CT.gov documents
arrive as their checked views (`trialforge.views`); article text is
read by a small rule-based extraction layer (phase mentions, accrual
phrases, labeled abstract sections).

None of the parsers throw on messy text: a record missing critical
fields comes back flagged instead, and the ingest stage refuses one
without an id.

Corpus files are read as bytes (`corpus_files` lists a directory through
one descriptor and reads each regular file through it) and decoded as
`Path.read_text` would (`decode_text`, `read_json`).
"""

from __future__ import annotations

import errno
import json
import os
import re
import stat
from pathlib import Path
from typing import Iterator, Optional

from . import DATA_DIR
from .errors import UnknownSource
from .schema import (
    CanonicalStudy,
    GenderLabel,
    PhaseLabel,
    Source,
    StudyStatus,
    StudyType,
    needs_flag,
)
from .views import Article, CtgovDoc

# --- phase detection ---------------------------------------------------------

_ROMAN = {"i": 1, "ii": 2, "iii": 3, "iv": 4}

_EARLY_PHASE_RE = re.compile(r"\bearly\s+phase\s*[-]?\s*1\b", re.IGNORECASE)

# "Phase II", "phase 3b", "Phase I/II", "Phase 1 / Phase 2". A trailing
# a/b sub-stage letter folds into its parent phase. The lookahead keeps
# "Phase 12" or "phase iva2" from matching.
_PHASE_RE = re.compile(
    r"\bphase\s*[-]?\s*(iv|iii|ii|i|[1-4])([ab])?(?![a-z0-9])"
    r"(?:\s*/\s*(?:phase\s*[-]?\s*)?(iv|iii|ii|i|[1-4])([ab])?(?![a-z0-9]))?",
    re.IGNORECASE,
)

_PHASE_BY_NUMBER = {
    1: PhaseLabel.PHASE1,
    2: PhaseLabel.PHASE2,
    3: PhaseLabel.PHASE3,
    4: PhaseLabel.PHASE4,
}

_NA_PHASE_RE = re.compile(r"^\s*(n/?a|not applicable)\s*$", re.IGNORECASE)


def _phase_number(token: str) -> int:
    token = token.lower()
    if token in _ROMAN:
        return _ROMAN[token]
    return int(token)


def detect_phase(text: str) -> set[PhaseLabel]:
    """Find every phase label mentioned in free text.

    Handles roman and arabic numerals, slash combinations, and sub-stage
    letters. "multiphase" and out-of-range numbers match nothing.
    """
    found: set[PhaseLabel] = set()
    if _EARLY_PHASE_RE.search(text):
        found.add(PhaseLabel.EARLY_PHASE1)
        text = _EARLY_PHASE_RE.sub(" ", text)
    for m in _PHASE_RE.finditer(text):
        found.add(_PHASE_BY_NUMBER[_phase_number(m.group(1))])
        if m.group(3):
            found.add(_PHASE_BY_NUMBER[_phase_number(m.group(3))])
    return found


# --- sample size and results extraction from abstracts ------------------------

_SAMPLE_SIZE_RE = re.compile(
    r"\b(\d{1,3}(?:,\d{3})+|\d+)\s+(?:participants?|patients?)\b", re.IGNORECASE
)


def detect_sample_size(text: str) -> int | None:
    """First number immediately preceding participants/patients, if any."""
    m = _SAMPLE_SIZE_RE.search(text)
    if m is None:
        return None
    return int(m.group(1).replace(",", ""))


#: Labels that delimit structured-abstract sections.
ABSTRACT_SECTION_LABELS = (
    "authors' conclusions",
    "data collection and analysis",
    "main outcome measures",
    "main results",
    "search methods",
    "selection criteria",
    "trial registration",
    "aims",
    "aim",
    "background",
    "conclusions",
    "conclusion",
    "design",
    "discussion",
    "findings",
    "funding",
    "importance",
    "interpretation",
    "interventions",
    "intervention",
    "introduction",
    "keywords",
    "measurements",
    "methods",
    "method",
    "objectives",
    "objective",
    "participants",
    "patients",
    "purpose",
    "registration",
    "results",
    "setting",
)

_SECTION_RE = re.compile(
    r"(?:(?<=^)|(?<=[\s.;()—-]))("
    + "|".join(re.escape(label) for label in ABSTRACT_SECTION_LABELS)
    + r")\s*:",
    re.IGNORECASE,
)

_RESULT_SECTION_NAMES = frozenset({"results", "findings", "conclusion", "conclusions"})


def split_abstract_sections(text: str) -> list[tuple[str, str]]:
    """Split a structured abstract into (label, body) pairs, in order.

    Text before the first label is returned under the label "".
    """
    out: list[tuple[str, str]] = []
    matches = list(_SECTION_RE.finditer(text))
    if not matches:
        return [("", text.strip())] if text.strip() else []
    lead = text[: matches[0].start()].strip()
    if lead:
        out.append(("", lead))
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        body = text[m.end(): end].strip()
        out.append((m.group(1).lower(), body))
    return out


def extract_results_text(abstract: str) -> str | None:
    """Concatenate the Results/Conclusions sections of a structured abstract."""
    pieces = [
        body
        for label, body in split_abstract_sections(abstract)
        if label in _RESULT_SECTION_NAMES and body
    ]
    if not pieces:
        return None
    return " ".join(pieces)


# --- corpus files ----------------------------------------------------------------

#: stat and open errors that `Path.is_file` reads as "not a file" rather than raising
NOT_A_FILE = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)
DIRECTORY = os.O_RDONLY | os.O_DIRECTORY


def read_at(dir_fd: int, name: str) -> Optional[bytes]:
    """The bytes of ``name`` in the open directory ``dir_fd``; None when it is not a regular file.

    One stat (symlinks followed), then one read sized from it; anything but
    a regular file is never opened.
    """
    try:
        info = os.stat(name, dir_fd=dir_fd)
    except OSError as exc:
        if exc.errno in NOT_A_FILE:
            return None
        raise
    if not stat.S_ISREG(info.st_mode):
        return None
    fd = os.open(name, os.O_RDONLY, dir_fd=dir_fd)
    try:
        data = os.read(fd, info.st_size + 1)
        if len(data) != info.st_size:  # changed since the stat, or a read capped short
            data += b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
    finally:
        os.close(fd)
    return data


def corpus_files(directory: Path, suffix: str) -> Iterator[tuple[Path, bytes]]:
    """The path and bytes of each file in ``directory`` whose name ends in ``suffix``, in name order.

    Nothing when ``directory`` is missing or is no directory. It is opened once
    and listed, and each name read through it with `read_at`: a name that
    is not a regular file, symlinks followed (a directory, a FIFO, a broken
    link), is a ValueError naming its path, and is never opened.
    """
    try:
        dir_fd = os.open(directory, DIRECTORY)
    except OSError:
        return
    try:
        with os.scandir(dir_fd) as it:
            names = sorted(entry.name for entry in it if entry.name.endswith(suffix))
        for name in names:
            data = read_at(dir_fd, name)
            if data is None:
                raise ValueError(f"{directory / name}: not a regular file")
            yield directory / name, data
    finally:
        os.close(dir_fd)


def decode_text(data: bytes) -> str:
    """``data`` as UTF-8 text with universal newlines, as `Path.read_text` reads a file."""
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def read_json(path: Path, data: Optional[bytes] = None):
    """The JSON value in the file at ``path``, or in ``data``, its bytes already read.

    Text that does not decode or parse is a ValueError naming the file.
    """
    try:
        return json.loads(decode_text(path.read_bytes() if data is None else data))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ValueError(f"{path}: {exc}") from None


# --- registry record parsing --------------------------------------------------

_YEAR_RE = re.compile(r"\b(19|20)\d{2}\b")
_INT_CELL_RE = re.compile(r"\d[\d,]*")


def load_source_mapping(source: Source | str, mapping_dir: Path = DATA_DIR / "sources") -> dict:
    """Read the source's field mapping from ``mapping_dir`` (the packaged one by default).

    A mapping that is not a JSON object, lacks a ``fields`` object of column
    names or nulls, or names another ``source`` is a ValueError naming the file.
    """
    try:
        tag = source if isinstance(source, Source) else Source[str(source).upper()]
    except KeyError:
        raise UnknownSource(f"unknown source tag {source!r}") from None
    if tag in (Source.CTGOV, Source.PUBMED):
        raise UnknownSource(f"{tag.value} records do not use column mappings")
    path = mapping_dir / f"{tag.name.lower()}.json"
    if not path.is_file():
        raise UnknownSource(f"no field mapping for source {tag.name!r} at {path}")
    mapping = read_json(path)
    if not isinstance(mapping, dict):
        raise ValueError(f"{path}: expected a JSON object")
    fields = mapping.get("fields")
    if not isinstance(fields, dict) or not all(isinstance(column, (str, type(None))) for column in fields.values()):
        raise ValueError(f"{path}: 'fields' must be an object of column names or nulls")
    if mapping.get("source") != tag.value:
        raise ValueError(f"{path}: 'source' is {mapping.get('source')!r}, expected {tag.value!r}")
    return mapping


def _cell(raw: dict, column: str | None) -> str:
    """A registry cell as stripped text: null or absent reads as "", a number as its text; any other type is a ValueError."""
    if not column:
        return ""
    value = raw.get(column)
    if type(value) not in (str, int, float, type(None)):
        raise ValueError(f"{column} is {value!r}, expected str, int, float or null")
    return value.strip() if type(value) is str else "" if value is None else str(value)


def _parse_int_cell(text: str) -> int | None:
    m = _INT_CELL_RE.search(text)
    if m is None:
        return None
    value = int(m.group().replace(",", ""))
    return value if value > 0 else None


def _parse_year(text: str) -> int | None:
    m = _YEAR_RE.search(text)
    return int(m.group()) if m else None


def _split_list_cell(text: str, separator: str) -> list[str]:
    return [part.strip() for part in text.split(separator) if part.strip()]


def parse_registry_record(raw: dict, mapping: dict) -> CanonicalStudy:
    """Normalize one registry row using its source's field mapping, as `load_source_mapping` returns it."""
    tag = Source(mapping["source"])
    fields = mapping["fields"]

    study_id = _cell(raw, fields.get("study_id"))
    title = _cell(raw, fields.get("title"))

    phase_cell = _cell(raw, fields.get("phase"))
    if _NA_PHASE_RE.match(phase_cell):
        phases = {PhaseLabel.NA}
    else:
        phases = detect_phase(phase_cell)

    gender_cell = _cell(raw, fields.get("gender"))
    gender_value = mapping.get("gender_map", {}).get(gender_cell)
    gender = GenderLabel(gender_value) if gender_value else None

    healthy_cell = _cell(raw, fields.get("healthy_volunteers"))
    healthy = mapping.get("healthy_map", {}).get(healthy_cell)

    status_cell = _cell(raw, fields.get("status"))
    status_value = mapping.get("status_map", {}).get(status_cell, "other")
    status = StudyStatus(status_value)

    type_cell = _cell(raw, fields.get("study_type"))
    type_value = mapping.get("study_type_map", {}).get(type_cell)
    if type_value:
        study_type = StudyType(type_value)
    else:
        study_type = StudyType.OTHER if type_cell else None

    results_text = _cell(raw, fields.get("results_text"))
    supplement = _cell(raw, fields.get("results_supplement"))
    if supplement:
        results_text = (results_text + "\n" + supplement).strip()

    separator = mapping.get("list_separator", "\n")

    return CanonicalStudy(
        study_id=study_id,
        source=tag,
        title=title,
        brief_summary=_cell(raw, fields.get("brief_summary")),
        study_type=study_type,
        sponsor=_cell(raw, fields.get("sponsor")),
        start_year=_parse_year(_cell(raw, fields.get("start_year"))),
        phases=phases,
        gender=gender,
        min_age=_cell(raw, fields.get("min_age")) or None,
        max_age=_cell(raw, fields.get("max_age")) or None,
        healthy_volunteers=healthy,
        status=status,
        raw_status=status_cell or None,
        target_accrual=_parse_int_cell(_cell(raw, fields.get("target_accrual"))),
        actual_accrual=_parse_int_cell(_cell(raw, fields.get("actual_accrual"))),
        results_text=results_text or None,
        flagged=needs_flag(study_id, title),
        primary_outcomes=_split_list_cell(_cell(raw, fields.get("primary_outcomes")), separator),
        secondary_outcomes=_split_list_cell(_cell(raw, fields.get("secondary_outcomes")), separator),
    )


# --- PubMed records ------------------------------------------------------------

def extract_pubmed_study(article: Article) -> CanonicalStudy:
    """Turn an article into a canonical row.

    Phases are unioned over title and abstract; accrual and results come
    from the abstract alone. Never raises on arbitrary text.
    """
    title, abstract = article.title.strip(), article.abstract
    size = detect_sample_size(abstract)
    return CanonicalStudy(
        study_id=article.pmid,
        source=Source.PUBMED,
        title=title,
        brief_summary=abstract.strip(),
        study_type=StudyType.PUBLICATION,
        start_year=article.year,
        phases=detect_phase(title + " " + abstract),
        status=StudyStatus.OTHER,
        actual_accrual=size if size and size > 0 else None,
        results_text=extract_results_text(abstract),
        flagged=needs_flag(article.pmid, title),
    )


# --- CT.gov structured documents ------------------------------------------------

# CT.gov writes phases and study types as the labels' values and statuses in
# upper case; an unlisted status is "other", an unlisted study type none.
_CTGOV_PHASES = {label.value: label for label in PhaseLabel}
_CTGOV_SEX = {"ALL": GenderLabel.BOTH, "MALE": GenderLabel.MALE, "FEMALE": GenderLabel.FEMALE}
_CTGOV_STATUS = {status.value.upper(): status for status in StudyStatus}
_CTGOV_TYPES = {kind.value: kind for kind in (StudyType.INTERVENTIONAL, StudyType.OBSERVATIONAL, StudyType.EXPANDED_ACCESS)}


def parse_ctgov_study(doc: CtgovDoc) -> CanonicalStudy:
    """Turn a checked CT.gov document into a canonical row."""
    title = (doc.brief_title or doc.official_title).strip()
    count = doc.enrollment_count if (doc.enrollment_count or 0) > 0 else None
    actual = doc.enrollment_type.upper() == "ACTUAL"

    def rendered(outcomes) -> list[str]:
        return [f"{o.measure} (time frame: {o.time_frame})" if o.time_frame else o.measure for o in outcomes if o.measure]

    return CanonicalStudy(
        study_id=doc.nct_id,
        source=Source.CTGOV,
        title=title,
        brief_summary=doc.brief_summary.strip(),
        study_type=_CTGOV_TYPES.get(doc.study_type.upper()),
        sponsor=doc.sponsor,
        start_year=_parse_year(doc.start_date),
        phases={_CTGOV_PHASES[p] for p in doc.phases if p in _CTGOV_PHASES},
        gender=_CTGOV_SEX.get(doc.sex.upper()),
        min_age=doc.minimum_age,
        max_age=doc.maximum_age,
        healthy_volunteers=doc.healthy_volunteers,
        status=_CTGOV_STATUS.get(doc.overall_status.upper(), StudyStatus.OTHER),
        raw_status=doc.overall_status or None,
        target_accrual=None if actual else count,
        actual_accrual=count if actual else None,
        results_text=None,
        flagged=needs_flag(doc.nct_id, title),
        primary_outcomes=rendered(doc.primary_outcomes),
        secondary_outcomes=rendered(doc.secondary_outcomes),
    )
