"""Per-source parsers that turn raw records into CanonicalStudy rows.

Registry rows arrive as flat column->value maps; each registry carries a
field-mapping config under data/sources/<tag>.json so new registries can
be onboarded without code changes. PubMed records are free text, handled
with a small rule-based extraction layer (phase mentions, accrual
phrases, labeled abstract sections). CT.gov-style structured documents
are parsed directly.

None of the parsers throw on messy text: a record missing critical
fields comes back flagged instead.
"""

from __future__ import annotations

import json
import re
from functools import cache
from importlib import resources
from pathlib import Path

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


# --- registry record parsing --------------------------------------------------

_YEAR_RE = re.compile(r"\b(19|20)\d{2}\b")
_INT_CELL_RE = re.compile(r"\d[\d,]*")


@cache
def _default_mapping_dir() -> Path:
    return Path(str(resources.files("trialforge").joinpath("data/sources")))


def load_source_mapping(source: Source | str, mapping_dir: str | Path | None = None) -> dict:
    """Read the source's field mapping from ``mapping_dir`` (the packaged one by default)."""
    name = source.name if isinstance(source, Source) else str(source)
    try:
        tag = Source[name.upper()] if not isinstance(source, Source) else source
    except KeyError:
        raise UnknownSource(f"unknown source tag {source!r}") from None
    if tag in (Source.CTGOV, Source.PUBMED):
        raise UnknownSource(f"{tag.value} records do not use column mappings")
    path = Path(mapping_dir or _default_mapping_dir()) / f"{tag.name.lower()}.json"
    if not path.exists():
        raise UnknownSource(f"no field mapping for source {tag.name!r} at {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cell(raw: dict, column: str | None) -> str:
    if not column:
        return ""
    value = raw.get(column, "")
    return value.strip() if isinstance(value, str) else str(value)


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


def parse_registry_record(
    raw: dict,
    source: Source | str,
    mapping: dict | None = None,
) -> CanonicalStudy:
    """Normalize one registry row using the source's field mapping (the packaged one by default)."""
    if mapping is None:
        mapping = load_source_mapping(source)
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

def extract_pubmed_study(record: dict) -> CanonicalStudy:
    """Turn a {pmid, title, abstract, year?} record into a canonical row.

    Phases are unioned over title and abstract; accrual and results come
    from the abstract alone. Never raises on arbitrary text.
    """
    pmid = str(record.get("pmid", "")).strip()
    title = str(record.get("title", "") or "").strip()
    abstract = str(record.get("abstract", "") or "")
    year = record.get("year")
    size = detect_sample_size(abstract)
    return CanonicalStudy(
        study_id=pmid,
        source=Source.PUBMED,
        title=title,
        brief_summary=abstract.strip(),
        study_type=StudyType.PUBLICATION,
        start_year=int(year) if isinstance(year, int) else None,
        phases=detect_phase(title + " " + abstract),
        status=StudyStatus.OTHER,
        actual_accrual=size if size and size > 0 else None,
        results_text=extract_results_text(abstract),
        flagged=needs_flag(pmid, title),
    )


# --- CT.gov structured documents ------------------------------------------------

_CTGOV_PHASES = {
    "EARLY_PHASE1": PhaseLabel.EARLY_PHASE1,
    "PHASE1": PhaseLabel.PHASE1,
    "PHASE2": PhaseLabel.PHASE2,
    "PHASE3": PhaseLabel.PHASE3,
    "PHASE4": PhaseLabel.PHASE4,
    "NA": PhaseLabel.NA,
}

_CTGOV_SEX = {
    "ALL": GenderLabel.BOTH,
    "MALE": GenderLabel.MALE,
    "FEMALE": GenderLabel.FEMALE,
}

_CTGOV_STATUS = {
    "COMPLETED": StudyStatus.COMPLETED,
    "TERMINATED": StudyStatus.TERMINATED,
    "WITHDRAWN": StudyStatus.WITHDRAWN,
    "SUSPENDED": StudyStatus.SUSPENDED,
    "RECRUITING": StudyStatus.RECRUITING,
}

_CTGOV_TYPES = {
    "INTERVENTIONAL": StudyType.INTERVENTIONAL,
    "OBSERVATIONAL": StudyType.OBSERVATIONAL,
    "EXPANDED_ACCESS": StudyType.EXPANDED_ACCESS,
}


def render_outcome(measure: str, time_frame: str | None) -> str:
    if time_frame:
        return f"{measure} (time frame: {time_frame})"
    return measure


def ctgov_nct_id(doc: dict) -> str:
    """A CT.gov document's ``nctId``, stripped: empty when absent or null, a ValueError when not text."""
    nct_id = doc.get("nctId")
    if nct_id is None:
        return ""
    if type(nct_id) is not str:
        raise ValueError(f"nctId is {nct_id!r}, expected str or null")
    return nct_id.strip()


def parse_ctgov_study(doc: dict) -> CanonicalStudy:
    """Parse a CT.gov-style structured document into a canonical row.

    Expected key paths (all optional unless noted):
      nctId                                   required
      protocolSection.identificationModule.{briefTitle, officialTitle}
      protocolSection.descriptionModule.briefSummary
      protocolSection.statusModule.{overallStatus, startDateStruct.date}
      protocolSection.designModule.{studyType, phases, enrollmentInfo}
      protocolSection.eligibilityModule.{sex, minimumAge, maximumAge,
                                         healthyVolunteers}
      protocolSection.outcomesModule.{primaryOutcomes, secondaryOutcomes}
      protocolSection.sponsorCollaboratorsModule.leadSponsor.name

    Every value read must be null or of its one JSON type: a module or
    struct an object, ``phases`` and the outcome lists arrays (of text and
    of objects), ``enrollmentInfo.count`` an integer, ``healthyVolunteers``
    a boolean or text, and every other value text. A null or absent object
    reads as empty. Any other value is a ValueError naming the trial and
    the key path below its module; a ``nctId`` not text is one too
    (:func:`ctgov_nct_id`).
    """
    nct_id = ctgov_nct_id(doc)

    def check(field: str, value, kinds: tuple[type, ...] = (str,)):
        # exact JSON types: a boolean is not an integer
        if value is None or type(value) in kinds:
            return value
        expected = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"CT.gov study {nct_id}: {field} is {value!r}, expected {expected} or null")

    def obj(parent: dict, key: str) -> dict:
        return check(key, parent.get(key), (dict,)) or {}

    proto = obj(doc, "protocolSection")
    ident = obj(proto, "identificationModule")
    status_mod = obj(proto, "statusModule")
    design = obj(proto, "designModule")
    elig = obj(proto, "eligibilityModule")
    outcomes = obj(proto, "outcomesModule")

    title = (
        check("briefTitle", ident.get("briefTitle")) or check("officialTitle", ident.get("officialTitle")) or ""
    ).strip()

    raw_status = check("overallStatus", status_mod.get("overallStatus")) or ""
    status = _CTGOV_STATUS.get(raw_status.upper(), StudyStatus.OTHER)

    start_year = None
    start_date = check("startDateStruct.date", obj(status_mod, "startDateStruct").get("date"))
    if start_date:
        start_year = _parse_year(start_date)

    phases = {
        _CTGOV_PHASES[p]
        for i, p in enumerate(check("phases", design.get("phases"), (list,)) or [])
        if check(f"phases[{i}]", p) in _CTGOV_PHASES
    }

    target = actual = None
    enrollment = obj(design, "enrollmentInfo")
    count = check("enrollmentInfo.count", enrollment.get("count"), (int,))
    if count is not None and count > 0:
        if (check("enrollmentInfo.type", enrollment.get("type")) or "ESTIMATED").upper() == "ACTUAL":
            actual = count
        else:
            target = count

    def _outs(key: str) -> list[str]:
        rendered = []
        for i, entry in enumerate(check(key, outcomes.get(key), (list,)) or []):
            at = f"{key}[{i}]"
            entry = check(at, entry, (dict,)) or {}
            measure = check(f"{at}.measure", entry.get("measure"))
            if measure:
                rendered.append(render_outcome(measure, check(f"{at}.timeFrame", entry.get("timeFrame"))))
        return rendered

    sponsor = check("leadSponsor.name", obj(obj(proto, "sponsorCollaboratorsModule"), "leadSponsor").get("name", ""))

    return CanonicalStudy(
        study_id=nct_id,
        source=Source.CTGOV,
        title=title,
        brief_summary=(check("briefSummary", obj(proto, "descriptionModule").get("briefSummary")) or "").strip(),
        study_type=_CTGOV_TYPES.get((check("studyType", design.get("studyType")) or "").upper()),
        sponsor=sponsor,
        start_year=start_year,
        phases=phases,
        gender=_CTGOV_SEX.get((check("sex", elig.get("sex")) or "").upper()),
        min_age=check("minimumAge", elig.get("minimumAge")),
        max_age=check("maximumAge", elig.get("maximumAge")),
        healthy_volunteers=check("healthyVolunteers", elig.get("healthyVolunteers"), (bool, str)),
        status=status,
        raw_status=raw_status or None,
        target_accrual=target,
        actual_accrual=actual,
        results_text=None,
        flagged=needs_flag(nct_id, title),
        primary_outcomes=_outs("primaryOutcomes"),
        secondary_outcomes=_outs("secondaryOutcomes"),
    )
