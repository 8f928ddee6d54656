"""The checked views of the corpus JSON inputs, service responses and model answers.

A CT.gov document reads as a `CtgovDoc`, each entry of ``pubmed/articles.json``,
``reviews/index.json`` and ``protocols/pairs.json`` as an `Article`, a `Review`
or a `ProtocolPair`, and an answer as an answer view. Each view field is
annotated with its key path, and its type gives the JSON types it takes.
`parse_ctgov_doc`, `parse_entry` and `parse_answer` check every value by
exact JSON type. Unless a field is marked `Given`, null or absent text reads
as "" and an array as no entries (a null entry as an empty one). An object on
the way reads as empty, an ``Optional`` field keeps None, and any other field
must be given. Text is kept as written. Any other value is refused, naming the document, entry or
answer and the key path below its module (the README's "CT.gov input",
"PubMed, review and protocol input" and "Service responses and model
answers" sections). The classes are named tuples: as immutable as a frozen
dataclass, but built in one call instead of one ``object.__setattr__`` per field.
"""

from functools import cache
from typing import Annotated, NamedTuple, Optional, Union, get_args, get_origin, get_type_hints

from .errors import MalformedResponse

#: A value CT.gov writes as a number or as text, kept as written.
Scalar = Union[str, int, float, None]


class Given:
    """Marks a field that must be given: null or absence is refused, and so is a null entry of its array."""


class Outcome(NamedTuple):
    measure: Annotated[str, "measure"]
    time_frame: Annotated[str, "timeFrame"]


class ArmGroup(NamedTuple):
    label: Annotated[str, "label"]
    type: Annotated[str, "type"]
    description: Annotated[str, "description"]


class Intervention(NamedTuple):
    type: Annotated[str, "type"]
    name: Annotated[str, "name"]
    description: Annotated[str, "description"]
    arm_group_labels: Annotated[tuple[str, ...], "armGroupLabels"]


class ResultGroup(NamedTuple):
    id: Annotated[str, "id"]
    title: Annotated[str, "title"]
    is_control: Annotated[Optional[bool], "isControl"]


class Measurement(NamedTuple):
    group_id: Annotated[str, "groupId"]
    value: Annotated[Scalar, "value"]


class Analysis(NamedTuple):
    p_value: Annotated[Scalar, "pValue"]


class OutcomeMeasure(NamedTuple):
    type: Annotated[str, "type"]
    title: Annotated[str, "title"]
    reporting_status: Annotated[str, "reportingStatus"]
    unit: Annotated[str, "unitOfMeasure"]
    groups: Annotated[tuple[ResultGroup, ...], "groups"]
    measurements: Annotated[tuple[Measurement, ...], "measurements"]
    analyses: Annotated[tuple[Analysis, ...], "analyses"]


class EventGroup(NamedTuple):
    id: Annotated[str, "id"]
    title: Annotated[str, "title"]
    description: Annotated[str, "description"]


class EventStat(NamedTuple):
    group_id: Annotated[str, "groupId"]
    num_affected: Annotated[Scalar, "numAffected"]
    num_at_risk: Annotated[Scalar, "numAtRisk"]


class AdverseEvent(NamedTuple):
    term: Annotated[str, "term"]
    organ_system: Annotated[str, "organSystem"]
    stats: Annotated[tuple[EventStat, ...], "stats"]


class CtgovDoc(NamedTuple):
    nct_id: str  # see `ctgov_study_id`
    brief_title: Annotated[str, "protocolSection.identificationModule.briefTitle"]
    official_title: Annotated[str, "protocolSection.identificationModule.officialTitle"]
    brief_summary: Annotated[str, "protocolSection.descriptionModule.briefSummary"]
    overall_status: Annotated[str, "protocolSection.statusModule.overallStatus"]
    why_stopped: Annotated[str, "protocolSection.statusModule.whyStopped"]
    start_date: Annotated[str, "protocolSection.statusModule.startDateStruct.date"]
    study_type: Annotated[str, "protocolSection.designModule.studyType"]
    phases: Annotated[tuple[str, ...], "protocolSection.designModule.phases"]
    allocation: Annotated[str, "protocolSection.designModule.designInfo.allocation"]
    intervention_model: Annotated[str, "protocolSection.designModule.designInfo.interventionModel"]
    primary_purpose: Annotated[str, "protocolSection.designModule.designInfo.primaryPurpose"]
    # the older layout, read when `masking` is empty
    design_masking: Annotated[str, "protocolSection.designModule.designInfo.masking"]
    masking: Annotated[str, "protocolSection.designModule.designInfo.maskingInfo.masking"]
    enrollment_count: Annotated[Optional[int], "protocolSection.designModule.enrollmentInfo.count"]
    enrollment_type: Annotated[str, "protocolSection.designModule.enrollmentInfo.type"]
    eligibility_criteria: Annotated[str, "protocolSection.eligibilityModule.eligibilityCriteria"]
    sex: Annotated[str, "protocolSection.eligibilityModule.sex"]
    # kept as written: the study record tells null from ""
    minimum_age: Annotated[Optional[str], "protocolSection.eligibilityModule.minimumAge"]
    maximum_age: Annotated[Optional[str], "protocolSection.eligibilityModule.maximumAge"]
    healthy_volunteers: Annotated[Union[bool, str, None], "protocolSection.eligibilityModule.healthyVolunteers"]
    sponsor: Annotated[str, "protocolSection.sponsorCollaboratorsModule.leadSponsor.name"]
    arm_groups: Annotated[tuple[ArmGroup, ...], "protocolSection.armsInterventionsModule.armGroups"]
    interventions: Annotated[tuple[Intervention, ...], "protocolSection.armsInterventionsModule.interventions"]
    primary_outcomes: Annotated[tuple[Outcome, ...], "protocolSection.outcomesModule.primaryOutcomes"]
    secondary_outcomes: Annotated[tuple[Outcome, ...], "protocolSection.outcomesModule.secondaryOutcomes"]
    population_description: Annotated[str, "resultsSection.baselineCharacteristicsModule.populationDescription"]
    total_count: Annotated[Optional[int], "resultsSection.baselineCharacteristicsModule.totalCount"]
    outcome_measures: Annotated[tuple[OutcomeMeasure, ...], "resultsSection.outcomeMeasuresModule.outcomeMeasures"]
    event_groups: Annotated[tuple[EventGroup, ...], "resultsSection.adverseEventsModule.eventGroups"]
    serious_events: Annotated[tuple[AdverseEvent, ...], "resultsSection.adverseEventsModule.seriousEvents"]
    other_events: Annotated[tuple[AdverseEvent, ...], "resultsSection.adverseEventsModule.otherEvents"]


# The entries of the PubMed, review and protocol files; the first field is the id (see `parse_entry`).


class Article(NamedTuple):
    pmid: str
    title: Annotated[str, "title"]
    abstract: Annotated[str, "abstract"]
    year: Annotated[Optional[int], "year"]
    accession_numbers: Annotated[tuple[str, ...], "accession_numbers"]


class Review(NamedTuple):
    pmid: str
    background: Annotated[str, "background"]
    objectives: Annotated[str, "objectives"]
    criteria: Annotated[str, "criteria"]
    review_text: Annotated[str, "review_text"]


class ProtocolPair(NamedTuple):
    nct_id: str
    title: Annotated[str, "title"]
    section_text: Annotated[str, "section_text"]
    assumptions_summary: Annotated[str, "assumptions_summary"]
    registry_enrollment: Annotated[int, "registry_enrollment"]


# Service responses and model answers, read by `parse_answer`.


class MeshConcept(NamedTuple):
    mesh_id: Annotated[str, "mesh_id", Given]
    mesh_term: Annotated[str, "mesh_term", Given]


class Annotation(NamedTuple):
    mesh_id: Annotated[str, "mesh_id", Given]
    mesh_term: Annotated[str, "mesh_term", Given]
    semantic_type: Annotated[str, "semantic_type"]
    ancestors: Annotated[tuple[MeshConcept, ...], "ancestors"]


class AnnotatorAnswer(NamedTuple):
    annotations: Annotated[tuple[Annotation, ...], "annotations", Given]


class RxnormAnswer(NamedTuple):
    rxcui: Annotated[Union[str, int, None], "rxcui"]  # op "rxcui"
    suggestions: Annotated[tuple[str, ...], "suggestions"]  # op "spelling"


class LlmAnswer(NamedTuple):
    text: Annotated[str, "text", Given]


class SearchAnswer(NamedTuple):
    ids: Annotated[tuple[str, ...], "ids", Given]


class PicoOutcome(NamedTuple):
    intervention: Annotated[str, "intervention"]
    is_control: Annotated[Optional[bool], "is_control"]
    outcome: Annotated[str, "outcome"]


class PicoAnswer(NamedTuple):
    population: Annotated[str, "population"]
    population_n: Annotated[Optional[int], "population_n"]
    outcomes: Annotated[tuple[PicoOutcome, ...], "outcomes", Given]


class EndpointEntry(NamedTuple):  # the endpoint answer is an array of these
    outcome: Annotated[str, "outcome", Given]
    domain: Annotated[str, "domain", Given]
    subdomain: Annotated[Optional[str], "subdomain"]


class EvidenceMcq(NamedTuple):
    question: Annotated[str, "question", Given]
    options: Annotated[tuple[str, ...], "options", Given]
    answer: Annotated[str, "answer", Given]


def _text_or_null(path: str, value) -> str:
    if value is not None and type(value) is not str:
        raise ValueError(f"{path} is {value!r}, expected str or null")
    return (value or "").strip()


def ctgov_study_id(doc: dict) -> str:
    """A document's NCT id: its top-level ``nctId``, else ``identificationModule.nctId``.

    Both are stripped. Either not text or null, both given but different,
    or neither given is a ValueError.
    """
    nct_id = _text_or_null("nctId", doc.get("nctId"))
    ident = doc.get("protocolSection")
    ident = ident.get("identificationModule") if type(ident) is dict else None
    inner = _text_or_null("identificationModule.nctId", ident.get("nctId")) if type(ident) is dict else ""
    if nct_id and inner and nct_id != inner:
        raise ValueError(f"nctId {nct_id!r} and identificationModule.nctId {inner!r} differ")
    if not (nct_id or inner):
        raise ValueError("no nctId")
    return nct_id or inner


def _key_path(at: str, key: str) -> str:
    # errors name a key path below its module
    return f"{at}.{key}" if at and not at.endswith(("Section", "Module")) else key


@cache
def _reader(cls: type):
    """A function ``read(node, where, label, *leading)`` that reads ``cls`` from a JSON object.

    Its code is written out from the annotated fields, one check per field,
    as dataclasses write out ``__init__``, so reading runs no loop over field
    specs; ``leading`` holds the leading fields without a key path, and
    ``label`` names the document or entry in a refusal. For `Measurement` it is::

        def read(node, where, label, *leading):
            v0 = node.get('groupId')
            if type(v0) not in k0: v0 = n0 if v0 is None else refuse(label, where, 'groupId', v0, e0)
            v1 = node.get('value')
            if type(v1) not in k1: v1 = n1 if v1 is None else refuse(label, where, 'value', v1, e1)
            return new(cls, (*leading, v0, v1))
    """
    env = {"new": tuple.__new__, "cls": cls, "refuse": _refuse, "array": _array}
    code, values, objects = ["def read(node, where, label, *leading):"], [], {"": "node"}
    hints = get_type_hints(cls, include_extras=True).values()
    for hint, path, *marks in (get_args(hint) for hint in hints if get_origin(hint) is Annotated):
        *steps, key = path.split(".")
        given = Given in marks
        at = ""
        for depth, step in enumerate(steps):  # each object on the way, fetched once
            at, prefix = _key_path(at, step), ".".join(steps[: depth + 1])
            if prefix not in objects:
                objects[prefix] = obj = f"o{len(objects)}"
                code.append(f"    {obj} = {objects[prefix.rpartition('.')[0]]}.get({step!r})")
                code.append(f"    if type({obj}) is not dict: {obj} = {{}} if {obj} is None else "
                            f"refuse(label, where, {at!r}, {obj}, 'dict or null')")
        n, parent, at = len(values), objects[".".join(steps)], _key_path(at, key)
        kinds = tuple(kind for kind in get_args(hint) or (hint,) if kind is not type(None))
        if get_origin(hint) is tuple:  # entries are text, or objects read as a view class
            env[f"r{n}"] = None if kinds[0] is str else _reader(kinds[0])
            entry = "str" if kinds[0] is str else "dict"
            code.append(f"    v{n} = array({parent}.get({key!r}), {entry}, r{n}, where, {at!r}, label, {given})")
        else:
            optional = type(None) in get_args(hint)
            nullable = optional or kinds == (str,) and not given  # null keeps None, or text reads as ""
            env[f"k{n}"], env[f"n{n}"] = kinds, None if optional else ""
            env[f"e{n}"] = " or ".join(kind.__name__ for kind in kinds) + (" or null" if nullable else "")
            default = f"n{n} if v{n} is None else " if nullable else ""  # a field that must be given refuses null
            code.append(f"    v{n} = {parent}.get({key!r})")
            code.append(f"    if type(v{n}) not in k{n}: v{n} = {default}refuse(label, where, {at!r}, v{n}, e{n})")
            # exact JSON types: a boolean is not an integer
        values.append(f"v{n}")
    code.append(f"    return new(cls, (*leading, {', '.join(values)}))")
    exec("\n".join(code), env)
    return env["read"]


def _label(where: tuple | None, at: str) -> str:
    """The key path ``at`` below the array entry ``where``: (its own entry, its array's key path, its index)."""
    return at if where is None else f"{_label(*where[:2])}[{where[2]}].{at}"


def _refuse(label: str, where: tuple | None, at: str, value, expected: str):
    path = _label(where, at)
    if value is None and path:
        raise ValueError(f"{label} has no {path!r}")
    raise ValueError(f"{label}{': ' + path if path else ''} is {value!r}, expected {expected}")


def _array(found, kind: type, reader, where: tuple | None, at: str, label: str, given: bool) -> tuple:
    """The entries of an array: text, or objects that ``reader`` reads; see `Given` for ``given``."""
    null = "" if given else " or null"
    if type(found) is not list:
        return () if found is None and not given else _refuse(label, where, at, found, "list" + null)
    entries = []
    for i, entry in enumerate(found):
        if type(entry) is not kind:  # a null entry reads as an empty one
            entry = kind() if entry is None and not given else _refuse(label, where, f"{at}[{i}]", entry, kind.__name__ + null)
        entries.append(entry if reader is None else reader(entry, (where, at, i), label))
    return tuple(entries)


def parse_ctgov_doc(doc: dict) -> CtgovDoc:
    """Check one CT.gov document and keep what its readers use (see the module docstring)."""
    nct_id = ctgov_study_id(doc)
    return _reader(CtgovDoc)(doc, None, f"CT.gov study {nct_id}", nct_id)


def parse_entry(cls: type, entry: dict, label: str):
    """Check one entry of a PubMed, review or protocol file as ``cls`` and keep what its readers use.

    The id, the view's first field, is text or an integer, stripped; one
    absent, null or blank is refused as ``<label> has no '<key>'``.
    ``label`` names the entry in every refusal, such as ``<file>: entry <n>``.
    """
    key = cls._fields[0]
    ident = entry.get(key)
    if type(ident) in (str, int):
        ident = str(ident).strip() or None
    if type(ident) is not str:
        _refuse(label, None, key, ident, "str or int")
    return _reader(cls)(entry, None, label, ident)


def parse_answer(cls, value, label: str):
    """Check a service response or a decoded model answer as ``cls`` and keep what its readers use.

    ``cls`` is an answer view read from a JSON object, or ``tuple[view, ...]``
    for an answer that is a JSON array of objects, each of which must be
    given. A value of the wrong shape is a `MalformedResponse` naming
    ``label`` and the key path, such as ``<label>: annotations[0].mesh_id
    is [...], expected str`` or ``<label> has no 'outcomes'``.
    """
    try:
        if get_origin(cls) is tuple:
            return _array(value, dict, _reader(get_args(cls)[0]), None, "", label, True)
        if type(value) is not dict:
            _refuse(label, None, "", value, "dict")
        return _reader(cls)(value, None, label)
    except ValueError as exc:
        raise MalformedResponse(str(exc)) from None
