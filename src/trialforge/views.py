"""The checked views of the corpus JSON inputs: every field some reader uses, parsed once.

A CT.gov document reads as a `CtgovDoc`, and each entry of
``pubmed/articles.json``, ``reviews/index.json`` and ``protocols/pairs.json``
as an `Article`, a `Review` or a `ProtocolPair`. Each view field is annotated
with its key path below the document or its array entry, and its type gives
the JSON types it takes. `parse_ctgov_doc` and `parse_entry` check every
value by exact JSON type. Null or absent text reads as "", an array as no
entries and an object on the way as empty; an ``Optional`` field keeps None,
and any other field must be given. Text is kept as written. Any other value
is a ValueError naming the document or entry and the key path below its
module (the README's "CT.gov input" and "PubMed, review and protocol input"
sections). The classes are named tuples: as immutable as a frozen dataclass,
but built in one call instead of one ``object.__setattr__`` per field.
"""

from functools import cache
from typing import Annotated, NamedTuple, Optional, Union, get_args, get_origin, get_type_hints

#: A value CT.gov writes as a number or as text, kept as written.
Scalar = Union[str, int, float, None]


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
    """A function ``read(node, where, label, *given)`` that reads ``cls`` from a JSON object.

    Its code is written out from the annotated fields, one check per field,
    as dataclasses write out ``__init__``, so reading runs no loop over field
    specs; ``given`` holds the leading fields without a key path, and
    ``label`` names the document or entry in a refusal. For `Measurement` it is::

        def read(node, where, label, *given):
            v0 = node.get('groupId')
            if type(v0) not in k0: v0 = n0 if v0 is None else refuse(label, where, 'groupId', v0, e0)
            v1 = node.get('value')
            if type(v1) not in k1: v1 = n1 if v1 is None else refuse(label, where, 'value', v1, e1)
            return new(cls, (*given, v0, v1))
    """
    env = {"new": tuple.__new__, "cls": cls, "refuse": _refuse, "array": _array}
    code, values, objects = ["def read(node, where, label, *given):"], [], {"": "node"}
    hints = get_type_hints(cls, include_extras=True).values()
    for hint, path in (get_args(hint) for hint in hints if get_origin(hint) is Annotated):
        *steps, key = path.split(".")
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
            code.append(f"    v{n} = array({parent}.get({key!r}), {entry}, r{n}, where, {at!r}, label)")
        else:
            optional = type(None) in get_args(hint)
            nullable = optional or kinds == (str,)  # null keeps None, or text reads as ""
            env[f"k{n}"], env[f"n{n}"] = kinds, None if optional else ""
            env[f"e{n}"] = " or ".join(kind.__name__ for kind in kinds) + (" or null" if nullable else "")
            default = f"n{n} if v{n} is None else " if nullable else ""  # a field that must be given refuses null
            code.append(f"    v{n} = {parent}.get({key!r})")
            code.append(f"    if type(v{n}) not in k{n}: v{n} = {default}refuse(label, where, {at!r}, v{n}, e{n})")
            # exact JSON types: a boolean is not an integer
        values.append(f"v{n}")
    code.append(f"    return new(cls, (*given, {', '.join(values)}))")
    exec("\n".join(code), env)
    return env["read"]


def _label(where: tuple | None, at: str) -> str:
    """The key path ``at`` below the array entry ``where``: (its own entry, its array's key path, its index)."""
    return at if where is None else f"{_label(*where[:2])}[{where[2]}].{at}"


def _refuse(label: str, where: tuple | None, at: str, value, expected: str):
    if value is None:
        raise ValueError(f"{label} has no {_label(where, at)!r}")
    raise ValueError(f"{label}: {_label(where, at)} is {value!r}, expected {expected}")


def _array(found, kind: type, reader, where: tuple | None, at: str, label: str) -> tuple:
    """The entries of an array: text, or objects that ``reader`` reads."""
    if type(found) is not list:
        return () if found is None else _refuse(label, where, at, found, "list or null")
    entries = []
    for i, entry in enumerate(found):
        if type(entry) is not kind:  # a null entry reads as an empty one
            entry = kind() if entry is None else _refuse(label, where, f"{at}[{i}]", entry, f"{kind.__name__} or null")
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
