from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trialforge.errors import SchemaVersionMismatch
from trialforge.ingest import parse_ctgov_study
from trialforge.schema import (
    CanonicalStudy,
    GenderLabel,
    PhaseLabel,
    Source,
    StudyStatus,
    StudyType,
    decode_record,
    decode_study,
    encode_record,
    encode_study,
    needs_flag,
    read_studies_jsonl,
    source_rank,
    validate_study,
    write_studies_jsonl,
)
from trialforge.views import parse_ctgov_doc


def make_study(**overrides) -> CanonicalStudy:
    base = dict(
        study_id="NCT01000001",
        source=Source.CTGOV,
        title="A study of something",
        brief_summary="Summary text.",
        study_type=StudyType.INTERVENTIONAL,
        sponsor="Acme Health",
        start_year=2015,
        phases={PhaseLabel.PHASE2},
        gender=GenderLabel.BOTH,
        min_age="18 Years",
        max_age="65 Years",
        healthy_volunteers=False,
        status=StudyStatus.COMPLETED,
        raw_status="COMPLETED",
        target_accrual=60,
        actual_accrual=50,
        results_text=None,
        flagged=False,
        primary_outcomes=["HbA1c change (time frame: 12 weeks)"],
        secondary_outcomes=[],
    )
    base.update(overrides)
    return CanonicalStudy(**base)


def random_study(rng: random.Random) -> CanonicalStudy:
    n_phases = rng.randint(0, 3)
    return make_study(
        study_id=f"NCT{rng.randint(0, 99999999):08d}",
        source=rng.choice(list(Source)),
        title=rng.choice(["Trial of X", "Weird\ttitle with\nnewlines", "Étude clinique"]),
        phases=set(rng.sample(list(PhaseLabel), n_phases)),
        gender=rng.choice([None, *GenderLabel]),
        status=rng.choice(list(StudyStatus)),
        start_year=rng.choice([None, rng.randint(1980, 2026)]),
        actual_accrual=rng.choice([None, rng.randint(1, 5000)]),
        target_accrual=rng.choice([None, rng.randint(1, 5000)]),
        results_text=rng.choice([None, "Results: improved."]),
        primary_outcomes=[f"outcome {i}" for i in range(rng.randint(0, 3))],
    )


def test_roundtrip_single():
    s = make_study()
    assert decode_study(encode_study(s)) == s


def test_roundtrip_random_records():
    rng = random.Random(4242)
    for _ in range(300):
        s = random_study(rng)
        assert decode_study(encode_study(s)) == s


def test_encode_is_deterministic():
    s = make_study(phases={PhaseLabel.PHASE2, PhaseLabel.PHASE1})
    assert encode_study(s) == encode_study(s)
    d = json.loads(encode_study(s))
    assert d["phases"] == ["PHASE1", "PHASE2"]


def test_validate_clean_record():
    assert validate_study(make_study()) == []


def test_validate_empty_title_requires_flag():
    s = make_study(title="", flagged=False)
    report = validate_study(s)
    assert "title: empty" in report
    assert any("flagged" in v for v in report)
    # once flagged, only the emptiness itself remains
    assert validate_study(make_study(title="", flagged=True)) == ["title: empty"]


def test_validate_is_idempotent_and_pure():
    s = make_study(title="", actual_accrual=-3)
    first = validate_study(s)
    second = validate_study(s)
    assert first == second
    assert s.actual_accrual == -3  # untouched


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("source", "CTGOVX", "source: 'CTGOVX' is not a valid Source"),
        ("phases", ["PHASE9"], "phases: 'PHASE9' is not a valid PhaseLabel"),
        ("study_type", "RANDOM", "study_type: 'RANDOM' is not a valid StudyType"),
        ("gender", "ANY", "gender: 'ANY' is not a valid GenderLabel"),
        ("status", "paused", "status: 'paused' is not a valid StudyStatus"),
    ],
    ids=["source", "phases", "study_type", "gender", "status"],
)
def test_validate_raw_dict_unknown_enum_value(key, value, message):
    d = encode_record(make_study())
    d[key] = value
    with pytest.raises(ValueError) as excinfo:
        decode_study(json.dumps(d))
    assert str(excinfo.value) == f"invalid CanonicalStudy: {message}"


def test_validate_raw_dict_accrual_sign():
    d = encode_record(make_study())
    d["actual_accrual"] = 0
    with pytest.raises(ValueError, match="actual_accrual: must be positive, got 0"):
        decode_study(json.dumps(d))


def test_needs_flag_rule():
    assert needs_flag("", "title")
    assert needs_flag("id", "  ")
    assert not needs_flag("id", "title")


def test_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        decode_record(CanonicalStudy, {"study_id": "x", "source": "NOT_A_SOURCE"})


def test_jsonl_header_and_roundtrip(tmp_path):
    rng = random.Random(7)
    studies = [random_study(rng) for _ in range(20)]
    path = tmp_path / "studies.jsonl"
    write_studies_jsonl(studies, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header == {"schema": "trialforge.studies", "version": "1"}
    assert read_studies_jsonl(path) == studies


def test_decode_keeps_a_flagged_record_with_an_empty_critical_field():
    for overrides in ({"title": ""}, {"study_id": " "}, {"study_id": "", "title": ""}):
        line = encode_study(make_study(flagged=True, **overrides))
        assert decode_study(line) == make_study(flagged=True, **overrides)
        with pytest.raises(ValueError, match="flagged: must be true"):
            decode_study(encode_study(make_study(flagged=False, **overrides)))


@pytest.mark.parametrize("key", ["study_id", "title"])
def test_decode_rejects_a_critical_field_that_is_not_text(key):
    d = encode_record(make_study(flagged=True))
    d[key] = 5
    with pytest.raises(ValueError, match=f"{key}: not a string"):
        decode_study(json.dumps(d))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@st.composite
def studies(draw) -> CanonicalStudy:
    study_id = draw(st.sampled_from(["", " ", "NCT01000001", "ACTRN\t1;2"]))
    title = draw(st.sampled_from(["", "\u00c9tude", "Trial of X"]) | st.text())
    return make_study(
        study_id=study_id,
        source=draw(st.sampled_from(Source)),
        title=title,
        brief_summary=draw(st.text()),
        study_type=draw(st.none() | st.sampled_from(StudyType)),
        phases=draw(st.sets(st.sampled_from(PhaseLabel))),
        gender=draw(st.none() | st.sampled_from(GenderLabel)),
        status=draw(st.sampled_from(StudyStatus)),
        start_year=draw(st.none() | st.integers()),
        target_accrual=draw(st.none() | st.integers()),
        actual_accrual=draw(st.none() | st.integers(min_value=1)),
        flagged=needs_flag(study_id, title) or draw(st.booleans()),
        primary_outcomes=draw(st.lists(st.text(), max_size=3)),
    )


# Every eligibility value the CT.gov parser takes; `test_ctgov_refuses_other_leaf_values`
# checks that it refuses the rest of JSON_VALUES.
CTGOV_ELIGIBILITY = {
    "minimumAge": st.none() | st.text(),
    "maximumAge": st.none() | st.text(),
    "healthyVolunteers": st.none() | st.booleans() | st.text(),
}


@st.composite
def ctgov_studies(draw) -> CanonicalStudy:
    doc = {
        "nctId": "NCT02823470",
        "protocolSection": {
            "identificationModule": {"briefTitle": draw(st.text(max_size=8))},
            "eligibilityModule": {key: draw(values) for key, values in CTGOV_ELIGIBILITY.items()},
        },
    }
    return parse_ctgov_study(parse_ctgov_doc(doc))


_P, _R, _NUMBER = "protocolSection.", "resultsSection.", (str, int, float)

# Every leaf path the CT.gov view reads, with the JSON types it takes besides null.
CTGOV_LEAVES = {
    **dict.fromkeys([
        _P + "identificationModule.briefTitle",
        _P + "identificationModule.officialTitle",
        _P + "descriptionModule.briefSummary",
        _P + "statusModule.overallStatus",
        _P + "statusModule.whyStopped",
        _P + "statusModule.startDateStruct.date",
        _P + "designModule.studyType",
        _P + "designModule.phases[0]",
        *(_P + f"designModule.designInfo.{key}" for key in (
            "allocation", "interventionModel", "maskingInfo.masking", "masking", "primaryPurpose")),
        _P + "designModule.enrollmentInfo.type",
        *(_P + f"eligibilityModule.{key}" for key in ("eligibilityCriteria", "sex", "minimumAge", "maximumAge")),
        _P + "sponsorCollaboratorsModule.leadSponsor.name",
        *(_P + f"armsInterventionsModule.armGroups[0].{key}" for key in ("label", "type", "description")),
        *(_P + f"armsInterventionsModule.interventions[0].{key}" for key in (
            "type", "name", "description", "armGroupLabels[0]")),
        *(_P + f"outcomesModule.{outcomes}[0].{key}"
          for outcomes in ("primaryOutcomes", "secondaryOutcomes") for key in ("measure", "timeFrame")),
        _R + "baselineCharacteristicsModule.populationDescription",
        *(_R + f"outcomeMeasuresModule.outcomeMeasures[0].{key}" for key in (
            "type", "title", "reportingStatus", "unitOfMeasure", "groups[0].id", "groups[0].title",
            "measurements[0].groupId")),
        *(_R + f"adverseEventsModule.eventGroups[0].{key}" for key in ("id", "title", "description")),
        *(_R + f"adverseEventsModule.{events}[0].{key}"
          for events in ("seriousEvents", "otherEvents") for key in ("term", "organSystem", "stats[0].groupId")),
    ], (str,)),
    _P + "designModule.enrollmentInfo.count": (int,),
    _P + "eligibilityModule.healthyVolunteers": (bool, str),
    _R + "baselineCharacteristicsModule.totalCount": (int,),
    _R + "outcomeMeasuresModule.outcomeMeasures[0].groups[0].isControl": (bool,),
    _R + "outcomeMeasuresModule.outcomeMeasures[0].measurements[0].value": _NUMBER,
    _R + "outcomeMeasuresModule.outcomeMeasures[0].analyses[0].pValue": _NUMBER,
    **{
        _R + f"adverseEventsModule.{events}[0].stats[0].{key}": _NUMBER
        for events in ("seriousEvents", "otherEvents") for key in ("numAffected", "numAtRisk")
    },
}


def _view_leaves(node):
    # a view record and an array of them are both tuples
    if isinstance(node, tuple):
        for entry in node:
            yield from _view_leaves(entry)
    else:
        yield node


@given(st.sampled_from(sorted(CTGOV_LEAVES)), JSON_VALUES)
def test_ctgov_refuses_other_leaf_values(path, value):
    node = value
    for key in reversed(re.findall(r"\w+", path)):  # a digit is an array index
        node = [node] if key.isdigit() else {key: node}
    doc = {"nctId": "NCT02823470", **node}
    label = path.split("Module.")[-1]
    if value is None or type(value) in CTGOV_LEAVES[path]:
        view = parse_ctgov_doc(doc)
        if value is not None:
            assert any(type(leaf) is type(value) and leaf == value for leaf in _view_leaves(view))
        field = {"minimumAge": "min_age", "maximumAge": "max_age", "healthyVolunteers": "healthy_volunteers"}.get(label)
        if field:
            assert getattr(parse_ctgov_study(view), field) is value
    else:
        with pytest.raises(ValueError, match=f"^CT.gov study NCT02823470: {re.escape(label)} is "):
            parse_ctgov_doc(doc)


@given(st.lists(studies() | ctgov_studies(), max_size=4))
def test_read_after_write_gives_back_the_studies(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("roundtrip") / "studies.jsonl"
    write_studies_jsonl(records, path)
    written = path.read_bytes()
    assert read_studies_jsonl(path) == records
    write_studies_jsonl(read_studies_jsonl(path), path)
    assert path.read_bytes() == written


def test_jsonl_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": "trialforge.studies", "version": "99"}\n')
    with pytest.raises(SchemaVersionMismatch):
        read_studies_jsonl(path)


def test_source_rank_ordering():
    assert source_rank(Source.CTGOV) < source_rank(Source.ANZCTR)
    assert source_rank(Source.ANZCTR) < source_rank(Source.PUBMED)
    assert source_rank(Source.ISRCTN) == source_rank(Source.TCTR)
