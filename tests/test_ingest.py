from __future__ import annotations

import json
import random
import re

import pytest
from _corpus import view

from trialforge.errors import UnknownSource
from trialforge.ingest import (
    detect_phase,
    detect_sample_size,
    extract_pubmed_study,
    extract_results_text,
    load_source_mapping,
    parse_ctgov_study,
    parse_registry_record,
    split_abstract_sections,
)
from trialforge.schema import (
    GenderLabel,
    PhaseLabel,
    Source,
    StudyStatus,
    StudyType,
    encode_study,
)
from trialforge.views import Article, parse_ctgov_doc

P = PhaseLabel
ANZCTR_MAPPING = load_source_mapping(Source.ANZCTR)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("A Phase I study of X", {P.PHASE1}),
        ("phase ii trial", {P.PHASE2}),
        ("Phase III, randomized", {P.PHASE3}),
        ("phase iv surveillance", {P.PHASE4}),
        ("Phase 1 dose escalation", {P.PHASE1}),
        ("Phase 3b extension", {P.PHASE3}),
        ("a phase IIa study", {P.PHASE2}),
        ("Phase I/II trial", {P.PHASE1, P.PHASE2}),
        ("Phase 1/Phase 2 study", {P.PHASE1, P.PHASE2}),
        ("Phase II/III", {P.PHASE2, P.PHASE3}),
        ("Early Phase 1 trial", {P.EARLY_PHASE1}),
        ("EARLY PHASE 1", {P.EARLY_PHASE1}),
        ("a multiphase intervention", set()),
        ("interphase imaging", set()),
        ("Phase 9 of the project", set()),
        ("Phase V study", set()),
        ("Phase 12 rollout", set()),
        ("no mention at all", set()),
        ("Phase 2 and also a Phase 4 cohort", {P.PHASE2, P.PHASE4}),
    ],
)
def test_detect_phase(text, expected):
    assert detect_phase(text) == expected


@pytest.mark.parametrize(
    "text,expected",
    [
        ("We enrolled 45 patients and 30 controls.", 45),
        ("A total of 1,204 patients were randomized.", 1204),
        ("included 120 participants in the study", 120),
        ("120 healthy participants", None),  # number must be adjacent
        ("One patient withdrew.", None),
        ("participants were 30 on average", None),
        ("", None),
        ("Twelve participants enrolled", None),
    ],
)
def test_detect_sample_size(text, expected):
    assert detect_sample_size(text) == expected


def test_extract_results_text_joins_sections():
    abstract = "Background: B. Methods: X. Results: improved. Conclusions: works."
    assert extract_results_text(abstract) == "improved. works."


def test_extract_results_text_uppercase_labels():
    abstract = "OBJECTIVE: O. RESULTS: A was better. CONCLUSION: use A."
    assert extract_results_text(abstract) == "A was better. use A."


def test_extract_results_text_absent():
    assert extract_results_text("A plain unstructured abstract about trials.") is None


def test_split_abstract_sections_order_and_lead():
    parts = split_abstract_sections("Lead in. Background: one. Results: two.")
    assert parts == [("", "Lead in."), ("background", "one."), ("results", "two.")]


# --- registry parsing ----------------------------------------------------------

ANZCTR_ROW = {
    "Registration number": "ACTRN12615000100123",
    "Public title": "Exercise for knee pain",
    "Brief summary": "Tests a 12 week exercise program.",
    "Primary sponsor": "University of Somewhere",
    "Date registered": "4/02/2015",
    "Phase": "Phase 1 / Phase 2",
    "Gender": "Both males and females",
    "Minimum age": "18 Years",
    "Maximum age": "No limit",
    "Healthy volunteers": "No",
    "Recruitment status": "Completed",
    "Study type": "Interventional",
    "Target sample size": "120",
    "Actual sample size": "118",
    "Results – plain English summary": "Pain scores improved.",
    "Citation/DOI/link/details": "doi:10.1000/xyz",
    "Primary outcome": "Knee pain at 12 weeks\nFunction score",
    "Secondary outcome": "Quality of life",
}


def test_parse_anzctr_row_full():
    s = parse_registry_record(ANZCTR_ROW, ANZCTR_MAPPING)
    assert s.study_id == "ACTRN12615000100123"
    assert s.source is Source.ANZCTR
    assert s.title == "Exercise for knee pain"
    assert s.phases == {P.PHASE1, P.PHASE2}
    assert s.gender is GenderLabel.BOTH
    assert s.min_age == "18 Years"
    assert s.max_age == "No limit"
    assert s.healthy_volunteers is False
    assert s.status is StudyStatus.COMPLETED
    assert s.raw_status == "Completed"
    assert s.study_type is StudyType.INTERVENTIONAL
    assert s.start_year == 2015
    assert s.target_accrual == 120
    assert s.actual_accrual == 118
    assert s.results_text == "Pain scores improved.\ndoi:10.1000/xyz"
    assert s.primary_outcomes == ["Knee pain at 12 weeks", "Function score"]
    assert s.secondary_outcomes == ["Quality of life"]
    assert s.flagged is False


def test_parse_anzctr_not_applicable_phase():
    row = dict(ANZCTR_ROW, Phase="Not applicable")
    assert parse_registry_record(row, ANZCTR_MAPPING).phases == {P.NA}


def test_parse_registry_missing_id_gets_flagged():
    row = dict(ANZCTR_ROW)
    row["Registration number"] = ""
    s = parse_registry_record(row, ANZCTR_MAPPING)
    assert s.flagged is True


def test_parse_registry_null_cells_read_as_empty_text_and_numbers_as_their_text():
    # a null used to read as the text 'None': an unflagged study titled 'None'
    row = dict(ANZCTR_ROW, **{"Public title": None, "Brief summary": None, "Target sample size": 120})
    s = parse_registry_record(row, ANZCTR_MAPPING)
    assert (s.title, s.brief_summary, s.flagged, s.target_accrual) == ("", "", True, 120)
    with pytest.raises(ValueError, match=r"^Public title is \{'en': 'x'\}, expected str, int, float or null$"):
        parse_registry_record(dict(ANZCTR_ROW, **{"Public title": {"en": "x"}}), ANZCTR_MAPPING)


def test_parse_registry_unmapped_status_is_other():
    row = dict(ANZCTR_ROW, **{"Recruitment status": "Some new status"})
    s = parse_registry_record(row, ANZCTR_MAPPING)
    assert s.status is StudyStatus.OTHER
    assert s.raw_status == "Some new status"


def test_unknown_source_rejected():
    with pytest.raises(UnknownSource):
        load_source_mapping("NOPE")
    with pytest.raises(UnknownSource):
        load_source_mapping(Source.CTGOV)


def test_every_registry_has_a_mapping():
    for src in Source:
        if src in (Source.CTGOV, Source.PUBMED):
            continue
        mapping = load_source_mapping(src)
        assert mapping["source"] == src.value
        assert "study_id" in mapping["fields"]


def _drop_fields(mapping):
    return {key: value for key, value in mapping.items() if key != "fields"}


@pytest.mark.parametrize("edit, message", [
    (lambda mapping: [mapping], "expected a JSON object"),
    (_drop_fields, "'fields' must be an object of column names or nulls"),
    (lambda mapping: dict(mapping, fields=dict(mapping["fields"], title=["Title"])),
     "'fields' must be an object of column names or nulls"),
    (lambda mapping: dict(mapping, source="ISRCTN"), "'source' is 'ISRCTN', expected 'DRKS'"),
], ids=["not-an-object", "no-fields", "non-text-column", "foreign-source"])
def test_ill_shaped_mapping_is_refused_naming_file_and_key(tmp_path, edit, message):
    path = tmp_path / "drks.json"
    path.write_text(json.dumps(edit(load_source_mapping(Source.DRKS))), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_source_mapping("DRKS", tmp_path)


def test_directory_at_mapping_path_is_no_mapping(tmp_path):
    (tmp_path / "drks.json").mkdir()
    with pytest.raises(UnknownSource, match="no field mapping for source 'DRKS'"):
        load_source_mapping(Source.DRKS, tmp_path)


# --- pubmed parsing -------------------------------------------------------------

def test_extract_pubmed_study_fields():
    record = view(Article, {
        "pmid": "20696552",
        "title": "Add-on lamotrigine for drug-resistant partial epilepsy: a Phase III trial",
        "abstract": (
            "Background: seizures persist. Methods: We enrolled 98 patients "
            "in a phase 3b design. Results: seizure frequency fell. "
            "Conclusions: lamotrigine helps."
        ),
        "year": 2010,
    })
    s = extract_pubmed_study(record)
    assert s.study_id == "20696552"
    assert s.source is Source.PUBMED
    assert s.study_type is StudyType.PUBLICATION
    assert s.phases == {P.PHASE3}  # union of title and abstract mentions
    assert s.actual_accrual == 98
    assert s.results_text == "seizure frequency fell. lamotrigine helps."
    assert s.start_year == 2010
    assert s.flagged is False


def test_extract_pubmed_union_of_title_and_abstract_phases():
    s = extract_pubmed_study(
        view(Article, {"pmid": "1", "title": "A Phase I study", "abstract": "Later became phase II."})
    )
    assert s.phases == {P.PHASE1, P.PHASE2}


def test_extract_pubmed_never_throws_on_noise():
    rng = random.Random(1234)
    alphabet = "abz 019,./:()<>é中😀phase iv patients:"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        s = extract_pubmed_study(view(Article, {"pmid": "77", "title": text, "abstract": text}))
        assert s.study_id == "77"
        # output is serializable and stable
        assert encode_study(s) == encode_study(extract_pubmed_study(
            view(Article, {"pmid": "77", "title": text, "abstract": text})
        ))


def test_extract_pubmed_empty_title_flagged():
    s = extract_pubmed_study(view(Article, {"pmid": "5", "title": "", "abstract": "text"}))
    assert s.flagged is True


# --- ct.gov parsing --------------------------------------------------------------

CTGOV_DOC = {
    "nctId": "NCT01000001",
    "protocolSection": {
        "identificationModule": {"briefTitle": "Metformin in T2D"},
        "descriptionModule": {"briefSummary": "Tests metformin."},
        "statusModule": {
            "overallStatus": "COMPLETED",
            "startDateStruct": {"date": "2015-03"},
        },
        "designModule": {
            "studyType": "INTERVENTIONAL",
            "phases": ["PHASE2"],
            "enrollmentInfo": {"count": 50, "type": "ACTUAL"},
        },
        "eligibilityModule": {
            "sex": "ALL",
            "minimumAge": "18 Years",
            "maximumAge": "65 Years",
            "healthyVolunteers": False,
        },
        "outcomesModule": {
            "primaryOutcomes": [
                {"measure": "HbA1c change", "timeFrame": "12 weeks"}
            ],
            "secondaryOutcomes": [{"measure": "Weight change"}],
        },
        "sponsorCollaboratorsModule": {"leadSponsor": {"name": "Acme Health"}},
    },
}


def test_parse_ctgov_study():
    s = parse_ctgov_study(parse_ctgov_doc(CTGOV_DOC))
    assert s.study_id == "NCT01000001"
    assert s.source is Source.CTGOV
    assert s.title == "Metformin in T2D"
    assert s.study_type is StudyType.INTERVENTIONAL
    assert s.phases == {P.PHASE2}
    assert s.gender is GenderLabel.BOTH
    assert s.status is StudyStatus.COMPLETED
    assert s.raw_status == "COMPLETED"
    assert s.start_year == 2015
    assert s.actual_accrual == 50
    assert s.target_accrual is None
    assert s.primary_outcomes == ["HbA1c change (time frame: 12 weeks)"]
    assert s.secondary_outcomes == ["Weight change"]
    assert s.sponsor == "Acme Health"


def test_parse_ctgov_estimated_enrollment_is_target():
    doc = {
        "nctId": "NCT06330298",
        "protocolSection": {
            "identificationModule": {"briefTitle": "T"},
            "designModule": {"enrollmentInfo": {"count": 84, "type": "ESTIMATED"}},
        },
    }
    s = parse_ctgov_study(parse_ctgov_doc(doc))
    assert s.target_accrual == 84
    assert s.actual_accrual is None


def test_parse_ctgov_unusual_status_preserves_raw():
    doc = {
        "nctId": "NCT1",
        "protocolSection": {
            "identificationModule": {"briefTitle": "T"},
            "statusModule": {"overallStatus": "APPROVED_FOR_MARKETING"},
        },
    }
    s = parse_ctgov_study(parse_ctgov_doc(doc))
    assert s.status is StudyStatus.OTHER
    assert s.raw_status == "APPROVED_FOR_MARKETING"
