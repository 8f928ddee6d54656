from __future__ import annotations

import json
import random

import pytest

from trialforge.errors import SchemaVersionMismatch
from trialforge.schema import (
    CanonicalStudy,
    GenderLabel,
    PhaseLabel,
    Source,
    StudyStatus,
    StudyType,
    decode_study,
    encode_study,
    needs_flag,
    read_studies_jsonl,
    source_rank,
    validate_study,
    write_studies_jsonl,
)


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
        ("source", "CTGOVX", "source: unknown source 'CTGOVX'"),
        ("phases", ["PHASE9"], "phases: unknown phase 'PHASE9'"),
        ("study_type", "RANDOM", "study_type: unknown value 'RANDOM'"),
        ("gender", "ANY", "gender: unknown value 'ANY'"),
        ("status", "paused", "status: unknown value 'paused'"),
    ],
    ids=["source", "phases", "study_type", "gender", "status"],
)
def test_validate_raw_dict_unknown_enum_value(key, value, message):
    d = make_study().to_dict()
    d[key] = value
    assert validate_study(d) == [message]


def test_validate_raw_dict_accrual_sign():
    d = make_study().to_dict()
    d["actual_accrual"] = 0
    assert any("actual_accrual" in v for v in validate_study(d))


def test_needs_flag_rule():
    assert needs_flag("", "title")
    assert needs_flag("id", "  ")
    assert not needs_flag("id", "title")


def test_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        CanonicalStudy.from_dict({"study_id": "x", "source": "NOT_A_SOURCE"})


def test_jsonl_header_and_roundtrip(tmp_path):
    rng = random.Random(7)
    studies = [random_study(rng) for _ in range(20)]
    path = tmp_path / "studies.jsonl"
    write_studies_jsonl(studies, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header == {"schema": "trialforge.studies", "version": "1"}
    assert read_studies_jsonl(path) == studies


def test_jsonl_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": "trialforge.studies", "version": "99"}\n')
    with pytest.raises(SchemaVersionMismatch):
        read_studies_jsonl(path)


def test_source_rank_ordering():
    assert source_rank(Source.CTGOV) < source_rank(Source.ANZCTR)
    assert source_rank(Source.ANZCTR) < source_rank(Source.PUBMED)
    assert source_rank(Source.ISRCTN) == source_rank(Source.TCTR)
