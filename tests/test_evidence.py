import json
import math
import random

import pytest
from _corpus import view
from hypothesis import example, given
from hypothesis import strategies as st

from trialforge.errors import (
    ClientUnavailable,
    DanglingReference,
    MalformedResponse,
    MissingResultsSection,
    ReplayMiss,
)
from trialforge.evidence import (
    TERMINATION_CATEGORIES,
    AdverseEventRow,
    OutcomeLabel,
    TrialResultRow,
    _jaccard,
    _tokens,
    build_disposition,
    build_outcome_prompt,
    build_pico_prompt,
    classify_completed_outcome,
    classify_termination_reason,
    disposition_tables_from_ctgov,
    extract_pubmed_pico,
    label_terminated_study,
    load_termination_keywords,
    parse_adverse_events,
    parse_ctgov_results,
    pico_disposition_rows,
    primary_pvalues,
    rank_abstracts,
    termination_keyword_tokens,
    title_cosine,
)
from trialforge.ontology.meddra import load_meddra
from trialforge.schema import CanonicalStudy, Source
from trialforge.views import Article, parse_ctgov_doc

KEYWORD_SETS = load_termination_keywords()
KEYWORD_TOKENS = termination_keyword_tokens(KEYWORD_SETS)


def make_study(study_id="NCT01000001", title="Ranibizumab for neovascular AMD", raw_status=None, outcomes=None):
    return CanonicalStudy(
        study_id=study_id,
        source=Source.CTGOV,
        title=title,
        raw_status=raw_status,
        primary_outcomes=outcomes or ["Change in visual acuity at 12 months"],
    )


RESULTS_DOC = {
    "protocolSection": {"identificationModule": {"nctId": "NCT01000001"}},
    "resultsSection": {
        "baselineCharacteristicsModule": {
            "populationDescription": "Adults with neovascular AMD",
            "totalCount": 120,
        },
        "outcomeMeasuresModule": {
            "outcomeMeasures": [
                {
                    "type": "PRIMARY",
                    "title": "Mean change in visual acuity",
                    "reportingStatus": "POSTED",
                    "unitOfMeasure": "letters",
                    "groups": [
                        {"id": "OG000", "title": "Ranibizumab 0.5 mg", "isControl": False},
                        {"id": "OG001", "title": "Sham injection", "isControl": True},
                    ],
                    "measurements": [
                        {"groupId": "OG000", "value": "7.2"},
                        {"groupId": "OG001", "value": "-10.4"},
                    ],
                    "analyses": [{"pValue": 0.004}],
                },
                {
                    "type": "SECONDARY",
                    "title": "Serious ocular events",
                    "reportingStatus": "NOT_POSTED",
                    "groups": [{"id": "OG000", "title": "Ranibizumab 0.5 mg"}],
                },
            ]
        },
        "adverseEventsModule": {
            "eventGroups": [
                {"id": "EG000", "title": "Ranibizumab 0.5 mg"},
                {"id": "EG001", "title": "Sham injection"},
            ],
            "seriousEvents": [
                {
                    "term": "Nausea",
                    "organSystem": "Gastrointestinal disorders",
                    "stats": [
                        {"groupId": "EG000", "numAffected": 3, "numAtRisk": 60},
                        {"groupId": "EG001", "numAffected": 0, "numAtRisk": 60},
                    ],
                }
            ],
            "otherEvents": [
                {
                    "term": "Conjunctival haemorrhage",
                    "organSystem": "Eye disorders",
                    "stats": [{"groupId": "EG000", "numAffected": 12, "numAtRisk": 60}],
                }
            ],
        },
    },
}


class TestRowInvariants:
    def test_result_row_requires_arm_label(self):
        with pytest.raises(ValueError):
            TrialResultRow("NCT1", "pop", 10, "", False, "outcome")

    def test_result_row_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            TrialResultRow("NCT1", "pop", 0, "Arm A", False, "outcome")

    def test_adverse_row_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            AdverseEventRow("NCT1", "Arm", "Nausea", "GI", 5, 4, True, "Frequency: 5 affected / 4 at risk")
        with pytest.raises(ValueError):
            AdverseEventRow("NCT1", "Arm", "Nausea", "GI", 0, 4, True, "Frequency: 0 affected / 4 at risk")

    def test_adverse_row_requires_frequency_string(self):
        with pytest.raises(ValueError):
            AdverseEventRow("NCT1", "Arm", "Nausea", "GI", 3, 50, True, "3 of 50")

    def test_outcome_label_validation(self):
        with pytest.raises(ValueError):
            OutcomeLabel("NCT1", "terminated:bad category", "stop-reason-similarity")
        with pytest.raises(ValueError):
            OutcomeLabel("NCT1", "positive", "vibes")
        OutcomeLabel("NCT1", "terminated:enrollment issues", "stop-reason-similarity")


class TestParseResults:
    def test_posted_outcome_two_arms(self):
        rows = parse_ctgov_results(parse_ctgov_doc(RESULTS_DOC))
        assert len(rows) == 2
        treated, control = rows
        assert treated.study_id == "NCT01000001"
        assert treated.population_text == "Adults with neovascular AMD"
        assert treated.population_n == 120
        assert treated.arm_label == "Ranibizumab 0.5 mg"
        assert not treated.is_control
        assert treated.outcome_text == "Mean change in visual acuity; value: 7.2 letters"
        assert control.is_control
        assert control.arm_label == "Sham injection"

    def test_not_posted_outcome_dropped(self):
        rows = parse_ctgov_results(parse_ctgov_doc(RESULTS_DOC))
        assert all("Serious ocular events" not in row.outcome_text for row in rows)

    def test_missing_results_section(self):
        with pytest.raises(MissingResultsSection):
            parse_ctgov_results(parse_ctgov_doc({"protocolSection": {"identificationModule": {"nctId": "NCT9"}}}))
        with pytest.raises(MissingResultsSection):
            parse_ctgov_results(parse_ctgov_doc({
                "nctId": "NCT9",
                "resultsSection": {"outcomeMeasuresModule": {"outcomeMeasures": []}},
            }))

    def test_untitled_group_skipped(self):
        doc = {
            "nctId": "NCT2",
            "resultsSection": {
                "outcomeMeasuresModule": {
                    "outcomeMeasures": [
                        {
                            "title": "X",
                            "reportingStatus": "POSTED",
                            "groups": [{"id": "OG000", "title": ""}, {"id": "OG001", "title": "Arm B"}],
                        }
                    ]
                }
            },
        }
        rows = parse_ctgov_results(parse_ctgov_doc(doc))
        assert [row.arm_label for row in rows] == ["Arm B"]

    def test_primary_pvalues(self):
        assert primary_pvalues(parse_ctgov_doc(RESULTS_DOC)) == [0.004]

    def test_primary_pvalues_parses_strings_and_sorts(self):
        doc = {
            "nctId": "NCT4",
            "resultsSection": {
                "outcomeMeasuresModule": {
                    "outcomeMeasures": [
                        {
                            "type": "PRIMARY",
                            "reportingStatus": "POSTED",
                            "groups": [],
                            "analyses": [{"pValue": "<0.001"}, {"pValue": 0.03}, {"pValue": "bad"}],
                        },
                        {
                            "type": "SECONDARY",
                            "reportingStatus": "POSTED",
                            "analyses": [{"pValue": 0.0001}],
                        },
                    ]
                }
            }
        }
        assert primary_pvalues(parse_ctgov_doc(doc)) == [0.001, 0.03]


class TestAdverseEvents:
    def test_serious_and_other_rows(self):
        hierarchy = load_meddra()
        rows = parse_adverse_events(parse_ctgov_doc(RESULTS_DOC), hierarchy)
        assert len(rows) == 2

        nausea = rows[0]
        assert nausea.is_serious
        assert nausea.term == "Nausea"
        assert nausea.arm_description == "Ranibizumab 0.5 mg"
        assert nausea.description == "Frequency: 3 affected / 50 at risk".replace("50", "60")
        assert nausea.meddra_code == "10028813"

        bleed = rows[1]
        assert not bleed.is_serious
        assert bleed.meddra_code == "10010719"

    def test_zero_affected_omitted(self):
        rows = parse_adverse_events(parse_ctgov_doc(RESULTS_DOC))
        assert all(row.num_affected > 0 for row in rows)
        # the sham arm stat for Nausea had numAffected 0
        assert sum(row.term == "Nausea" for row in rows) == 1

    def test_no_module_empty(self):
        assert parse_adverse_events(parse_ctgov_doc({"nctId": "NCT3", "resultsSection": {}})) == []

    def test_conservation_under_fuzz(self):
        rng = random.Random(20250819)
        for _ in range(50):
            events = []
            expected_valid = 0
            for event_index in range(rng.randint(1, 6)):
                stats = []
                for _ in range(rng.randint(0, 4)):
                    affected = rng.randint(0, 30)
                    at_risk = rng.randint(0, 30)
                    stats.append({"groupId": "EG000", "numAffected": affected, "numAtRisk": at_risk})
                    if 0 < affected <= at_risk:
                        expected_valid += 1
                events.append({"term": f"Event {event_index}", "organSystem": "Any", "stats": stats})
            doc = {
                "nctId": "NCTF",
                "resultsSection": {
                    "adverseEventsModule": {
                        "eventGroups": [{"id": "EG000", "title": "Arm"}],
                        "seriousEvents": events[: len(events) // 2],
                        "otherEvents": events[len(events) // 2 :],
                    }
                },
            }
            rows = parse_adverse_events(parse_ctgov_doc(doc))
            assert len(rows) == expected_valid
            assert all(0 < row.num_affected <= row.num_at_risk for row in rows)


def arms_doc(nct_id, arm_groups, interventions):
    return parse_ctgov_doc({
        "protocolSection": {
            "identificationModule": {"nctId": nct_id},
            "armsInterventionsModule": {"armGroups": arm_groups, "interventions": interventions},
        }
    })


class TestDisposition:
    def test_join_cardinality(self):
        doc = arms_doc(
            "NCT1",
            [
                {"label": "High", "type": "EXPERIMENTAL", "description": "High dose"},
                {"label": "Placebo", "type": "PLACEBO_COMPARATOR", "description": "Placebo"},
            ],
            [{"type": "DRUG", "name": "Metformin", "description": "Oral", "armGroupLabels": ["High", "Placebo"]}],
        )
        links = disposition_tables_from_ctgov(doc)
        assert links == [(0, 0, "High"), (1, 0, "Placebo")]
        rows = build_disposition(doc, links)
        assert len(rows) == 2
        assert rows[0].treatment_name == "Metformin"
        assert rows[0].group_type == "EXPERIMENTAL"
        assert rows[0].description == "High dose | Oral"
        assert [(row.design_group_id, row.intervention_id) for row in rows] == [("NCT1:g0", "NCT1:i0"), ("NCT1:g1", "NCT1:i0")]

    def test_dangling_link(self):
        doc = arms_doc("NCT1", [{"label": "A", "type": "EXPERIMENTAL"}], [{"name": "X", "armGroupLabels": ["A", "i404"]}])
        with pytest.raises(DanglingReference) as excinfo:
            build_disposition(doc, disposition_tables_from_ctgov(doc))
        assert str(excinfo.value) == "NCT1: armGroupLabels ['i404'] name no arm group"

    def test_nct_scoping(self):
        # the same labels under another nct_id give that study's own ids
        arms, drugs = [{"label": "A"}], [{"name": "X", "armGroupLabels": ["A"]}]
        rows = [build_disposition(doc, disposition_tables_from_ctgov(doc)) for doc in (arms_doc("NCT1", arms, drugs), arms_doc("NCT2", arms, drugs))]
        assert [(row.study_id, row.design_group_id, row.intervention_id) for row, in rows] == [
            ("NCT1", "NCT1:g0", "NCT1:i0"),
            ("NCT2", "NCT2:g0", "NCT2:i0"),
        ]

    def test_label_names_the_last_group_that_has_it(self):
        doc = arms_doc("NCT1", [{"label": "A", "type": "first"}, {"label": "A", "type": "second"}], [{"armGroupLabels": ["A"]}])
        assert [row.group_type for row in build_disposition(doc, disposition_tables_from_ctgov(doc))] == ["second"]

    def test_tables_from_ctgov_doc(self):
        doc = {
            "protocolSection": {
                "identificationModule": {"nctId": "NCT5"},
                "armsInterventionsModule": {
                    "armGroups": [
                        {"label": "Treatment", "type": "EXPERIMENTAL", "description": "Gets drug"},
                        {"label": "Control", "type": "PLACEBO_COMPARATOR", "description": "Gets placebo"},
                    ],
                    "interventions": [
                        {
                            "type": "DRUG",
                            "name": "Lamotrigine",
                            "description": "50 mg daily",
                            "armGroupLabels": ["Treatment"],
                        },
                        {
                            "type": "DRUG",
                            "name": "Placebo",
                            "armGroupLabels": ["Control"],
                        },
                    ],
                },
            }
        }
        doc = parse_ctgov_doc(doc)
        rows = build_disposition(doc, disposition_tables_from_ctgov(doc))
        assert [(row.treatment_name, row.group_type) for row in rows] == [
            ("Lamotrigine", "EXPERIMENTAL"),
            ("Placebo", "PLACEBO_COMPARATOR"),
        ]

    def test_unknown_arm_label_becomes_dangling(self):
        doc = {
            "protocolSection": {
                "identificationModule": {"nctId": "NCT6"},
                "armsInterventionsModule": {
                    "armGroups": [{"label": "A", "type": "EXPERIMENTAL"}],
                    "interventions": [{"type": "DRUG", "name": "X", "armGroupLabels": ["Ghost"]}],
                },
            }
        }
        doc = parse_ctgov_doc(doc)
        with pytest.raises(DanglingReference):
            build_disposition(doc, disposition_tables_from_ctgov(doc))

    def test_pico_pairs(self):
        pico = [
            TrialResultRow("PM1", "Pregnant women at risk", 40, "Bed rest", False, "No difference"),
            TrialResultRow("PM1", "Pregnant women at risk", 40, "Bed rest", False, "Secondary outcome"),
            TrialResultRow("PM1", "Pregnant women at risk", 40, "Ambulatory care", True, "Reference"),
        ]
        rows = pico_disposition_rows("PM1", pico)
        assert [(row.treatment_name, row.description) for row in rows] == [
            ("Bed rest", "Pregnant women at risk"),
            ("Ambulatory care", "Pregnant women at risk"),
        ]


class TestPicoExtraction:
    ANSWER = json.dumps(
        {
            "population": "62 pregnant women with impaired fetal growth",
            "population_n": 62,
            "outcomes": [
                {"intervention": "Hospital bed rest", "is_control": False, "outcome": "No improvement"},
                {"intervention": "Ambulatory management", "is_control": True, "outcome": "Reference group"},
                {"intervention": "", "is_control": False, "outcome": "dropped"},
            ],
        }
    )

    def test_rows_parsed(self):
        prompts = []

        def client(prompt):
            prompts.append(prompt)
            return self.ANSWER

        rows = extract_pubmed_pico("10796093", "Bed rest in hospital", "Some abstract.", client)
        assert len(rows) == 2
        assert rows[0].population_n == 62
        assert rows[1].is_control
        prompt = prompts[0]
        assert prompt.startswith("Given the following clinical trial paper abstract")
        assert "Title: Bed rest in hospital" in prompt
        assert "Abstract: Some abstract." in prompt

    def test_prompt_scaffold(self):
        prompt = build_pico_prompt("T", "A")
        assert "Patient or problem (P)" in prompt
        assert "Intervention or control (I/C)" in prompt
        assert "Outcome(s) (O)" in prompt

    def test_malformed_answer(self):
        with pytest.raises(MalformedResponse):
            extract_pubmed_pico("1", "t", "a", lambda prompt: "not json")
        with pytest.raises(MalformedResponse):
            extract_pubmed_pico("1", "t", "a", lambda prompt: '{"population": "x"}')

    def test_bad_population_n_dropped(self):
        answer = json.dumps({"population": "x", "population_n": -5, "outcomes": [{"intervention": "I", "outcome": "O"}]})
        rows = extract_pubmed_pico("1", "t", "a", lambda prompt: answer)
        assert rows[0].population_n is None

    def test_code_fenced_answer_accepted(self):
        # read like the endpoint and evidence answers, through `clients.json_answer`
        answer = json.dumps({"population": "x", "outcomes": [{"intervention": "I", "outcome": "O"}]})
        rows = extract_pubmed_pico("1", "t", "a", lambda prompt: f"```json\n{answer}\n```")
        assert [row.arm_label for row in rows] == ["I"]


def article(title, abstract):
    return view(Article, {"pmid": "1", "title": title, "abstract": abstract})


class TestAbstractRanking:
    def test_title_cosine_hand_value(self):
        value = title_cosine("Ranibizumab for neovascular AMD", "ranibizumab amd trial")
        assert abs(value - 2 / math.sqrt(12)) < 1e-12

    def test_empty_side_is_zero(self):
        assert title_cosine("", "anything") == 0.0

    def test_ranking_stable(self):
        abstracts = [
            article("Unrelated paper about diabetes", "a"),
            article("Ranibizumab for neovascular AMD outcomes", "b"),
            article("Ranibizumab AMD study", "c"),
        ]
        ranked = rank_abstracts("Ranibizumab for neovascular AMD", abstracts)
        assert ranked[0].abstract == "b"
        assert ranked[-1].abstract == "a"


class TestCompletedCascade:
    def test_approved_for_marketing_short_circuits(self):
        def exploding(prompt):
            raise AssertionError("llm must not be called")

        study = make_study(raw_status="APPROVED_FOR_MARKETING")
        label = classify_completed_outcome(study, [article("x", "y")], exploding, [0.2])
        assert (label.outcome_type, label.evidence) == ("approved-for-marketing", "status")

    def test_llm_verdict_wins(self):
        label = classify_completed_outcome(
            make_study(), [article("t", "a")], lambda prompt: "negative outcome", [0.001]
        )
        assert (label.outcome_type, label.evidence) == ("negative", "llm")

    def test_llm_unknown_falls_to_strict_pvalue(self):
        label = classify_completed_outcome(
            make_study(), [article("t", "a")], lambda prompt: "unknown", [0.2, 0.004]
        )
        assert (label.outcome_type, label.evidence) == ("positive", "pvalue@0.01")

    def test_loose_pvalue_band(self):
        label = classify_completed_outcome(make_study(), [], None, [0.03])
        assert (label.outcome_type, label.evidence) == ("positive", "pvalue@0.05")

    def test_pvalue_negative(self):
        label = classify_completed_outcome(make_study(), [], None, [0.2])
        assert (label.outcome_type, label.evidence) == ("negative", "pvalue@0.05")

    def test_nothing_available(self):
        label = classify_completed_outcome(make_study(), [], None, [])
        assert (label.outcome_type, label.evidence) == ("unknown", "llm")

    # every client error `ServiceClient.call` raises; none falls back to the p-values
    @pytest.mark.parametrize("exc", [ReplayMiss, MalformedResponse, ClientUnavailable])
    def test_mode_errors_propagate(self, exc):
        error = exc("llm:abc123")

        def failing(prompt):
            raise error

        with pytest.raises(exc) as excinfo:
            classify_completed_outcome(make_study(), [article("t", "a")], failing, [0.2])
        assert excinfo.value is error

    def test_prompt_slots_filled(self):
        prompts = []

        def client(prompt):
            prompts.append(prompt)
            return "unknown"

        abstracts = [
            article("Ranibizumab for neovascular AMD: 12 month outcomes", "ABSTRACT-ONE"),
            article("An unrelated screening paper", "ABSTRACT-TWO"),
        ]
        classify_completed_outcome(make_study(), abstracts, client, [])
        prompt = prompts[0]
        assert "NCT ID NCT01000001" in prompt
        assert "official title: Ranibizumab for neovascular AMD." in prompt
        assert "ABSTRACT-ONE" in prompt
        assert "ABSTRACT-TWO" in prompt
        assert prompt.index("ABSTRACT-ONE") < prompt.index("ABSTRACT-TWO")
        assert "[nct_id]" not in prompt and "[official_title]" not in prompt

    def test_prompt_with_one_abstract_leaves_the_second_slots_empty(self):
        prompt = build_outcome_prompt(make_study(), [article("Only title", "ONLY-ABSTRACT")])
        assert "Only title" in prompt and "ONLY-ABSTRACT" in prompt
        assert "[top_2_similar_article_title]" not in prompt and "[top_2_similar_article_abstract]" not in prompt

    def test_cascade_total_over_grid(self):
        # every combination of inputs produces exactly one valid label
        verdicts = ["positive outcome", "negative outcome", "unknown", "something else"]
        for verdict in verdicts:
            for abstracts in ([], [article("t", "a")]):
                for pvalues in ([], [0.004], [0.03], [0.8]):
                    for raw_status in (None, "COMPLETED", "Approved for marketing"):
                        study = make_study(raw_status=raw_status)
                        label = classify_completed_outcome(study, abstracts, lambda p, v=verdict: v, pvalues)
                        assert isinstance(label, OutcomeLabel)


def reference_mean_jaccard(reason, keywords):
    def jac(a, b):
        sa = set(a.lower().split())
        sb = set(b.lower().split())
        return len(sa & sb) / len(sa | sb) if sa and sb else 0.0

    return sum(jac(reason, keyword) for keyword in keywords) / len(keywords)


def jaccard_scorer(reason, keyword):
    """Token Jaccard of one reason and one keyword, the score the classifier averages."""
    return _jaccard(set(_tokens(reason)), set(_tokens(keyword)))


def reference_classify_termination_reason(stop_reason, keyword_sets):
    """`classify_termination_reason` as it was: the reason tokenized again for every keyword."""
    best_category = "other"
    best_score = 0.0
    for category, keywords in keyword_sets.items():
        if not keywords:
            continue
        mean = sum(jaccard_scorer(stop_reason, keyword) for keyword in keywords) / len(keywords)
        if mean > best_score:
            best_category, best_score = category, mean
    return f"terminated:{best_category}"


def untabled_classify_termination_reason(stop_reason, keyword_sets):
    """`classify_termination_reason` before the token table: each keyword tokenized again for every reason."""
    reason = set(_tokens(stop_reason))
    best_category = "other"
    best_score = 0.0
    for category, keywords in keyword_sets.items():
        if not keywords:
            continue
        mean = sum(_jaccard(reason, set(_tokens(keyword))) for keyword in keywords) / len(keywords)
        if mean > best_score:
            best_category, best_score = category, mean
    return f"terminated:{best_category}"


#: Words of the packaged keywords and a few others, in mixed case and with punctuation.
TERMINATION_WORDS = st.sampled_from(
    sorted({word for keywords in KEYWORD_SETS.values() for keyword in keywords for word in keyword.split()})
    + ["Slow", "ACCRUAL", "drug-supply", "covid-19", "n/a", "", "!", "xyzzy"]
)
TERMINATION_TEXTS = st.lists(TERMINATION_WORDS, max_size=6).map(" ".join)


class TestTermination:
    @given(
        TERMINATION_TEXTS,
        st.dictionaries(st.sampled_from(TERMINATION_CATEGORIES), st.lists(TERMINATION_TEXTS, max_size=4), max_size=6),
    )
    def test_classification_matches_the_reference(self, reason, keyword_sets):
        for sets in (keyword_sets, KEYWORD_SETS):
            tokens = termination_keyword_tokens(sets)
            assert classify_termination_reason(reason, tokens) == reference_classify_termination_reason(reason, sets)

    @given(st.one_of(
        TERMINATION_TEXTS,
        st.lists(st.sampled_from([k for keywords in KEYWORD_SETS.values() for k in keywords]), min_size=1, max_size=3)
        .map(" ".join),
    ))
    @example("study terminated early due to slow recruitment of patients")
    def test_token_table_labels_as_the_untabled_classifier(self, reason):
        assert classify_termination_reason(reason, KEYWORD_TOKENS) == untabled_classify_termination_reason(
            reason, KEYWORD_SETS
        )

    def test_token_table_keeps_config_order_and_drops_empty_categories(self):
        assert list(KEYWORD_TOKENS) == [category for category, keywords in KEYWORD_SETS.items() if keywords]
        assert all(len(KEYWORD_TOKENS[c]) == len(KEYWORD_SETS[c]) for c in KEYWORD_TOKENS)
        assert termination_keyword_tokens({"first category": [], "second category": ["Slow  ACCRUAL"]}) == {
            "second category": [frozenset({"slow", "accrual"})]
        }

    def test_slow_recruitment_maps_to_enrollment(self):
        reason = "study terminated early due to slow recruitment of patients"
        assert classify_termination_reason(reason, KEYWORD_TOKENS) == "terminated:enrollment issues"

    def test_winning_mean_matches_reference(self):
        reason = "study terminated early due to slow recruitment of patients"
        keyword_sets = load_termination_keywords()
        means = {
            category: reference_mean_jaccard(reason, keywords)
            for category, keywords in keyword_sets.items()
            if keywords
        }
        assert max(means, key=means.get) == "enrollment issues"
        assert abs(means["enrollment issues"] - (4 / 9 + 0 + 0 + 1 / 12) / 4) < 1e-12

    def test_verbatim_keyword_wins(self):
        assert classify_termination_reason("lack of efficacy", KEYWORD_TOKENS) == "terminated:lack of efficacy"

    def test_all_zero_falls_to_other(self):
        assert classify_termination_reason("xyzzy glorp", KEYWORD_TOKENS) == "terminated:other"

    def test_default_scorer_is_token_jaccard(self):
        assert jaccard_scorer("a b c", "b c d") == pytest.approx(2 / 4)
        assert jaccard_scorer("", "anything") == 0.0

    def test_tie_breaks_by_config_order(self):
        # both categories score a Jaccard mean of 1/2
        keyword_sets = {"first category": ["slow accrual"], "second category": ["slow funding"]}
        label = classify_termination_reason("slow", termination_keyword_tokens(keyword_sets))
        assert label == "terminated:first category"
        reversed_sets = dict(reversed(keyword_sets.items()))
        assert classify_termination_reason("slow", termination_keyword_tokens(reversed_sets)) == "terminated:second category"

    def test_scorer_monotone(self):
        # the reason itself as one more keyword of the winner raises its mean, and no other
        rng = random.Random(7)
        words = ["slow", "accrual", "safety", "signal", "sponsor", "funding", "lack", "efficacy", "drug", "supply"]
        categories = [c for c in TERMINATION_CATEGORIES if c != "other"]
        for _ in range(100):
            keyword_sets = {
                category: [" ".join(rng.sample(words, rng.randint(1, 3))) for _ in range(3)]
                for category in categories
            }
            reason = " ".join(rng.sample(words, 3))
            winner = classify_termination_reason(reason, termination_keyword_tokens(keyword_sets))
            category = winner.split(":", 1)[1]
            if category == "other":
                continue
            boosted = dict(keyword_sets)
            boosted[category] = keyword_sets[category] + [reason]
            assert classify_termination_reason(reason, termination_keyword_tokens(boosted)) == winner

    def test_label_wrapper(self):
        study = CanonicalStudy(study_id="NCT02823470", source=Source.CTGOV, title="t")
        label = label_terminated_study(study, "study terminated early due to slow recruitment of patients", KEYWORD_TOKENS)
        assert label == OutcomeLabel("NCT02823470", "terminated:enrollment issues", "stop-reason-similarity")

    def test_unknown_category_in_config_rejected(self):
        with pytest.raises(ValueError):
            OutcomeLabel("NCT1", "terminated:vibes", "stop-reason-similarity")
