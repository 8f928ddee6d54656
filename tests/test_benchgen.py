import json
import re
from collections import Counter
from dataclasses import dataclass

import pytest
from _corpus import view
from hypothesis import example, given
from hypothesis import strategies as st

from trialforge.benchgen.design import (
    gen_design_mcq,
    render_arms,
    render_eligibility,
    render_endpoints,
    review_groups,
)
from trialforge.benchgen.items import BenchmarkItem, write_benchmark_files
from trialforge.benchgen.protocol import (
    check_completion_leakage,
    completion_leakage_vocabulary,
    gen_completion_items,
    gen_sample_size_items,
    stated_numbers,
)
from trialforge.benchgen.review_tasks import (
    EVIDENCE_MCQ_PROMPT,
    check_self_reference,
    gen_evidence_mcq,
    gen_screening_items,
    gen_search_items,
    include_map,
    split_search_items,
)
from trialforge.benchgen.splits import numeric_id_key, split_by_numeric_id
from trialforge.errors import (
    CorpusTooSmall,
    FieldMissing,
    LeakageDetected,
    MalformedResponse,
    SelfReferenceViolation,
)
from trialforge.evidence import OutcomeLabel
from trialforge.schema import CanonicalStudy, RelationTriple, Source, StudyStatus
from trialforge.store import read_jsonl
from trialforge.views import ProtocolPair, Review, parse_ctgov_doc


class TestNumericKey:
    def test_nct_id(self):
        assert numeric_id_key("NCT00000150") == 150

    def test_plain_pmid(self):
        assert numeric_id_key("38078494") == 38078494

    def test_no_digits(self):
        with pytest.raises(ValueError):
            numeric_id_key("no-digits-here")


def split_sizes(splits: dict[str, str]) -> dict[str, int]:
    counts = Counter(splits.values())
    return {split: counts[split] for split in ("train", "validation", "test")}


class TestSplit:
    def test_below_boundary_raises(self):
        ids = [f"S{n}" for n in range(1, 1500)]
        with pytest.raises(CorpusTooSmall):
            split_by_numeric_id(ids, 1000, 500, allow_small=False)

    def test_exact_boundary(self):
        ids = [f"S{n}" for n in range(1, 1501)]
        sizes = split_sizes(split_by_numeric_id(ids, 1000, 500, allow_small=False))
        assert sizes == {"train": 0, "validation": 500, "test": 1000}

    def test_two_thousand_items_land_in_documented_blocks(self):
        ids = [f"S{n}" for n in range(1, 2001)]
        splits = split_by_numeric_id(ids, 1000, 500, allow_small=False)
        by_split = {"train": set(), "validation": set(), "test": set()}
        for item_id, split in splits.items():
            by_split[split].add(numeric_id_key(item_id))
        assert by_split["test"] == set(range(1001, 2001))
        assert by_split["validation"] == set(range(501, 1001))
        assert by_split["train"] == set(range(1, 501))

    def test_ten_thousand(self):
        ids = [f"S{n}" for n in range(1, 10001)]
        sizes = split_sizes(split_by_numeric_id(ids, 1000, 500, allow_small=False))
        assert sizes == {"train": 8500, "validation": 500, "test": 1000}

    def test_allow_small(self):
        splits = split_by_numeric_id(["A1", "A2", "A3"], 1000, 500, allow_small=True)
        assert split_sizes(splits) == {"train": 0, "validation": 0, "test": 3}
        splits = split_by_numeric_id([f"S{n}" for n in range(1200)], 1000, 500, allow_small=True)
        assert split_sizes(splits) == {"train": 0, "validation": 200, "test": 1000}

    def test_ties_broken_by_full_id(self):
        splits = split_by_numeric_id(["B7", "A7", "C7"], test_size=1, validation_size=1, allow_small=True)
        assert splits == {"A7": "test", "B7": "validation", "C7": "train"}

    def test_map_is_keyed_by_the_given_ids(self):
        splits = split_by_numeric_id(iter(["S1", "S2"]), test_size=1, validation_size=1, allow_small=False)
        assert splits == {"S2": "test", "S1": "validation"}


@dataclass(frozen=True)
class ReferenceSplitAssignment:
    item_id: str
    split: str


def reference_split_by_numeric_id(items, id_extractor=str, test_size=1000, validation_size=500, allow_small=False):
    """`split_by_numeric_id` before it returned a map: a list of assignments in newest-first order."""
    ids = [id_extractor(item) for item in items]
    minimum = test_size + validation_size
    if len(ids) < minimum and not allow_small:
        raise CorpusTooSmall(f"{len(ids)} items, need at least {minimum}")

    ordered = sorted(ids, key=lambda identifier: (-numeric_id_key(identifier), identifier))
    assignments = []
    for position, identifier in enumerate(ordered):
        if position < test_size:
            split = "test"
        elif position < test_size + validation_size:
            split = "validation"
        else:
            split = "train"
        assignments.append(ReferenceSplitAssignment(identifier, split))
    return assignments


def reference_split_map(*args, **kwargs):
    """The reference's assignments as the stage folded them into a map, or its refusal."""
    try:
        return {a.item_id: a.split for a in reference_split_by_numeric_id(*args, **kwargs)}
    except CorpusTooSmall as exc:
        return ("CorpusTooSmall", str(exc))


def split_map_or_refusal(*args, **kwargs):
    try:
        return split_by_numeric_id(*args, **kwargs)
    except CorpusTooSmall as exc:
        return ("CorpusTooSmall", str(exc))


# Few prefixes and small numbers, so ids often share a numeric key ("S7", "NCT0007", "7", "A0B7").
SPLIT_IDS = st.lists(
    st.builds(
        lambda prefix, number, width: f"{prefix}{number:0{width}d}",
        st.sampled_from(["", "S", "NCT", "A0B", "study_search:"]),
        st.integers(0, 12),
        st.integers(1, 4),
    ),
    max_size=25,
)


@st.composite
def split_cases(draw):
    ids = draw(SPLIT_IDS)
    # sizes from 0 up to past the id count, so both sides of the CorpusTooSmall boundary come up
    test_size = draw(st.integers(0, len(ids) + 3))
    validation_size = draw(st.integers(0, len(ids) + 3))
    return ids, test_size, validation_size, draw(st.booleans())


class TestSplitMatchesReference:
    @given(split_cases())
    @example((["S1", "S2", "S3"], 2, 1, False))  # exactly the minimum
    @example((["S1", "S2"], 2, 1, False))  # one short: refused
    @example((["S1", "S2"], 2, 1, True))  # one short, allowed: truncates
    @example(([], 0, 0, False))
    @example((["7", "S7", "NCT0007", "A0B7", "S7"], 1, 2, True))  # one key, and a repeated id
    def test_split_map_equals_the_reference(self, case):
        ids, test_size, validation_size, allow_small = case
        want = reference_split_map(ids, str, test_size, validation_size, allow_small)
        assert split_map_or_refusal(ids, test_size, validation_size, allow_small) == want

    @given(SPLIT_IDS, st.integers(0, 30))
    def test_search_split_equals_the_reference(self, ids, test_size):
        want = reference_split_map(ids, str, test_size, validation_size=0, allow_small=True)
        assert split_search_items(ids, test_size) == want


class TestBenchmarkItem:
    def test_unknown_task(self):
        with pytest.raises(ValueError):
            BenchmarkItem("trivia", "x:1", "i", "in", "A", ("a", "b"))

    def test_duplicate_options(self):
        with pytest.raises(ValueError):
            BenchmarkItem("arm_design", "x:1", "i", "in", "A", ("same", "same"))

    def test_answer_out_of_range(self):
        with pytest.raises(ValueError):
            BenchmarkItem("arm_design", "x:1", "i", "in", "E", ("a", "b", "c", "d"))

    @pytest.mark.parametrize("answer", ["AB", "", "BC"])
    def test_answer_must_be_one_letter(self, answer):
        # each is a substring of "ABCD", yet names no single option
        with pytest.raises(ValueError):
            BenchmarkItem("arm_design", "x:1", "i", "in", answer, ("w", "x", "y", "z"))

    def test_every_single_letter_is_an_answer(self):
        options = ("w", "x", "y", "z")
        for letter, option in zip("ABCD", options):
            assert BenchmarkItem("arm_design", "x:1", "i", "in", letter, options).correct_option == option

    def test_correct_option(self):
        item = BenchmarkItem("arm_design", "x:1", "i", "in", "B", ("a", "b"))
        assert item.correct_option == "b"

    def test_writer_round_trip(self, tmp_path):
        items = [
            BenchmarkItem("arm_design", "arm_design:N2", "i", "text", "A", ("a", "b")),
            BenchmarkItem("arm_design", "arm_design:N1", "i", "text", "B", ("a", "b")),
            BenchmarkItem(
                "study_screening",
                "study_screening:77",
                "i",
                "text",
                {"1": "include", "2": "exclude"},
            ),
        ]
        assignments = {
            "arm_design:N1": "train",
            "arm_design:N2": "test",
            "study_screening:77": "test",
        }
        manifest = write_benchmark_files(items, assignments, tmp_path, "deadbeef", 7)
        records = read_jsonl(tmp_path / "arm_design.train.jsonl")
        assert [r["id"] for r in records] == ["arm_design:N1"]
        assert records[0]["options"] == ["a", "b"]
        screening = read_jsonl(tmp_path / "study_screening.test.jsonl")
        assert screening[0]["answer"] == {"1": "include", "2": "exclude"}
        lines = manifest.read_text().splitlines()
        assert lines[0] == "task\tsplit\tcount\tcorpus_hash\tseed"
        assert "arm_design\ttest\t1\tdeadbeef\t7" in lines

    def test_writer_requires_assignment(self, tmp_path):
        item = BenchmarkItem("sample_size", "sample_size:N1", "i", "t", 84)
        with pytest.raises(ValueError):
            write_benchmark_files([item], {}, tmp_path, "hash", 1)
        with pytest.raises(ValueError):
            write_benchmark_files([item], {"sample_size:N1": "holdout"}, tmp_path, "hash", 1)


def make_doc(
    nct_id,
    title,
    interventions=None,
    eligibility="Adults aged 18 or older.",
    outcomes=None,
    summary="Short summary.",
    arms=None,
    design=None,
):
    protocol = {
        "identificationModule": {"nctId": nct_id, "officialTitle": title},
        "descriptionModule": {"briefSummary": summary},
    }
    if interventions is not None or arms is not None:
        protocol["armsInterventionsModule"] = {
            "armGroups": arms or [],
            "interventions": interventions or [],
        }
    if eligibility is not None:
        protocol["eligibilityModule"] = {"eligibilityCriteria": eligibility}
    if outcomes is not None:
        protocol["outcomesModule"] = {"primaryOutcomes": outcomes}
    if design is not None:
        protocol["designModule"] = design
    return parse_ctgov_doc({"protocolSection": protocol})


def design_corpus():
    documents = {}
    for index in range(1, 7):
        nct_id = f"NCT0000000{index}"
        documents[nct_id] = make_doc(
            nct_id,
            f"Trial number {index}",
            interventions=[
                {
                    "type": "DRUG",
                    "name": f"Compound {index}",
                    "armGroupLabels": [f"Arm {index}"],
                }
            ],
            eligibility=f"Adults with condition {index}.",
            outcomes=[{"measure": f"Endpoint {index}", "timeFrame": "12 months"}],
        )
    groups = {
        "review-A": ["NCT00000001", "NCT00000002", "NCT00000003", "NCT00000004"],
        "review-B": ["NCT00000005"],
    }
    return groups, documents


class TestRenderers:
    def test_arms_layout(self):
        doc = make_doc(
            "NCT00000150",
            "t",
            interventions=[
                {"type": "PROCEDURE", "name": "Subfoveal Choroidal Neovascularization Removal"}
            ],
        )
        assert render_arms(doc) == (
            "Intervention Type: PROCEDURE; "
            "Name: Subfoveal Choroidal Neovascularization Removal; "
            "Assigned to Arm(s): N/A"
        )

    def test_arms_with_labels(self):
        doc = make_doc(
            "N1",
            "t",
            interventions=[{"type": "DRUG", "name": "X", "armGroupLabels": ["A", "B"]}],
        )
        assert "Assigned to Arm(s): A, B" in render_arms(doc)

    def test_missing_fields_raise(self):
        bare = make_doc("N1", "t", eligibility=None)
        with pytest.raises(FieldMissing):
            render_arms(bare)
        with pytest.raises(FieldMissing):
            render_eligibility(bare)
        with pytest.raises(FieldMissing):
            render_endpoints(bare)


class TestDesignMcq:
    def test_full_group_no_pads(self):
        groups, documents = design_corpus()
        items = gen_design_mcq(groups, documents, "arms", seed=11)
        by_trial = {item.provenance["trial_id"]: item for item in items}
        item = by_trial["NCT00000001"]
        assert item.task == "arm_design"
        assert len(item.options) == 4
        assert item.answer in "ABCD"
        assert item.correct_option == render_arms(documents["NCT00000001"])
        assert item.provenance["pad_ids"] == []
        assert set(item.provenance["distractor_ids"]) <= set(groups["review-A"])

    def test_small_group_pads_deterministically(self):
        groups, documents = design_corpus()
        first = gen_design_mcq(groups, documents, "eligibility", seed=11)
        second = gen_design_mcq(groups, documents, "eligibility", seed=11)
        assert first == second
        lonely = next(i for i in first if i.provenance["trial_id"] == "NCT00000005")
        assert len(lonely.provenance["pad_ids"]) == 3
        assert len(lonely.options) == 4

    def test_soundness_for_every_item_and_field(self):
        groups, documents = design_corpus()
        renderers = {
            "arms": render_arms,
            "eligibility": render_eligibility,
            "endpoints": render_endpoints,
        }
        for field, renderer in renderers.items():
            for item in gen_design_mcq(groups, documents, field, seed=3):
                target = item.provenance["trial_id"]
                assert item.correct_option == renderer(documents[target])
                assert sum(option == item.correct_option for option in item.options) == 1

    def test_unrenderable_target_skipped(self):
        groups, documents = design_corpus()
        documents["NCT00000002"] = make_doc("NCT00000002", "No arms trial")
        items = gen_design_mcq(groups, documents, "arms", seed=11)
        trial_ids = {item.provenance["trial_id"] for item in items}
        assert "NCT00000002" not in trial_ids
        assert "NCT00000001" in trial_ids
        for item in items:
            assert "NCT00000002" not in item.provenance["distractor_ids"]
            assert "NCT00000002" not in item.provenance["pad_ids"]

    def test_trial_claimed_once_across_reviews(self):
        groups, documents = design_corpus()
        groups["review-C"] = ["NCT00000001", "NCT00000006"]
        items = gen_design_mcq(groups, documents, "arms", seed=11)
        ids = [item.item_id for item in items]
        assert len(ids) == len(set(ids))
        assert sum(i.provenance["trial_id"] == "NCT00000001" for i in items) == 1

    def test_identical_rendering_excluded_from_candidates(self):
        groups, documents = design_corpus()
        documents["NCT00000002"] = documents["NCT00000002"]._replace(eligibility_criteria="Adults with condition 1.")
        items = gen_design_mcq(groups, documents, "eligibility", seed=11)
        item = next(i for i in items if i.provenance["trial_id"] == "NCT00000001")
        assert "NCT00000002" not in item.provenance["distractor_ids"]
        assert len(set(item.options)) == 4

    def test_bad_field(self):
        with pytest.raises(ValueError):
            gen_design_mcq({}, {}, "sponsors", seed=1)


def reference_review_groups(reviews, triples):
    """The benchmarks stage's grouping loop before `review_groups`: a list scan drops repeats."""
    review_pmids = {review.pmid for review in reviews}
    groups = {}
    for triple in triples:
        if triple.head_id in review_pmids and triple.tail_source is Source.CTGOV:
            group = groups.setdefault(triple.head_id, [])
            if triple.tail_id not in group:
                group.append(triple.tail_id)
    return groups


# Heads mix review pmids with other ids; tails mix CT.gov and PubMed ids, drawn from few values so they repeat.
GROUP_TRIPLES = st.lists(
    st.builds(
        RelationTriple,
        st.sampled_from(["R1", "R2", "R3", "X9"]),
        st.sampled_from(["include", "exclude", "cites"]),
        st.sampled_from(["NCT01", "NCT02", "NCT03", "NCT04", "555", "556"]),
        st.just(Source.PUBMED),
        st.sampled_from([Source.CTGOV, Source.PUBMED]),
    ),
    max_size=30,
)


class TestReviewGroups:
    @given(st.lists(st.sampled_from(["R1", "R2", "R3"]), unique=True), GROUP_TRIPLES)
    def test_groups_equal_the_reference(self, pmids, triples):
        reviews = [Review(pmid, "", "", "", "") for pmid in pmids]
        got = review_groups(reviews, triples)
        want = reference_review_groups(reviews, triples)
        assert got == want
        assert list(got) == list(want)

    def test_first_citation_order_each_once(self):
        triples = [
            RelationTriple("R1", "include", "NCT02", Source.PUBMED, Source.CTGOV),
            RelationTriple("R1", "include", "555", Source.PUBMED, Source.PUBMED),
            RelationTriple("X9", "include", "NCT09", Source.PUBMED, Source.CTGOV),
            RelationTriple("R1", "exclude", "NCT01", Source.PUBMED, Source.CTGOV),
            RelationTriple("R1", "include", "NCT02", Source.PUBMED, Source.CTGOV),
        ]
        assert review_groups([Review("R1", "", "", "", "")], triples) == {"R1": ["NCT02", "NCT01"]}


class TestSampleSize:
    def test_matching_pair_kept(self):
        pairs = [
            view(ProtocolPair, {
                "nct_id": "NCT06330298",
                "title": "Adaptive dosing study",
                "section_text": "A total of 84 participants (42 per arm) gives 90% power.",
                "registry_enrollment": 84,
                "assumptions_summary": "Two-arm design, 90% power, alpha 0.05.",
            })
        ]
        items = gen_sample_size_items(pairs)
        assert len(items) == 1
        assert items[0].answer == 84
        assert items[0].item_id == "sample_size:NCT06330298"
        assert "Statistical assumptions:" in items[0].input_text
        assert items[0].provenance["explanation"].startswith("A total of 84")

    def test_mismatch_filtered(self):
        pairs = [
            view(ProtocolPair, {
                "nct_id": "N1",
                "section_text": "62 participants give 80% power.",
                "registry_enrollment": 84,
                "assumptions_summary": "text",
            })
        ]
        assert gen_sample_size_items(pairs) == []

    def test_no_numbers_filtered(self):
        pairs = [
            view(ProtocolPair, {
                "nct_id": "N1",
                "section_text": "Sample size was chosen pragmatically.",
                "registry_enrollment": 84,
                "assumptions_summary": "text",
            })
        ]
        assert gen_sample_size_items(pairs) == []

    def test_comma_separated_number(self):
        assert stated_numbers("We planned 1,000 patients") == {1000}

    def test_client_summarizes_when_needed(self):
        prompts = []

        def client(prompt):
            prompts.append(prompt)
            return "Summary from client."

        pairs = [
            view(ProtocolPair, {
                "nct_id": "N1",
                "title": "T",
                "section_text": "84 participants give 90% power.",
                "registry_enrollment": 84,
            })
        ]
        items = gen_sample_size_items(pairs, client)
        assert "Summary from client." in items[0].input_text
        assert "84 participants give 90% power." in prompts[0]

    def test_no_summary_no_client_skipped(self):
        pairs = [
            view(ProtocolPair, {
                "nct_id": "N1",
                "section_text": "84 participants.",
                "registry_enrollment": 84,
            })
        ]
        assert gen_sample_size_items(pairs) == []


def completion_doc(eligibility="Adults aged 18 to 65 with stable disease."):
    return make_doc(
        "NCT02823470",
        "Completion fixture",
        interventions=[{"type": "DRUG", "name": "X", "armGroupLabels": ["Active"]}],
        arms=[{"label": "Active", "type": "EXPERIMENTAL", "description": "Gets X daily"}],
        eligibility=eligibility,
        design={
            "phases": ["PHASE2"],
            "designInfo": {
                "allocation": "RANDOMIZED",
                "interventionModel": "PARALLEL",
                "primaryPurpose": "TREATMENT",
                "maskingInfo": {"masking": "DOUBLE"},
            },
        },
    )


def study(status, study_id="NCT02823470"):
    return CanonicalStudy(
        study_id=study_id,
        source=Source.CTGOV,
        title="Completion fixture",
        status=status,
    )


#: The per-phrase loop the leakage screen stands in front of.
REFERENCE_LEAK_PATTERNS = [
    (phrase, re.compile(rf"\b{re.escape(phrase)}\b", re.IGNORECASE)) for phrase in completion_leakage_vocabulary()
]


def reference_leaking_phrase(text):
    for phrase, pattern in REFERENCE_LEAK_PATTERNS:
        if pattern.search(text):
            return phrase
    return None


NEAR_MISSES = (
    "completedly", "uncompleted", "unterminated", "terminate", "completion", "lack of efficacies",
    "enrollment issue", "safety-concerns", "sponsor", "operational problem", "other",
)


@st.composite
def leakage_texts(draw):
    """Vocabulary phrases and near misses in random case, joined by word and non-word characters."""
    pieces = draw(st.lists(st.sampled_from(completion_leakage_vocabulary() + NEAR_MISSES), max_size=5))
    text = ""
    for piece in pieces:
        piece = "".join(c.upper() if draw(st.booleans()) else c for c in piece)
        text += draw(st.sampled_from((" ", "", "_", "-", "\n", ". ", "x", "  "))) + piece
    return text


class TestCompletion:
    def test_completed_trial(self):
        items = gen_completion_items([(study(StudyStatus.COMPLETED), completion_doc())], {})
        assert len(items) == 1
        item = items[0]
        assert item.answer == "completed"
        assert "Phase: PHASE2" in item.input_text
        assert "Masking: DOUBLE" in item.input_text
        assert "Eligibility criteria:" in item.input_text

    def test_terminated_trial_carries_category(self):
        outcomes = {
            "NCT02823470": OutcomeLabel(
                "NCT02823470", "terminated:enrollment issues", "stop-reason-similarity"
            )
        }
        items = gen_completion_items([(study(StudyStatus.TERMINATED), completion_doc())], outcomes)
        assert items[0].answer == "terminated:enrollment issues"
        assert items[0].provenance["category"] == "enrollment issues"

    def test_recruiting_excluded(self):
        items = gen_completion_items([(study(StudyStatus.RECRUITING), completion_doc())], {})
        assert items == []

    def test_terminated_without_label_skipped(self):
        items = gen_completion_items([(study(StudyStatus.TERMINATED), completion_doc())], {})
        assert items == []

    def test_leaky_input_dropped(self):
        doc = completion_doc(eligibility="Patients who completed prior chemotherapy.")
        items = gen_completion_items([(study(StudyStatus.COMPLETED), doc)], {})
        assert items == []

    def test_missing_eligibility_skipped(self):
        doc = completion_doc(eligibility=None)
        items = gen_completion_items([(study(StudyStatus.COMPLETED), doc)], {})
        assert items == []

    def test_leakage_checker(self):
        with pytest.raises(LeakageDetected) as excinfo:
            check_completion_leakage("The study was terminated due to slow accrual")
        assert "terminated" in str(excinfo.value)
        with pytest.raises(LeakageDetected):
            check_completion_leakage("signals of lack of efficacy were seen")
        check_completion_leakage("patients with other malignancies are eligible")

    @given(leakage_texts())
    @example("Completedly UNTERMINATED; safety concern. LACK OF EFFICACY-sponsor decisions")
    @example("sponsor  decision, then terminated")
    def test_leakage_screen_names_the_phrase_the_loop_names(self, text):
        try:
            check_completion_leakage(text)
        except LeakageDetected as exc:
            assert str(exc) == f"input contains {reference_leaking_phrase(text)!r}"
        else:
            assert reference_leaking_phrase(text) is None

    def test_vocabulary_contents(self):
        vocabulary = completion_leakage_vocabulary()
        assert "completed" in vocabulary
        assert "terminated" in vocabulary
        assert "enrollment issues" in vocabulary
        assert "other" not in vocabulary


def make_reviews():
    entries = [
        {
            "pmid": "38078494",
            "background": "Epilepsy background.",
            "objectives": "Assess lamotrigine maintenance.",
            "criteria": "Randomized trials of lamotrigine.",
        },
        {
            "pmid": "30000000",
            "background": "Older review.",
            "objectives": "Something else.",
            "criteria": "Trials of anything.",
        },
        {
            "pmid": "10796093",
            "background": "Bed rest review.",
            "objectives": "Assess bed rest.",
            "criteria": "Trials of bed rest in pregnancy.",
        },
    ]
    return [view(Review, entry) for entry in entries]


def include(head, tail):
    return RelationTriple(head, "include", tail, Source.PUBMED, Source.PUBMED)


def exclude(head, tail):
    return RelationTriple(head, "exclude", tail, Source.PUBMED, Source.PUBMED)


class TestSearch:
    def test_items_and_truth_sets(self):
        triples = [
            include("38078494", "20696552"),
            include("38078494", "2612495"),
            RelationTriple("38078494", "include", "NCT00000150", Source.PUBMED, Source.CTGOV),
            include("10796093", "9111111"),
        ]
        items = gen_search_items(make_reviews(), include_map(triples))
        by_id = {item.provenance["review_pmid"]: item for item in items}
        assert set(by_id) == {"38078494", "10796093"}
        assert by_id["38078494"].answer == ["20696552", "2612495"]
        assert "Background: Epilepsy background." in by_id["38078494"].input_text
        assert "Selection criteria:" in by_id["38078494"].input_text

    def test_split_most_recent_test(self):
        triples = [
            include("38078494", "1"),
            include("30000000", "2"),
            include("10796093", "3"),
        ]
        items = gen_search_items(make_reviews(), include_map(triples))
        splits = split_search_items([item.item_id for item in items], test_size=1)
        assert splits["study_search:38078494"] == "test"
        assert splits["study_search:30000000"] == "train"
        assert splits["study_search:10796093"] == "train"


class TestScreening:
    def test_balanced_downsample(self):
        included = [f"1{n:04d}" for n in range(15)]
        excluded = [f"2{n:04d}" for n in range(20)]
        triples = [include("38078494", pmid) for pmid in included]
        triples += [exclude("38078494", pmid) for pmid in excluded]
        titles = {pmid: f"Title {pmid}" for pmid in included + excluded}
        items = gen_screening_items(make_reviews()[:1], triples, titles, seed=5)
        assert len(items) == 1
        item = items[0]
        labels = list(item.answer.values())
        assert len(item.answer) == 10
        assert labels.count("include") == 5
        assert labels.count("exclude") == 5
        rerun = gen_screening_items(make_reviews()[:1], triples, titles, seed=5)
        assert rerun == items

    def test_minority_kept_whole(self):
        triples = [include("38078494", "11"), include("38078494", "12")]
        triples += [exclude("38078494", f"2{n:02d}") for n in range(12)]
        titles = {}
        items = gen_screening_items(make_reviews()[:1], triples, titles, seed=5)
        answer = items[0].answer
        assert sum(label == "include" for label in answer.values()) == 2
        assert sum(label == "exclude" for label in answer.values()) == 8

    def test_tiny_pool(self):
        triples = [include("38078494", "11"), include("38078494", "12"), exclude("38078494", "21")]
        items = gen_screening_items(make_reviews()[:1], triples, {}, seed=5)
        assert len(items[0].answer) == 3

    def test_input_lists_candidates(self):
        triples = [include("38078494", "11"), exclude("38078494", "21")]
        titles = {"11": "Eleven", "21": "Twenty-one"}
        items = gen_screening_items(make_reviews()[:1], triples, titles, seed=5)
        assert "PMID 11: Eleven" in items[0].input_text
        assert "PMID 21: Twenty-one" in items[0].input_text
        assert items[0].provenance["candidate_order"] == list(items[0].answer)

    def test_missing_criteria_skipped(self):
        review = [view(Review, {"pmid": "38078494", "background": "b"})]
        triples = [include("38078494", "11")]
        assert gen_screening_items(review, triples, {}, seed=5) == []


GOOD_MCQ = json.dumps(
    {
        "question": "Which outcome did bed rest in hospital show for impaired fetal growth?",
        "options": [
            "Clear benefit in birthweight",
            "Higher rates of preterm birth",
            "No significant differences between bed rest and ambulatory management",
            "Reduced maternal satisfaction only",
        ],
        "answer": "C",
    }
)


class TestEvidenceMcq:
    includes = {"10796093": ["0", "1", "2", "3"]}

    def review(self, pmid="10796093"):
        return view(Review, {"pmid": pmid, "review_text": "Bed rest versus ambulatory management: conclusions text."})

    def test_good_generation(self):
        prompts = []

        def client(prompt):
            prompts.append(prompt)
            return GOOD_MCQ

        items = gen_evidence_mcq([self.review()], self.includes, client)
        assert len(items) == 1
        item = items[0]
        assert item.answer == "C"
        assert item.correct_option.startswith("No significant differences")
        assert item.provenance["included_count"] == 4
        assert "conclusions text" in prompts[0]
        assert prompts[0].startswith(EVIDENCE_MCQ_PROMPT.split("{", 1)[0][:30])

    def test_count_filter(self):
        calls = []

        def client(prompt):
            calls.append(prompt)
            return GOOD_MCQ

        counts = {"1": 0, "2": 21, "3": 20, "4": 1}
        includes = {pmid: [str(n) for n in range(count)] for pmid, count in counts.items()}
        items = gen_evidence_mcq([self.review(pmid) for pmid in counts], includes, client)
        assert [item.provenance["review_pmid"] for item in items] == ["3", "4"]
        assert len(calls) == 2

    def test_review_without_text_skipped(self):
        blank = view(Review, {"pmid": "10796093", "review_text": " "})
        assert gen_evidence_mcq([blank], self.includes, lambda prompt: pytest.fail("no call expected")) == []

    def test_malformed_json(self):
        with pytest.raises(MalformedResponse):
            gen_evidence_mcq([self.review()], self.includes, lambda prompt: "not json at all")

    def test_code_fenced_json_accepted(self):
        items = gen_evidence_mcq([self.review()], self.includes, lambda prompt: f"```json\n{GOOD_MCQ}\n```")
        assert items[0].answer == "C"

    def test_answer_out_of_range(self):
        payload = json.loads(GOOD_MCQ)
        payload["answer"] = "E"
        with pytest.raises(MalformedResponse):
            gen_evidence_mcq([self.review()], self.includes, lambda prompt: json.dumps(payload))

    def test_duplicate_options_rejected(self):
        payload = json.loads(GOOD_MCQ)
        payload["options"] = ["same", "same", "other", "more"]
        with pytest.raises(MalformedResponse):
            gen_evidence_mcq([self.review()], self.includes, lambda prompt: json.dumps(payload))

    def test_self_reference_rejected(self):
        payload = json.loads(GOOD_MCQ)
        payload["question"] = "Based on the review, what did bed rest show?"
        with pytest.raises(SelfReferenceViolation):
            gen_evidence_mcq([self.review()], self.includes, lambda prompt: json.dumps(payload))


class TestSelfReference:
    @pytest.mark.parametrize(
        "question",
        [
            "Based on the review, which arm did better?",
            "based on this review of bed rest, what happened?",
            "According to the Cochrane review, which outcome improved?",
            "As reported in this systematic review, what was found?",
            "What did the original review conclude?",
            "In this review, which comparison was made?",
        ],
    )
    def test_violations(self, question):
        with pytest.raises(SelfReferenceViolation):
            check_self_reference(question)

    @pytest.mark.parametrize(
        "question",
        [
            "Based on the information provided below, which outcome improved?",
            "Which outcome did bed rest improve in women with impaired fetal growth?",
            "What did a 2010 systematic review of statins conclude?",
            "Did the institutional review board approve the protocol?",
        ],
    )
    def test_allowed(self, question):
        check_self_reference(question)
