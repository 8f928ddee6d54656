"""Conditions, MedDRA, biomarker, and endpoint linking tests."""

import itertools
import json

import pytest

from trialforge.errors import (
    ClientUnavailable,
    MalformedResponse,
    ReplayMiss,
    TaxonomyViolation,
)
from trialforge.ontology._vocabio import iter_tsv
from trialforge.ontology.biomarkers import load_biomarker_index, match_biomarker
from trialforge.ontology.conditions import annotate_conditions
from trialforge.ontology.endpoints import (
    COMET_TAXONOMY,
    build_endpoint_prompt,
    classify_endpoint,
    validate_endpoint_label,
)
from trialforge.ontology.meddra import MeddraHierarchy, load_meddra, map_meddra
from trialforge.schema import CanonicalStudy, Source


def make_study(source=Source.ANZCTR, title="Metformin in type 2 diabetes", summary="A trial of metformin."):
    return CanonicalStudy(study_id="ACTRN1", source=source, title=title, brief_summary=summary)


ANNOTATOR_RESPONSE = {
    "annotations": [
        {
            "mesh_id": "D003924",
            "mesh_term": "Diabetes Mellitus, Type 2",
            "semantic_type": "T047",
            "ancestors": [
                {"mesh_id": "D003920", "mesh_term": "Diabetes Mellitus"},
                {"mesh_id": "D004700", "mesh_term": "Endocrine System Diseases"},
            ],
        },
        {
            "mesh_id": "D008687",
            "mesh_term": "Metformin",
            "semantic_type": "T109",
            "ancestors": [],
        },
    ]
}


class TestConditions:
    def test_ctgov_study_skipped_without_calling(self):
        def exploding(request):
            raise AssertionError("annotator must not be called for ctgov")

        study = make_study(source=Source.CTGOV)
        assert annotate_conditions(study, exploding) == []

    def test_empty_text_skipped(self):
        def exploding(request):
            raise AssertionError("annotator must not be called without text")

        assert annotate_conditions(make_study(title="", summary="  "), exploding) == []

    def test_hierarchy_labels(self):
        captured = {}

        def client(request):
            captured.update(request)
            return ANNOTATOR_RESPONSE

        out = annotate_conditions(make_study(), client)
        assert captured["semantic_types"] == ["T047"]
        assert "Metformin in type 2 diabetes" in captured["text"]
        assert "A trial of metformin." in captured["text"]

        assert [(a.mesh_id, a.mesh_type) for a in out] == [
            ("D003924", "mesh-list"),
            ("D003920", "mesh-ancestor"),
            ("D004700", "mesh-ancestor-main"),
        ]
        assert all(a.study_id == "ACTRN1" for a in out)
        # the non-disease concept (T109) never shows up
        assert "D008687" not in {a.mesh_id for a in out}

    def test_concept_without_ancestors(self):
        def client(request):
            return {
                "annotations": [
                    {"mesh_id": "D001", "mesh_term": "Thing", "semantic_type": "T047", "ancestors": []}
                ]
            }

        out = annotate_conditions(make_study(), client)
        assert [(a.mesh_id, a.mesh_type) for a in out] == [("D001", "mesh-list")]

    def test_duplicate_annotations_collapse(self):
        annotation = {
            "mesh_id": "D001",
            "mesh_term": "Thing",
            "semantic_type": "T047",
            "ancestors": [{"mesh_id": "D000", "mesh_term": "Top"}],
        }

        def client(request):
            return {"annotations": [annotation, annotation]}

        out = annotate_conditions(make_study(), client)
        assert [(a.mesh_id, a.mesh_type) for a in out] == [
            ("D001", "mesh-list"),
            ("D000", "mesh-ancestor-main"),
        ]

    # every client error `ServiceClient.call` raises
    @pytest.mark.parametrize("exc", [ReplayMiss, MalformedResponse, ClientUnavailable])
    def test_mode_errors_propagate(self, exc):
        error = exc("annotator:abc123")

        def failing(request):
            raise error

        with pytest.raises(exc) as excinfo:
            annotate_conditions(make_study(), failing)
        assert excinfo.value is error

    def test_malformed_response(self):
        with pytest.raises(MalformedResponse):
            annotate_conditions(make_study(), lambda request: {"nope": 1})

    @pytest.mark.parametrize("ancestors, message", [
        (["D000"], r": annotations\[0\].ancestors\[0\] is 'D000', expected dict or null$"),
        ([None], r" has no 'annotations\[0\].ancestors\[0\].mesh_id'$"),
        ([{"mesh_term": "Top"}], r" has no 'annotations\[0\].ancestors\[0\].mesh_id'$"),
        ([{"mesh_id": "D000"}], r" has no 'annotations\[0\].ancestors\[0\].mesh_term'$"),
        ({"mesh_id": "D000", "mesh_term": "Top"}, r": annotations\[0\].ancestors is \{.*\}, expected list or null$"),
    ], ids=["string", "null", "no-id", "no-term", "object"])
    def test_malformed_ancestor(self, ancestors, message):
        annotation = {"mesh_id": "D001", "mesh_term": "Thing", "semantic_type": "T047", "ancestors": ancestors}
        with pytest.raises(MalformedResponse, match="^annotator answer for ACTRN1" + message):
            annotate_conditions(make_study(), lambda request: {"annotations": [annotation]})


@pytest.fixture(scope="module")
def hierarchy():
    return load_meddra()


@pytest.fixture(scope="module")
def index():
    return load_biomarker_index()


class TestMeddra:
    def test_pt_name_match(self, hierarchy):
        assert map_meddra("Nausea", hierarchy) == "10028813"

    def test_llt_resolves_to_linked_pt(self, hierarchy):
        # "Fever" is an LLT under the PT Pyrexia
        code = map_meddra("FEVER", hierarchy)
        assert code == "10016558"
        assert hierarchy.pt_by_name["pyrexia"] == code

    def test_llt_phrase(self, hierarchy):
        assert map_meddra("feeling queasy", hierarchy) == "10028813"

    def test_unknown_term(self, hierarchy):
        assert map_meddra("spontaneous combustion", hierarchy) is None
        assert map_meddra("", hierarchy) is None

    def test_llt_wins_over_pt(self):
        hierarchy = MeddraHierarchy(
            llt_to_pt={"nausea": "PT-VIA-LLT"},
            pt_by_name={"nausea": "PT-DIRECT"},
        )
        assert map_meddra("nausea", hierarchy) == "PT-VIA-LLT"


class TestBiomarkers:
    def test_exact_match(self, index):
        match = match_biomarker("estrogen receptor alpha", index)
        assert match.match_type == "exact_multi_word"
        assert match.biomarker_type == "PRD"
        assert match.biomarker_genes == ("ESR1",)

    def test_whitespace_and_case_still_exact(self, index):
        match = match_biomarker("  Estrogen   Receptor ALPHA ", index)
        assert match.match_type == "exact_multi_word"

    def test_order_invariant_match(self, index):
        match = match_biomarker("receptor estrogen alpha", index)
        assert match.match_type == "exact_multi_word_order_invariant"
        assert match.biomarker_name == "estrogen receptor alpha"

    def test_multi_gene_row(self, index):
        match = match_biomarker("hormone receptor status", index)
        assert match.biomarker_genes == ("ESR1", "PGR")

    def test_no_match(self, index):
        assert match_biomarker("blood stuff", index) is None
        assert match_biomarker("", index) is None

    def test_permutations_all_match(self, index):
        # every reordering of every indexed multi-word term still resolves
        for name, row in index.exact.items():
            tokens = name.split()
            if len(tokens) < 2:
                continue
            for perm in itertools.permutations(tokens):
                span = " ".join(perm)
                match = match_biomarker(span, index)
                assert match is not None, span
                assert match.biomarker_name == name
                expected = "exact_multi_word" if span == name else "exact_multi_word_order_invariant"
                assert match.match_type == expected, span

    def test_invalid_type_rejected(self, tmp_path):
        (tmp_path / "themarker.tsv").write_text("weird marker\tprotein\tXXX\t\n", encoding="utf-8")
        with pytest.raises(TaxonomyViolation):
            load_biomarker_index(tmp_path)


class TestVocabTsv:
    def test_quotes_are_ordinary_characters(self, tmp_path):
        path = tmp_path / "brands.tsv"
        path.write_text('"Tylenol" Extra\tDB00316\n# note\n\n"Advil\tDB01050\nMotrin\n', encoding="utf-8")
        assert list(iter_tsv(path, 2)) == [
            ['"Tylenol" Extra', "DB00316"],
            ['"Advil', "DB01050"],
            ["Motrin", ""],
        ]

    def test_over_wide_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "brands.tsv"
        path.write_text('# name\tdrugbank id\nTylenol\t"DB00316\tDB01050"\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"^brands\.tsv:2: expected at most 2 columns, got 3$"):
            list(iter_tsv(path, 2))


class TestEndpointTaxonomy:
    def test_domain_count(self):
        assert len(COMET_TAXONOMY) == 5

    @pytest.mark.parametrize(
        "domain,subdomain",
        [
            ("Mortality/survival", None),
            ("Physiological/clinical", "Cardiovascular outcomes"),
            ("Physiological/clinical", None),
            ("Life impact", "Global quality of life"),
            ("Resource use", "Hospital"),
            ("Adverse events/effects", "Treatment related toxicity"),
            ("Adverse events/effects", None),
        ],
    )
    def test_valid_pairs(self, domain, subdomain):
        validate_endpoint_label(domain, subdomain)

    @pytest.mark.parametrize(
        "domain,subdomain",
        [
            ("Vital signs", None),
            ("Mortality/survival", "Hospital"),
            ("Physiological/clinical", "Quality of life"),
            ("Life impact", "Cardiovascular outcomes"),
        ],
    )
    def test_invalid_pairs(self, domain, subdomain):
        with pytest.raises(TaxonomyViolation):
            validate_endpoint_label(domain, subdomain)


class TestClassifyEndpoint:
    def test_prompt_is_the_fixed_template(self):
        prompt = build_endpoint_prompt("Change in HbA1c at 24 weeks.")
        assert prompt.startswith("You are a clinical research expert.")
        assert "COMET Taxonomy:" in prompt
        assert '"domain": "<COMET domain>"' in prompt
        assert prompt.rstrip().endswith("Change in HbA1c at 24 weeks.")

    def test_parses_ordered_list(self):
        answer = json.dumps(
            [
                {"outcome": "overall survival", "domain": "Mortality/survival", "subdomain": None},
                {"outcome": "quality of life", "domain": "Life impact", "subdomain": "Global quality of life"},
            ]
        )
        out = classify_endpoint("some text", lambda prompt: answer)
        assert [(c.outcome, c.domain, c.subdomain) for c in out] == [
            ("overall survival", "Mortality/survival", None),
            ("quality of life", "Life impact", "Global quality of life"),
        ]

    def test_code_fenced_answer_accepted(self):
        entry = '{"outcome": "os", "domain": "Mortality/survival", "subdomain": null}'
        # closing fence on a line of its own, and on the answer's last line
        for answer in (f"```json\n[{entry}]\n```", f"```json\n[{entry}]```"):
            out = classify_endpoint("text", lambda prompt: answer)
            assert out[0].domain == "Mortality/survival", answer

    def test_non_json_rejected(self):
        with pytest.raises(MalformedResponse):
            classify_endpoint("text", lambda prompt: "The primary outcome is survival.")

    def test_empty_list_rejected(self):
        with pytest.raises(MalformedResponse):
            classify_endpoint("text", lambda prompt: "[]")

    def test_bad_domain_rejected(self):
        answer = '[{"outcome": "bp", "domain": "Vital signs", "subdomain": null}]'
        with pytest.raises(TaxonomyViolation):
            classify_endpoint("text", lambda prompt: answer)

    # every client error `ServiceClient.call` raises
    @pytest.mark.parametrize("exc", [ReplayMiss, MalformedResponse, ClientUnavailable])
    def test_mode_errors_propagate(self, exc):
        error = exc("llm:abc123")

        def failing(prompt):
            raise error

        with pytest.raises(exc) as excinfo:
            classify_endpoint("text", failing)
        assert excinfo.value is error
