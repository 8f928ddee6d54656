"""Service responses and model answers are read through the checked answer views.

Each consumer hands its answer to `views.parse_answer`; a wrong shape is a
`MalformedResponse` (exit 3), never a TypeError, a KeyError or a wrong value
written to an output.
"""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import view
from trialforge.benchgen.review_tasks import gen_evidence_mcq
from trialforge.clients import llm_callable, pubmed_search_callable
from trialforge.errors import ForgeError, MalformedResponse
from trialforge.evidence import extract_pubmed_pico
from trialforge.ontology.conditions import annotate_conditions
from trialforge.ontology.drugs import resolve_rxnorm
from trialforge.ontology.endpoints import classify_endpoint
from trialforge.schema import CanonicalStudy, Source
from trialforge.views import Review

STUDY = CanonicalStudy(study_id="ACTRN1", source=Source.ANZCTR, title="Metformin in type 2 diabetes")
REVIEW = view(Review, {"pmid": "10796093", "review_text": "Bed rest showed no benefit."})

ANNOTATION = {
    "mesh_id": "D003924",
    "mesh_term": "Diabetes Mellitus, Type 2",
    "semantic_type": "T047",
    "ancestors": [{"mesh_id": "D003920", "mesh_term": "Diabetes Mellitus"}],
}
PICO = {
    "population": "62 pregnant women",
    "population_n": 62,
    "outcomes": [{"intervention": "Bed rest", "is_control": False, "outcome": "No improvement"}],
}
ENDPOINTS = [{"outcome": "HbA1c", "domain": "Physiological/clinical", "subdomain": "Metabolic and nutritional outcomes"}]
MCQ = {"question": "Does bed rest help?", "options": ["Yes", "No", "Only at night", "Unknown"], "answer": "B"}


def rxnorm(answer):
    return resolve_rxnorm("unknowndrug", {}, lambda request: answer)


def service(answer):
    return SimpleNamespace(call=lambda name, request: answer)


# One entry per reader: (well-formed answer, call that reads it).
CONSUMERS = {
    "annotator": ({"annotations": [ANNOTATION]}, lambda answer: annotate_conditions(STUDY, lambda request: answer)),
    "rxnorm": ({"rxcui": None, "suggestions": ["aspirin"]}, rxnorm),
    "llm": ({"text": "positive"}, lambda answer: llm_callable(service(answer))("prompt")),
    "pubmed_search": ({"ids": ["111", "222"]}, lambda answer: pubmed_search_callable(service(answer))("amd")),
    "pico": (PICO, lambda answer: extract_pubmed_pico("1", "t", "a", lambda prompt: json.dumps(answer))),
    "endpoint": (ENDPOINTS, lambda answer: classify_endpoint("t", lambda prompt: json.dumps(answer))),
    "mcq": (MCQ, lambda answer: gen_evidence_mcq([REVIEW], {REVIEW.pmid: ["1"]}, lambda prompt: json.dumps(answer))),
}


def replaced(value, path, new):
    """``value`` with the value at ``path`` (keys and indexes) replaced by ``new``."""
    if not path:
        return new
    copy = value.copy()
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


def paths(value, at=()):
    yield at
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from paths(child, at + (key,))


@pytest.mark.parametrize("name", CONSUMERS)
def test_well_formed_answers_are_read(name):
    answer, call = CONSUMERS[name]
    assert call(answer) is not None


# Each of these used to crash with a TypeError (exit 1) or write the value to an output (exit 0).
@pytest.mark.parametrize("name, path, value, message", [
    ("annotator", ("annotations", 0, "mesh_id"), ["D003924"], "annotator answer for ACTRN1: annotations[0].mesh_id is ['D003924'], expected str"),
    ("endpoint", (0, "domain"), ["Life impact"], "endpoint answer: [0].domain is ['Life impact'], expected str"),
    ("endpoint", (0, "outcome"), ["HbA1c"], "endpoint answer: [0].outcome is ['HbA1c'], expected str"),
    ("rxnorm", ("rxcui",), ["1191"], "rxnorm rxcui answer for 'unknowndrug': rxcui is ['1191'], expected str or int or null"),
    ("pico", ("population_n",), True, "pico answer for 1: population_n is True, expected int or null"),
    ("pico", ("outcomes", 0, "is_control"), "no", "pico answer for 1: outcomes[0].is_control is 'no', expected bool or null"),
    ("pico", ("population",), ["women"], "pico answer for 1: population is ['women'], expected str or null"),
    ("pico", ("outcomes", 0, "intervention"), {"name": "Bed rest"}, "pico answer for 1: outcomes[0].intervention is {'name': 'Bed rest'}, expected str or null"),
], ids=["list-mesh-id", "list-domain", "list-outcome", "list-rxcui", "boolean-population-n", "text-is-control", "list-population", "object-intervention"])
def test_wrong_typed_value_is_malformed(name, path, value, message):
    answer, call = CONSUMERS[name]
    with pytest.raises(MalformedResponse) as excinfo:
        call(replaced(answer, path, value))
    assert str(excinfo.value) == message


def test_text_suggestions_are_malformed_not_one_call_per_letter():
    calls = []

    def client(request):
        calls.append(request["op"])
        return {"rxcui": None} if request["op"] == "rxcui" else {"suggestions": "abc"}

    with pytest.raises(MalformedResponse, match=r"^rxnorm spelling answer for 'unknowndrug': suggestions is 'abc', expected list or null$"):
        resolve_rxnorm("unknowndrug", {}, client)
    assert calls == ["rxcui", "spelling"]


@pytest.mark.parametrize("name, path, message", [
    ("annotator", ("annotations",), " has no 'annotations'"),
    ("annotator", ("annotations", 0), " has no 'annotations[0]'"),
    ("annotator", ("annotations", 0, "mesh_term"), " has no 'annotations[0].mesh_term'"),
    ("pico", ("outcomes",), " has no 'outcomes'"),
    ("pico", ("outcomes", 0), " has no 'outcomes[0]'"),
    ("endpoint", (0,), " has no '[0]'"),
    ("endpoint", (0, "domain"), " has no '[0].domain'"),
    ("mcq", ("options", 0), " has no 'options[0]'"),
    ("llm", ("text",), " has no 'text'"),
    ("pubmed_search", ("ids",), " has no 'ids'"),
])
def test_null_where_a_value_must_be_given_is_malformed(name, path, message):
    answer, call = CONSUMERS[name]
    with pytest.raises(MalformedResponse, match=f"{message}$".replace("[", r"\[")):
        call(replaced(answer, path, None))


@pytest.mark.parametrize("name, path, value", [
    ("annotator", ("annotations", 0, "ancestors"), None),
    ("annotator", ("annotations", 0, "semantic_type"), None),
    ("rxnorm", ("suggestions",), None),
    ("pico", ("population",), None),
    ("pico", ("population_n",), None),
    ("pico", ("outcomes", 0, "is_control"), None),
    ("endpoint", (0, "subdomain"), None),
])
def test_lenient_values_are_read(name, path, value):
    answer, call = CONSUMERS[name]
    call(replaced(answer, path, value))


def test_integer_rxcui_reads_as_its_text():
    assert rxnorm({"rxcui": 1191}) == ("1191", "remote")


@pytest.mark.parametrize("letter", ["AB", "", " "])
def test_mcq_answer_must_be_one_option_letter(letter):
    # a multi-letter or blank answer used to pass as a substring of "ABCD"
    with pytest.raises(MalformedResponse, match="answer letter out of range"):
        CONSUMERS["mcq"][1]({**MCQ, "answer": letter})


def test_answer_text_is_kept_as_written():
    # stripping stays with each consumer
    items = CONSUMERS["mcq"][1]({**MCQ, "question": " Does bed rest help? ", "answer": " b ", "options": [" Yes", "No ", "Maybe", "Unknown"]})
    assert (items[0].input_text, items[0].answer, items[0].options) == ("Does bed rest help?", "B", ("Yes", "No", "Maybe", "Unknown"))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize("name", CONSUMERS)
@settings(deadline=None)
@given(data=st.data())
def test_any_value_anywhere_returns_or_raises_a_forge_error(name, data):
    answer, call = CONSUMERS[name]
    path = data.draw(st.sampled_from(list(paths(answer))), label="path")
    try:
        call(replaced(answer, path, data.draw(JSON_VALUES, label="value")))
    except ForgeError:
        pass
