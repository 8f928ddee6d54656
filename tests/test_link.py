"""Link stage biomarker scan: the pruned scan, its per-text cache and the
window it allows."""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from trialforge import pipeline
from trialforge.ontology._vocabio import default_vocab_dir
from trialforge.ontology.biomarkers import load_biomarker_index, match_biomarker
from trialforge.pipeline import _biomarker_matches, _candidate_spans
from trialforge.schema import CanonicalStudy, Source

DEFAULT_INDEX = load_biomarker_index()
DEFAULT_NAMES = [name.split() for name in DEFAULT_INDEX.exact]


def exhaustive_matches(text: str, index) -> set[tuple[str, str, str]]:
    """Oracle: ``match_biomarker`` on every span ``_candidate_spans`` emits."""
    found = set()
    for span in _candidate_spans(text):
        match = match_biomarker(span, index)
        if match is not None:
            found.add((match.span, match.biomarker_name, match.match_type))
    return found


def index_for(names: list[list[str]]):
    with tempfile.TemporaryDirectory() as tmp:
        lines = "".join(f"{' '.join(name)}\tprotein\tPRD\t\n" for name in names)
        (Path(tmp) / "themarker.tsv").write_text(lines, encoding="utf-8")
        return load_biomarker_index(Path(tmp))


_NAME_TOKENS = ["alpha", "beta", "receptor", "growth", "factor", "c", "2", "Protein", "é", "ΟΔΟΣ", "straße"]
_NOISE = ["level", "of", "at", "week", "12", "(", ")", "protein,", "receptor:", "Alpha.", "—", "İndex", "ΣΙΓΜΑ", "ǅ"]
_SEPARATORS = [" ", "  ", "\t", "\n", " \t\n ", "\u00a0", "\u2003"]
_CASES = [str, str.lower, str.upper, str.title, str.swapcase]

_generated_names = st.lists(
    st.lists(st.sampled_from(_NAME_TOKENS), min_size=1, max_size=6),
    min_size=1,
    max_size=8,
)


@st.composite
def _outcome_text(draw, names: list[list[str]]) -> str:
    tokens: list[str] = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["noise", "token", "name", "permuted", "glued"]))
        if kind == "noise":
            tokens.append(draw(st.sampled_from(_NOISE)))
        elif kind == "token":
            tokens.append(draw(st.sampled_from(draw(st.sampled_from(names)))))
        elif kind == "name":
            tokens.extend(draw(st.sampled_from(names)) * draw(st.integers(1, 2)))
        elif kind == "permuted":
            tokens.extend(draw(st.permutations(draw(st.sampled_from(names)))))
        else:
            token = draw(st.sampled_from(draw(st.sampled_from(names))))
            tokens.append(token + draw(st.sampled_from([",", ".", ":", ";", ")"])))
    text = draw(st.sampled_from(["", " ", "\n"]))
    for token in tokens:
        text += draw(st.sampled_from(_CASES))(token) + draw(st.sampled_from(_SEPARATORS))
    return text


@given(data=st.data())
def test_pruned_scan_equals_exhaustive_scan_default_vocab(data):
    text = data.draw(_outcome_text(DEFAULT_NAMES))
    found = {(m.span, m.biomarker_name, m.match_type) for m in _biomarker_matches(text, DEFAULT_INDEX)}
    assert found == exhaustive_matches(text, DEFAULT_INDEX)


@given(names=_generated_names, data=st.data())
def test_pruned_scan_equals_exhaustive_scan_generated_vocab(names, data):
    index = index_for(names)
    text = data.draw(_outcome_text(names))
    found = {(m.span, m.biomarker_name, m.match_type) for m in _biomarker_matches(text, index)}
    assert found == exhaustive_matches(text, index)


def test_index_records_name_tokens_and_longest_name():
    assert DEFAULT_INDEX.max_tokens == 6
    assert {"human", "epidermal", "receptor", "2"} <= DEFAULT_INDEX.tokens
    assert index_for([["a", "b"], ["c"]]).tokens == frozenset({"a", "b", "c"})


# --- the stage itself ----------------------------------------------------------

def run_link(tmp_path: Path, replay_builder, outcomes: list[list[str]], vocab_dir=None) -> list[dict]:
    """Run the link stage alone over CT.gov studies with the given outcomes."""
    def llm(prompt: str) -> str:
        return replay_builder.llm_transport("llm", {"prompt": prompt})["text"]

    studies = [
        CanonicalStudy(study_id=f"NCT{n:08d}", source=Source.CTGOV, primary_outcomes=texts)
        for n, texts in enumerate(outcomes, start=1)
    ]
    run = SimpleNamespace(
        studies=studies,
        doc_index=SimpleNamespace(doc_for=lambda study_id: None),
        clients=SimpleNamespace(llm=llm, annotator=None, rxnorm=None),
        settings=SimpleNamespace(vocab_dir=vocab_dir),
    )
    out = tmp_path / "link"
    out.mkdir(parents=True)
    pipeline._stage_link(run, out)
    return [json.loads(line) for line in (out / "biomarkers.jsonl").read_text(encoding="utf-8").splitlines()]


def test_link_matches_names_longer_than_six_tokens(tmp_path, replay_builder):
    vocab = tmp_path / "vocab"
    shutil.copytree(default_vocab_dir(), vocab)
    name = "soluble form of the vascular endothelial receptor"
    with open(vocab / "themarker.tsv", "a", encoding="utf-8") as fh:
        fh.write(f"{name}\tprotein\tSUR\tFLT1\n")

    rows = run_link(tmp_path, replay_builder, [["Change in Soluble form of the vascular endothelial receptor"]], vocab)
    assert [(row["biomarker_name"], row["match_type"]) for row in rows] == [(name, "exact_multi_word")]


def test_repeated_outcome_text_is_scanned_once(tmp_path, replay_builder, monkeypatch):
    calls = 0
    original = pipeline.match_biomarker

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "match_biomarker", counting)
    text = "Change in estrogen receptor alpha and c reactive protein levels"

    def calls_for(copies: int) -> int:
        nonlocal calls
        calls = 0
        rows = run_link(tmp_path / str(copies), replay_builder, [[text]] * copies)
        assert len(rows) == 2 * copies
        return calls

    assert calls_for(1) == calls_for(5) > 0
