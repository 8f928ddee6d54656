from __future__ import annotations

import random
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from _corpus import make_dedupe_corpus, make_record

from trialforge import dedupe
from trialforge.dedupe import (
    candidate_pairs,
    dedupe_corpus,
    dedupe_inter,
    dedupe_intra,
    levenshtein,
    merge_records,
    normalize_title,
    similarity,
    title_similarity,
)
from trialforge.schema import CanonicalStudy, PhaseLabel, Source, StudyStatus, encode_study


def rec(study_id, source, title, **kw) -> CanonicalStudy:
    return make_record(random.Random(0), study_id, source, title, **kw)


# --- similarity primitives ----------------------------------------------------

def test_normalize_title():
    assert normalize_title("  The, TRIAL: of X!  ") == "the trial of x"
    assert normalize_title("Drug-resistant epilepsy") == "drug resistant epilepsy"
    assert normalize_title("") == ""


def test_levenshtein_known_values():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("", "abc") == 3
    assert levenshtein("flaw", "lawn") == 2


def reference_levenshtein(a: str, b: str) -> int:
    """Two-row O(n*m) dynamic program: the oracle for the bit-parallel version."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


_ALPHABET = "abc xyzéñøß"
_edit = st.tuples(st.sampled_from("ids"), st.floats(0, 1), st.sampled_from(_ALPHABET))
# drawing the length first spreads examples over 0-200 instead of favouring short text
_title = st.integers(0, 200).flatmap(lambda n: st.text(_ALPHABET, min_size=n, max_size=n))


def _apply_edits(text: str, edits) -> str:
    chars = list(text)
    for op, where, ch in edits:
        pos = int(where * len(chars))
        if op == "i":
            chars.insert(pos, ch)
        elif chars:
            pos = min(pos, len(chars) - 1)
            if op == "d":
                del chars[pos]
            else:
                chars[pos] = ch
    return "".join(chars)


@given(
    base=_title,
    edits=st.lists(_edit, max_size=12),
    other=st.one_of(st.none(), _title),
)
def test_levenshtein_matches_reference_dp(base, edits, other):
    # near pairs (a few random edits) sit around the 0.95 threshold; unrelated
    # pairs exercise large distances. Lengths up to 200 span several machine words.
    twin = _apply_edits(base, edits) if other is None else other
    expected = reference_levenshtein(base, twin)
    assert levenshtein(base, twin) == expected == levenshtein(twin, base)


def test_similarity_hand_computed():
    # 7 substitutions over max length 10 -> 1 - 7/10 = 0.30
    assert abs(similarity("aaaaaaaaaa", "aaabbbbbbb") - 0.30) < 1e-12
    assert similarity("", "") == 1.0
    assert similarity("abc", "") == 0.0


def test_title_similarity_ignores_case_and_punctuation():
    assert title_similarity("The Trial, of X.", "the trial of x") == 1.0


# --- merge behaviour ------------------------------------------------------------

def test_merge_prefers_nonempty_then_source_priority():
    a = rec("NCT1", Source.CTGOV, "Trial of X", sponsor="", start_year=None)
    b = rec("ACTRN1", Source.ANZCTR, "Trial of X", sponsor="Acme", start_year=2011)
    c = rec("123", Source.PUBMED, "Trial of X", sponsor="Other Corp", start_year=2012)
    a.brief_summary = ""
    b.brief_summary = "From the registry."
    c.brief_summary = "From the paper."
    merged = merge_records([a, b, c])
    # identity: lexicographically smallest (source tag, id) pair
    assert (merged.source, merged.study_id) == (Source.ANZCTR, "ACTRN1")
    # content: non-empty wins; conflicts resolved CTGOV > registry > PUBMED
    assert merged.sponsor == "Acme"
    assert merged.brief_summary == "From the registry."
    assert merged.start_year == 2011


def test_merge_status_other_acts_as_missing():
    a = rec("NCT1", Source.CTGOV, "Trial", status=StudyStatus.OTHER)
    b = rec("ACTRN1", Source.ANZCTR, "Trial", status=StudyStatus.COMPLETED)
    assert merge_records([a, b]).status is StudyStatus.COMPLETED


def test_merge_is_order_independent():
    a = rec("NCT1", Source.CTGOV, "Trial of X", phases={PhaseLabel.PHASE2})
    b = rec("ACTRN1", Source.ANZCTR, "Trial of X", sponsor="Acme")
    c = rec("99", Source.PUBMED, "Trial of X")
    orders = [[a, b, c], [c, b, a], [b, a, c]]
    merged = [merge_records(list(o)) for o in orders]
    assert merged[0] == merged[1] == merged[2]


def counting_encodes(monkeypatch) -> Counter:
    encoded: Counter = Counter()

    def counted(study):
        encoded[(study.source.value, study.study_id)] += 1
        return encode_study(study)

    monkeypatch.setattr(dedupe, "encode_study", counted)
    return encoded


def test_only_records_sharing_an_identity_are_encoded(monkeypatch):
    encoded = counting_encodes(monkeypatch)
    rng = random.Random(7)
    for _ in range(30):
        corpus = make_dedupe_corpus(rng)
        identities = Counter((r.source.value, r.study_id) for r in corpus)
        encoded.clear()
        dedupe_corpus(corpus)
        assert {key for key in encoded if identities[key] < 2} == set()
        unique = [r for r in corpus if identities[(r.source.value, r.study_id)] == 1]
        encoded.clear()
        dedupe_corpus(unique)
        assert encoded == Counter()


def test_records_sharing_an_identity_are_ordered_by_content():
    a = rec("A1", Source.ANZCTR, "Exercise for knee pain", sponsor="Acme Health")
    b = rec("A1", Source.ANZCTR, "Statin therapy for prevention", sponsor="Globex Institute")
    c = rec("A1", Source.ANZCTR, "Exercise, for KNEE pain.", sponsor="Initech")
    by_content = sorted([a, b], key=encode_study)
    for members in ([a, b], [b, a]):
        out, _ = dedupe_intra(members)  # conflicting titles: both kept, flagged
        assert [r.title for r in out] == [r.title for r in by_content]
        passed, _, _ = dedupe_inter(out)
        assert [r.title for r in passed] == [r.title for r in by_content]
    # the first non-empty value of the smallest encoding wins a merge
    first = min([a, c], key=encode_study)
    assert merge_records([a, c]).sponsor == merge_records([c, a]).sponsor == first.sponsor


# --- intra-source dedupe ---------------------------------------------------------

def test_intra_same_id_corroborating_titles_merge():
    a = rec("ACTRN1", Source.ANZCTR, "Exercise for knee pain")
    b = rec("ACTRN1", Source.ANZCTR, "Exercise, for KNEE pain.")
    out, decisions = dedupe_intra([a, b])
    assert len(out) == 1
    merge = [d for d in decisions if d.evidence == "id-match"]
    assert len(merge) == 1
    assert merge[0].absorbed == [("ANZCTR", "ACTRN1")]


def test_intra_same_id_conflicting_titles_kept_and_flagged():
    a = rec("ACTRN1", Source.ANZCTR, "Exercise for knee pain")
    b = rec("ACTRN1", Source.ANZCTR, "Statin therapy for prevention")
    out, decisions = dedupe_intra([a, b])
    assert len(out) == 2
    assert all(r.flagged for r in out)
    assert title_similarity(a.title, b.title) < 0.95
    conflict = [d for d in decisions if d.evidence == "id-conflict"]
    assert len(conflict) == 2
    assert all(d.score is not None and d.score < 0.95 for d in conflict)


def test_intra_empty_title_cannot_contradict_id():
    a = rec("ACTRN1", Source.ANZCTR, "Exercise for knee pain")
    b = rec("ACTRN1", Source.ANZCTR, "", flagged=True)
    out, _ = dedupe_intra([a, b])
    assert len(out) == 1
    assert out[0].title == "Exercise for knee pain"
    assert out[0].flagged is False  # merged record has its critical fields


def test_intra_different_ids_untouched():
    a = rec("A1", Source.ANZCTR, "Trial one")
    b = rec("A2", Source.ANZCTR, "Trial one")  # same title, same source: kept
    out, decisions = dedupe_intra([a, b])
    assert len(out) == 2
    assert {d.evidence for d in decisions} == {"unique"}


# --- inter-source dedupe ----------------------------------------------------------

def test_inter_cross_source_merge_emits_linked_to():
    a = rec("NCT1", Source.CTGOV, "Metformin versus placebo in type 2 diabetes")
    b = rec("ACTRN9", Source.ANZCTR, "Metformin versus placebo in Type 2 Diabetes.")
    out, decisions, triples = dedupe_inter([a, b])
    assert len(out) == 1
    assert (out[0].source, out[0].study_id) == (Source.ANZCTR, "ACTRN9")
    assert len(triples) == 1
    t = triples[0]
    assert t.relation_type == "linked_to"
    assert (t.head_id, t.tail_id) == ("ACTRN9", "NCT1")
    assert (t.head_source, t.tail_source) == (Source.ANZCTR, Source.CTGOV)


def counting_similarity(monkeypatch) -> list:
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return title_similarity(a, b)

    monkeypatch.setattr(dedupe, "title_similarity", counted)
    return calls


def test_inter_scores_a_merged_pair_once(monkeypatch):
    calls = counting_similarity(monkeypatch)
    a = rec("NCT1", Source.CTGOV, "Metformin versus placebo in type 2 diabetes")
    b = rec("ACTRN9", Source.ANZCTR, "Metformin versus placebo in Type 2 Diabetes.")
    _, decisions, _ = dedupe_inter([a, b])
    assert len(calls) == 1
    [merge] = [d for d in decisions if d.evidence == "title-similarity"]
    assert merge.score == title_similarity(a.title, b.title)


def test_inter_min_score_covers_member_pairs_that_were_never_candidates(monkeypatch):
    calls = counting_similarity(monkeypatch)
    a = rec("NCT1", Source.CTGOV, "Metformin versus placebo in type 2 diabetes")
    b = rec("ACTRN9", Source.ANZCTR, "Metformin versus placebo in type 2 diabetes.")
    c = rec("NCT2", Source.CTGOV, "Metformin versus placebo in type 2 diabetes!!")
    _, decisions, _ = dedupe_inter([a, b, c])
    # two cross-source candidates, then the same-source pair for min_score
    assert len(calls) == 3
    [merge] = [d for d in decisions if d.evidence == "title-similarity"]
    assert merge.score == min(
        title_similarity(x.title, y.title) for x, y in ((a, b), (a, c), (b, c))
    )


def test_inter_below_threshold_no_merge():
    a = rec("NCT1", Source.CTGOV, "Metformin versus placebo in type 2 diabetes")
    b = rec("ACTRN9", Source.ANZCTR, "Metformin versus insulin in type 1 diabetes")
    assert title_similarity(a.title, b.title) < 0.95
    out, _, triples = dedupe_inter([a, b])
    assert len(out) == 2
    assert triples == []


def test_inter_same_source_never_pairs():
    a = rec("NCT1", Source.CTGOV, "Identical title here")
    b = rec("NCT2", Source.CTGOV, "Identical title here")
    out, _, _ = dedupe_inter([a, b])
    assert len(out) == 2


def test_inter_empty_titles_never_match():
    a = rec("NCT1", Source.CTGOV, "", flagged=True)
    b = rec("ACTRN1", Source.ANZCTR, "", flagged=True)
    out, _, triples = dedupe_inter([a, b])
    assert len(out) == 2
    assert triples == []


def test_blocking_respects_first_token_and_length():
    a = rec("NCT1", Source.CTGOV, "alpha trial of something long")
    b = rec("ACTRN1", Source.ANZCTR, "beta trial of something long")
    # different first tokens: never a candidate pair
    assert candidate_pairs(sorted([a, b], key=lambda r: r.study_id), 0.95) == []


def test_custom_threshold_is_honored():
    # shared first token so blocking pairs them; similarity 1 - 2/16 = 0.875
    a = rec("NCT1", Source.CTGOV, "alpha aaaaaaaaaa")
    b = rec("ACTRN1", Source.ANZCTR, "alpha aaaaaaaabb")
    out_strict, _, _ = dedupe_inter([a, b], threshold=0.95)
    assert len(out_strict) == 2
    out_loose, _, _ = dedupe_inter([a, b], threshold=0.7)
    assert len(out_loose) == 1


# --- corpus-level properties -------------------------------------------------------

def _accounting(decisions) -> Counter:
    c: Counter = Counter()
    for d in decisions:
        c[(d.survivor_source.value, d.survivor_id)] += 1
        for key in d.absorbed:
            c[key] += 1
    return c


def test_no_record_loss_accounting():
    rng = random.Random(11)
    corpus = make_dedupe_corpus(rng)
    out, decisions, _ = dedupe_corpus(corpus)
    inputs = Counter((r.source.value, r.study_id) for r in corpus)
    intra_decisions = [d for d in decisions if d.evidence in ("unique", "id-match", "id-conflict")]
    # every input identity shows up in the intra decisions
    for key in inputs:
        assert any(
            d.survivor_id == key[1] and d.survivor_source.value == key[0]
            or key in d.absorbed
            for d in intra_decisions
        ), f"lost {key}"


def test_idempotence_and_permutation_invariance_random_corpora():
    rng = random.Random(2025)
    for _ in range(60):
        corpus = make_dedupe_corpus(rng)
        out1, dec1, tri1 = dedupe_corpus(list(corpus))

        shuffled = list(corpus)
        rng.shuffle(shuffled)
        out2, dec2, tri2 = dedupe_corpus(shuffled)
        assert out1 == out2
        assert dec1 == dec2
        assert [t.key() for t in tri1] == [t.key() for t in tri2]

        # running again on the output changes nothing
        out3, _, tri3 = dedupe_corpus(list(out1))
        assert out3 == out1
        assert tri3 == []
