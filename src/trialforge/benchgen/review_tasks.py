"""Review-driven tasks: study search, study screening, evidence MCQs."""

from __future__ import annotations

import logging
import random
import re

from ..clients import json_answer
from ..errors import MalformedResponse, SelfReferenceViolation
from ..schema import RelationTriple, Source
from ..views import EvidenceMcq, Review, parse_answer
from .items import OPTION_LETTERS, BenchmarkItem
from .splits import SplitAssignment, split_by_numeric_id

logger = logging.getLogger(__name__)

SEARCH_INSTRUCTION = (
    "You are compiling a systematic review with the setup below. List the PubMed "
    "IDs of the trial reports that should be included, one per line."
)

SCREENING_INSTRUCTION = (
    "For each candidate study below, decide whether it meets the review's "
    'selection criteria. Answer one line per candidate as "<PMID>: include" or '
    '"<PMID>: exclude".'
)

SEARCH_TEST_REVIEWS = 100

SCREENING_CAP = 10
SCREENING_BALANCED_PER_CLASS = 5

#: Prompt given to the generation model for evidence questions. The
#: stand-alone requirement is enforced again after the fact by
#: `check_self_reference`.
EVIDENCE_MCQ_PROMPT = (
    "Write one multiple-choice question that tests the main clinical conclusion "
    "of the systematic review text below. Return JSON with keys \"question\", "
    "\"options\" (a list of exactly four answer strings), and \"answer\" (the "
    "letter of the correct option). The question must stand on its own: never "
    "mention, cite, or allude to the review it came from.\n\n"
    "Review text:\n{review_text}"
)

EVIDENCE_INSTRUCTION = "Answer the following question with the letter of the best option."

MAX_INCLUDED_STUDIES = 20

#: Phrasings that tie a generated question back to its source review.
#: "based on the information provided below" is fine; "based on the
#: review" is not.
_SELF_REFERENCE_PATTERNS = (
    re.compile(r"\bbased on (?:the|this)(?:[\w\s,-]{0,40}?)\breview\b", re.IGNORECASE),
    re.compile(r"\baccording to (?:the|this)(?:[\w\s,-]{0,40}?)\breview\b", re.IGNORECASE),
    re.compile(r"\bas (?:described|reported|stated) in (?:the|this)(?:[\w\s,-]{0,40}?)\breview\b", re.IGNORECASE),
    re.compile(r"\b(?:the|this) (?:original |source |present |current )?review\b", re.IGNORECASE),
)


def _include_map(triples: list[RelationTriple]) -> dict[str, list[str]]:
    """review pmid -> sorted included PubMed ids."""
    grouped: dict[str, set[str]] = {}
    for triple in triples:
        if triple.relation_type == "include" and triple.tail_source is Source.PUBMED:
            grouped.setdefault(triple.head_id, set()).add(triple.tail_id)
    return {head: sorted(tails) for head, tails in grouped.items()}


def _review_setup(review: Review) -> str:
    parts = (
        ("Background", review.background.strip()),
        ("Objectives", review.objectives.strip()),
        ("Selection criteria", review.criteria.strip()),
    )
    return "\n\n".join(f"{label}: {text}" for label, text in parts if text)


def gen_search_items(reviews: list[Review], include_triples: list[RelationTriple]) -> list[BenchmarkItem]:
    """One retrieval item per review with at least one included PubMed id."""
    includes = _include_map(include_triples)
    items = []
    for review in reviews:
        pmid = review.pmid
        truth = includes.get(pmid) or []
        if not truth:
            logger.info("skip review %s for study_search: no include links", pmid)
            continue
        setup = _review_setup(review)
        if not setup:
            logger.info("skip review %s for study_search: no setup text", pmid)
            continue
        items.append(
            BenchmarkItem(
                task="study_search",
                item_id=f"study_search:{pmid}",
                instruction=SEARCH_INSTRUCTION,
                input_text=setup,
                answer=truth,
                provenance={"review_pmid": pmid, "truth_size": len(truth)},
            )
        )
    return items


def split_search_items(
    items: list[BenchmarkItem], test_size: int = SEARCH_TEST_REVIEWS
) -> list[SplitAssignment]:
    """Most recent ``test_size`` reviews (by numeric PMID) form the test set."""
    return split_by_numeric_id(
        items,
        id_extractor=lambda item: item.item_id,
        test_size=test_size,
        validation_size=0,
        allow_small=True,
    )


def gen_screening_items(
    reviews: list[Review],
    triples: list[RelationTriple],
    titles: dict[str, str],
    seed: int,
) -> list[BenchmarkItem]:
    """Per review, a capped mix of included and excluded candidates.

    With five or more candidates in both classes the mix is balanced
    five and five; otherwise the whole minority class is kept and the
    majority fills the remaining capacity. Candidate order is shuffled
    per item with the (seed, item id) stream.
    """
    included: dict[str, set[str]] = {}
    excluded: dict[str, set[str]] = {}
    for triple in triples:
        if triple.tail_source is not Source.PUBMED:
            continue
        if triple.relation_type == "include":
            included.setdefault(triple.head_id, set()).add(triple.tail_id)
        elif triple.relation_type == "exclude":
            excluded.setdefault(triple.head_id, set()).add(triple.tail_id)

    items = []
    for review in reviews:
        pmid, criteria = review.pmid, review.criteria.strip()
        if not criteria:
            logger.info("skip review %s for study_screening: no criteria", pmid)
            continue
        include_pool = sorted(included.get(pmid) or ())
        exclude_pool = sorted(excluded.get(pmid) or ())
        if not include_pool and not exclude_pool:
            logger.info("skip review %s for study_screening: no labeled candidates", pmid)
            continue

        item_id = f"study_screening:{pmid}"
        rng = random.Random(f"{seed}:{item_id}")
        if (
            len(include_pool) >= SCREENING_BALANCED_PER_CLASS
            and len(exclude_pool) >= SCREENING_BALANCED_PER_CLASS
        ):
            chosen_include = rng.sample(include_pool, SCREENING_BALANCED_PER_CLASS)
            chosen_exclude = rng.sample(exclude_pool, SCREENING_BALANCED_PER_CLASS)
        elif len(include_pool) <= len(exclude_pool):
            chosen_include = include_pool
            room = SCREENING_CAP - len(chosen_include)
            chosen_exclude = rng.sample(exclude_pool, min(room, len(exclude_pool)))
        else:
            chosen_exclude = exclude_pool
            room = SCREENING_CAP - len(chosen_exclude)
            chosen_include = rng.sample(include_pool, min(room, len(include_pool)))

        labels = {candidate: "include" for candidate in chosen_include}
        labels.update({candidate: "exclude" for candidate in chosen_exclude})
        candidates = sorted(labels)
        rng.shuffle(candidates)

        lines = [f"Selection criteria: {criteria}", "", "Candidate studies:"]
        for candidate in candidates:
            title = titles.get(candidate, "").strip() or "(title unavailable)"
            lines.append(f"PMID {candidate}: {title}")

        items.append(
            BenchmarkItem(
                task="study_screening",
                item_id=item_id,
                instruction=SCREENING_INSTRUCTION,
                input_text="\n".join(lines),
                answer={candidate: labels[candidate] for candidate in candidates},
                provenance={
                    "review_pmid": pmid,
                    "candidate_order": candidates,
                    "seed": seed,
                },
            )
        )
    return items


def check_self_reference(question: str) -> None:
    """Raise `SelfReferenceViolation` when the question leans on its source."""
    for pattern in _SELF_REFERENCE_PATTERNS:
        match = pattern.search(question)
        if match:
            raise SelfReferenceViolation(f"question contains {match.group(0)!r}")


def gen_evidence_mcq(reviews: list[Review], includes: dict[str, list[str]], llm_client) -> list[BenchmarkItem]:
    """Question generation from review conclusions, replayable from a store.

    ``includes`` maps a review pmid to its included PubMed ids (`_include_map`).
    Reviews without review text, or with zero or more than twenty included
    studies, are discarded before any client call. An answer that is not an
    `EvidenceMcq`, has a blank question, an answer that is not one letter
    of its options, or does not make a `BenchmarkItem` is a
    `MalformedResponse`; questions that cite their source review are a
    `SelfReferenceViolation`.
    """
    items = []
    for review in reviews:
        if not review.review_text.strip():
            continue
        pmid = review.pmid
        included = includes.get(pmid, [])
        if not (1 <= len(included) <= MAX_INCLUDED_STUDIES):
            logger.info(
                "skip review %s for evidence_summary: %d included studies",
                pmid,
                len(included),
            )
            continue
        label = f"evidence answer for review {pmid}"
        raw = llm_client(EVIDENCE_MCQ_PROMPT.format(review_text=review.review_text))
        mcq = parse_answer(EvidenceMcq, json_answer(label, raw), label)
        if not mcq.question.strip():
            raise MalformedResponse(f"review {pmid}: missing question")
        if mcq.answer.strip().upper() not in tuple(OPTION_LETTERS[: len(mcq.options)]):
            raise MalformedResponse(f"review {pmid}: answer letter out of range")
        check_self_reference(mcq.question)

        try:
            item = BenchmarkItem(
                task="evidence_summary",
                item_id=f"evidence_summary:{pmid}",
                instruction=EVIDENCE_INSTRUCTION,
                input_text=mcq.question.strip(),
                answer=mcq.answer.strip().upper(),
                options=tuple(option.strip() for option in mcq.options),
                provenance={"review_pmid": pmid, "included_count": len(included)},
            )
        except ValueError as exc:
            raise MalformedResponse(f"review {pmid}: {exc}") from exc
        items.append(item)
    return items
