"""Protocol-grounded tasks: sample size estimation and completion assessment."""

from __future__ import annotations

import logging
import re

from ..errors import LeakageDetected
from ..evidence import TERMINATION_CATEGORIES
from ..schema import CanonicalStudy, StudyStatus
from ..views import CtgovDoc, ProtocolPair
from .items import BenchmarkItem

logger = logging.getLogger(__name__)

#: Deterministic prompt for condensing a protocol's power calculation;
#: replay runs serve pre-summarized fixtures instead of calling out.
SAMPLE_SIZE_SUMMARY_PROMPT = (
    "Summarize the statistical assumptions behind the planned sample size in the "
    "protocol excerpt below, in at most three sentences. Keep the design, expected "
    "effect sizes or event rates, power, and significance level when stated. Do not "
    "state the final enrollment number anywhere in the summary.\n\n"
    "Protocol excerpt:\n{section}"
)

SAMPLE_SIZE_INSTRUCTION = (
    "Using the trial description and the statistical assumptions below, estimate "
    "the trial's planned total enrollment. Answer with a single integer."
)

COMPLETION_INSTRUCTION = (
    'Based only on the design information below, answer "completed" if this trial '
    'most likely ran to completion, or "terminated:<category>" if it most likely '
    "stopped early, with <category> one of: "
    + ", ".join(category for category in TERMINATION_CATEGORIES)
    + "."
)

_NUMBER_RE = re.compile(r"\d[\d,]*")


def stated_numbers(text: str) -> set[int]:
    """Every integer mentioned in the text, comma separators removed."""
    return {int(token.replace(",", "")) for token in _NUMBER_RE.findall(text)}


def gen_sample_size_items(linked_protocols: list[ProtocolPair], llm_client=None) -> list[BenchmarkItem]:
    """Items for protocol/registry pairs whose enrollment numbers agree.

    A pair's ``section_text`` is the protocol's sample-size section. Pairs
    whose section never states the registry count are filtered out; pairs
    with neither an ``assumptions_summary`` nor a client to produce one are
    skipped with a log line.
    """
    items = []
    filtered = 0
    for pair in linked_protocols:
        section = pair.section_text
        if pair.registry_enrollment not in stated_numbers(section):
            filtered += 1
            continue
        summary = pair.assumptions_summary.strip()
        if not summary and llm_client is not None:
            summary = llm_client(SAMPLE_SIZE_SUMMARY_PROMPT.format(section=section)).strip()
        if not summary:
            logger.info("skip %s for sample_size: no assumptions summary", pair.nct_id)
            continue
        input_text = f"{pair.title.strip()}\n\nStatistical assumptions: {summary}".strip()
        items.append(
            BenchmarkItem(
                task="sample_size",
                item_id=f"sample_size:{pair.nct_id}",
                instruction=SAMPLE_SIZE_INSTRUCTION,
                input_text=input_text,
                answer=pair.registry_enrollment,
                provenance={"nct_id": pair.nct_id, "explanation": section},
            )
        )
    if filtered:
        logger.info("sample_size: filtered %d non-matching pairs", filtered)
    return items


def completion_leakage_vocabulary() -> tuple[str, ...]:
    """Phrases that must never appear in a completion item's input.

    The label words themselves plus the multi-word category names.
    The bare word "other" is excluded: it is ordinary English, not a
    label leak.
    """
    phrases = ["completed", "terminated"]
    phrases.extend(category for category in TERMINATION_CATEGORIES if " " in category)
    return tuple(phrases)


_LEAK_PATTERNS = tuple(
    (phrase, re.compile(rf"\b{re.escape(phrase)}\b", re.IGNORECASE))
    for phrase in completion_leakage_vocabulary()
)


#: Matches exactly where one of `_LEAK_PATTERNS` does.
_LEAK_SCREEN = re.compile("|".join(pattern.pattern for _, pattern in _LEAK_PATTERNS), re.IGNORECASE)


def check_completion_leakage(input_text: str) -> None:
    """Raise `LeakageDetected` naming the first leaking phrase in vocabulary order.

    One search for any phrase screens the text first; only a text that
    leaks is searched phrase by phrase, to name the first.
    """
    if not _LEAK_SCREEN.search(input_text):
        return
    for phrase, pattern in _LEAK_PATTERNS:
        if pattern.search(input_text):
            raise LeakageDetected(f"input contains {phrase!r}")


def render_completion_input(doc: CtgovDoc) -> str:
    """The design-only view of a trial: no status, no outcomes, no reasons."""
    lines = []
    if doc.phases:
        lines.append("Phase: " + ", ".join(doc.phases))
    for label, value in (
        ("Allocation", doc.allocation),
        ("Intervention model", doc.intervention_model),
        ("Masking", doc.masking or doc.design_masking),
        ("Primary purpose", doc.primary_purpose),
    ):
        if value:
            lines.append(f"{label}: {value}")

    for arm in doc.arm_groups:
        arm_label = arm.label.strip()
        if not arm_label:
            continue
        description = arm.description.strip()
        arm_type = arm.type.strip()
        piece = f"Arm: {arm_label}"
        if arm_type:
            piece += f" ({arm_type})"
        if description:
            piece += f" - {description}"
        lines.append(piece)

    eligibility = doc.eligibility_criteria.strip()
    if eligibility:
        lines.append("Eligibility criteria:\n" + eligibility)
    return "\n".join(lines)


def gen_completion_items(
    trials: list[tuple[CanonicalStudy, CtgovDoc]],
    outcomes: dict[str, object],
) -> list[BenchmarkItem]:
    """One item per completed/terminated trial with leak-free design text.

    ``outcomes`` maps study ids to their outcome labels; terminated
    trials need a ``terminated:<category>`` label to supply the category
    answer. Items whose input trips the leakage check are dropped with a
    log line rather than emitted dirty.
    """
    items = []
    for study, doc in trials:
        if study.status not in (StudyStatus.COMPLETED, StudyStatus.TERMINATED):
            continue
        input_text = render_completion_input(doc)
        if "Eligibility criteria:" not in input_text:
            logger.info("skip %s for completion: no eligibility criteria", study.study_id)
            continue
        try:
            check_completion_leakage(input_text)
        except LeakageDetected as exc:
            logger.warning("skip %s for completion: %s", study.study_id, exc)
            continue

        if study.status is StudyStatus.COMPLETED:
            answer = "completed"
            category = None
        else:
            label = outcomes.get(study.study_id)
            outcome_type = getattr(label, "outcome_type", None)
            if not outcome_type or not outcome_type.startswith("terminated:"):
                logger.info("skip %s for completion: no termination category", study.study_id)
                continue
            answer = outcome_type
            category = outcome_type.split(":", 1)[1]

        items.append(
            BenchmarkItem(
                task="completion",
                item_id=f"completion:{study.study_id}",
                instruction=COMPLETION_INSTRUCTION,
                input_text=input_text,
                answer=answer,
                provenance={
                    "study_id": study.study_id,
                    "status": study.status.value,
                    "category": category,
                },
            )
        )
    return items
