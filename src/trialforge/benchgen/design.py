"""Design MCQs: arms, eligibility, and endpoints.

Each item asks for the target trial's own field text; distractors come
from trials cited by the same review, padded corpus-wide when the group
is too small. All randomness is keyed on (seed, item id) so a rerun with
the same corpus and seed reproduces every option list byte for byte.
"""

from __future__ import annotations

import logging
import random

from ..errors import FieldMissing
from ..views import CtgovDoc
from .items import BenchmarkItem, answer_letter

logger = logging.getLogger(__name__)

DESIGN_FIELDS = ("arms", "eligibility", "endpoints")

DESIGN_TASKS = {
    "arms": "arm_design",
    "eligibility": "eligibility_design",
    "endpoints": "endpoint_design",
}

DESIGN_INSTRUCTIONS = {
    "arms": (
        "Given the trial title and summary, select the option that describes "
        "the intervention arms this trial actually used."
    ),
    "eligibility": (
        "Given the trial title and summary, select the option that states "
        "this trial's eligibility criteria."
    ),
    "endpoints": (
        "Given the trial title and summary, select the option that lists "
        "this trial's primary outcome measures."
    ),
}

OPTIONS_PER_ITEM = 4


def render_arms(doc: CtgovDoc) -> str:
    lines = []
    for intervention in doc.interventions:
        name = intervention.name.strip()
        if not name:
            continue
        kind = (intervention.type or "OTHER").strip()
        labels = [label.strip() for label in intervention.arm_group_labels]
        assigned = ", ".join(label for label in labels if label) or "N/A"
        lines.append(f"Intervention Type: {kind}; Name: {name}; Assigned to Arm(s): {assigned}")
    if not lines:
        raise FieldMissing("no interventions")
    return "\n".join(lines)


def render_eligibility(doc: CtgovDoc) -> str:
    criteria = doc.eligibility_criteria.strip()
    if not criteria:
        raise FieldMissing("no eligibility criteria")
    return criteria


def render_endpoints(doc: CtgovDoc) -> str:
    lines = []
    for outcome in doc.primary_outcomes:
        measure = outcome.measure.strip()
        if not measure:
            continue
        time_frame = outcome.time_frame.strip() or "N/A"
        lines.append(f"Outcome Measure: {measure}; Time Frame: {time_frame}")
    if not lines:
        raise FieldMissing("no primary outcomes")
    return "\n".join(lines)


FIELD_RENDERERS = {
    "arms": render_arms,
    "eligibility": render_eligibility,
    "endpoints": render_endpoints,
}


def gen_design_mcq(
    review_groups: dict[str, list[str]],
    documents: dict[str, CtgovDoc],
    field: str,
    seed: int,
) -> list[BenchmarkItem]:
    """One MCQ per co-cited trial whose field text renders.

    ``review_groups`` maps a review id to the trial ids it cites
    together; ``documents`` maps trial ids to their CT.gov documents.
    A trial cited by several reviews yields one item, claimed by the
    first review in sorted order. Trials whose field cannot be rendered
    are skipped with a logged reason, mirroring the upstream corpus
    rather than failing the batch.
    """
    if field not in FIELD_RENDERERS:
        raise ValueError(f"field must be one of {DESIGN_FIELDS}, got {field!r}")
    render = FIELD_RENDERERS[field]
    task = DESIGN_TASKS[field]
    instruction = DESIGN_INSTRUCTIONS[field]

    renderings: dict[str, str] = {}

    def rendering_of(trial_id: str) -> str | None:
        if trial_id not in renderings:
            doc = documents.get(trial_id)
            if doc is None:
                renderings[trial_id] = None
            else:
                try:
                    renderings[trial_id] = render(doc)
                except FieldMissing as exc:
                    logger.info("skip %s for %s: %s", trial_id, task, exc)
                    renderings[trial_id] = None
        return renderings[trial_id]

    corpus_pool = sorted(documents)
    items: list[BenchmarkItem] = []
    claimed: set[str] = set()

    for review_id in sorted(review_groups):
        group = review_groups[review_id]
        for target_id in group:
            if target_id in claimed:
                continue
            claimed.add(target_id)
            correct = rendering_of(target_id)
            if correct is None:
                continue
            doc = documents[target_id]
            title = (doc.official_title or doc.brief_title).strip()
            summary = doc.brief_summary.strip()
            if not title and not summary:
                logger.info("skip %s for %s: no title or summary", target_id, task)
                continue

            item_id = f"{task}:{target_id}"
            rng = random.Random(f"{seed}:{item_id}")

            candidates = [
                trial_id
                for trial_id in group
                if trial_id != target_id and rendering_of(trial_id) is not None
            ]
            needed = OPTIONS_PER_ITEM - 1
            # draw one at a time; every draw must contribute a new option text
            taken_texts = {correct}
            pool = candidates[:]
            distractor_ids: list[str] = []
            while pool and len(distractor_ids) < needed:
                pick = rng.choice(pool)
                pool.remove(pick)
                text = rendering_of(pick)
                if text in taken_texts:
                    continue
                taken_texts.add(text)
                distractor_ids.append(pick)

            pad_ids: list[str] = []
            if len(distractor_ids) < needed:
                pad_pool = [
                    trial_id
                    for trial_id in corpus_pool
                    if trial_id != target_id
                    and trial_id not in distractor_ids
                    and rendering_of(trial_id) is not None
                    and rendering_of(trial_id) not in taken_texts
                ]
                pad_rng = random.Random(f"{seed}:{item_id}:pad")
                shortfall = needed - len(distractor_ids)
                if len(pad_pool) < shortfall:
                    logger.info("skip %s for %s: not enough distinct distractors", target_id, task)
                    continue
                # draw one at a time so every pad adds a new option text
                while len(pad_ids) < shortfall and pad_pool:
                    pick = pad_rng.choice(pad_pool)
                    pad_ids.append(pick)
                    taken_texts.add(rendering_of(pick))
                    pad_pool = [t for t in pad_pool if rendering_of(t) not in taken_texts]
                if len(pad_ids) < shortfall:
                    logger.info("skip %s for %s: not enough distinct distractors", target_id, task)
                    continue

            options = [correct] + [rendering_of(t) for t in distractor_ids + pad_ids]
            rng.shuffle(options)
            answer = answer_letter(options.index(correct))

            items.append(
                BenchmarkItem(
                    task=task,
                    item_id=item_id,
                    instruction=instruction,
                    input_text=f"{title}\n\n{summary}".strip(),
                    answer=answer,
                    options=tuple(options),
                    provenance={
                        "review_id": review_id,
                        "trial_id": target_id,
                        "distractor_ids": distractor_ids,
                        "pad_ids": pad_ids,
                        "seed": seed,
                    },
                )
            )
    return items
