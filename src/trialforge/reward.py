"""Verifiable reward scoring and group-relative policy math.

The reward contract: a response must carry its final answer inside
<answer>...</answer> tags. No well-formed pair means the response is
unusable and scores a flat -2. Otherwise the answer earns a small
formatting bonus of 0.1 on top of its task performance, but only when
the performance itself is positive.

Every benchmark task has a reward: the record's per-item score in
``evaluate.SCORERS``, read from the answer. The one fork is
``study_search``, whose answer is a query for a retrieval function and
whose performance is recall@k over the ids it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .evaluate import check_record, extract_answer
from .metrics import recall_at_k

FORMAT_BONUS = 0.1
MALFORMED_TOTAL = -2.0


@dataclass
class RewardOutcome:
    total: float
    performance: float
    format_ok: bool
    parsed_answer: str | None
    reason: str  # "ok", "missing_answer_tag", "unparseable_answer", ...


def score_reward(
    raw_output: str,
    record: object,
    retrieval_fn: Callable[[str], Sequence[str]] | None = None,
    k: int = 100,
) -> RewardOutcome:
    """Score one model response against its benchmark record, as ``gen-bench`` writes it.

    A record ``evaluate.check_record`` refuses, or a ``study_search``
    record without ``retrieval_fn``, is a ``ValueError``.
    """
    scorer = check_record(record)
    search = record["task"] == "study_search"
    if search and retrieval_fn is None:
        raise ValueError("study_search reward needs a retrieval_fn (forge reward: --replay-dir)")
    answer = extract_answer(raw_output)
    if answer is None:
        return RewardOutcome(
            total=MALFORMED_TOTAL,
            performance=0.0,
            format_ok=False,
            parsed_answer=None,
            reason="missing_answer_tag",
        )

    if search:
        parsed = list(retrieval_fn(answer))
        perf = recall_at_k(parsed, record["answer"], k=k)
    else:
        parsed = scorer.parse(answer, record)
        perf = scorer.item_score(parsed, record)
    total = perf + FORMAT_BONUS if perf > 0 else perf
    return RewardOutcome(
        total=total,
        performance=perf,
        format_ok=True,
        parsed_answer=answer,
        reason="ok" if parsed is not None else "unparseable_answer",
    )


# --- group-relative advantage and clipped surrogate --------------------------

#: Below this, a group's reward spread counts as zero variance.
STD_FLOOR = 1e-8


@dataclass
class ClipConfig:
    epsilon: float = 0.2


def grpo_advantages(rewards: Sequence[float]) -> list[float]:
    """Standardize rewards within one rollout group.

    Uses the population standard deviation (divide by G, not G-1). A
    group with no spread, including G=1, gets all-zero advantages
    instead of a division blowup.
    """
    g = len(rewards)
    if g == 0:
        raise ValueError("empty rollout group")
    mean = sum(rewards) / g
    var = sum((r - mean) ** 2 for r in rewards) / g
    std = math.sqrt(var)
    if std < STD_FLOOR:
        return [0.0] * g
    return [(r - mean) / std for r in rewards]


def grpo_clipped_term(ratio: float, advantage: float, cfg: ClipConfig | None = None) -> float:
    """Pessimistic clipped policy term: min(r*A, clip(r, 1-eps, 1+eps)*A)."""
    eps = (cfg or ClipConfig()).epsilon
    clipped = min(max(ratio, 1.0 - eps), 1.0 + eps)
    return min(ratio * advantage, clipped * advantage)
