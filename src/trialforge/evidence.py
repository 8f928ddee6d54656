"""Results, adverse events, dispositions, and outcome labels.

Structured inputs are CT.gov documents and PubMed articles, read through
their checked views in `trialforge.views`. Publication-side inputs flow through
two language-model prompts shipped as module constants, with injected
``(prompt: str) -> str`` clients doing the actual calls so everything can
run against replay fixtures.

Outcome labeling runs two independent tracks. Completed trials go through
a decision cascade (registry status, model verdict over matched abstracts,
p-value thresholds, fallback). Terminated trials map their stop reason to
a curated category taxonomy by mean lexical Jaccard keyword similarity,
so no model is needed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import AbstractSet, Callable, Mapping, Optional, Sequence

from trialforge import DATA_DIR
from trialforge.clients import json_answer
from trialforge.errors import DanglingReference, MissingResultsSection
from trialforge.ontology.meddra import MeddraHierarchy, map_meddra
from trialforge.schema import CanonicalStudy
from trialforge.views import Article, CtgovDoc, PicoAnswer, parse_answer

LlmClient = Callable[[str], str]

TERMINATION_CATEGORIES = (
    "enrollment issues",
    "safety concerns",
    "lack of efficacy",
    "sponsor decision",
    "operational problems",
    "other",
)

OUTCOME_EVIDENCE_TAGS = ("status", "llm", "pvalue@0.01", "pvalue@0.05", "stop-reason-similarity")

_BASE_OUTCOME_TYPES = ("approved-for-marketing", "positive", "negative", "unknown")

FREQUENCY_TEMPLATE = "Frequency: {num_affected} affected / {num_at_risk} at risk"

PICO_PROMPT_TEMPLATE = """Given the following clinical trial paper abstract, your task is to extract the key trial information using the PICO framework. The PICO framework consists of the following components:
Patient or problem (P): Who is the patient or what is the population or condition being addressed? Report detailed information including the population size, condition, and any relevant characteristics.
Intervention or control (I/C): What is the main intervention, treatment, or control being considered? Report detailed information including the intervention, including dosage and duration if applicable.
Outcome(s) (O): Extract detailed results and conclusions related to the outcomes, including numbers, p-values, and outcome-related and statistical conclusions if applicable.

Please return a list of reported outcome measures. Each reported outcome item should include the intervention (I) or Control (C) used and the detailed corresponding outcomes (O) of the intervention / control. Flag the control group if applicable. Only extract the information that is explicitly mentioned in the abstract. If any of the components are not mentioned in the abstract, please indicate that they are not available.

Title: {title}
Abstract: {abstract}
"""

OUTCOME_PROMPT_TEMPLATE = """TASK:
You are a clinical trial expert. You are given a clinical trial with NCT ID [nct_id] and its official title: [official_title].

The primary outcomes of the trial are: [primary_outcomes].

Based on the related articles of the trial given below, please determine if the trial is likely to have a positive or negative outcome.
A positive outcome means that the trial has achieved any of its primary endpoints or outcomes. Negative outcome means that the trial has not achieved any of its primary endpoints or outcomes.
If the outcome is unclear or unable to be inferred from the articles below, please choose "unknown".

Articles:
1. Title: [top_1_similar_article_title]
Abstract: [top_1_similar_article_abstract]

1. Title: [top_2_similar_article_title]
Abstract: [top_2_similar_article_abstract]

OUTPUT:
Please provide a short answer by choosing one of the following options:
positive outcome
negative outcome
unknown

Do not provide any explanation or additional information.
"""

_TOKEN_RE = re.compile(r"[a-z0-9]+")


# ---------------------------------------------------------------------------
# row types


@dataclass(frozen=True)
class TrialResultRow:
    study_id: str
    population_text: str
    population_n: Optional[int]
    arm_label: str
    is_control: bool
    outcome_text: str

    def __post_init__(self) -> None:
        if not self.arm_label:
            raise ValueError("arm_label must be nonempty")
        if self.population_n is not None and self.population_n <= 0:
            raise ValueError(f"population_n must be positive, got {self.population_n}")


@dataclass(frozen=True)
class AdverseEventRow:
    study_id: str
    arm_description: str
    term: str
    organ_system: str
    num_affected: int
    num_at_risk: int
    is_serious: bool
    description: str
    meddra_code: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0 < self.num_affected <= self.num_at_risk:
            raise ValueError(f"need 0 < affected <= at risk, got {self.num_affected}/{self.num_at_risk}")
        expected = FREQUENCY_TEMPLATE.format(num_affected=self.num_affected, num_at_risk=self.num_at_risk)
        if expected not in self.description:
            raise ValueError(f"description missing frequency string {expected!r}")


@dataclass(frozen=True)
class DispositionRow:
    study_id: str
    design_group_id: str
    group_type: str
    intervention_id: str
    intervention_type: str
    treatment_name: str
    description: str


@dataclass(frozen=True)
class OutcomeLabel:
    study_id: str
    outcome_type: str
    evidence: str

    def __post_init__(self) -> None:
        if self.outcome_type.startswith("terminated:"):
            category = self.outcome_type.split(":", 1)[1]
            if category not in TERMINATION_CATEGORIES:
                raise ValueError(f"unknown termination category {category!r}")
        elif self.outcome_type not in _BASE_OUTCOME_TYPES:
            raise ValueError(f"unknown outcome_type {self.outcome_type!r}")
        if self.evidence not in OUTCOME_EVIDENCE_TAGS:
            raise ValueError(f"unknown evidence tag {self.evidence!r}")


# ---------------------------------------------------------------------------
# structured results


def parse_ctgov_results(doc: CtgovDoc) -> list[TrialResultRow]:
    """Emit one row per (arm, outcome) for POSTED outcome measures.

    Reads the baseline population and the outcome measures with their
    groups and measurements. Population text and count describe the whole
    study and repeat on every row. Groups without a title cannot form a
    valid row and are skipped. Raises ``MissingResultsSection`` when the
    document carries no outcome measures at all.
    """
    if not doc.outcome_measures:
        raise MissingResultsSection(f"no results posted for {doc.nct_id}")
    population_n = doc.total_count if (doc.total_count or 0) > 0 else None

    rows: list[TrialResultRow] = []
    for measure in doc.outcome_measures:
        if measure.reporting_status != "POSTED":
            continue
        values = {measurement.group_id: measurement.value for measurement in measure.measurements}
        for group in measure.groups:
            if not group.title:
                continue
            value = values.get(group.id)
            outcome_text = measure.title
            if value is not None:
                outcome_text = f"{measure.title}; value: {value}{' ' + measure.unit if measure.unit else ''}"
            rows.append(TrialResultRow(
                study_id=doc.nct_id, population_text=doc.population_description, population_n=population_n,
                arm_label=group.title, is_control=bool(group.is_control), outcome_text=outcome_text,
            ))
    return rows


def primary_pvalues(doc: CtgovDoc) -> list[float]:
    """Collect the p-values of POSTED primary outcome measures, sorted.

    Values may be numbers or text with a leading comparator ("<0.001");
    unparseable entries are ignored.
    """
    out: list[float] = []
    for measure in doc.outcome_measures:
        if measure.type != "PRIMARY" or measure.reporting_status != "POSTED":
            continue
        for analysis in measure.analyses:
            raw = analysis.p_value
            if isinstance(raw, str):
                raw = raw.lstrip("<=~ ")
            try:
                out.append(float(raw))
            except (TypeError, ValueError):
                continue
    return sorted(out)


# ---------------------------------------------------------------------------
# adverse events


def parse_adverse_events(doc: CtgovDoc, hierarchy: Optional[MeddraHierarchy] = None) -> list[AdverseEventRow]:
    """Emit adverse-event rows from serious and other event categories.

    Stats whose counts are not both integers, or fail
    0 < affected <= at risk, are dropped. A document without events yields
    an empty list. When a MedDRA hierarchy is supplied the term is mapped
    to its PT code.
    """
    group_labels = {group.id: group.title or group.description for group in doc.event_groups}

    rows: list[AdverseEventRow] = []
    for is_serious, events in ((True, doc.serious_events), (False, doc.other_events)):
        for event in events:
            meddra_code = map_meddra(event.term, hierarchy) if hierarchy is not None and event.term else None
            for stat in event.stats:
                affected, at_risk = stat.num_affected, stat.num_at_risk
                if type(affected) is not int or type(at_risk) is not int:
                    continue
                if not 0 < affected <= at_risk:
                    continue
                rows.append(AdverseEventRow(
                    study_id=doc.nct_id, arm_description=group_labels.get(stat.group_id, ""), term=event.term,
                    organ_system=event.organ_system, num_affected=affected, num_at_risk=at_risk, is_serious=is_serious,
                    description=FREQUENCY_TEMPLATE.format(num_affected=affected, num_at_risk=at_risk),
                    meddra_code=meddra_code,
                ))
    return rows


# ---------------------------------------------------------------------------
# disposition


def disposition_tables_from_ctgov(doc: CtgovDoc) -> list[tuple[Optional[int], int, str]]:
    """Link a CT.gov document's interventions to its arm groups by ``armGroupLabels``.

    One ``(group position, intervention position, label)`` per label, in
    intervention order. A label names the last arm group that has it; one
    that names no group links to position None, which `build_disposition`
    reports as dangling.
    """
    positions = {arm.label: position for position, arm in enumerate(doc.arm_groups)}
    return [
        (positions.get(label), position, label)
        for position, drug in enumerate(doc.interventions)
        for label in drug.arm_group_labels
    ]


def build_disposition(doc: CtgovDoc, links: Sequence[tuple[Optional[int], int, str]]) -> list[DispositionRow]:
    """One row per link of `disposition_tables_from_ctgov`: the arm group joined to its intervention.

    Labels that name no arm group are reported together in one
    ``DanglingReference``.
    """
    dangling = [label for group, _, label in links if group is None]
    if dangling:
        raise DanglingReference(f"{doc.nct_id}: armGroupLabels {dangling} name no arm group")
    return [
        DispositionRow(
            study_id=doc.nct_id,
            design_group_id=f"{doc.nct_id}:g{group}",
            group_type=arm.type,
            intervention_id=f"{doc.nct_id}:i{position}",
            intervention_type=drug.type,
            treatment_name=drug.name,
            description=" | ".join(part for part in (arm.description, drug.description) if part),
        )
        for group, position, _ in links
        for arm, drug in [(doc.arm_groups[group], doc.interventions[position])]
    ]


def pico_disposition_rows(study_id: str, pico_rows: Sequence[TrialResultRow]) -> list[DispositionRow]:
    """Derive arm rows from publication PICO pairs.

    Each distinct (population, intervention) pairing becomes one arm whose
    treatment name is the intervention and whose description is the
    population text. Group and intervention types are unknown for
    publications and stay empty.
    """
    seen: set[tuple[str, str]] = set()
    out: list[DispositionRow] = []
    for row in pico_rows:
        key = (row.population_text, row.arm_label)
        if key in seen:
            continue
        seen.add(key)
        position = len(out)
        out.append(
            DispositionRow(
                study_id=study_id,
                design_group_id=f"{study_id}:pico:g{position}",
                group_type="",
                intervention_id=f"{study_id}:pico:i{position}",
                intervention_type="",
                treatment_name=row.arm_label,
                description=row.population_text,
            )
        )
    return out


# ---------------------------------------------------------------------------
# publication PICO extraction


def build_pico_prompt(title: str, abstract: str) -> str:
    return PICO_PROMPT_TEMPLATE.format(title=title, abstract=abstract)


def extract_pubmed_pico(study_id: str, title: str, abstract: str, llm_client: LlmClient) -> list[TrialResultRow]:
    """Extract arm-level result rows from one abstract via the model.

    The replayed answer is read as a `views.PicoAnswer`. Outcome entries
    without an intervention are dropped (no valid arm label); a
    non-positive population_n is treated as absent.
    """
    label = f"pico answer for {study_id}"
    answer = parse_answer(PicoAnswer, json_answer(label, llm_client(build_pico_prompt(title, abstract))), label)
    population_n = answer.population_n if (answer.population_n or 0) > 0 else None
    return [
        TrialResultRow(
            study_id=study_id,
            population_text=answer.population,
            population_n=population_n,
            arm_label=outcome.intervention,
            is_control=bool(outcome.is_control),
            outcome_text=outcome.outcome,
        )
        for outcome in answer.outcomes
        if outcome.intervention
    ]


# ---------------------------------------------------------------------------
# outcome labeling: completed trials


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def title_cosine(a: str, b: str) -> float:
    """Set cosine over title tokens; 0.0 when either side is empty."""
    set_a, set_b = set(_tokens(a)), set(_tokens(b))
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / math.sqrt(len(set_a) * len(set_b))


def rank_abstracts(title: str, abstracts: Sequence[Article]) -> list[Article]:
    """Order candidate abstracts by title similarity, stable on ties."""
    return sorted(abstracts, key=lambda article: -title_cosine(title, article.title))


def build_outcome_prompt(study: CanonicalStudy, top_two: Sequence[Article]) -> str:
    slots = [(article.title, article.abstract) for article in top_two[:2]]
    (title_1, abstract_1), (title_2, abstract_2) = slots + [("", "")] * (2 - len(slots))
    replacements = {
        "[nct_id]": study.study_id,
        "[official_title]": study.title,
        "[primary_outcomes]": "; ".join(study.primary_outcomes),
        "[top_1_similar_article_title]": title_1,
        "[top_1_similar_article_abstract]": abstract_1,
        "[top_2_similar_article_title]": title_2,
        "[top_2_similar_article_abstract]": abstract_2,
    }
    prompt = OUTCOME_PROMPT_TEMPLATE
    for slot, value in replacements.items():
        prompt = prompt.replace(slot, value)
    return prompt


def _normalize_status_text(raw: Optional[str]) -> str:
    if not raw:
        return ""
    return re.sub(r"[\s_-]+", " ", raw).strip().lower()


def _llm_verdict(study: CanonicalStudy, abstracts: Sequence[Article], llm_client: LlmClient) -> str:
    answer = llm_client(build_outcome_prompt(study, rank_abstracts(study.title, abstracts)[:2]))
    verdict = answer.strip().lower()
    if verdict.startswith("positive"):
        return "positive"
    if verdict.startswith("negative"):
        return "negative"
    return "unknown"


def classify_completed_outcome(
    study: CanonicalStudy,
    matched_abstracts: Sequence[Article],
    llm_client: Optional[LlmClient],
    pvalues: Sequence[float],
) -> OutcomeLabel:
    """Label a completed trial through the four-stage cascade.

    1. A raw status of "approved for marketing" is recorded directly.
    2. Otherwise the model reads the title, the two most title-similar
       abstracts, and the primary outcomes; a definite verdict wins.
    3. On an unknown verdict (or no abstracts, or no client) the smallest
       primary-outcome p-value decides: below 0.01 positive at the strict
       threshold, below 0.05 positive at the loose one, else negative.
    4. With nothing to go on the label is unknown.

    Whatever ``llm_client`` raises propagates untouched: a failed call is
    not a verdict, and falling back to the p-values would write a label
    that no replay of the recorded responses reproduces.
    """
    if "approved for marketing" in _normalize_status_text(study.raw_status):
        return OutcomeLabel(study.study_id, "approved-for-marketing", "status")

    if matched_abstracts and llm_client is not None:
        verdict = _llm_verdict(study, matched_abstracts, llm_client)
        if verdict in ("positive", "negative"):
            return OutcomeLabel(study.study_id, verdict, "llm")

    if pvalues:
        smallest = min(pvalues)
        if smallest < 0.01:
            return OutcomeLabel(study.study_id, "positive", "pvalue@0.01")
        if smallest < 0.05:
            return OutcomeLabel(study.study_id, "positive", "pvalue@0.05")
        return OutcomeLabel(study.study_id, "negative", "pvalue@0.05")

    return OutcomeLabel(study.study_id, "unknown", "llm")


# ---------------------------------------------------------------------------
# outcome labeling: terminated trials


def _jaccard(set_a: AbstractSet[str], set_b: AbstractSet[str]) -> float:
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)


def load_termination_keywords() -> dict[str, list[str]]:
    """The packaged keyword list of each termination category, in config order."""
    keyword_sets = json.loads((DATA_DIR / "termination_keywords.json").read_text(encoding="utf-8"))
    unknown = [category for category in keyword_sets if category not in TERMINATION_CATEGORIES]
    if unknown:
        raise ValueError(f"termination keyword config names unknown categories: {unknown}")
    return keyword_sets


def termination_keyword_tokens(keyword_sets: Mapping[str, Sequence[str]]) -> dict[str, list[frozenset[str]]]:
    """Each category's keywords as token sets, in config order: the table
    `classify_termination_reason` scores against, built once per run.

    Categories without keywords are left out; they can never win.
    """
    return {
        category: [frozenset(_tokens(keyword)) for keyword in keywords]
        for category, keywords in keyword_sets.items()
        if keywords
    }


def classify_termination_reason(stop_reason: str, keyword_tokens: Mapping[str, Sequence[frozenset[str]]]) -> str:
    """Map a stop reason to ``terminated:<category>``.

    ``keyword_tokens`` is a `termination_keyword_tokens` table. The winning
    category has the highest mean token Jaccard similarity between the
    reason and its keywords (config order breaks ties). When every
    similarity is zero, nothing was recognized and the label falls back to
    ``terminated:other``.
    """
    reason = set(_tokens(stop_reason))
    best_category = "other"
    best_score = 0.0
    for category, keywords in keyword_tokens.items():
        mean = sum(_jaccard(reason, keyword) for keyword in keywords) / len(keywords)
        if mean > best_score:
            best_category, best_score = category, mean
    return f"terminated:{best_category}"


def label_terminated_study(
    study: CanonicalStudy, stop_reason: str, keyword_tokens: Mapping[str, Sequence[frozenset[str]]]
) -> OutcomeLabel:
    outcome_type = classify_termination_reason(stop_reason, keyword_tokens)
    return OutcomeLabel(study.study_id, outcome_type, "stop-reason-similarity")
