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
from typing import Callable, Mapping, Optional, Sequence

from trialforge.clients import json_answer
from trialforge.errors import DanglingReference, MalformedResponse, MissingResultsSection
from trialforge.ontology.meddra import MeddraHierarchy, map_meddra
from trialforge.schema import CanonicalStudy
from trialforge.views import Article, CtgovDoc

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


def build_disposition(
    design_groups: Sequence[Mapping],
    interventions: Sequence[Mapping],
    link_table: Sequence[Mapping],
) -> list[DispositionRow]:
    """Join design groups to interventions through the link table.

    Group and intervention rows may carry their key as ``id`` or as the
    normalized ``design_group_id`` / ``intervention_id``; link rows use the
    normalized names plus ``nct_id``. Link rows pointing at ids that do not
    exist under the same ``nct_id`` are collected and reported together in
    one ``DanglingReference``.
    """
    groups = {}
    for row in design_groups:
        key = (row.get("nct_id"), row.get("design_group_id") or row.get("id"))
        groups[key] = row
    drugs = {}
    for row in interventions:
        key = (row.get("nct_id"), row.get("intervention_id") or row.get("id"))
        drugs[key] = row

    orphans = []
    out: list[DispositionRow] = []
    for link in link_table:
        nct_id = link.get("nct_id")
        group = groups.get((nct_id, link.get("design_group_id")))
        drug = drugs.get((nct_id, link.get("intervention_id")))
        if group is None or drug is None:
            orphans.append(dict(link))
            continue
        description_parts = [part for part in (group.get("description"), drug.get("description")) if part]
        out.append(
            DispositionRow(
                study_id=nct_id or "",
                design_group_id=str(link.get("design_group_id")),
                group_type=group.get("group_type") or "",
                intervention_id=str(link.get("intervention_id")),
                intervention_type=drug.get("intervention_type") or "",
                treatment_name=drug.get("name") or "",
                description=" | ".join(description_parts),
            )
        )
    if orphans:
        raise DanglingReference(f"{len(orphans)} link row(s) reference missing ids: {orphans}")
    return out


def disposition_tables_from_ctgov(doc: CtgovDoc) -> tuple[list[dict], list[dict], list[dict]]:
    """Flatten a CT.gov document's arm groups and interventions into the three disposition tables.

    Links are synthesized from each intervention's ``armGroupLabels``; a
    label that names no group still produces a link row, which
    ``build_disposition`` will then report as dangling.
    """
    nct_id = doc.nct_id
    design_groups = []
    label_to_id = {}
    for position, arm in enumerate(doc.arm_groups):
        group_id = f"{nct_id}:g{position}"
        label_to_id[arm.label] = group_id
        design_groups.append({
            "nct_id": nct_id, "design_group_id": group_id, "group_type": arm.type,
            "title": arm.label, "description": arm.description,
        })

    interventions = []
    links = []
    for position, drug in enumerate(doc.interventions):
        intervention_id = f"{nct_id}:i{position}"
        interventions.append({
            "nct_id": nct_id, "intervention_id": intervention_id, "intervention_type": drug.type,
            "name": drug.name, "description": drug.description,
        })
        links.extend(
            {"nct_id": nct_id, "design_group_id": label_to_id.get(label, f"missing:{label}"),
             "intervention_id": intervention_id}
            for label in drug.arm_group_labels
        )
    return design_groups, interventions, links


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

    The replayed answer must be a JSON object::

        {"population": str, "population_n": int or null,
         "outcomes": [{"intervention": str, "is_control": bool, "outcome": str}]}

    Outcome entries without an intervention are dropped (no valid arm
    label); a non-positive population_n is treated as absent.
    """
    parsed = json_answer(f"pico answer for {study_id}", llm_client(build_pico_prompt(title, abstract)))
    if not isinstance(parsed, dict) or not isinstance(parsed.get("outcomes"), list):
        raise MalformedResponse(f"pico answer for {study_id} has no outcomes list")

    population = parsed.get("population") or ""
    population_n = parsed.get("population_n")
    if not isinstance(population_n, int) or population_n <= 0:
        population_n = None

    rows: list[TrialResultRow] = []
    for outcome in parsed["outcomes"]:
        if not isinstance(outcome, dict):
            raise MalformedResponse(f"pico outcome entry for {study_id} malformed: {outcome!r}")
        arm_label = outcome.get("intervention") or ""
        if not arm_label:
            continue
        rows.append(
            TrialResultRow(
                study_id=study_id,
                population_text=population,
                population_n=population_n,
                arm_label=arm_label,
                is_control=bool(outcome.get("is_control")),
                outcome_text=outcome.get("outcome") or "",
            )
        )
    return rows


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


def jaccard_scorer(reason: str, keyword: str) -> float:
    set_a, set_b = set(_tokens(reason)), set(_tokens(keyword))
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)


def load_termination_keywords() -> dict[str, list[str]]:
    from importlib import resources

    raw = resources.files("trialforge").joinpath("data/termination_keywords.json").read_text(encoding="utf-8")
    keyword_sets = json.loads(raw)
    unknown = [category for category in keyword_sets if category not in TERMINATION_CATEGORIES]
    if unknown:
        raise ValueError(f"termination keyword config names unknown categories: {unknown}")
    return keyword_sets


def classify_termination_reason(
    stop_reason: str,
    keyword_sets: Optional[Mapping[str, Sequence[str]]] = None,
) -> str:
    """Map a stop reason to ``terminated:<category>``.

    The winning category has the highest mean token Jaccard similarity
    between the reason and its keywords (config order breaks ties). When
    every similarity is zero, nothing was recognized and the label falls
    back to ``terminated:other``.
    """
    if keyword_sets is None:
        keyword_sets = load_termination_keywords()

    best_category = "other"
    best_score = 0.0
    for category, keywords in keyword_sets.items():
        if not keywords:
            continue
        mean = sum(jaccard_scorer(stop_reason, keyword) for keyword in keywords) / len(keywords)
        if mean > best_score:
            best_category, best_score = category, mean
    if best_score == 0.0:
        best_category = "other"
    return f"terminated:{best_category}"


def label_terminated_study(
    study: CanonicalStudy,
    stop_reason: str,
    keyword_sets: Optional[Mapping[str, Sequence[str]]] = None,
) -> OutcomeLabel:
    outcome_type = classify_termination_reason(stop_reason, keyword_sets)
    return OutcomeLabel(study.study_id, outcome_type, "stop-reason-similarity")
