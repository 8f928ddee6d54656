"""Primary-endpoint classification against the COMET outcome taxonomy.

The taxonomy is embedded as a constant: five domains, each with a fixed
subdomain list. The prompt's domain list is rendered from it. Two special
cases: Mortality/survival has no subdomains (so only a null subdomain
validates) and Adverse events/effects accepts any subdomain string.

Classification is delegated to a language model through an injected
callable ``(prompt: str) -> str`` (live endpoint or replay wrapper,
temperature pinned to 0 by the client layer). The model's JSON answer is
parsed and every (domain, subdomain) pair is validated against the
taxonomy before anything is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from trialforge.clients import json_answer
from trialforge.errors import MalformedResponse, TaxonomyViolation
from trialforge.views import EndpointEntry, parse_answer

LlmClient = Callable[[str], str]

# Domain -> allowed subdomains. An empty tuple means no subdomain exists
# (only null validates); None means any subdomain string is accepted.
COMET_TAXONOMY: Mapping[str, Optional[tuple[str, ...]]] = {
    "Mortality/survival": (),
    "Physiological/clinical": (
        "Blood and lymphatic system outcomes",
        "Cardiovascular outcomes",
        "Endocrine outcomes",
        "Gastrointestinal outcomes",
        "General outcomes",
        "Immune system outcomes",
        "Infections and infestations outcomes",
        "Metabolic and nutritional outcomes",
        "Musculoskeletal and connective tissue outcomes",
        "Neoplasms and related outcomes",
        "Nervous system outcomes",
        "Pregnancy and childbirth outcomes",
        "Renal and urinary outcomes",
        "Reproductive system and breast outcomes",
        "Respiratory outcomes",
        "Skin and subcutaneous tissue outcomes",
        "Surgical and medical procedures outcomes",
        "Vascular outcomes",
    ),
    "Life impact": (
        "Delivery of care",
        "Global quality of life",
        "Perceived health status",
        "Personal circumstances",
        "Physical functioning",
        "Role functioning",
        "Social functioning",
        "Emotional functioning/wellbeing",
        "Cognitive functioning",
        "Sleep",
        "Fatigue",
    ),
    "Resource use": (
        "Hospital",
        "Need for further intervention",
        "Societal/carer burden",
        "Other resource use",
    ),
    "Adverse events/effects": None,
}


def _taxonomy_text() -> str:
    """The prompt's numbered domain list, rendered from ``COMET_TAXONOMY``.

    No name holds a brace, so formatting the template leaves the list as is.
    """
    sections = []
    for number, (domain, subdomains) in enumerate(COMET_TAXONOMY.items(), start=1):
        if subdomains is None:
            subdomains = ("Any subdomain",)
        elif not subdomains:
            subdomains = ("No subdomains",)
        sections.append("\n".join([f"{number}. {domain}", *(f"   - {name}" for name in subdomains)]))
    return "\n\n".join(sections)


ENDPOINT_PROMPT_TEMPLATE = """You are a clinical research expert. Given a clinical trial abstract or description, extract the PRIMARY OUTCOME MEASUREMENT (usually only one or at most three), and classify them using the COMET taxonomy.

Follow these steps:
1. Extract the PRIMARY OUTCOME MEASUREMENT from the input text.
2. Classify the PRIMARY OUTCOME MEASUREMENT using the COMET taxonomy below.

COMET Taxonomy:

""" + _taxonomy_text() + """

Return your output as a list of JSON objects, one per outcome, in the following format:

[
  {{
    "outcome": "<brief name of the primary outcome measurement>",
    "domain": "<COMET domain>",
    "subdomain": "<COMET subdomain or null>"
  }},
  ...
]

Input text:
{outcome_text}
"""


@dataclass(frozen=True)
class EndpointClassification:
    outcome: str
    domain: str
    subdomain: Optional[str]


def build_endpoint_prompt(outcome_text: str) -> str:
    return ENDPOINT_PROMPT_TEMPLATE.format(outcome_text=outcome_text)


def validate_endpoint_label(domain: str, subdomain: Optional[str]) -> None:
    """Raise ``TaxonomyViolation`` unless (domain, subdomain) is valid."""
    if domain not in COMET_TAXONOMY:
        raise TaxonomyViolation(f"unknown domain {domain!r}")
    if subdomain is None:
        return
    allowed = COMET_TAXONOMY[domain]
    if allowed is None:
        return
    if subdomain not in allowed:
        raise TaxonomyViolation(f"subdomain {subdomain!r} not valid under domain {domain!r}")


def classify_endpoint(outcome_text: str, llm_client: LlmClient) -> list[EndpointClassification]:
    """Classify the primary outcome(s) described by ``outcome_text``.

    Returns one to a few classifications in the model's order. Raises
    ``MalformedResponse`` when the answer is not a non-empty JSON list of
    `views.EndpointEntry` and ``TaxonomyViolation`` when any pair falls
    outside the taxonomy.
    Whatever ``llm_client`` raises propagates untouched.
    """
    label = "endpoint answer"
    entries = parse_answer(tuple[EndpointEntry, ...], json_answer(label, llm_client(build_endpoint_prompt(outcome_text))), label)
    if not entries:
        raise MalformedResponse(f"{label} is [], expected a non-empty list")

    out: list[EndpointClassification] = []
    for entry in entries:
        subdomain = None if entry.subdomain in ("", "null") else entry.subdomain
        validate_endpoint_label(entry.domain, subdomain)
        out.append(EndpointClassification(outcome=entry.outcome, domain=entry.domain, subdomain=subdomain))
    return out
