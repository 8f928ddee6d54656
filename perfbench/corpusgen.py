"""Seeded synthetic corpora and scripted service transports.

`generate` writes a corpus in the layout `trialforge.pipeline` reads
(registry rows, CT.gov documents, PubMed articles, reviews, protocol
pairs) plus a ground-truth file next to it, never inside it, so the
truth does not enter the corpus hash. The same seed and spec always give
byte-identical files.

The ground truth lists every planted cross-source duplicate pair, the
subset whose titles differ only by a dropped leading article, and every
record that must stay distinct. Distinct records never share a synthetic
drug name or acronym, so their titles sit far below the 0.95 dedupe
threshold; planted twins normalize to the same title (or to the same
title minus a leading "A").

`TRANSPORTS` answers every request kind the pipeline sends in record
mode: RxNorm lookups, condition annotation, and the five LLM prompt
kinds (endpoint, PICO, outcome label, evidence MCQ, sample-size
assumptions). An unknown prompt raises, so a record pass proves the
script is complete.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

TRUTH_NAME = "truth.json"

# Shared title openings. Those starting with "A" can lose the article in
# a twin record; "a" and "study" become the large dedupe blocks.
LEAD_PHRASES = (
    "A randomized trial of",
    "A study of",
    "A pilot study of",
    "Study of",
    "Study of the effect of",
)
_ARTICLE_LEADS = tuple(p for p in LEAD_PHRASES if p.startswith("A "))

_SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "ka", "le", "mi", "no", "pu", "ra", "se",
    "ti", "vo", "zu", "xa", "ly", "qu", "dr", "pr", "ta", "ve", "co", "ma",
)
# Every synthetic drug name is nine letters, so title lengths (and with
# them the dedupe work) do not depend on the seed.
_DRUG_SUFFIXES = ("mab", "nib", "sta", "pri", "tid", "vir", "zol", "par")
_CONDITIONS = (
    "type 2 diabetes", "chronic heart failure", "moderate asthma", "major depression",
    "rheumatoid arthritis", "plaque psoriasis", "ulcerative colitis", "migraine",
    "chronic kidney disease", "hypertension", "atrial fibrillation", "osteoporosis",
    "breast cancer", "non small cell lung cancer", "macular degeneration", "epilepsy",
    "obesity", "insomnia", "chronic obstructive pulmonary disease", "gout",
)
_POPULATIONS = (
    "adults", "older adults", "children", "adolescents", "postmenopausal women",
    "hospitalized patients", "outpatients", "treatment naive patients",
)
_DESIGNS = (
    "versus placebo", "compared with standard care", "as add-on therapy",
    "at two dose levels", "with dose titration",
)
# Real vocabulary names, so part of the drug linking resolves locally.
_KNOWN_DRUGS = ("metformin", "aspirin", "ibuprofen", "bevacizumab", "lamotrigine", "albuterol")
_MEASURES = (
    "Change in glycated hemoglobin", "Change in c reactive protein",
    "Best corrected visual acuity", "Brain natriuretic peptide level",
    "Alanine aminotransferase elevation", "Hormone receptor status",
    "Overall survival", "Progression free survival", "Hospital admission rate",
    "Quality of life score", "Pain intensity score", "Seizure frequency",
    "Exacerbation rate", "Forced expiratory volume", "Systolic blood pressure",
    "Body weight", "Sleep efficiency", "Fatigue score", "Serious infection rate",
    "Tumor mutational burden",
)
_TIME_FRAMES = ("12 weeks", "24 weeks", "6 months", "12 months", "2 years")
_AE_TERMS = ("Nausea", "Vomiting", "Headache", "Fever", "Diarrhoea", "Eye pain", "Feeling queasy", "Loose stools")
_STOP_REASONS = (
    "slow recruitment of patients", "unacceptable toxicity", "futility analysis showed no benefit",
    "business decision by the sponsor", "drug supply shortage",
)
_REGISTRIES = ("ANZCTR", "ISRCTN", "ChiCTR", "DRKS")
_MESH = {condition: f"D{100000 + i:06d}" for i, condition in enumerate(_CONDITIONS)}


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one synthetic corpus.

    ``groups`` logical studies each become one record, or two records in
    two different sources when planted as a duplicate pair.
    ``dup_share`` is the share of groups planted as pairs,
    ``dropped_article_pairs`` how many of those pairs differ only by a
    leading "A", ``lead_share`` the share of titles opening with a shared
    lead phrase. ``acronym_titles`` opens every title with a distinct
    acronym instead. ``rich`` adds results, adverse events, linked
    abstracts, reviews and protocol pairs so every stage has work.
    """

    groups: int
    dup_share: float
    dropped_article_pairs: int
    lead_share: float
    acronym_titles: bool
    rich: bool


def _unique_word(rng: random.Random, used: set, make) -> str:
    while True:
        word = make(rng)
        if word not in used:
            used.add(word)
            return word


def _drug_name(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(3)) + rng.choice(_DRUG_SUFFIXES)


def _acronym(rng: random.Random) -> str:
    consonants, vowels = "BCDFGKLMNPRSTVZ", "AEIOU"
    return "".join(rng.choice(consonants) + rng.choice(vowels) for _ in range(3)) + rng.choice(consonants)


def _stable_int(text: str) -> int:
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:8], 16)


def _outcome_measures(rng: random.Random, count: int) -> list[dict]:
    measures = rng.sample(_MEASURES, count)
    return [{"measure": m, "timeFrame": rng.choice(_TIME_FRAMES)} for m in measures]


def _eligibility(condition: str, population: str) -> str:
    return (
        f"Inclusion criteria:\n- {population.capitalize()} with {condition}\n"
        f"- Stable background therapy for 3 months\n"
        f"Exclusion criteria:\n- Pregnancy\n- Participation in another interventional study"
    )


def _results_section(rng: random.Random, arms: list[str], primary: list[dict]) -> dict:
    at_risk = [rng.randint(40, 200) for _ in arms]
    measures = []
    for position, outcome in enumerate(primary):
        measures.append({
            "title": outcome["measure"],
            "type": "PRIMARY" if position == 0 else "SECONDARY",
            "reportingStatus": "POSTED",
            "unitOfMeasure": "units",
            "groups": [
                {"id": f"OG{k:03d}", "title": arm, **({"isControl": True} if k == len(arms) - 1 else {})}
                for k, arm in enumerate(arms)
            ],
            "measurements": [
                {"groupId": f"OG{k:03d}", "value": f"{rng.uniform(1, 50):.1f}"} for k in range(len(arms))
            ],
            "analyses": [{"pValue": rng.choice(["0.003", "0.02", "0.3", "<0.001"])}],
        })

    def events(terms: list[str]) -> list[dict]:
        return [
            {
                "term": term,
                "organSystem": "General disorders",
                "stats": [
                    {"groupId": f"EG{k:03d}", "numAffected": rng.randint(0, 12), "numAtRisk": n}
                    for k, n in enumerate(at_risk)
                ],
            }
            for term in terms
        ]

    terms = rng.sample(_AE_TERMS, 4)
    return {
        "baselineCharacteristicsModule": {"populationDescription": "Intention-to-treat population", "totalCount": sum(at_risk)},
        "outcomeMeasuresModule": {"outcomeMeasures": measures},
        "adverseEventsModule": {
            "eventGroups": [{"id": f"EG{k:03d}", "title": arm} for k, arm in enumerate(arms)],
            "seriousEvents": events(terms[:1]),
            "otherEvents": events(terms[1:]),
        },
    }


def _ctgov_doc(rng: random.Random, nct_id: str, title: str, drug: str, condition: str, population: str, rich: bool) -> dict:
    status = rng.choices(["COMPLETED", "TERMINATED", "RECRUITING"], weights=[60, 15, 25])[0]
    arms = [f"{drug.capitalize()} arm", "Placebo arm"]
    primary = _outcome_measures(rng, rng.randint(1, 2))
    secondary = [m for m in _outcome_measures(rng, 3) if m["measure"] not in {p["measure"] for p in primary}][:2]
    status_module = {"overallStatus": status, "startDateStruct": {"date": f"{rng.randint(2005, 2022)}-0{rng.randint(1, 9)}"}}
    if status == "TERMINATED":
        status_module["whyStopped"] = rng.choice(_STOP_REASONS)
    enrollment = rng.randint(40, 900)
    doc = {
        "nctId": nct_id,
        "protocolSection": {
            "identificationModule": {"nctId": nct_id, "briefTitle": title, "officialTitle": title},
            "descriptionModule": {"briefSummary": f"{drug.capitalize()} in {population} with {condition}."},
            "statusModule": status_module,
            "designModule": {
                "studyType": "INTERVENTIONAL",
                "phases": [rng.choice(["PHASE2", "PHASE3"])],
                "designInfo": {
                    "allocation": "RANDOMIZED",
                    "interventionModel": "PARALLEL",
                    "maskingInfo": {"masking": rng.choice(["DOUBLE", "SINGLE", "NONE"])},
                    "primaryPurpose": "TREATMENT",
                },
                "enrollmentInfo": {"count": enrollment, "type": "ACTUAL" if status != "RECRUITING" else "ESTIMATED"},
            },
            "eligibilityModule": {
                "eligibilityCriteria": _eligibility(condition, population),
                "healthyVolunteers": False,
                "minimumAge": "18 Years",
                "sex": "ALL",
            },
            "armsInterventionsModule": {
                "armGroups": [
                    {"label": arms[0], "type": "EXPERIMENTAL", "description": f"Oral {drug} once daily"},
                    {"label": arms[1], "type": "PLACEBO_COMPARATOR", "description": "Matching placebo"},
                ],
                "interventions": [
                    {"name": drug.capitalize(), "type": "DRUG", "armGroupLabels": [arms[0]]},
                    {"name": "Placebo", "type": "OTHER", "armGroupLabels": [arms[1]]},
                ],
            },
            "outcomesModule": {"primaryOutcomes": primary, "secondaryOutcomes": secondary},
            "sponsorCollaboratorsModule": {"leadSponsor": {"name": rng.choice(["Acme Health", "Globex Institute", "Initech Pharma"])}},
        },
    }
    if rich and status != "RECRUITING" and rng.random() < 0.7:
        doc["resultsSection"] = _results_section(rng, arms, primary + secondary)
    return doc


def _registry_row(mapping: dict, rng: random.Random, study_id: str, title: str, condition: str, population: str) -> dict:
    fields = mapping["fields"]

    def key_for(table: str, value: str) -> str:
        return next(k for k, v in mapping.get(table, {}).items() if v == value)

    outcomes = [f"{m['measure']} at {m['timeFrame']}" for m in _outcome_measures(rng, 2)]
    values = {
        "study_id": study_id,
        "title": title,
        "brief_summary": f"Trial in {population} with {condition}.",
        "sponsor": rng.choice(["Acme Health", "Globex Institute", "Initech Pharma"]),
        "start_year": f"{rng.randint(2005, 2022)}-03-01",
        "phase": rng.choice(["Phase 2", "Phase 3"]),
        "gender": key_for("gender_map", "MALE/FEMALE"),
        "status": key_for("status_map", rng.choice(["completed", "recruiting"])),
        "study_type": key_for("study_type_map", "INTERVENTIONAL"),
        "target_accrual": str(rng.randint(40, 900)),
        "primary_outcomes": outcomes[0],
        "secondary_outcomes": outcomes[1],
    }
    return {fields[name]: value for name, value in values.items() if fields.get(name)}


def _abstract(rng: random.Random, drug: str, condition: str, population: str, nct_id: str | None) -> str:
    n = rng.randint(40, 900)
    registration = f" (ClinicalTrials.gov number {nct_id})" if nct_id else ""
    return (
        f"BACKGROUND: {drug.capitalize()} is a candidate treatment for {condition}. "
        f"METHODS: In this randomized trial, {n} patients ({population}) received {drug} or placebo{registration}. "
        f"RESULTS: {rng.choice(_MEASURES)} improved more with {drug} than with placebo. "
        f"CONCLUSIONS: {drug.capitalize()} was well tolerated."
    )


def _plan(spec: CorpusSpec, rng: random.Random) -> list[dict]:
    """Per-group structure: title parts, sources, pairing, lead phrase.

    Drawn from an RNG that does not depend on the seed, then shuffled
    with the seeded one. Every seed therefore gets the same multiset of
    title lengths, block memberships and source pairings (so the same
    dedupe work) while names, ids and document contents differ.
    """
    shape = random.Random(f"perfbench-shape:{spec}")
    n_pairs = round(spec.groups * spec.dup_share)
    if spec.dropped_article_pairs > n_pairs:
        raise ValueError("more dropped-article pairs than planted pairs")
    sources = ["CTGOV", *_REGISTRIES, "PUBMED"]
    plan = []
    for group in range(spec.groups):
        dropped = group < spec.dropped_article_pairs
        if dropped:
            lead = shape.choice(_ARTICLE_LEADS)
        else:
            lead = shape.choice(LEAD_PHRASES) if shape.random() < spec.lead_share else None
        plan.append({
            "lead": lead,
            "dropped": dropped,
            "known_drug": shape.choice(_KNOWN_DRUGS) if shape.random() < 0.15 else None,
            "design": shape.choice(_DESIGNS),
            "condition": shape.choice(_CONDITIONS),
            "population": shape.choice(_POPULATIONS),
            "sources": tuple(shape.sample(sources, 2)) if group < n_pairs
            else tuple(shape.choices(sources, weights=[30, 12, 12, 12, 12, 22])),
        })
    rng.shuffle(plan)
    return plan


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8")


def generate(corpus_dir: Path, seed: int, spec: CorpusSpec, mapping_dir: Path) -> dict:
    """Write the corpus under ``corpus_dir`` and the truth file beside it.

    ``mapping_dir`` is the program's registry field-mapping directory, so
    registry rows use the column names the ingest stage expects. Returns
    the ground truth.
    """
    rng = random.Random(f"perfbench:{seed}")
    mappings = {tag: json.loads((mapping_dir / f"{tag.lower()}.json").read_text(encoding="utf-8")) for tag in _REGISTRIES}
    used_words: set = set()

    registry: dict[str, list] = {tag: [] for tag in _REGISTRIES}
    docs: dict[str, dict] = {}
    articles: list[dict] = []
    truth = {"planted_pairs": [], "dropped_article_pairs": [], "distinct": []}
    serial = 0

    def new_record(source: str, title: str, drug: str, condition: str, population: str, linked_nct: str | None = None) -> list:
        nonlocal serial
        serial += 1
        if source == "CTGOV":
            study_id = f"NCT{10000000 + seed % 1000 * 10000 + serial:08d}"
            docs[study_id] = _ctgov_doc(rng, study_id, title, drug, condition, population, spec.rich)
        elif source == "PUBMED":
            study_id = str(20000000 + serial)
            article = {"pmid": study_id, "title": title, "year": rng.randint(2005, 2023)}
            if spec.rich:
                article["abstract"] = _abstract(rng, drug, condition, population, linked_nct)
                if linked_nct:
                    article["accession_numbers"] = [linked_nct]
            articles.append(article)
        else:
            study_id = f"{source.upper()}{seed % 1000:03d}{serial:06d}"
            registry[source].append(_registry_row(mappings[source], rng, study_id, title, condition, population))
        return [source, study_id]

    for plan in _plan(spec, rng):
        drug = _unique_word(rng, used_words, _drug_name)
        if plan["known_drug"]:
            drug = f"{plan['known_drug']} {drug}"
        acronym = _unique_word(rng, used_words, _acronym)
        condition, population = plan["condition"], plan["population"]
        core = f"{drug} {plan['design']} for {condition} in {population}"
        if spec.acronym_titles:
            title = f"{acronym}: {core.capitalize()}"
        elif plan["lead"]:
            title = f"{plan['lead']} {core} ({acronym})"
        else:
            title = f"{core.capitalize()} ({acronym})"
        if len(plan["sources"]) == 1:
            source = plan["sources"][0]
            linked = rng.choice(sorted(docs)) if spec.rich and source == "PUBMED" and docs and rng.random() < 0.5 else None
            truth["distinct"].append(new_record(source, title, drug, condition, population, linked_nct=linked))
            continue
        first, second = plan["sources"]
        if plan["dropped"]:
            twin = title.split(" ", 1)[1]
            twin = twin[0].upper() + twin[1:]
        else:
            twin = title.upper()
        a = new_record(first, title, drug, condition, population)
        b = new_record(second, twin, drug, condition, population, linked_nct=a[1] if first == "CTGOV" else None)
        truth["planted_pairs"].append([a, b])
        if plan["dropped"]:
            truth["dropped_article_pairs"].append([a, b])

    for tag, rows in registry.items():
        _write_json(corpus_dir / "registry" / f"{tag}.json", rows)
    for nct_id, doc in docs.items():
        _write_json(corpus_dir / "ctgov" / f"{nct_id}.json", doc)
    _write_json(corpus_dir / "pubmed" / "articles.json", articles)
    if spec.rich:
        _write_reviews(corpus_dir, rng, sorted(docs), articles)
        _write_protocols(corpus_dir, rng, docs)

    truth["records"] = {
        "registry": sum(len(rows) for rows in registry.values()),
        "ctgov": len(docs),
        "pubmed": len(articles),
    }
    truth["records"]["total"] = sum(truth["records"].values())
    truth["seed"] = seed
    _write_json(corpus_dir.parent / TRUTH_NAME, truth)
    return truth


def _write_reviews(corpus_dir: Path, rng: random.Random, nct_ids: list[str], articles: list[dict]) -> None:
    """One review per eight trials; each includes and excludes articles."""
    pmids = [a["pmid"] for a in articles]
    index = []
    for k in range(max(1, len(nct_ids) // 8)):
        review_pmid = str(30000000 + k)
        included_trials = rng.sample(nct_ids, min(6, len(nct_ids)))
        included = rng.sample(pmids, min(5, len(pmids)))
        excluded = rng.sample([p for p in pmids if p not in included], min(5, max(0, len(pmids) - 5)))
        refs = [f'<ref><mixed-citation>Trial registration {n}.</mixed-citation></ref>' for n in included_trials]
        refs += [f'<ref><mixed-citation>Report.</mixed-citation><pub-id pub-id-type="pmid">{p}</pub-id></ref>' for p in included]
        excluded_refs = [f'<ref><mixed-citation>Report.</mixed-citation><pub-id pub-id-type="pmid">{p}</pub-id></ref>' for p in excluded]
        xml = (
            '<?xml version="1.0" encoding="UTF-8"?>\n<article><back>'
            f'<ref-list><title>References to studies included in this review</title>{"".join(refs)}</ref-list>'
            f'<ref-list><title>References to studies excluded from this review</title>{"".join(excluded_refs)}</ref-list>'
            '</back></article>\n'
        )
        (corpus_dir / "reviews").mkdir(parents=True, exist_ok=True)
        (corpus_dir / "reviews" / f"{review_pmid}.xml").write_text(xml, encoding="utf-8")
        condition = rng.choice(_CONDITIONS)
        index.append({
            "pmid": review_pmid,
            "background": f"Many treatments have been proposed for {condition}.",
            "objectives": f"To assess drug treatments for {condition}.",
            "criteria": f"Randomized trials of drug treatment in people with {condition}.",
            "review_text": f"Across the included trials, active treatment improved outcomes in {condition} compared with placebo." if k % 2 == 0 else "",
        })
    _write_json(corpus_dir / "reviews" / "index.json", index)


def _write_protocols(corpus_dir: Path, rng: random.Random, docs: dict[str, dict]) -> None:
    pairs = []
    for nct_id in sorted(docs)[::10]:
        doc = docs[nct_id]
        enrollment = doc["protocolSection"]["designModule"]["enrollmentInfo"]["count"]
        pairs.append({
            "nct_id": nct_id,
            "title": doc["protocolSection"]["identificationModule"]["officialTitle"],
            "registry_enrollment": enrollment,
            "section_text": f"With 90% power and two-sided alpha of 0.05, {enrollment} participants will be enrolled.",
        })
    _write_json(corpus_dir / "protocols" / "pairs.json", pairs)


# ---------------------------------------------------------------------------
# scripted transports

_COMET_RULES = (
    ("survival", "Mortality/survival", None),
    ("quality of life", "Life impact", "Global quality of life"),
    ("sleep", "Life impact", "Sleep"),
    ("fatigue", "Life impact", "Fatigue"),
    ("hospital", "Resource use", "Hospital"),
    ("infection", "Adverse events/effects", "Infections"),
    ("blood pressure", "Physiological/clinical", "Cardiovascular outcomes"),
    ("hemoglobin", "Physiological/clinical", "Metabolic and nutritional outcomes"),
)
_PICO_TITLE_RE = re.compile(r"^Title: (.*)$", re.MULTILINE)
_PICO_SIZE_RE = re.compile(r"(\d+) patients")


def _endpoint_answer(prompt: str) -> list[dict]:
    text = prompt.rsplit("Input text:\n", 1)[-1].strip()
    lowered = text.lower()
    for needle, domain, subdomain in _COMET_RULES:
        if needle in lowered:
            return [{"outcome": text, "domain": domain, "subdomain": subdomain}]
    return [{"outcome": text, "domain": "Physiological/clinical", "subdomain": "General outcomes"}]


def _pico_answer(prompt: str) -> dict:
    title = _PICO_TITLE_RE.search(prompt).group(1)
    size = _PICO_SIZE_RE.search(prompt)
    lead = title.split(":")[-1].strip().split()[0]
    return {
        "population": f"Participants in {title[:60]}",
        "population_n": int(size.group(1)) if size else None,
        "outcomes": [
            {"intervention": f"{lead} (abstract)", "is_control": False, "outcome": "Improved primary outcome (abstract)"},
            {"intervention": "Placebo (abstract)", "is_control": True, "outcome": "Smaller change in primary outcome (abstract)"},
        ],
    }


def llm_transport(service: str, request: dict) -> dict:
    prompt = request["prompt"]
    if "Input text:" in prompt and "COMET taxonomy" in prompt:
        return {"text": json.dumps(_endpoint_answer(prompt))}
    if "Patient or problem (P)" in prompt:
        return {"text": json.dumps(_pico_answer(prompt))}
    if "official title:" in prompt:
        return {"text": ("positive outcome", "negative outcome", "unknown")[_stable_int(prompt) % 3]}
    if prompt.startswith("Write one multiple-choice question"):
        return {"text": json.dumps({
            "question": "How did active drug treatment compare with placebo?",
            "options": ["It improved outcomes", "It worsened outcomes", "No difference", "Not studied"],
            "answer": "A",
        })}
    if prompt.startswith("Summarize the statistical assumptions"):
        return {"text": "Two-arm design powered at 90% with two-sided alpha 0.05."}
    raise ValueError(f"no scripted answer for prompt: {prompt[:80]!r}")


def annotator_transport(service: str, request: dict) -> dict:
    lowered = request["text"].lower()
    annotations = [
        {
            "semantic_type": "T047",
            "mesh_id": mesh_id,
            "mesh_term": condition.title(),
            "ancestors": [{"mesh_id": "D004194", "mesh_term": "Diseases"}],
        }
        for condition, mesh_id in _MESH.items()
        if condition in lowered
    ]
    return {"annotations": annotations}


def rxnorm_transport(service: str, request: dict) -> dict:
    if request.get("op") == "rxcui":
        name = request.get("name", "")
        return {"rxcui": str(900000 + _stable_int(name) % 100000) if _stable_int(name) % 2 else None}
    if request.get("op") == "spelling":
        return {"suggestions": []}
    raise ValueError(f"no scripted rxnorm answer for {request!r}")


TRANSPORTS = {
    "llm": llm_transport,
    "annotator": annotator_transport,
    "rxnorm": rxnorm_transport,
}
