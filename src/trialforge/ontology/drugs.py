"""Drug mention linking against RxNorm and DrugBank subsets.

A raw mention goes through four steps:

1. ``normalize_drug_name``: strip typographic junk and dose-form suffixes,
   apply the regional-variant substitution table, lowercase.
2. ``resolve_rxnorm``: local subset lookup, then the remote service, then a
   spelling-suggestion retry. The method string records which stage hit.
3. ``resolve_drugbank``: curated RxNorm-to-DrugBank map when an RXCUI is in
   hand, else exact / synonym / brand name lookups, else a conservative
   fuzzy match (edit distance <= 2, both names at least 5 chars). A
   candidate is skipped before its edit distance is computed when the
   two names' sets of distinct characters differ in more than 4
   characters. That skips no candidate within distance 2: an insertion
   or deletion changes a name's set by at most one character and a
   substitution by at most two, so the symmetric difference of the sets
   is at most twice the edit distance.
4. ``annotate_approval``: set per-agency flags when any known variant of
   the name appears in the FDA/EMA/PMDA lists.

The fuzzy stage is deliberately strict: investigational compound codes that
differ in their numeric part ("HRS-5635" vs "HRS-1167") must not be
conflated, hence the distance cap of 2.

Remote calls go through an injected callable ``(request: dict) -> dict`` so
tests and the record/replay layer can stand in for the live service. All
loaded tables are plain dicts, immutable by convention after load, and safe
to share across threads.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

from trialforge import DATA_DIR
from trialforge.dedupe import levenshtein
from trialforge.ontology._vocabio import iter_tsv
from trialforge.views import RxnormAnswer, parse_answer

RXNORM_METHODS = ("local", "remote", "spelling-suggestion", "none")
DRUGBANK_METHODS = ("rxnorm-map", "exact", "synonym", "brand", "fuzzy", "none")

FUZZY_MAX_DISTANCE = 2
FUZZY_MIN_LENGTH = 5

AGENCIES = ("fda", "ema", "pmda")

RemoteClient = Callable[[dict], dict]

# Trademark glyphs vanish; typographic dashes, quotes, and hard spaces fold
# to their ASCII forms so the suffix/substitution tables only need one
# spelling of each entry.
_ARTIFACT_TABLE = str.maketrans(
    {
        "®": None,  # registered sign
        "™": None,  # trade mark
        "©": None,  # copyright
        "†": None,  # dagger
        "‡": None,  # double dagger
        "–": "-",
        "—": "-",
        "−": "-",
        "‘": "'",
        "’": "'",
        "“": '"',
        "”": '"',
        " ": " ",
    }
)

_WS_RE = re.compile(r"\s+")


def load_drug_normalization() -> tuple[tuple[str, ...], dict[str, str]]:
    """The packaged dose-form suffixes and name substitutions, in `normalize_drug_name`'s argument order."""
    config = json.loads((DATA_DIR / "drug_normalization.json").read_text(encoding="utf-8"))
    return tuple(config["suffixes"]), dict(config["substitutions"])


def normalize_drug_name(raw: str, suffixes: tuple[str, ...], substitutions: Mapping[str, str]) -> str:
    """Return the canonical lowercase form of a drug mention.

    Trailing dose-form suffixes are stripped iteratively ("aspirin tablet
    therapy" loses both tokens), then the whole name is looked up in the
    substitution table (regional variants, common abbreviations). Strip and
    substitute alternate until the name stops changing, so the result is a
    fixpoint and the function is idempotent.
    """
    suffix_set = {s.lower() for s in suffixes}

    name = _WS_RE.sub(" ", raw.translate(_ARTIFACT_TABLE)).strip().lower()
    seen: set[str] = set()
    while name not in seen:
        seen.add(name)
        tokens = name.split()
        while tokens and tokens[-1] in suffix_set:
            tokens.pop()
        name = " ".join(tokens)
        name = substitutions.get(name, name)
    return name


@dataclass(frozen=True)
class DrugEntry:
    raw_name: str
    cleaned_name: str
    rxcui: Optional[str]
    rxnorm_method: str
    drugbank_id: Optional[str]
    drugbank_method: str
    approved_fda: bool = False
    approved_ema: bool = False
    approved_pmda: bool = False

    def __post_init__(self) -> None:
        if self.rxnorm_method not in RXNORM_METHODS:
            raise ValueError(f"unknown rxnorm_method {self.rxnorm_method!r}")
        if self.drugbank_method not in DRUGBANK_METHODS:
            raise ValueError(f"unknown drugbank_method {self.drugbank_method!r}")
        if self.drugbank_method == "rxnorm-map" and self.rxcui is None:
            raise ValueError("drugbank_method 'rxnorm-map' requires an rxcui")


@dataclass(frozen=True)
class DrugResources:
    """Loaded vocabulary subsets. Treat every mapping as read-only."""

    rxnorm_local: Mapping[str, str]
    rxcui_names: Mapping[str, str]
    rxnorm_to_drugbank: Mapping[str, str]
    drugbank_names: Mapping[str, str]
    drugbank_synonyms: Mapping[str, str]
    drugbank_brands: Mapping[str, str]
    drugbank_display: Mapping[str, str]
    agency_lists: Mapping[str, frozenset[str]]


def load_drug_resources(vocab_dir: Path = DATA_DIR / "vocab") -> DrugResources:
    """Load the drug tables from ``vocab_dir`` (package subset by default).

    File schemas, one row per line, tab separated:

    - ``rxnorm_local.tsv``: mention name, RXCUI, canonical concept name
    - ``rxnorm_to_drugbank.tsv``: RXCUI, DrugBank id
    - ``drugbank.tsv``: DrugBank id, primary name
    - ``drugbank_synonyms.tsv`` / ``drugbank_brands.tsv``: name, DrugBank id
    - ``fda.tsv`` / ``ema.tsv`` / ``pmda.tsv``: one approved name per line
    """
    rxnorm_local: dict[str, str] = {}
    rxcui_names: dict[str, str] = {}
    for name, rxcui, canonical in iter_tsv(vocab_dir / "rxnorm_local.tsv", 3):
        rxnorm_local[name.lower()] = rxcui
        rxcui_names.setdefault(rxcui, canonical.lower() or name.lower())

    rxnorm_to_drugbank = {rxcui: db_id for rxcui, db_id in iter_tsv(vocab_dir / "rxnorm_to_drugbank.tsv", 2)}

    drugbank_names: dict[str, str] = {}
    drugbank_display: dict[str, str] = {}
    for db_id, primary in iter_tsv(vocab_dir / "drugbank.tsv", 2):
        drugbank_names[primary.lower()] = db_id
        drugbank_display[db_id] = primary.lower()

    drugbank_synonyms = {name.lower(): db_id for name, db_id in iter_tsv(vocab_dir / "drugbank_synonyms.tsv", 2)}
    drugbank_brands = {name.lower(): db_id for name, db_id in iter_tsv(vocab_dir / "drugbank_brands.tsv", 2)}

    agency_lists = {
        agency: frozenset(row[0].lower() for row in iter_tsv(vocab_dir / f"{agency}.tsv", 1))
        for agency in AGENCIES
    }

    return DrugResources(
        rxnorm_local=rxnorm_local,
        rxcui_names=rxcui_names,
        rxnorm_to_drugbank=rxnorm_to_drugbank,
        drugbank_names=drugbank_names,
        drugbank_synonyms=drugbank_synonyms,
        drugbank_brands=drugbank_brands,
        drugbank_display=drugbank_display,
        agency_lists=agency_lists,
    )


def _ask_rxnorm(remote_client: RemoteClient, op: str, name: str) -> RxnormAnswer:
    return parse_answer(RxnormAnswer, remote_client({"op": op, "name": name}), f"rxnorm {op} answer for {name!r}")


def _remote_rxcui(remote_client: RemoteClient, name: str) -> Optional[str]:
    rxcui = _ask_rxnorm(remote_client, "rxcui", name).rxcui
    return None if rxcui is None else str(rxcui)


def resolve_rxnorm(
    name: str,
    local_index: Mapping[str, str],
    remote_client: Optional[RemoteClient] = None,
) -> tuple[Optional[str], str]:
    """Resolve a cleaned name to an RXCUI, recording which stage hit.

    Stage order: local subset, remote exact lookup, then remote spelling
    suggestions retried through local-then-remote lookup. Without a client
    the remote stages are skipped, and the client is called only when the
    local stage missed. Whatever the client raises propagates untouched; an
    answer that is not an `RxnormAnswer` is a ``MalformedResponse``.
    """
    key = name.lower()
    rxcui = local_index.get(key)
    if rxcui is not None:
        return rxcui, "local"
    if remote_client is None:
        return None, "none"

    rxcui = _remote_rxcui(remote_client, key)
    if rxcui is not None:
        return rxcui, "remote"

    for suggestion in _ask_rxnorm(remote_client, "spelling", key).suggestions:
        candidate = suggestion.lower()
        rxcui = local_index.get(candidate)
        if rxcui is None:
            rxcui = _remote_rxcui(remote_client, candidate)
        if rxcui is not None:
            return rxcui, "spelling-suggestion"
    return None, "none"


def resolve_drugbank(
    rxcui: Optional[str],
    cleaned_name: str,
    resources: DrugResources,
) -> tuple[Optional[str], str]:
    """Resolve to a DrugBank id, recording which stage hit.

    Stage order: curated RXCUI map, exact primary name, synonym, brand,
    fuzzy over primary names. Fuzzy requires both names to be at least
    ``FUZZY_MIN_LENGTH`` chars and within edit distance
    ``FUZZY_MAX_DISTANCE``; ties break on smallest distance then smallest
    id, so results never depend on table order.
    """
    if rxcui is not None:
        db_id = resources.rxnorm_to_drugbank.get(rxcui)
        if db_id is not None:
            return db_id, "rxnorm-map"

    key = cleaned_name.lower()
    db_id = resources.drugbank_names.get(key)
    if db_id is not None:
        return db_id, "exact"
    db_id = resources.drugbank_synonyms.get(key)
    if db_id is not None:
        return db_id, "synonym"
    db_id = resources.drugbank_brands.get(key)
    if db_id is not None:
        return db_id, "brand"

    if len(key) >= FUZZY_MIN_LENGTH:
        key_chars = set(key)
        best: Optional[tuple[int, str]] = None
        for candidate, candidate_id in resources.drugbank_names.items():
            if len(candidate) < FUZZY_MIN_LENGTH:
                continue
            if abs(len(candidate) - len(key)) > FUZZY_MAX_DISTANCE:
                continue
            if len(key_chars.symmetric_difference(candidate)) > 2 * FUZZY_MAX_DISTANCE:
                continue
            distance = levenshtein(key, candidate)
            if distance > FUZZY_MAX_DISTANCE:
                continue
            ranked = (distance, candidate_id)
            if best is None or ranked < best:
                best = ranked
        if best is not None:
            return best[1], "fuzzy"
    return None, "none"


def annotate_approval(
    entry: DrugEntry,
    agency_lists: Mapping[str, frozenset[str]],
    rxcui_names: Optional[Mapping[str, str]] = None,
    drugbank_display: Optional[Mapping[str, str]] = None,
) -> DrugEntry:
    """Return a copy of ``entry`` with per-agency approval flags set.

    A flag is set when any known variant of the name (raw, cleaned,
    RxNorm concept name, DrugBank primary name) appears in that agency's
    list. Lists hold cleaned lowercase names.
    """
    variants = {
        _WS_RE.sub(" ", entry.raw_name.translate(_ARTIFACT_TABLE)).strip().lower(),
        entry.cleaned_name.lower(),
    }
    if entry.rxcui is not None and rxcui_names is not None:
        concept = rxcui_names.get(entry.rxcui)
        if concept:
            variants.add(concept.lower())
    if entry.drugbank_id is not None and drugbank_display is not None:
        primary = drugbank_display.get(entry.drugbank_id)
        if primary:
            variants.add(primary.lower())
    variants.discard("")

    flags = {
        agency: any(variant in agency_lists.get(agency, frozenset()) for variant in variants)
        for agency in AGENCIES
    }
    return dataclasses.replace(
        entry,
        approved_fda=flags["fda"],
        approved_ema=flags["ema"],
        approved_pmda=flags["pmda"],
    )


def link_drug(
    raw_name: str,
    resources: DrugResources,
    normalization: tuple[tuple[str, ...], Mapping[str, str]],
    remote_client: Optional[RemoteClient] = None,
) -> DrugEntry:
    """Run the full normalize / RxNorm / DrugBank / approval chain.

    ``normalization`` is the ``(suffixes, substitutions)`` pair of
    `load_drug_normalization`. Errors from ``remote_client`` propagate
    untouched (see `resolve_rxnorm`).
    """
    cleaned = normalize_drug_name(raw_name, *normalization)
    rxcui, rxnorm_method = resolve_rxnorm(cleaned, resources.rxnorm_local, remote_client)
    drugbank_id, drugbank_method = resolve_drugbank(rxcui, cleaned, resources)
    entry = DrugEntry(
        raw_name=raw_name,
        cleaned_name=cleaned,
        rxcui=rxcui,
        rxnorm_method=rxnorm_method,
        drugbank_id=drugbank_id,
        drugbank_method=drugbank_method,
    )
    return annotate_approval(entry, resources.agency_lists, resources.rxcui_names, resources.drugbank_display)
