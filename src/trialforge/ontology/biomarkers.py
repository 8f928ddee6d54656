"""Biomarker span matching against the TheMarker subset.

``themarker.tsv`` columns: canonical name, functional class, biomarker
type, genes (semicolon separated, may be empty). Types follow the source
database's five codes (predictive, surrogate, pharmacodynamic, safety,
mechanism of action).

Two lookup keys per canonical term: the whitespace-normalized lowercase
name for exact matches, and the same tokens sorted for order-invariant
matches ("receptor estrogen alpha" still finds "estrogen receptor
alpha").

The index also holds ``tokens``, every token of every indexed name, and
``max_tokens``, the token count of the longest name. A span can match
only if each of its lowercased tokens is in ``tokens`` and it has at
most ``max_tokens`` of them, so a scan over a text can skip every other
span without calling ``match_biomarker``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

from trialforge.errors import TaxonomyViolation
from trialforge.ontology._vocabio import default_vocab_dir, iter_tsv

BIOMARKER_TYPES = ("PRD", "SUR", "PDY", "SAF", "MOI")

MATCH_EXACT = "exact_multi_word"
MATCH_ORDER_INVARIANT = "exact_multi_word_order_invariant"

_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class BiomarkerMatch:
    span: str
    biomarker_name: str
    biomarker_class: str
    biomarker_type: str
    biomarker_genes: tuple[str, ...]
    match_type: str


@dataclass(frozen=True)
class _Row:
    name: str
    biomarker_class: str
    biomarker_type: str
    genes: tuple[str, ...]


@dataclass(frozen=True)
class BiomarkerIndex:
    """Read-only after build; safe to share."""

    exact: Mapping[str, _Row]
    token_sorted: Mapping[str, _Row]
    tokens: frozenset[str]
    max_tokens: int


def _normalize(text: str) -> str:
    return _WS_RE.sub(" ", text).strip().lower()


def _sorted_key(normalized: str) -> str:
    return " ".join(sorted(normalized.split()))


def load_biomarker_index(vocab_dir: Optional[Path] = None) -> BiomarkerIndex:
    """Build exact and token-sorted lookup tables from ``themarker.tsv``.

    If two canonical terms collide on the token-sorted key, the
    lexicographically smaller name wins, so the index never depends on
    file order.
    """
    base = vocab_dir if vocab_dir is not None else default_vocab_dir()
    rows: list[_Row] = []
    for name, biomarker_class, biomarker_type, genes in iter_tsv(base / "themarker.tsv", 4):
        if biomarker_type not in BIOMARKER_TYPES:
            raise TaxonomyViolation(f"biomarker {name!r} has unknown type {biomarker_type!r}")
        rows.append(
            _Row(
                name=_normalize(name),
                biomarker_class=biomarker_class,
                biomarker_type=biomarker_type,
                genes=tuple(g.strip() for g in genes.split(";") if g.strip()),
            )
        )

    exact: dict[str, _Row] = {}
    token_sorted: dict[str, _Row] = {}
    for row in sorted(rows, key=lambda r: r.name):
        exact.setdefault(row.name, row)
        token_sorted.setdefault(_sorted_key(row.name), row)
    return BiomarkerIndex(
        exact=exact,
        token_sorted=token_sorted,
        tokens=frozenset(token for name in exact for token in name.split()),
        max_tokens=max((len(name.split()) for name in exact), default=0),
    )


def match_biomarker(span: str, index: BiomarkerIndex) -> Optional[BiomarkerMatch]:
    """Match one text span, exact first, then token-order invariant."""
    normalized = _normalize(span)
    if not normalized:
        return None
    row = index.exact.get(normalized)
    match_type = MATCH_EXACT
    if row is None:
        row = index.token_sorted.get(_sorted_key(normalized))
        match_type = MATCH_ORDER_INVARIANT
    if row is None:
        return None
    return BiomarkerMatch(
        span=span,
        biomarker_name=row.name,
        biomarker_class=row.biomarker_class,
        biomarker_type=row.biomarker_type,
        biomarker_genes=row.genes,
        match_type=match_type,
    )
