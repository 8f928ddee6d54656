"""Adverse-event term mapping against a MedDRA subset.

Two levels are loaded (LLT, PT) from tab-separated files:

- ``meddra_llt.tsv``: LLT code, LLT name, parent PT code
- ``meddra_pt.tsv``: PT code, PT name, parent HLT code (not read)

Matching is case-insensitive and exact, LLT names first and PT names
second. Either way the result is a PT code: LLT rows resolve through
their linked PT, which is what downstream tables key on ("Fever" lands on
the PT for Pyrexia).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

from trialforge import DATA_DIR
from trialforge.ontology._vocabio import iter_tsv


@dataclass(frozen=True)
class MeddraHierarchy:
    """Loaded subset; mappings are read-only after load."""

    llt_to_pt: Mapping[str, str]
    pt_by_name: Mapping[str, str]


def load_meddra(vocab_dir: Path = DATA_DIR / "vocab") -> MeddraHierarchy:
    return MeddraHierarchy(
        llt_to_pt={name.lower(): pt_code for _llt_code, name, pt_code in iter_tsv(vocab_dir / "meddra_llt.tsv", 3)},
        pt_by_name={name.lower(): pt_code for pt_code, name, _hlt_code in iter_tsv(vocab_dir / "meddra_pt.tsv", 3)},
    )


def map_meddra(term: str, hierarchy: MeddraHierarchy) -> Optional[str]:
    """Map an adverse-event term to its MedDRA PT code, or None.

    LLT names take precedence over PT names; both routes return the PT
    code so every mapped term lands on the same level.
    """
    key = term.strip().lower()
    if not key:
        return None
    pt_code = hierarchy.llt_to_pt.get(key)
    if pt_code is not None:
        return pt_code
    return hierarchy.pt_by_name.get(key)
