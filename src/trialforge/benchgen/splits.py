"""Recency splits keyed on the numeric portion of registry/PubMed ids."""

from __future__ import annotations

import re
from typing import Iterable

from ..errors import CorpusTooSmall

_DIGITS_RE = re.compile(r"\d+")


def numeric_id_key(identifier: str) -> int:
    """The id's digits, concatenated, as an integer (NCT00000150 -> 150)."""
    runs = _DIGITS_RE.findall(identifier)
    if not runs:
        raise ValueError(f"id {identifier!r} has no numeric portion")
    return int("".join(runs))


def split_by_numeric_id(
    ids: Iterable[str], test_size: int, validation_size: int, allow_small: bool
) -> dict[str, str]:
    """Newest-first split, as ``{id: train | validation | test}``.

    Ids are sorted by numeric key descending (ties broken by the full id,
    ascending); the first ``test_size`` become test, the next
    ``validation_size`` validation, everything else train. Fewer than
    ``test_size + validation_size`` ids is a `CorpusTooSmall` unless
    ``allow_small`` is set, in which case the blocks simply truncate
    (test fills first).
    """
    ids = list(ids)
    minimum = test_size + validation_size
    if len(ids) < minimum and not allow_small:
        raise CorpusTooSmall(f"{len(ids)} items, need at least {minimum}")

    ordered = sorted(ids, key=lambda identifier: (-numeric_id_key(identifier), identifier))
    splits = {}
    for position, identifier in enumerate(ordered):
        if position < test_size:
            splits[identifier] = "test"
        elif position < minimum:
            splits[identifier] = "validation"
        else:
            splits[identifier] = "train"
    return splits
