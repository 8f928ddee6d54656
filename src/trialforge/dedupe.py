"""Duplicate collapse within and across sources.

Within one source, records sharing a study_id are merged when their
titles corroborate; a title disagreement keeps every copy and flags
them for review instead of guessing. Across sources, records are
matched by fuzzy title similarity over a first-token/length-band
blocking index, clustered with union-find, and merged with a fixed
source precedence. Similarity is the normalized Levenshtein ratio,
computed exactly with a bit-parallel edit distance, so every printed
score is the true one. Every merge leaves an audit decision and a
linked_to triple so nothing disappears silently.

All functions are pure and order-independent: permuting the input
yields the same records and the same decisions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from itertools import groupby
from typing import Iterable

from .schema import CanonicalStudy, RelationTriple, Source, StudyStatus, encode_study, needs_flag, source_rank

DEFAULT_THRESHOLD = 0.95

_PUNCT_RE = re.compile(r"[^\w\s]+", re.UNICODE)
_WS_RE = re.compile(r"\s+")


def normalize_title(title: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    lowered = _PUNCT_RE.sub(" ", title.lower())
    return _WS_RE.sub(" ", lowered).strip()


def levenshtein(a: str, b: str) -> int:
    """Exact Levenshtein distance (unit-cost insert, delete, substitute).

    Myers' bit-parallel algorithm (JACM 1999) in Hyyrö's formulation for
    edit distance: the shorter string becomes one ``peq`` bitmask per
    character, Python ints serve as unbounded bit-vectors, and each
    character of the longer string advances the whole DP column in a
    fixed number of big-int operations. The result is the full distance,
    not a bounded one, so callers may print it as a score.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    bit = 1
    for ch in b:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    # pv/mv: +1/-1 vertical deltas of the current DP column, one bit per row
    pv, mv = mask, 0
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        # shifting a 1 into ph keeps row 0 at D[0][j] = j (global alignment)
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    # last column: D[m][n] = D[0][n] + (rows that step up) - (rows that step down)
    return len(a) + pv.bit_count() - mv.bit_count()


def similarity(a: str, b: str) -> float:
    """Normalized Levenshtein ratio in [0, 1]. Two empty strings are identical."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def title_similarity(title_a: str, title_b: str) -> float:
    return similarity(normalize_title(title_a), normalize_title(title_b))


@dataclass
class MergeDecision:
    """Audit record: what happened to one cluster of input records."""

    survivor_id: str
    survivor_source: Source
    absorbed: list[tuple[str, str]]  # (source tag, study_id), sorted
    evidence: str  # "unique" | "id-match" | "id-conflict" | "title-similarity"
    score: float | None = None

    def to_row(self) -> list[str]:
        absorbed = ";".join(f"{src}:{sid}" for src, sid in self.absorbed)
        score = "" if self.score is None else f"{self.score:.4f}"
        return [self.survivor_source.value, self.survivor_id, absorbed, self.evidence, score]


def _sort_key(s: CanonicalStudy) -> tuple:
    return (s.source.value, s.study_id)


def _precedence(s: CanonicalStudy) -> tuple:
    return (source_rank(s.source), s.source.value, s.study_id)


def _fold_order(records: Iterable[CanonicalStudy]) -> list[CanonicalStudy]:
    """Records in content precedence: CT.gov, then registries, then PubMed.

    Records that tie on (rank, source, study_id) are ordered by their
    encoding, so the order never depends on the input order; only those
    records are encoded.
    """
    ordered: list[CanonicalStudy] = []
    for _, tied in groupby(sorted(records, key=_precedence), key=_precedence):
        tied = list(tied)
        ordered.extend(sorted(tied, key=encode_study) if len(tied) > 1 else tied)
    return ordered


# Identity comes from the survivor and the flag is recomputed; every other
# field takes the first non-empty value in content precedence.
_MERGED_FIELDS = tuple(f.name for f in fields(CanonicalStudy) if f.name not in ("study_id", "source", "flagged"))


def _is_empty(value) -> bool:
    if value is None:
        return True
    if value is StudyStatus.OTHER:  # str enum: must be checked before str
        return True
    if isinstance(value, str):
        return not value.strip()
    if isinstance(value, (list, set)):
        return not value
    return False


def merge_records(cluster: list[CanonicalStudy]) -> CanonicalStudy:
    """Merge one duplicate cluster into a single record.

    Identity (study_id, source) follows the lexicographically smallest
    (source tag, study_id) pair. Field content prefers non-empty values,
    breaking conflicts by source precedence. Deterministic regardless of
    input order.
    """
    if not cluster:
        raise ValueError("empty cluster")
    survivor = min(cluster, key=_sort_key)
    ordered = _fold_order(cluster)

    merged = CanonicalStudy(study_id=survivor.study_id, source=survivor.source)
    for name in _MERGED_FIELDS:
        for record in ordered:
            value = getattr(record, name)
            if not _is_empty(value):
                setattr(merged, name, value.copy() if isinstance(value, (list, set)) else value)
                break
    merged.flagged = needs_flag(merged.study_id, merged.title)
    return merged


def _absorbed_keys(
    members: list[CanonicalStudy], merged: CanonicalStudy
) -> list[tuple[str, str]]:
    """All member identities minus one instance of the survivor's own.

    Multiset accounting: survivors plus absorbed must add back up to the
    inputs exactly, even when several inputs share an identity.
    """
    keys = sorted((m.source.value, m.study_id) for m in members)
    keys.remove((merged.source.value, merged.study_id))
    return keys


def _corroborates(a: CanonicalStudy, b: CanonicalStudy, threshold: float) -> tuple[bool, float]:
    na, nb = normalize_title(a.title), normalize_title(b.title)
    if not na or not nb:
        # an absent title cannot contradict the shared identifier
        return True, 1.0
    score = similarity(na, nb)
    return score >= threshold, score


def dedupe_intra(
    records: list[CanonicalStudy], threshold: float = DEFAULT_THRESHOLD
) -> tuple[list[CanonicalStudy], list[MergeDecision]]:
    """Collapse records that share (source, study_id).

    Titles must corroborate the id match; any disagreement below the
    threshold keeps every copy, flagged. Every input record is accounted
    for in the returned decisions.
    """
    groups: dict[tuple, list[CanonicalStudy]] = {}
    for record in records:
        groups.setdefault((record.source.value, record.study_id), []).append(record)

    out: list[CanonicalStudy] = []
    decisions: list[MergeDecision] = []
    for key in sorted(groups):
        members = _fold_order(groups[key])
        if len(members) == 1:
            out.append(members[0])
            decisions.append(
                MergeDecision(members[0].study_id, members[0].source, [], "unique")
            )
            continue
        scores = [
            _corroborates(members[i], members[j], threshold)
            for i in range(len(members))
            for j in range(i + 1, len(members))
        ]
        min_score = min(score for _, score in scores)
        if all(ok for ok, _ in scores):
            merged = merge_records(members)
            out.append(merged)
            decisions.append(
                MergeDecision(
                    merged.study_id,
                    merged.source,
                    _absorbed_keys(members, merged),
                    "id-match",
                    min_score,
                )
            )
        else:
            for member in members:
                kept = CanonicalStudy(**{**member.__dict__})
                kept.phases = set(member.phases)
                kept.primary_outcomes = list(member.primary_outcomes)
                kept.secondary_outcomes = list(member.secondary_outcomes)
                kept.flagged = True
                out.append(kept)
                decisions.append(
                    MergeDecision(member.study_id, member.source, [], "id-conflict", min_score)
                )
    out.sort(key=_sort_key)
    return out, decisions


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def candidate_pairs(
    records: list[CanonicalStudy], threshold: float
) -> list[tuple[int, int]]:
    """Blocking index: same first title token, compatible lengths.

    Only cross-source pairs are candidates; records with empty titles
    never block with anything.
    """
    blocks: dict[str, list[int]] = {}
    norms = [normalize_title(r.title) for r in records]
    for idx, norm in enumerate(norms):
        if not norm:
            continue
        blocks.setdefault(norm.split(" ", 1)[0], []).append(idx)

    pairs: list[tuple[int, int]] = []
    max_gap = 1.0 - threshold
    for token in sorted(blocks):
        members = blocks[token]
        for pos, i in enumerate(members):
            for j in members[pos + 1:]:
                if records[i].source is records[j].source:
                    continue
                li, lj = len(norms[i]), len(norms[j])
                if abs(li - lj) > max_gap * max(li, lj):
                    continue  # similarity cannot reach the threshold
                pairs.append((min(i, j), max(i, j)))
    return sorted(set(pairs))


def dedupe_inter(
    records: list[CanonicalStudy], threshold: float = DEFAULT_THRESHOLD
) -> tuple[list[CanonicalStudy], list[MergeDecision], list[RelationTriple]]:
    """Merge cross-source duplicates found by fuzzy title matching.

    Clusters are connected components over pairs scoring at or above the
    threshold. Each merge emits linked_to triples from the surviving
    record to every absorbed one. Records already flagged (id conflicts,
    missing critical fields) have a disputed identity, so they pass
    through untouched rather than being merged on shaky evidence.
    """
    flagged = _fold_order(r for r in records if r.flagged)
    items = _fold_order(r for r in records if not r.flagged)
    uf = _UnionFind(len(items))
    scores: dict[tuple[int, int], float] = {}
    for i, j in candidate_pairs(items, threshold):
        scores[i, j] = title_similarity(items[i].title, items[j].title)
        if scores[i, j] >= threshold:
            uf.union(i, j)

    clusters: dict[int, list[int]] = {}
    for idx in range(len(items)):
        clusters.setdefault(uf.find(idx), []).append(idx)

    out: list[CanonicalStudy] = []
    decisions: list[MergeDecision] = []
    triples: list[RelationTriple] = []
    for root in sorted(clusters):
        member_ids = clusters[root]
        members = [items[i] for i in member_ids]
        if len(members) == 1:
            out.append(members[0])
            decisions.append(
                MergeDecision(members[0].study_id, members[0].source, [], "unique")
            )
            continue
        merged = merge_records(members)
        absorbed = _absorbed_keys(members, merged)
        # Member ids ascend, so each (i, j) below is keyed like a candidate
        # pair; only pairs that were never candidates are scored here.
        min_score = min(
            scores[i, j] if (i, j) in scores else title_similarity(items[i].title, items[j].title)
            for pos, i in enumerate(member_ids)
            for j in member_ids[pos + 1:]
        )
        out.append(merged)
        decisions.append(
            MergeDecision(merged.study_id, merged.source, absorbed, "title-similarity", min_score)
        )
        for src, sid in absorbed:
            triples.append(
                RelationTriple(
                    head_id=merged.study_id,
                    relation_type="linked_to",
                    tail_id=sid,
                    head_source=merged.source,
                    tail_source=Source(src),
                )
            )
    for record in flagged:
        out.append(record)
        decisions.append(
            MergeDecision(record.study_id, record.source, [], "flagged-passthrough")
        )
    out.sort(key=_sort_key)
    decisions.sort(key=lambda d: (d.survivor_source.value, d.survivor_id, d.evidence))
    triples.sort(key=lambda t: t.key())
    return out, decisions, triples


def dedupe_corpus(
    records: list[CanonicalStudy], threshold: float = DEFAULT_THRESHOLD
) -> tuple[list[CanonicalStudy], list[MergeDecision], list[RelationTriple]]:
    """Intra-source collapse followed by inter-source fuzzy merge."""
    intra_out, intra_decisions = dedupe_intra(records, threshold)
    inter_out, inter_decisions, triples = dedupe_inter(intra_out, threshold)
    return inter_out, intra_decisions + inter_decisions, triples
