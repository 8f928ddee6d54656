"""The benchmark's workloads: corpus shape, client mode, replay placement.

Sizes are chosen so one cold build takes about a second on a 2-core
host. Timings on a shared host drift by a quarter over a few seconds,
so many short builds per run give steadier medians than a few long
ones; see `perfbench/run.py` for how runs are timed.
"""

from __future__ import annotations

from dataclasses import dataclass

from corpusgen import CorpusSpec


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    spec: CorpusSpec
    # "replay": builds read a store filled by the set-up record pass and
    # kept outside the corpus. "record": builds call the scripted
    # transports and write into the default store, corpus/replay, which
    # is emptied before every build.
    mode: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dedupe-skewed",
            spec=CorpusSpec(groups=140, dup_share=0.18, dropped_article_pairs=4, lead_share=0.5, acronym_titles=False, rich=False),
            mode="replay",
        ),
        Workload(
            name="bulk-replay",
            spec=CorpusSpec(groups=700, dup_share=0.1, dropped_article_pairs=0, lead_share=0.0, acronym_titles=True, rich=True),
            mode="replay",
        ),
        Workload(
            name="record-rerun",
            spec=CorpusSpec(groups=350, dup_share=0.1, dropped_article_pairs=0, lead_share=0.0, acronym_titles=True, rich=True),
            mode="record",
        ),
    )
}
