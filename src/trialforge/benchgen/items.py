"""Benchmark item model and the JSONL/manifest writer."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..store import write_jsonl, write_tsv

TASKS = (
    "arm_design",
    "eligibility_design",
    "endpoint_design",
    "sample_size",
    "completion",
    "study_search",
    "study_screening",
    "evidence_summary",
)

SPLITS = ("train", "validation", "test")

OPTION_LETTERS = "ABCDEFGHIJ"


def answer_letter(index: int) -> str:
    return OPTION_LETTERS[index]


@dataclass(frozen=True)
class BenchmarkItem:
    """One benchmark question.

    ``answer`` is task-shaped: an option letter for MCQ tasks, an integer
    for sample size, a label string for completion, a PMID list for
    search, and a per-candidate label mapping for screening. When
    ``options`` is set the answer must be a letter indexing into it, and
    option texts must be pairwise distinct so exactly one can be correct.
    """

    task: str
    item_id: str
    instruction: str
    input_text: str
    answer: object
    options: tuple[str, ...] | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.options is not None:
            if not (2 <= len(self.options) <= len(OPTION_LETTERS)):
                raise ValueError(f"{self.item_id}: {len(self.options)} options out of range")
            if len(set(self.options)) != len(self.options):
                raise ValueError(f"{self.item_id}: duplicate option texts")
            letters = OPTION_LETTERS[: len(self.options)]
            if self.answer not in tuple(letters):
                raise ValueError(
                    f"{self.item_id}: answer {self.answer!r} is not one of {letters}"
                )

    @property
    def correct_option(self) -> str | None:
        if self.options is None:
            return None
        return self.options[OPTION_LETTERS.index(self.answer)]

    def to_json_dict(self) -> dict:
        record = {
            "id": self.item_id,
            "task": self.task,
            "instruction": self.instruction,
            "input": self.input_text,
            "answer": self.answer,
            "provenance": self.provenance,
        }
        if self.options is not None:
            record["options"] = list(self.options)
        return record


def write_benchmark_files(
    items: list[BenchmarkItem],
    assignments: dict[str, str],
    out_dir: str | Path,
    corpus_hash: str,
    seed: int,
) -> Path:
    """Write one JSONL per (task, split) plus a manifest TSV.

    Every item must have a split assignment; items inside a file are
    sorted by id so reruns are byte-identical. Returns the manifest path.
    """
    missing = [item.item_id for item in items if item.item_id not in assignments]
    if missing:
        raise ValueError(f"items without split assignment: {missing[:5]}")
    bad = {split for split in assignments.values() if split not in SPLITS}
    if bad:
        raise ValueError(f"unknown splits {sorted(bad)}")

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    grouped: dict[tuple[str, str], list[BenchmarkItem]] = {}
    for item in items:
        grouped.setdefault((item.task, assignments[item.item_id]), []).append(item)

    manifest_rows = []
    for (task, split), members in sorted(grouped.items()):
        members.sort(key=lambda item: item.item_id)
        write_jsonl(out_path / f"{task}.{split}.jsonl", (item.to_json_dict() for item in members))
        manifest_rows.append((task, split, str(len(members)), corpus_hash, str(seed)))

    manifest_path = out_path / "benchmarks.tsv"
    write_tsv(manifest_path, ("task", "split", "count", "corpus_hash", "seed"), manifest_rows)
    return manifest_path
