"""Scoring model outputs against generated benchmark files.

Predictions arrive as JSONL records ``{"item_id": ..., "raw_output": ...}``.
``SCORERS`` holds, per task, a parser that reads a raw output against its
benchmark record and a per-item score in [0, 1] of what it read; a parse of
None scores 0. ``reward`` scores through the same table. ``evaluate_task``
reports the mean item score as MCQ accuracy and search recall@100, plus
the aggregates that are not plain means: sample-size ``parse_rate``, MAE
and within-20% (unparseable predictions left out of the last two),
completion macro F1, screening micro P/R/accuracy, and search recall@500.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .benchgen.items import OPTION_LETTERS
from .evidence import TERMINATION_CATEGORIES
from .metrics import macro_f1, mae_and_within20, precision_recall_accuracy, recall_at_k, within20
from .store import read_jsonl, write_tsv

ANSWER_TAG_RE = re.compile(r"<answer>(.*?)</answer>", re.DOTALL)
_INT_RE = re.compile(r"-?\d[\d,]*")
_PMID_RE = re.compile(r"\b\d{1,9}\b")
_SCREEN_RE = re.compile(r"(\d+)\s*[:=\-]?\s*(include|exclude)", re.IGNORECASE)


def load_predictions(path: str | Path) -> dict[str, str]:
    return {str(record["item_id"]): str(record.get("raw_output", "")) for record in read_jsonl(path)}


def extract_answer(raw_output: str) -> str | None:
    """Pull the answer from the LAST well-formed <answer> pair, or None."""
    matches = ANSWER_TAG_RE.findall(raw_output)
    if not matches:
        return None
    return matches[-1].strip()


def _answer_region(raw_output: str) -> str:
    """Prefer the tagged answer when present; fall back to the whole text."""
    tagged = extract_answer(raw_output)
    return tagged if tagged is not None else raw_output


def parse_letter(raw_output: str, option_count: int) -> str | None:
    region = _answer_region(raw_output)
    letters = OPTION_LETTERS[:option_count]
    match = re.search(rf"\b([{letters}])\b", region)
    if match:
        return match.group(1)
    stripped = region.strip().upper()
    if len(stripped) == 1 and stripped in letters:
        return stripped
    return None


def parse_integer(raw_output: str) -> int | None:
    match = _INT_RE.search(_answer_region(raw_output))
    if not match:
        return None
    return int(match.group(0).replace(",", ""))


def parse_completion_label(raw_output: str) -> str | None:
    region = _answer_region(raw_output).lower()
    for category in TERMINATION_CATEGORIES:
        if re.search(rf"terminated\s*:\s*{re.escape(category)}", region):
            return f"terminated:{category}"
    if "terminated" in region:
        return "terminated:other"
    if "completed" in region:
        return "completed"
    return None


def parse_pmid_list(raw_output: str) -> list[str]:
    seen = set()
    ordered = []
    for match in _PMID_RE.finditer(_answer_region(raw_output)):
        pmid = match.group(0)
        if pmid not in seen:
            seen.add(pmid)
            ordered.append(pmid)
    return ordered


def parse_screening_labels(raw_output: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    for match in _SCREEN_RE.finditer(_answer_region(raw_output)):
        labels[match.group(1)] = match.group(2).lower()
    return labels


class Scorer(NamedTuple):
    """How one task's raw output is read against its record, and what it scores."""

    parse: Callable[[str, dict], Any]
    score: Callable[[Any, dict], float]

    def item_score(self, parsed: Any, record: dict) -> float:
        """``score`` in [0, 1] of what ``parse`` read; a parse of None scores 0."""
        return 0.0 if parsed is None else self.score(parsed, record)


def _exact(parsed: str, record: dict) -> float:
    return float(parsed == record["answer"])


def _screening_parse(raw_output: str, record: dict) -> dict[str, str] | None:
    """The labels given to the record's candidates; None when the answer labels none of them."""
    labels = parse_screening_labels(raw_output)
    return {candidate: labels[candidate] for candidate in record["answer"] if candidate in labels} or None


def _screening_score(labels: dict[str, str], record: dict) -> float:
    """Fraction of candidates labelled right; an unmentioned candidate counts as "exclude"."""
    answer = record["answer"]
    return sum(labels.get(candidate, "exclude") == label for candidate, label in answer.items()) / len(answer)


_MCQ = Scorer(lambda raw, record: parse_letter(raw, len(record["options"])), _exact)

SCORERS: dict[str, Scorer] = {
    "arm_design": _MCQ,
    "eligibility_design": _MCQ,
    "endpoint_design": _MCQ,
    "sample_size": Scorer(
        lambda raw, record: parse_integer(raw),
        lambda value, record: float(within20(value, record["answer"])),
    ),
    "completion": Scorer(lambda raw, record: parse_completion_label(raw), _exact),
    "study_search": Scorer(
        lambda raw, record: parse_pmid_list(raw),
        lambda pmids, record: recall_at_k(pmids, record["answer"], 100),
    ),
    "study_screening": Scorer(_screening_parse, _screening_score),
    "evidence_summary": _MCQ,
}


def check_record(record: object) -> Scorer:
    """The scorer for a benchmark record; a ``ValueError`` if its task cannot score its answer."""
    task = record.get("task") if isinstance(record, dict) else None
    if task not in SCORERS:
        raise ValueError(f"benchmark record of unknown task {task!r}: {str(record)[:120]}")
    answer, options = record.get("answer"), record.get("options")
    detail = f"answer {answer!r}"
    if task == "sample_size":
        fits = type(answer) is int and answer > 0
    elif task == "study_search":
        fits = isinstance(answer, list) and bool(answer) and all(isinstance(pmid, str) and pmid for pmid in answer)
    elif task == "completion":
        fits = isinstance(answer, str)
    elif task == "study_screening":
        fits = isinstance(answer, dict) and bool(answer) and all(isinstance(label, str) for label in answer.values())
    else:
        fits = isinstance(options, list) and answer in tuple(OPTION_LETTERS[: len(options)])
        detail += f" with options {options!r}"
    if not fits:
        raise ValueError(f"{record.get('id', 'benchmark record')}: task {task} cannot score {detail}")
    return SCORERS[task]


def evaluate_task(task: str, records: list[dict], predictions: dict[str, str]) -> dict[str, object]:
    """Metrics for one task over its benchmark records.

    Missing predictions are scored like unparseable ones. The returned
    mapping always includes ``count``; metric keys vary by task.
    """
    if task not in SCORERS:
        raise ValueError(f"unknown task {task!r}")
    if not records:
        return {"count": 0}
    scorer = SCORERS[task]
    for record in records:
        check_record(record)
    parsed = [scorer.parse(predictions.get(record["id"], ""), record) for record in records]
    report: dict[str, object] = {"count": len(records)}

    if task == "sample_size":
        pairs = [(value, record["answer"]) for value, record in zip(parsed, records) if value is not None]
        report["parse_rate"] = len(pairs) / len(records)
        if pairs:
            report["mae"], report["within20"] = mae_and_within20(*zip(*pairs))
    elif task == "completion":
        truths = [record["answer"] for record in records]
        report["macro_f1"] = macro_f1(truths, [label or "" for label in parsed], sorted(set(truths)))
    elif task == "study_screening":
        truths, preds = [], []
        for labels, record in zip(parsed, records):
            for candidate, label in record["answer"].items():
                truths.append(label)
                preds.append((labels or {}).get(candidate, "exclude"))
        report["precision"], report["recall"], report["accuracy"] = precision_recall_accuracy(truths, preds, "include")
    else:
        mean = sum(scorer.item_score(value, record) for value, record in zip(parsed, records)) / len(records)
        if task == "study_search":
            report["recall@100"] = mean
            report["recall@500"] = sum(recall_at_k(p, r["answer"], 500) for p, r in zip(parsed, records)) / len(records)
        else:
            report["accuracy"] = mean
    return report


def evaluate_benchmarks(records: list[dict], predictions: dict[str, str]) -> dict[str, dict]:
    """Group records by task and score each group."""
    by_task: dict[str, list[dict]] = {}
    for record in records:
        by_task.setdefault(record["task"], []).append(record)
    return {task: evaluate_task(task, members, predictions) for task, members in sorted(by_task.items())}


def write_report(report: dict[str, dict], path: str | Path) -> None:
    """TSV rows: task, metric, value. Undefined metrics print as NA."""
    rows = []
    for task in sorted(report):
        for metric in sorted(report[task]):
            value = report[task][metric]
            if value is None:
                rendered = "NA"
            elif isinstance(value, float):
                rendered = f"{value:.6f}"
            else:
                rendered = str(value)
            rows.append((task, metric, rendered))
    write_tsv(path, ("task", "metric", "value"), rows)
