"""Scoring model outputs against generated benchmark files.

Predictions arrive as JSONL records ``{"item_id": ..., "raw_output": ...}``.
Raw outputs are parsed per task shape (letter, integer, label, PMID list,
per-candidate labels); an output the parser cannot read counts as a wrong
answer except for sample size, where unparseable predictions are excluded
from the error statistics and surfaced through ``parse_rate`` instead of
poisoning the MAE. Predictions are read with ``store.read_jsonl`` and the
report is written with ``store.write_tsv``.
"""

from __future__ import annotations

import re
from pathlib import Path

from .benchgen.items import OPTION_LETTERS, TASKS
from .evidence import TERMINATION_CATEGORIES
from .metrics import macro_f1, mae_and_within20, precision_recall_accuracy, recall_at_k
from .reward import extract_answer
from .store import read_jsonl, write_tsv

_INT_RE = re.compile(r"-?\d[\d,]*")
_PMID_RE = re.compile(r"\b\d{1,9}\b")
_SCREEN_RE = re.compile(r"(\d+)\s*[:=\-]?\s*(include|exclude)", re.IGNORECASE)

MCQ_TASKS = ("arm_design", "eligibility_design", "endpoint_design", "evidence_summary")


def load_predictions(path: str | Path) -> dict[str, str]:
    return {str(record["item_id"]): str(record.get("raw_output", "")) for record in read_jsonl(path)}


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


def evaluate_task(task: str, records: list[dict], predictions: dict[str, str]) -> dict[str, object]:
    """Metrics for one task over its benchmark records.

    Missing predictions are scored like unparseable ones. The returned
    mapping always includes ``count``; metric keys vary by task.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if not records:
        return {"count": 0}

    raw = {record["id"]: predictions.get(record["id"], "") for record in records}

    if task in MCQ_TASKS:
        hits = 0
        for record in records:
            letter = parse_letter(raw[record["id"]], len(record["options"]))
            hits += letter == record["answer"]
        return {"count": len(records), "accuracy": hits / len(records)}

    if task == "sample_size":
        preds, truths = [], []
        for record in records:
            value = parse_integer(raw[record["id"]])
            if value is not None:
                preds.append(value)
                truths.append(int(record["answer"]))
        report: dict[str, object] = {
            "count": len(records),
            "parse_rate": len(preds) / len(records),
        }
        if preds:
            mae, within = mae_and_within20(preds, truths)
            report["mae"] = mae
            report["within20"] = within
        return report

    if task == "completion":
        truths = [record["answer"] for record in records]
        preds = [parse_completion_label(raw[record["id"]]) or "" for record in records]
        classes = sorted(set(truths))
        return {
            "count": len(records),
            "macro_f1": macro_f1(truths, preds, classes),
        }

    if task == "study_search":
        recalls_100 = []
        recalls_500 = []
        for record in records:
            retrieved = parse_pmid_list(raw[record["id"]])
            truth = record["answer"]
            recalls_100.append(recall_at_k(retrieved, truth, 100))
            recalls_500.append(recall_at_k(retrieved, truth, 500))
        return {
            "count": len(records),
            "recall@100": sum(recalls_100) / len(recalls_100),
            "recall@500": sum(recalls_500) / len(recalls_500),
        }

    # study_screening: micro-aggregated over candidates; a candidate the
    # output never mentions is treated as predicted "exclude".
    truths = []
    preds = []
    for record in records:
        predicted = parse_screening_labels(raw[record["id"]])
        for candidate, label in record["answer"].items():
            truths.append(label)
            preds.append(predicted.get(candidate, "exclude"))
    precision, recall, accuracy = precision_recall_accuracy(truths, preds, positive="include")
    return {
        "count": len(records),
        "precision": precision,
        "recall": recall,
        "accuracy": accuracy,
    }


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
