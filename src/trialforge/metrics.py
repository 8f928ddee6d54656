"""Evaluation metrics for the generated benchmarks.

Conventions: "included" counts as the positive class for screening,
and any 0/0 ratio is reported as None rather than 0 so callers can
tell "undefined" apart from "bad".
"""

from __future__ import annotations

from typing import Hashable, Sequence

from .errors import EmptyTruth


def recall_at_k(retrieved: Sequence[Hashable], relevant: Sequence[Hashable], k: int) -> float:
    """Fraction of the relevant set found in the first k retrieved items."""
    truth = set(relevant)
    if not truth:
        raise EmptyTruth("relevant set is empty")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return len(set(retrieved[:k]) & truth) / len(truth)


def precision_recall_accuracy(
    y_true: Sequence[Hashable],
    y_pred: Sequence[Hashable],
    positive: Hashable = "included",
) -> tuple[float | None, float | None, float | None]:
    """Binary precision, recall, and accuracy with `positive` as the hit class.

    Returns None in any slot whose denominator is zero.
    """
    if len(y_true) != len(y_pred):
        raise ValueError(f"length mismatch: {len(y_true)} labels, {len(y_pred)} predictions")
    tp = fp = fn = correct = 0
    for t, p in zip(y_true, y_pred):
        if t == p:
            correct += 1
        if p == positive and t == positive:
            tp += 1
        elif p == positive:
            fp += 1
        elif t == positive:
            fn += 1
    precision = tp / (tp + fp) if (tp + fp) else None
    recall = tp / (tp + fn) if (tp + fn) else None
    accuracy = correct / len(y_true) if y_true else None
    return precision, recall, accuracy


def macro_f1(
    y_true: Sequence[Hashable],
    y_pred: Sequence[Hashable],
    classes: Sequence[Hashable] | None = None,
) -> float:
    """Unweighted mean of per-class F1. A class absent from both lists scores 0."""
    if len(y_true) != len(y_pred):
        raise ValueError(f"length mismatch: {len(y_true)} labels, {len(y_pred)} predictions")
    if classes is None:
        classes = sorted(set(y_true) | set(y_pred), key=repr)
    if not classes:
        raise ValueError("no classes to score")
    total = 0.0
    for c in classes:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        denom = 2 * tp + fp + fn
        total += (2 * tp / denom) if denom else 0.0
    return total / len(classes)


def within20(pred: float, truth: float) -> bool:
    """Whether ``pred`` lies within +/-20% of a positive ``truth``, both edges included."""
    return abs(pred - truth) / truth <= 0.20


def mae_and_within20(
    preds: Sequence[float], truths: Sequence[float]
) -> tuple[float, float]:
    """Mean absolute error plus the fraction of predictions `within20` of truth."""
    if len(preds) != len(truths):
        raise ValueError(f"length mismatch: {len(preds)} predictions, {len(truths)} truths")
    if not preds:
        raise ValueError("nothing to score")
    if any(t <= 0 for t in truths):
        raise ValueError("truth values must be positive")
    mae = sum(abs(p - t) for p, t in zip(preds, truths)) / len(preds)
    within = sum(1 for p, t in zip(preds, truths) if within20(p, t)) / len(preds)
    return mae, within
