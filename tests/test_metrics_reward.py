from __future__ import annotations

import math
import random
import statistics

import pytest

from trialforge.errors import EmptyTruth
from trialforge.metrics import (
    macro_f1,
    mae_and_within20,
    precision_recall_accuracy,
    recall_at_k,
)
from trialforge.evaluate import extract_answer
from trialforge.reward import (
    grpo_advantages,
    grpo_clipped_term,
    score_reward,
)


# --- independent oracles (kept deliberately dumb) ---------------------------

def oracle_recall_at_k(retrieved, relevant, k):
    truth = set(relevant)
    hits = 0
    for item in truth:
        if item in list(retrieved)[:k]:
            hits += 1
    return hits / len(truth)


def oracle_pra(y_true, y_pred, positive):
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == positive and p == positive)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t != positive and p == positive)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == positive and p != positive)
    correct = sum(1 for t, p in zip(y_true, y_pred) if t == p)
    prec = None if tp + fp == 0 else tp / (tp + fp)
    rec = None if tp + fn == 0 else tp / (tp + fn)
    acc = None if not y_true else correct / len(y_true)
    return prec, rec, acc


def oracle_macro_f1(y_true, y_pred, classes):
    scores = []
    for c in classes:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec)
        scores.append(f1)
    return statistics.fmean(scores)


def oracle_mae_within(preds, truths):
    mae = statistics.fmean(abs(p - t) for p, t in zip(preds, truths))
    within = statistics.fmean(
        1.0 if abs(p - t) / t <= 0.2 else 0.0 for p, t in zip(preds, truths)
    )
    return mae, within


def oracle_advantages(rewards):
    mean = statistics.fmean(rewards)
    std = statistics.pstdev(rewards)
    if std < 1e-8:
        return [0.0] * len(rewards)
    return [(r - mean) / std for r in rewards]


# --- frozen numeric cases ----------------------------------------------------

def test_recall_at_k_basic():
    relevant = [f"p{i}" for i in range(12)]
    retrieved = ["p0", "x", "p5", "y", "p11"] + [f"junk{i}" for i in range(200)]
    assert recall_at_k(retrieved, relevant, 100) == 3 / 12
    assert recall_at_k(retrieved, relevant, 2) == 1 / 12


def test_recall_at_k_empty_truth():
    with pytest.raises(EmptyTruth):
        recall_at_k(["a"], [], 10)


def test_precision_recall_accuracy_undefined_is_none_not_zero():
    # nothing predicted positive and nothing truly positive -> both undefined
    prec, rec, acc = precision_recall_accuracy(
        ["excluded", "excluded"], ["excluded", "excluded"]
    )
    assert prec is None
    assert rec is None
    assert acc == 1.0


def test_precision_recall_accuracy_values():
    y_true = ["included", "included", "excluded", "excluded"]
    y_pred = ["included", "excluded", "included", "excluded"]
    prec, rec, acc = precision_recall_accuracy(y_true, y_pred)
    assert prec == 0.5
    assert rec == 0.5
    assert acc == 0.5


def test_macro_f1_absent_class_counts_zero():
    # one class predicted perfectly, the other never occurs at all
    value = macro_f1(["a", "a"], ["a", "a"], classes=["a", "b"])
    assert value == 0.5


def test_mae_and_within20_boundary():
    mae, within = mae_and_within20([100], [84])
    assert mae == 16
    assert within == 1.0  # 16/84 = 0.1905 is inside the band
    _, within = mae_and_within20([101], [84])
    assert within == 0.0  # 17/84 = 0.2024 is outside
    # exact edge stays inside: |120 - 100| / 100 == 0.2
    _, within = mae_and_within20([120], [100])
    assert within == 1.0


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        precision_recall_accuracy(["a"], ["a", "b"])
    with pytest.raises(ValueError):
        macro_f1(["a"], ["a", "b"])
    with pytest.raises(ValueError):
        mae_and_within20([1.0], [1.0, 2.0])


# --- randomized oracle equivalence -------------------------------------------

def test_metrics_match_oracles_on_random_instances():
    rng = random.Random(20240817)
    for _ in range(400):
        n = rng.randint(1, 50)
        labels = ["included", "excluded"]
        y_true = [rng.choice(labels) for _ in range(n)]
        y_pred = [rng.choice(labels) for _ in range(n)]
        assert precision_recall_accuracy(y_true, y_pred) == oracle_pra(
            y_true, y_pred, "included"
        )

        classes = ["a", "b", "c", "d"][: rng.randint(2, 4)]
        y_true_m = [rng.choice(classes) for _ in range(n)]
        y_pred_m = [rng.choice(classes) for _ in range(n)]
        got = macro_f1(y_true_m, y_pred_m, classes=classes)
        want = oracle_macro_f1(y_true_m, y_pred_m, classes)
        assert abs(got - want) <= 1e-12

        truths = [rng.randint(1, 5000) for _ in range(n)]
        preds = [max(1, t + rng.randint(-1000, 1000)) for t in truths]
        got_mae, got_w = mae_and_within20(preds, truths)
        want_mae, want_w = oracle_mae_within(preds, truths)
        assert abs(got_mae - want_mae) <= 1e-9
        assert abs(got_w - want_w) <= 1e-12

        pool = [f"pm{i}" for i in range(120)]
        relevant = rng.sample(pool, rng.randint(1, 30))
        retrieved = rng.sample(pool, rng.randint(0, 120))
        k = rng.randint(1, 110)
        assert recall_at_k(retrieved, relevant, k) == oracle_recall_at_k(
            retrieved, relevant, k
        )


# --- answer extraction and reward --------------------------------------------

def test_extract_answer_takes_last_pair():
    raw = "thinking <answer>40</answer> more thoughts <answer>84</answer> done"
    assert extract_answer(raw) == "84"


def test_extract_answer_absent_or_unclosed():
    assert extract_answer("no tags here") is None
    assert extract_answer("<answer>84") is None
    assert extract_answer("84</answer>") is None


def sample_size_item(answer=100):
    return {"id": "sample_size:NCT1", "task": "sample_size", "answer": answer}


def search_item(answer):
    return {"id": "study_search:r", "task": "study_search", "answer": answer}


def arm_item(answer="C", options=("arm 0", "arm 1", "arm 2", "arm 3")):
    record = {"id": "arm_design:NCT1", "task": "arm_design", "answer": answer}
    if options is not None:
        record["options"] = list(options)
    return record


def test_reward_missing_tag_is_flat_penalty():
    out = score_reward("the answer is 84", sample_size_item(84))
    assert out.total == -2.0
    assert out.format_ok is False
    assert out.performance == 0.0


def test_reward_sample_size_window_inclusive():
    # truth 100: [80, 120] scores, outside does not
    for pred, perf in [(80, 1.0), (100, 1.0), (120, 1.0), (79, 0.0), (121, 0.0)]:
        out = score_reward(f"<answer>{pred}</answer>", sample_size_item(100))
        assert out.performance == perf
        assert out.total == (1.1 if perf else 0.0)


def test_reward_bonus_requires_positive_performance():
    out = score_reward("<answer>5</answer>", sample_size_item(100))
    assert out.performance == 0.0
    assert out.total == 0.0  # no format bonus on zero performance


def test_reward_unparseable_number():
    out = score_reward("<answer>roughly eighty</answer>", sample_size_item(100))
    assert out.format_ok is True
    assert out.reason == "unparseable_answer"
    assert out.total == 0.0


def test_reward_study_search_recall():
    truth = [f"p{i}" for i in range(10)]

    def retrieval(query):
        assert query == "epilepsy lamotrigine add-on"
        return ["p0", "p1", "p2", "p3", "junk"]

    out = score_reward(
        "<answer>epilepsy lamotrigine add-on</answer>",
        search_item(truth),
        retrieval_fn=retrieval,
    )
    assert out.performance == 0.4
    assert abs(out.total - 0.5) < 1e-12


def test_reward_study_search_zero_recall_gets_no_bonus():
    out = score_reward(
        "<answer>unrelated</answer>",
        search_item(["p1"]),
        retrieval_fn=lambda q: ["x", "y"],
    )
    assert out.performance == 0.0
    assert out.total == 0.0


def test_reward_study_search_needs_retrieval_fn():
    with pytest.raises(ValueError, match="retrieval_fn"):
        score_reward("<answer>query</answer>", search_item(["1"]))


def test_reward_scores_arm_design():
    right = score_reward("<answer>C</answer>", arm_item("C"))
    assert (right.performance, right.total, right.reason) == (1.0, 1.1, "ok")
    wrong = score_reward("<answer>A</answer>", arm_item("C"))
    assert (wrong.performance, wrong.total, wrong.reason) == (0.0, 0.0, "ok")
    unreadable = score_reward("<answer>none of them</answer>", arm_item("C"))
    assert (unreadable.performance, unreadable.reason) == (0.0, "unparseable_answer")


# --- record checks: each is a ValueError, the CLI's exit 2 --------------------

def test_reward_unknown_task():
    with pytest.raises(ValueError, match="unknown task 'made_up'"):
        score_reward("<answer>A</answer>", {"task": "made_up", "answer": "A"})


@pytest.mark.parametrize("answer", [0, -5, 12.0, "100", True, None])
def test_reward_sample_size_answer_must_be_positive_int(answer):
    with pytest.raises(ValueError, match="cannot score answer"):
        score_reward("<answer>100</answer>", sample_size_item(answer))


@pytest.mark.parametrize("answer", [[], "123", [""], [123], None])
def test_reward_search_answer_must_be_nonempty_pmid_list(answer):
    with pytest.raises(ValueError, match="cannot score answer"):
        score_reward("<answer>q</answer>", search_item(answer), retrieval_fn=lambda q: ["1"])


@pytest.mark.parametrize("task, answer", [
    ("completion", None),
    ("completion", ["completed"]),
    ("study_screening", {}),
    ("study_screening", ["17021318"]),
    ("study_screening", {"17021318": True}),
])
def test_reward_label_answers_must_fit_their_task(task, answer):
    with pytest.raises(ValueError, match="cannot score answer"):
        score_reward("<answer>completed</answer>", {"task": task, "answer": answer})


@pytest.mark.parametrize("options", [None, []])
def test_reward_mcq_needs_options(options):
    with pytest.raises(ValueError, match="cannot score answer 'A' with options"):
        score_reward("<answer>A</answer>", arm_item("A", options))


@pytest.mark.parametrize("answer", ["E", "a", "", None])
def test_reward_mcq_answer_must_be_an_option_letter(answer):
    with pytest.raises(ValueError, match="cannot score answer"):
        score_reward("<answer>A</answer>", arm_item(answer))


# --- group-relative advantages ------------------------------------------------

def test_advantages_frozen_pairs():
    assert grpo_advantages([0.0, 1.0]) == [-1.0, 1.0]
    assert grpo_advantages([0.0, 0.0, 1.0, 1.0]) == [-1.0, -1.0, 1.0, 1.0]


def test_advantages_zero_variance_guard():
    assert grpo_advantages([0.7, 0.7, 0.7]) == [0.0, 0.0, 0.0]
    assert grpo_advantages([1.1]) == [0.0]


def test_advantages_match_population_std_oracle():
    rng = random.Random(7)
    for _ in range(500):
        g = rng.randint(1, 16)
        rewards = [rng.choice([-2.0, 0.0, 0.1, 1.0, 1.1, rng.uniform(-2, 2)]) for _ in range(g)]
        got = grpo_advantages(rewards)
        want = oracle_advantages(rewards)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-9


def test_clipped_term_frozen_cases():
    assert grpo_clipped_term(1.5, 1.0, epsilon=0.2) == 1.2
    assert grpo_clipped_term(0.5, -1.0, epsilon=0.2) == -0.8
    # inside the trust region the raw term passes through
    assert grpo_clipped_term(1.1, 2.0, epsilon=0.2) == pytest.approx(2.2)
    assert grpo_clipped_term(0.9, -2.0, epsilon=0.2) == pytest.approx(-1.8)
    # epsilon defaults to 0.2
    assert grpo_clipped_term(1.5, 1.0) == 1.2


def test_clipped_term_matches_piecewise_oracle():
    rng = random.Random(99)
    for _ in range(2000):
        ratio = rng.uniform(0.0, 2.5)
        adv = rng.uniform(-3.0, 3.0)
        eps = rng.choice([0.1, 0.2, 0.3])
        clipped_ratio = min(max(ratio, 1 - eps), 1 + eps)
        want = min(ratio * adv, clipped_ratio * adv)
        got = grpo_clipped_term(ratio, adv, epsilon=eps)
        assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12)
