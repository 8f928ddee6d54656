"""Relations between the per-item scores in ``evaluate.SCORERS``, the task
aggregates of ``evaluate_task`` and ``reward.score_reward``.

Every golden benchmark item is scored three times, under three ids: once
with its right answer, once with a wrong but readable answer, and once
with text no parser reads, so every task sees a mix.
"""

from __future__ import annotations

import json

import pytest

from trialforge.benchgen.items import TASKS
from trialforge.evaluate import SCORERS, evaluate_benchmarks, evaluate_task
from trialforge.reward import score_reward

MCQ_TASKS = ("arm_design", "eligibility_design", "endpoint_design", "evidence_summary")
GARBAGE = "no idea, sorry"


def right_answer(record: dict) -> str:
    answer = record["answer"]
    if record["task"] == "study_search":
        return " ".join(answer)
    if record["task"] == "study_screening":
        return "\n".join(f"{candidate}: {label}" for candidate, label in answer.items())
    return str(answer)


def wrong_answer(record: dict) -> str:
    answer = record["answer"]
    task = record["task"]
    if task in MCQ_TASKS:
        return "A" if answer != "A" else "B"
    if task == "sample_size":
        return str(answer * 2)
    if task == "completion":
        return "terminated: other" if answer == "completed" else "completed"
    if task == "study_search":
        return " ".join(answer[:1] + ["999999999"])
    flipped = {"include": "exclude", "exclude": "include"}
    candidates = sorted(answer)
    return f"{candidates[0]}: {flipped[answer[candidates[0]]]}"


@pytest.fixture(scope="module")
def mixed(golden):
    """Per task: the tripled golden records and their predictions."""
    by_task: dict[str, tuple[list, dict]] = {}
    for path in sorted((golden.record_out / "07_benchmarks").glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            records, predictions = by_task.setdefault(record["task"], ([], {}))
            for suffix, raw in (("right", right_answer(record)), ("wrong", wrong_answer(record)), ("garbage", GARBAGE)):
                copy = dict(record, id=f"{record['id']}#{suffix}")
                records.append(copy)
                predictions[copy["id"]] = raw
    return by_task


def item_scores(task: str, records: list[dict], predictions: dict[str, str]) -> list[float]:
    scorer = SCORERS[task]
    return [scorer.item_score(scorer.parse(predictions[record["id"]], record), record) for record in records]


def mean(values: list[float]) -> float:
    return sum(values) / len(values)


def test_one_scorer_per_task():
    assert set(SCORERS) == set(TASKS)


def test_golden_items_cover_every_task(mixed):
    assert set(mixed) == set(TASKS)


@pytest.mark.parametrize("task", MCQ_TASKS)
def test_mcq_mean_score_is_accuracy(mixed, task):
    records, predictions = mixed[task]
    scores = item_scores(task, records, predictions)
    assert 0 < mean(scores) < 1
    assert mean(scores) == pytest.approx(evaluate_task(task, records, predictions)["accuracy"])


def test_sample_size_mean_score_is_within20_times_parse_rate(mixed):
    records, predictions = mixed["sample_size"]
    report = evaluate_task("sample_size", records, predictions)
    assert 0 < report["parse_rate"] < 1
    assert mean(item_scores("sample_size", records, predictions)) == pytest.approx(report["within20"] * report["parse_rate"])


def test_search_mean_score_is_recall_at_100(mixed):
    records, predictions = mixed["study_search"]
    scores = item_scores("study_search", records, predictions)
    assert 0 < mean(scores) < 1
    assert mean(scores) == pytest.approx(evaluate_task("study_search", records, predictions)["recall@100"])


def test_screening_candidate_weighted_mean_is_micro_accuracy(mixed):
    # over answers that label a candidate; one that labels none scores 0 as an item,
    # while the micro counts read it as "exclude" for every candidate
    records, predictions = mixed["study_screening"]
    readable = [record for record in records if not record["id"].endswith("#garbage")]
    scores = item_scores("study_screening", readable, predictions)
    weights = [len(record["answer"]) for record in readable]
    weighted = sum(score * weight for score, weight in zip(scores, weights)) / sum(weights)
    assert 0 < weighted < 1
    assert weighted == pytest.approx(evaluate_task("study_screening", readable, predictions)["accuracy"])

    unread = [record for record in records if record["id"].endswith("#garbage")]
    assert item_scores("study_screening", unread, predictions) == [0.0] * len(unread)
    labels = [label for record in unread for label in record["answer"].values()]
    share_excluded = labels.count("exclude") / len(labels)
    assert 0 < share_excluded == pytest.approx(evaluate_task("study_screening", unread, predictions)["accuracy"])


@pytest.mark.parametrize("kinds", [("right",), ("right", "wrong"), ("right", "garbage"), ("wrong", "garbage")])
def test_completion_macro_f1_is_one_exactly_when_every_item_scores_one(mixed, kinds):
    records, predictions = mixed["completion"]
    chosen = [record for record in records if record["id"].rsplit("#", 1)[1] in kinds]
    all_right = all(score == 1.0 for score in item_scores("completion", chosen, predictions))
    assert all_right == (kinds == ("right",))
    assert (evaluate_task("completion", chosen, predictions)["macro_f1"] == 1.0) == all_right


@pytest.mark.parametrize("task", [task for task in TASKS if task != "study_search"])
def test_reward_performance_is_the_table_score(mixed, task):
    records, predictions = mixed[task]
    for record, score in zip(records, item_scores(task, records, predictions)):
        outcome = score_reward(f"<answer>{predictions[record['id']]}</answer>", record)
        assert outcome.performance == score


def test_evaluate_refuses_a_record_its_task_cannot_score(mixed):
    records, predictions = mixed["sample_size"]
    broken = dict(records[0], answer="716 participants")
    with pytest.raises(ValueError, match="cannot score answer '716 participants'"):
        evaluate_benchmarks(records[1:] + [broken], predictions)


@pytest.mark.parametrize("answer", ["A", "99999999: include"], ids=["no-label", "no-candidate"])
def test_screening_reward_pays_nothing_for_an_answer_that_labels_no_candidate(golden, answer):
    path = golden.record_out / "07_benchmarks" / "study_screening.test.jsonl"
    record = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert "99999999" not in record["answer"]
    outcome = score_reward(f"<answer>{answer}</answer>", record)
    assert (outcome.total, outcome.performance, outcome.reason) == (0.0, 0.0, "unparseable_answer")
