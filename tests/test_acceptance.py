"""Release gates. One test per criterion; run with -v for one line each.

Each test states its tolerance inline. Oracles here are deliberately
independent re-implementations (dumb loops, brute-force sorts), not
calls back into the code under test.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import statistics
import time
from collections import Counter
from pathlib import Path

import pytest

from _corpus import make_dedupe_corpus
from trialforge.benchgen.splits import split_by_numeric_id
from trialforge.dedupe import dedupe_corpus
from trialforge.errors import CorpusTooSmall
from trialforge.evidence import parse_adverse_events
from trialforge.metrics import (
    macro_f1,
    mae_and_within20,
    precision_recall_accuracy,
    recall_at_k,
)
from trialforge.ontology.biomarkers import (
    MATCH_EXACT,
    MATCH_ORDER_INVARIANT,
    load_biomarker_index,
    match_biomarker,
)
from trialforge.ontology.drugs import DrugResources, resolve_drugbank, resolve_rxnorm
from trialforge.pipeline import STAGE_DIRS, PipelineSettings, run_pipeline
from trialforge.reward import grpo_advantages, grpo_clipped_term, score_reward
from trialforge.views import parse_ctgov_doc


def read_items(path: Path) -> dict[str, dict]:
    items = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line:
            row = json.loads(line)
            items[row["id"]] = row
    return items


# --- 1. worked-example fidelity (exact, < 5 s total) --------------------------

def test_criterion_1_worked_example_fidelity(golden, tmp_path):
    started = time.perf_counter()

    out = tmp_path / "out"
    run_pipeline(
        PipelineSettings(
            corpus_dir=golden.corpus,
            out_dir=out,
            seed=golden.seed,
            mode="replay",
            replay_dir=golden.replay,
            allow_small_split=True,
        )
    )
    bench = out / STAGE_DIRS["benchmarks"]

    arm = read_items(bench / "arm_design.test.jsonl")["arm_design:NCT00000150"]
    assert arm["answer"] == "C"

    size = read_items(bench / "sample_size.test.jsonl")["sample_size:NCT06330298"]
    assert size["answer"] == 84

    evidence = read_items(bench / "evidence_summary.test.jsonl")["evidence_summary:10796093"]
    assert evidence["answer"] == "C"

    completion = read_items(bench / "completion.test.jsonl")["completion:NCT02823470"]
    assert completion["answer"] == "terminated:enrollment issues"

    search = read_items(bench / "study_search.test.jsonl")["study_search:38078494"]
    assert sorted(search["answer"]) == sorted(
        [
            "20696552", "2612495", "8937535", "10563619", "2498073", "2127016",
            "8232944", "8112232", "17938371", "18077797", "8505632", "8453943",
        ]
    )

    assert time.perf_counter() - started < 5.0


# --- 2. split rule (exact, < 1 s) ---------------------------------------------

def oracle_numeric(identifier: str) -> int:
    return int("".join(ch for ch in identifier if ch.isdigit()))


def oracle_split(ids: list[str], test_size: int, validation_size: int) -> dict[str, str]:
    ordered = sorted(ids, key=lambda i: (-oracle_numeric(i), i))
    splits = {}
    for position, identifier in enumerate(ordered):
        if position < test_size:
            splits[identifier] = "test"
        elif position < test_size + validation_size:
            splits[identifier] = "validation"
        else:
            splits[identifier] = "train"
    return splits


def test_criterion_2_split_rule():
    started = time.perf_counter()
    rng = random.Random(424242)

    with pytest.raises(CorpusTooSmall):
        split_by_numeric_id([f"NCT{n:08d}" for n in range(1499)], 1000, 500, allow_small=False)

    expected_sizes = {
        1500: {"train": 0, "validation": 500, "test": 1000},
        2000: {"train": 500, "validation": 500, "test": 1000},
        10000: {"train": 8500, "validation": 500, "test": 1000},
    }
    for count, wanted in expected_sizes.items():
        numbers = rng.sample(range(1, 40_000_000), count)
        ids = [f"NCT{n:08d}" for n in numbers]
        rng.shuffle(ids)
        got = split_by_numeric_id(ids, 1000, 500, allow_small=False)
        sizes = Counter(got.values())
        assert {split: sizes[split] for split in wanted} == wanted
        assert got == oracle_split(ids, 1000, 500)

    assert time.perf_counter() - started < 1.0


# --- 3. reward contract (exact) -----------------------------------------------

def test_criterion_3_reward_table():
    # truth 100; payloads hit each performance class:
    #   unparseable, below window, boundary 0.8, interior, boundary 1.2, above
    payloads = [
        ("roughly eighty", 0.0, 0.0),
        ("40", 0.0, 0.0),
        ("80", 1.0, 1.1),
        ("100", 1.0, 1.1),
        ("120", 1.0, 1.1),
        ("150", 0.0, 0.0),
    ]
    # four tag states x six payloads = 24 constructed outputs
    tag_states = {
        "present": "chain of thought <answer>{p}</answer> done",
        "absent": "the final count is {p}",
        "unclosed": "partial <answer>{p}",
        "reversed": "</answer>{p}<answer>",
    }
    checked = 0
    for state, template in tag_states.items():
        for payload, want_perf, want_total in payloads:
            out = score_reward(template.format(p=payload), {"task": "sample_size", "answer": 100})
            if state == "present":
                assert out.format_ok is True
                assert out.performance == want_perf
                assert out.total == want_total
            else:
                assert out.format_ok is False
                assert out.performance == 0.0
                assert out.total == -2.0
                assert out.reason == "missing_answer_tag"
            checked += 1
    assert checked == 24


# --- 4. GRPO math (1e-9; clip exact) -------------------------------------------

def oracle_advantages(rewards: list[float]) -> list[float]:
    mean = sum(rewards) / len(rewards)
    std = statistics.pstdev(rewards)
    if std < 1e-8:
        return [0.0] * len(rewards)
    return [(r - mean) / std for r in rewards]


def test_criterion_4_grpo_math():
    rng = random.Random(1009)
    for _ in range(1000):
        g = rng.randint(1, 16)
        rewards = [
            rng.choice([-2.0, 0.0, 0.1, 1.0, 1.1, rng.uniform(-2.0, 2.0)])
            for _ in range(g)
        ]
        got = grpo_advantages(rewards)
        want = oracle_advantages(rewards)
        assert len(got) == g
        assert all(abs(a - b) <= 1e-9 for a, b in zip(got, want))

    for g in range(1, 17):
        assert grpo_advantages([0.7] * g) == [0.0] * g

    eps = 0.2
    ratios = [0.0, 0.5, 0.79, 0.8, 1.0, 1.2, 1.21, 2.0, 10.0]
    advantages = [-3.0, -1.0, -1e-6, 0.0, 1e-6, 1.0, 3.0]
    for ratio, advantage in itertools.product(ratios, advantages):
        clipped_ratio = min(max(ratio, 1.0 - eps), 1.0 + eps)
        want = min(ratio * advantage, clipped_ratio * advantage)
        assert grpo_clipped_term(ratio, advantage, epsilon=eps) == want


# --- 5. metrics oracle equivalence (1e-12) -------------------------------------

def test_criterion_5_metrics_oracles():
    rng = random.Random(90125)
    for _ in range(1000):
        n = rng.randint(1, 50)

        # recall@k
        pool = [f"d{i}" for i in range(n + 20)]
        relevant = rng.sample(pool, rng.randint(1, n))
        retrieved = rng.sample(pool, rng.randint(0, n))
        k = rng.randint(1, n + 5)
        want = sum(1 for item in set(relevant) if item in retrieved[:k]) / len(set(relevant))
        assert abs(recall_at_k(retrieved, relevant, k) - want) <= 1e-12

        # precision / recall / accuracy
        y_true = [rng.choice(["included", "excluded"]) for _ in range(n)]
        y_pred = [rng.choice(["included", "excluded"]) for _ in range(n)]
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == p == "included")
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != "included" and p == "included")
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == "included" and p != "included")
        want_p = tp / (tp + fp) if tp + fp else None
        want_r = tp / (tp + fn) if tp + fn else None
        want_a = sum(1 for t, p in zip(y_true, y_pred) if t == p) / n
        got_p, got_r, got_a = precision_recall_accuracy(y_true, y_pred, positive="included")
        for got, want_v in ((got_p, want_p), (got_r, want_r), (got_a, want_a)):
            if want_v is None:
                assert got is None
            else:
                assert abs(got - want_v) <= 1e-12

        # macro F1 over a small label alphabet
        labels = ["a", "b", "c"]
        y_true = [rng.choice(labels) for _ in range(n)]
        y_pred = [rng.choice(labels) for _ in range(n)]
        total = 0.0
        for c in labels:
            tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
            fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
            fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
            denom = 2 * tp + fp + fn
            total += 2 * tp / denom if denom else 0.0
        assert abs(macro_f1(y_true, y_pred, labels) - total / 3) <= 1e-12

        # MAE and the within-20% band
        truths = [rng.randint(1, 5000) for _ in range(n)]
        preds = [max(0, t + rng.randint(-1000, 1000)) for t in truths]
        want_mae = sum(abs(p - t) for p, t in zip(preds, truths)) / n
        want_w = sum(1 for p, t in zip(preds, truths) if abs(p - t) / t <= 0.2) / n
        got_mae, got_w = mae_and_within20(preds, truths)
        assert abs(got_mae - want_mae) <= 1e-12
        assert abs(got_w - want_w) <= 1e-12


# --- 6. dedup properties (exact) ------------------------------------------------

def canon_records(records) -> list[str]:
    return sorted(repr(r) for r in records)


def canon_triples(triples) -> list[tuple]:
    return sorted((t.head_id, t.relation_type, t.tail_id) for t in triples)


def test_criterion_6_dedupe_properties():
    rng = random.Random(60601)
    for round_no in range(200):
        records = make_dedupe_corpus(rng)
        merged, decisions, triples = dedupe_corpus(records)

        # zero record loss: every input lands as a survivor or is absorbed
        absorbed = Counter()
        for decision in decisions:
            absorbed.update(decision.absorbed)
        survivors = Counter((r.source.value, r.study_id) for r in merged)
        assert survivors + absorbed == Counter(
            (r.source.value, r.study_id) for r in records
        ), round_no

        # idempotence: a second pass has nothing left to merge
        merged_again, decisions_again, triples_again = dedupe_corpus(merged)
        assert canon_records(merged_again) == canon_records(merged), round_no
        assert sum(len(d.absorbed) for d in decisions_again) == 0, round_no
        assert triples_again == [], round_no

        # permutation invariance: shuffled input, identical outputs
        shuffled = list(records)
        rng.shuffle(shuffled)
        merged_shuffled, decisions_shuffled, triples_shuffled = dedupe_corpus(shuffled)
        assert canon_records(merged_shuffled) == canon_records(merged), round_no
        assert sorted(d.to_row() for d in decisions_shuffled) == sorted(
            d.to_row() for d in decisions
        ), round_no
        assert canon_triples(triples_shuffled) == canon_triples(triples), round_no


# --- 7. ontology precedence (exact) ----------------------------------------------

def bare_resources(**overrides) -> DrugResources:
    base = dict(
        rxnorm_local={},
        rxcui_names={},
        rxnorm_to_drugbank={},
        drugbank_names={},
        drugbank_synonyms={},
        drugbank_brands={},
        drugbank_display={},
        agency_lists={"fda": frozenset(), "ema": frozenset(), "pmda": frozenset()},
    )
    base.update(overrides)
    return DrugResources(**base)


def test_criterion_7_ontology_precedence(tmp_path):
    name = "probedrug"

    def client(request):
        if request["op"] == "rxcui":
            return {"rxcui": remote_map.get(request["name"])}
        return {"suggestions": ["probedrugvariant"] if request["name"] == name else []}

    for bits in itertools.product([False, True], repeat=5):
        local_hit, remote_hit, spelling_hit, map_hit, direct_hit = bits
        local_index = {name: "111"} if local_hit else {}
        remote_map = {}
        if remote_hit:
            remote_map[name] = "222"
        if spelling_hit:
            remote_map["probedrugvariant"] = "333"
        resources = bare_resources(
            rxnorm_to_drugbank=(
                {"111": "DB111", "222": "DB222", "333": "DB333"} if map_hit else {}
            ),
            drugbank_names={name: "DBDIRECT"} if direct_hit else {},
        )

        rxcui, rx_method = resolve_rxnorm(name, local_index, client)
        db_id, db_method = resolve_drugbank(rxcui, name, resources)

        # first hitting stage, in declared order, names the method
        if local_hit:
            assert (rxcui, rx_method) == ("111", "local"), bits
        elif remote_hit:
            assert (rxcui, rx_method) == ("222", "remote"), bits
        elif spelling_hit:
            assert (rxcui, rx_method) == ("333", "spelling-suggestion"), bits
        else:
            assert (rxcui, rx_method) == (None, "none"), bits
        if rxcui is not None and map_hit:
            assert (db_id, db_method) == (f"DB{rxcui}", "rxnorm-map"), bits
        elif direct_hit:
            assert (db_id, db_method) == ("DBDIRECT", "exact"), bits
        else:
            assert (db_id, db_method) == (None, "none"), bits

    # biomarker permutation-completeness over 3-token fixture terms
    terms = [
        "estrogen receptor alpha",
        "prostate specific antigen",
        "tumor necrosis factor",
    ]
    vocab = tmp_path / "vocab"
    vocab.mkdir()
    lines = [f"{term}\tprotein\tPRD\tGENE{i}" for i, term in enumerate(terms)]
    (vocab / "themarker.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    index = load_biomarker_index(vocab)
    for term in terms:
        tokens = term.split()
        for permutation in itertools.permutations(tokens):
            span = " ".join(permutation)
            match = match_biomarker(span, index)
            assert match is not None, span
            assert match.biomarker_name == term
            expected_type = MATCH_EXACT if span == term else MATCH_ORDER_INVARIANT
            assert match.match_type == expected_type


# --- 8. pipeline determinism (exact, < 30 s) -------------------------------------

def test_criterion_8_pipeline_determinism(golden, tmp_path):
    started = time.perf_counter()

    def settings(out: Path) -> PipelineSettings:
        return PipelineSettings(
            corpus_dir=golden.corpus,
            out_dir=out,
            seed=golden.seed,
            mode="replay",
            replay_dir=golden.replay,
            allow_small_split=True,
        )

    def bundle_hash(summary) -> str:
        return summary["stages"]["database"]["counts"]["bundle_hash"]

    first = run_pipeline(settings(tmp_path / "a"))
    second = run_pipeline(settings(tmp_path / "b"))
    assert bundle_hash(first) == bundle_hash(second)
    assert first["pipeline_hash"] == second["pipeline_hash"]

    for rel in sorted(
        p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file()
    ):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

    # crash partway through, then resume: earlier stages skip, hashes agree
    resumed_out = tmp_path / "resumed"
    run_pipeline(settings(resumed_out), until="dedupe")
    resumed = run_pipeline(settings(resumed_out))
    assert resumed["stages"]["ingest"]["skipped"] is True
    assert resumed["stages"]["dedupe"]["skipped"] is True
    assert bundle_hash(resumed) == bundle_hash(first)
    assert resumed["pipeline_hash"] == first["pipeline_hash"]

    assert time.perf_counter() - started < 30.0


# --- 9. adverse-event conservation (exact) ---------------------------------------

def test_criterion_9_adverse_event_conservation():
    rng = random.Random(140)

    def fuzz_stat():
        at_risk = rng.randint(0, 80)
        roll = rng.random()
        if roll < 0.2:
            affected = 0
        elif roll < 0.45:
            affected = rng.randint(0, at_risk) if at_risk else 0
        elif roll < 0.6:
            affected = at_risk + rng.randint(1, 9)
        elif roll < 0.7:
            affected = -rng.randint(1, 9)
        elif roll < 0.8:
            affected = None
        elif roll < 0.9:
            affected = float(rng.randint(1, at_risk)) if at_risk else 0.5
        else:
            affected = str(rng.randint(1, 9))
        return {"groupId": rng.choice(["EG000", "EG001", "ghost"]),
                "numAffected": affected, "numAtRisk": at_risk}

    total_rows = 0
    for i in range(1000):
        events = []
        for _ in range(rng.randint(0, 4)):
            events.append({
                "term": rng.choice(["Headache", "Nausea", ""]),
                "organSystem": "Nervous system disorders",
                "stats": [fuzz_stat() for _ in range(rng.randint(0, 5))],
            })
        cut = rng.randint(0, len(events))
        record = {
            "nctId": f"NCT{i:08d}",
            "resultsSection": {
                "adverseEventsModule": {
                    "eventGroups": [
                        {"id": "EG000", "title": "Drug"},
                        {"id": "EG001", "description": "Placebo"},
                    ],
                    "seriousEvents": events[:cut],
                    "otherEvents": events[cut:],
                }
            },
        }

        valid = sum(
            1
            for event in events
            for stat in event["stats"]
            if type(stat["numAffected"]) is int
            and 0 < stat["numAffected"] <= stat["numAtRisk"]
        )
        rows = parse_adverse_events(parse_ctgov_doc(record))
        assert len(rows) == valid, i
        for row in rows:
            assert 0 < row.num_affected <= row.num_at_risk
        total_rows += len(rows)

    # the fuzzer must actually exercise the accept path, not only rejections
    assert total_rows > 1000
