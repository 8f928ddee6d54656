"""In-memory spans and counters around trialforge's layer entry points.

The benchmark wraps functions by name from outside the program: each
target names a module, an attribute path inside it (a function, a class
method, or an entry of a dict of functions) and how to record it.

* ``span``: one span per call (name, start, end, parent, run id).
* ``count``: call count and time, no span, but nested calls still count
  as its children, so the enclosing span's self time excludes them.
* ``leaf``: the cheapest wrapper, for very hot primitives that call
  nothing else traced (``match_biomarker`` runs ~10^5 times per build).

A target that no longer resolves raises `LookupError` at install time,
so a renamed function fails the traced run instead of reading zero.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# (metric key, module, attribute path, kind)
TARGETS = (
    *((f"stage.{name}", "trialforge.pipeline", f"_STAGE_FUNCS[{name}]", "span")
      for name in ("ingest", "dedupe", "link", "extract", "graph", "database", "benchmarks")),
    ("pipeline.hash_corpus", "trialforge.pipeline", "hash_corpus", "span"),
    ("pipeline.hash_outputs", "trialforge.pipeline", "_hash_outputs", "span"),
    ("pipeline.outputs_intact", "trialforge.pipeline", "_outputs_intact", "span"),
    ("pipeline.ctgov_docs", "trialforge.pipeline", "_corpus_ctgov_docs", "span"),
    ("pipeline.pubmed_articles", "trialforge.pipeline", "_corpus_pubmed_articles", "span"),
    ("schema.read_studies", "trialforge.pipeline", "read_studies_jsonl", "span"),
    ("schema.write_studies", "trialforge.pipeline", "write_studies_jsonl", "span"),
    ("schema.decode_study", "trialforge.schema", "decode_study", "leaf"),
    ("ingest.registry", "trialforge.pipeline", "parse_registry_record", "leaf"),
    ("ingest.ctgov", "trialforge.pipeline", "parse_ctgov_study", "leaf"),
    ("ingest.pubmed", "trialforge.pipeline", "extract_pubmed_study", "leaf"),
    ("dedupe.dedupe_corpus", "trialforge.pipeline", "dedupe_corpus", "span"),
    ("dedupe.candidate_pairs", "trialforge.dedupe", "candidate_pairs", "span"),
    ("dedupe.title_similarity", "trialforge.dedupe", "title_similarity", "leaf"),
    ("ontology.match_biomarker", "trialforge.pipeline", "match_biomarker", "leaf"),
    ("ontology.annotate_conditions", "trialforge.pipeline", "annotate_conditions", "count"),
    ("ontology.link_drug", "trialforge.pipeline", "link_drug", "count"),
    ("ontology.classify_endpoint", "trialforge.pipeline", "classify_endpoint", "count"),
    ("evidence.results", "trialforge.pipeline", "parse_ctgov_results", "leaf"),
    ("evidence.adverse_events", "trialforge.pipeline", "parse_adverse_events", "leaf"),
    ("evidence.disposition_tables", "trialforge.pipeline", "disposition_tables_from_ctgov", "leaf"),
    ("evidence.build_disposition", "trialforge.pipeline", "build_disposition", "leaf"),
    ("evidence.pico", "trialforge.pipeline", "extract_pubmed_pico", "count"),
    ("evidence.completed_outcome", "trialforge.pipeline", "classify_completed_outcome", "count"),
    ("evidence.terminated_outcome", "trialforge.pipeline", "label_terminated_study", "leaf"),
    ("relations.review_references", "trialforge.pipeline", "extract_review_references", "count"),
    ("relations.nct_links", "trialforge.pipeline", "extract_nct_links", "leaf"),
    ("relations.assemble_graph", "trialforge.pipeline", "assemble_graph", "span"),
    ("relations.write_tsv", "trialforge.pipeline", "write_relations_tsv", "span"),
    ("relations.write_counts", "trialforge.pipeline", "write_relation_counts_tsv", "span"),
    ("store.write_database", "trialforge.store", "write_database", "span"),
    ("clients.call", "trialforge.clients", "ServiceClient.call", "count"),
    ("clients.has", "trialforge.clients", "ReplayStore.has", "leaf"),
    ("clients.get", "trialforge.clients", "ReplayStore.get", "leaf"),
    ("clients.put", "trialforge.clients", "ReplayStore.put", "leaf"),
    *((f"benchgen.{name}", "trialforge.pipeline", name, "span")
      for name in ("gen_design_mcq", "gen_sample_size_items", "gen_completion_items", "gen_search_items",
                   "gen_screening_items", "gen_evidence_mcq", "split_by_numeric_id", "split_search_items",
                   "write_benchmark_files")),
)

SERVICES = ("llm", "annotator", "rxnorm")
BENCHMARK_TASKS = (
    "arm_design", "eligibility_design", "endpoint_design", "sample_size",
    "completion", "study_search", "study_screening", "evidence_summary",
)
DEDUPE_THRESHOLD = 0.95  # PipelineSettings default, which every workload uses


class Tracer:
    """Spans and per-target aggregates, kept in memory until `dump`."""

    def __init__(self) -> None:
        self.run_id = ""
        self.spans: list[tuple] = []
        # frames: [span name, start, time spent in traced children]
        self._stack: list[list] = [["<root>", 0.0, 0.0]]
        self.calls: dict = defaultdict(int)
        self.seconds: dict = defaultdict(float)
        self.self_seconds: dict = defaultdict(float)
        self.extra: dict = defaultdict(float)

    def wrap(self, key: str, kind: str, fn):
        clock = time.perf_counter
        stack = self._stack
        calls, seconds, extra = self.calls, self.seconds, self.extra
        observe = _OBSERVERS.get(key)

        if kind == "leaf":
            def leaf(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                elapsed = clock() - start
                stack[-1][2] += elapsed
                k = (self.run_id, key)
                calls[k] += 1
                seconds[k] += elapsed
                if observe is not None:
                    observe(extra, self.run_id, args, result, elapsed)
                return result
            return leaf

        def traced(*args, **kwargs):
            frame = [key, clock(), 0.0]
            parent = len(stack) - 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = clock()
                elapsed = end - frame[1]
                stack[-1][2] += elapsed
                k = (self.run_id, key)
                calls[k] += 1
                seconds[k] += elapsed
                self.self_seconds[k] += elapsed - frame[2]
                if kind == "span":
                    self.spans.append((key, frame[1], end, stack[parent][0], self.run_id))
            if observe is not None:
                observe(extra, self.run_id, args, result, elapsed)
            return result
        return traced

    def install(self) -> None:
        for key, module_name, path, kind in TARGETS:
            owner, name, original = _resolve(module_name, path)
            wrapped = self.wrap(key, kind, original)
            if isinstance(owner, dict):
                owner[name] = wrapped
            else:
                setattr(owner, name, wrapped)

    def total(self, key: str, run_ids: tuple) -> tuple[int, float]:
        return (
            sum(self.calls[(r, key)] for r in run_ids),
            sum(self.seconds[(r, key)] for r in run_ids),
        )

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "run": run_id}) + "\n")


def _resolve(module_name: str, path: str):
    """(owner, attribute or key, current value) for a target, or LookupError."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"trace target module {module_name} does not import: {exc}") from exc
    parts = path.replace("[", ".[").split(".")
    for part in parts[:-1]:
        if not hasattr(owner, part):
            raise LookupError(f"trace target {module_name}.{path}: no attribute {part!r}")
        owner = getattr(owner, part)
    last = parts[-1]
    if last.startswith("["):
        key = last[1:-1]
        if not isinstance(owner, dict) or key not in owner:
            raise LookupError(f"trace target {module_name}.{path}: no entry {key!r}")
        value = owner[key]
    else:
        key = last
        value = owner.__dict__.get(key) if isinstance(owner, type) else getattr(owner, key, None)
        if value is None:
            raise LookupError(f"trace target {module_name}.{path} does not resolve")
    if not callable(value):
        raise LookupError(f"trace target {module_name}.{path} is not callable")
    return owner, key, value


def _service_of(args) -> str:
    # ServiceClient.call(self, service, ...) and ReplayStore.*(self, service, ...)
    return args[1]


def _observe_similarity(extra, run_id, args, result, elapsed):
    if result >= DEDUPE_THRESHOLD:
        extra[(run_id, "dedupe.useful_pairs")] += 1


def _observe_biomarker(extra, run_id, args, result, elapsed):
    if result is not None:
        extra[(run_id, "ontology.biomarker_hits")] += 1


def _observe_len(name: str):
    def observe(extra, run_id, args, result, elapsed):
        extra[(run_id, name)] += len(result)
    return observe


def _observe_intact(extra, run_id, args, result, elapsed):
    recorded = args[1].get("outputs")
    extra[(run_id, "pipeline.output_hash.files")] += len(recorded) if isinstance(recorded, dict) else 0


def _observe_store(action):
    def observe(extra, run_id, args, result, elapsed):
        service = _service_of(args)
        if action == "put":
            extra[(run_id, f"clients.{service}.put.bytes")] += result.stat().st_size
            extra[(run_id, f"clients.{service}.put.s")] += elapsed
            return
        extra[(run_id, f"clients.{service}.lookup.s")] += elapsed
        if action == "has" and not result:
            extra[(run_id, f"clients.{service}.misses")] += 1
        elif action == "get":
            extra[(run_id, f"clients.{service}.store_hits")] += 1
    return observe


def _observe_call(extra, run_id, args, result, elapsed):
    extra[(run_id, f"clients.{_service_of(args)}.calls")] += 1


def _observe_database(extra, run_id, args, result, elapsed):
    extra[(run_id, "store.rows_written")] += sum(result.counts.values())


_OBSERVERS = {
    "dedupe.title_similarity": _observe_similarity,
    "dedupe.candidate_pairs": _observe_len("dedupe.candidate_pairs.count"),
    "ontology.match_biomarker": _observe_biomarker,
    "pipeline.ctgov_docs": _observe_len("pipeline.ctgov_docs_parsed"),
    "pipeline.pubmed_articles": _observe_len("pipeline.pubmed_read"),
    "pipeline.hash_outputs": _observe_len("pipeline.output_hash.files"),
    "pipeline.outputs_intact": _observe_intact,
    "clients.call": _observe_call,
    "clients.has": _observe_store("has"),
    "clients.get": _observe_store("get"),
    "clients.put": _observe_store("put"),
    "store.write_database": _observe_database,
    "relations.assemble_graph": _observe_len("relations.triples"),
}


def layer_metrics(tracer: Tracer, records: int, ctgov_docs: int, pubmed_articles: int,
                  bundle_bytes: int, benchmark_counts: dict, live_calls: dict) -> dict:
    """Per-layer metrics of one traced iteration.

    Everything is measured on the cold build (run id ``build``) except
    ``pipeline.hash_corpus.*`` and ``pipeline.output_hash.*``, which add
    up the build and both reruns because they are what reruns pay for.
    """
    b = ("build",)
    every = ("build", "noop", "repair")
    extra = tracer.extra

    def seconds(key, runs=b):
        return tracer.total(key, runs)[1]

    def calls(key, runs=b):
        return tracer.total(key, runs)[0]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    m = {}
    for stage in ("ingest", "dedupe", "link", "extract", "graph", "database", "benchmarks"):
        m[f"pipeline.stage.{stage}.self_s"] = tracer.self_seconds[("build", f"stage.{stage}")]
    m["pipeline.hash_corpus.calls"] = calls("pipeline.hash_corpus", every)
    m["pipeline.hash_corpus.s"] = seconds("pipeline.hash_corpus", every)
    m["pipeline.output_hash.files"] = sum(extra[(r, "pipeline.output_hash.files")] for r in every)
    m["pipeline.output_hash.s"] = seconds("pipeline.hash_outputs", every) + seconds("pipeline.outputs_intact", every)
    m["pipeline.ctgov_docs_parsed_ratio"] = ratio(extra[("build", "pipeline.ctgov_docs_parsed")], ctgov_docs)
    m["pipeline.pubmed_reads_ratio"] = ratio(extra[("build", "pipeline.pubmed_read")], pubmed_articles)

    decoded, decode_s = tracer.total("schema.decode_study", b)
    m["schema.studies_decoded_ratio"] = ratio(decoded, records)
    m["schema.read_studies.s"] = seconds("schema.read_studies")
    m["schema.write_studies.s"] = seconds("schema.write_studies")
    m["schema.decode_study.us"] = 1e6 * ratio(decode_s, decoded)

    parsers = ("ingest.registry", "ingest.ctgov", "ingest.pubmed")
    m["ingest.records"] = sum(calls(k) for k in parsers)
    m["ingest.parse.s"] = sum(seconds(k) for k in parsers)

    scored, score_s = tracer.total("dedupe.title_similarity", b)
    m["dedupe.candidate_pairs"] = extra[("build", "dedupe.candidate_pairs.count")]
    m["dedupe.candidate_pairs.s"] = seconds("dedupe.candidate_pairs")
    m["dedupe.pairs_scored"] = scored
    m["dedupe.score.s"] = score_s
    m["dedupe.us_per_pair"] = 1e6 * ratio(score_s, scored)
    m["dedupe.useful_pair_ratio"] = ratio(extra[("build", "dedupe.useful_pairs")], scored)

    matched, match_s = tracer.total("ontology.match_biomarker", b)
    m["ontology.match_biomarker.calls"] = matched
    m["ontology.match_biomarker.us"] = 1e6 * ratio(match_s, matched)
    m["ontology.biomarker_hit_ratio"] = ratio(extra[("build", "ontology.biomarker_hits")], matched)
    for name in ("annotate_conditions", "link_drug", "classify_endpoint"):
        m[f"ontology.{name}.calls"] = calls(f"ontology.{name}")
        m[f"ontology.{name}.s"] = seconds(f"ontology.{name}")

    m["evidence.results.parse.s"] = seconds("evidence.results")
    m["evidence.adverse_events.parse.s"] = seconds("evidence.adverse_events")
    m["evidence.disposition.parse.s"] = seconds("evidence.disposition_tables") + seconds("evidence.build_disposition")
    m["evidence.pico.calls"] = calls("evidence.pico")
    m["evidence.outcome_label.s"] = seconds("evidence.completed_outcome") + seconds("evidence.terminated_outcome")

    relation_keys = ("relations.review_references", "relations.nct_links", "relations.assemble_graph",
                     "relations.write_tsv", "relations.write_counts")
    m["relations.triples"] = extra[("build", "relations.triples")]
    m["relations.s"] = sum(seconds(k) for k in relation_keys)

    m["store.write_database.s"] = seconds("store.write_database")
    m["store.rows_written"] = extra[("build", "store.rows_written")]
    m["store.bundle_bytes"] = bundle_bytes

    for service in SERVICES:
        def count(what):
            return extra[("build", f"clients.{service}.{what}")]
        m[f"clients.{service}.calls"] = count("calls")
        m[f"clients.{service}.store_hits"] = count("store_hits")
        m[f"clients.{service}.misses"] = count("misses")
        m[f"clients.{service}.live_calls"] = live_calls.get(service, 0)
        # store probe plus read, per call; a miss pays only the probe
        m[f"clients.{service}.lookup.us"] = 1e6 * ratio(count("lookup.s"), count("calls"))
        m[f"clients.{service}.put.s"] = count("put.s")
        m[f"clients.{service}.put.bytes"] = count("put.bytes")

    for task in BENCHMARK_TASKS:
        m[f"benchgen.items.{task}"] = benchmark_counts.get(task, 0)
    m["benchgen.s"] = sum(seconds(key) for key, _, _, _ in TARGETS if key.startswith("benchgen."))
    return m
