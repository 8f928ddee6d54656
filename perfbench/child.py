"""One step of the benchmark, run in a fresh single-threaded interpreter.

Usage: python3 perfbench/child.py '<task as JSON>'

Tasks (``task`` key):

* ``setup``: generate the corpus for (workload, seed) into ``work`` and
  run the reference record pass, whose outputs every measured build must
  reproduce byte for byte.
* ``iteration``: one cold build into a fresh out dir, then a no-op rerun,
  then a repair rerun after corrupting one ``04_extract`` output; every
  run is timed, bracketed by calibration jobs (``calibration.py``), and
  then checked. With ``trace`` the layer entry points
  are wrapped and the per-layer metrics come back too.
* ``micro``: micro-timings of five hot primitives on fixed samples of the
  reference outputs.

Prints one JSON object on its last line of stdout.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibration
import corpusgen
import tracing
from workloads import WORKLOADS

from trialforge import store
from trialforge.clients import ReplayStore, ServiceClient
from trialforge.dedupe import candidate_pairs, title_similarity
from trialforge.ontology.biomarkers import load_biomarker_index, match_biomarker
from trialforge.pipeline import STAGE_DIRS, STAGES, PipelineSettings, _candidate_spans, hash_corpus, run_pipeline
from trialforge.schema import decode_study, read_studies_jsonl

CORRUPTED = Path(STAGE_DIRS["extract"]) / "trial_results.jsonl"


def _settings(work: Path, out_dir: Path, mode: str, replay_inside: bool) -> PipelineSettings:
    return PipelineSettings(
        corpus_dir=work / "corpus",
        out_dir=out_dir,
        mode=mode,
        replay_dir=None if replay_inside else work / "replay",
        allow_small_split=True,
    )


def _output_digests(out_dir: Path) -> dict:
    """sha256 of every stage output except the stage manifests."""
    digests = {}
    for stage in STAGES:
        for path in sorted((out_dir / STAGE_DIRS[stage]).rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                digests[path.relative_to(out_dir).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def setup(task: dict) -> dict:
    work, workload = Path(task["work"]), WORKLOADS[task["workload"]]
    mapping_dir = Path(task["root"]) / "src" / "trialforge" / "data" / "sources"
    before = calibration.job_seconds()
    start = time.perf_counter()
    corpusgen.generate(work / "corpus", task["seed"], workload.spec, mapping_dir)
    run_pipeline(
        _settings(work, work / "reference", "record", replay_inside=workload.mode == "record"),
        transports=corpusgen.TRANSPORTS,
    )
    setup_wall_s = time.perf_counter() - start
    after = calibration.job_seconds()
    if workload.mode == "record":
        # measured record builds start from an empty default store
        (work / "corpus" / "replay").rename(work / "replay")
    digests = _output_digests(work / "reference")
    (work / "reference_digests.json").write_text(json.dumps(digests, sort_keys=True), encoding="utf-8")
    return {
        "setup_s": setup_wall_s * calibration.scale(before, after),
        "setup_wall_s": setup_wall_s,
        "corpus_hash": hash_corpus(work / "corpus"),
        "outputs_hash": hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest(),
    }


def _recomputed(summary: dict) -> list[str]:
    return [name for name, stage in summary["stages"].items() if not stage["skipped"]]


def dedupe_truth(out_dir: Path, truth: dict) -> tuple[float, list[str]]:
    """Recall over planted pairs, and every merge the truth does not allow."""
    cluster_of: dict[tuple, int] = {}
    sizes: list[int] = []
    with open(out_dir / STAGE_DIRS["dedupe"] / "decisions.tsv", encoding="utf-8") as fh:
        next(fh)
        for index, line in enumerate(fh):
            source, survivor, absorbed, _evidence, _score = line.rstrip("\n").split("\t")
            members = [(source, survivor)] + [tuple(chunk.split(":", 1)) for chunk in absorbed.split(";") if chunk]
            for member in members:
                cluster_of[member] = index
            sizes.append(len(members))
    listed = [tuple(r) for r in truth["distinct"]] + [tuple(r) for pair in truth["planted_pairs"] for r in pair]
    missing = [r for r in listed if r not in cluster_of]
    if missing:
        return 0.0, [f"records missing from the dedupe decisions: {missing[:5]}"]
    merged = sum(1 for a, b in truth["planted_pairs"] if cluster_of[tuple(a)] == cluster_of[tuple(b)])
    problems = [
        f"distinct record {source}:{study_id} was merged"
        for source, study_id in truth["distinct"]
        if sizes[cluster_of[(source, study_id)]] > 1
    ]
    problems += [
        f"planted pair {a} / {b} merged with other records"
        for a, b in truth["planted_pairs"]
        if sizes[cluster_of[tuple(a)]] > 2
    ]
    return merged / len(truth["planted_pairs"]), problems


def iteration(task: dict) -> dict:
    work, workload = Path(task["work"]), WORKLOADS[task["workload"]]
    truth = json.loads((work / corpusgen.TRUTH_NAME).read_text(encoding="utf-8"))
    reference = json.loads((work / "reference_digests.json").read_text(encoding="utf-8"))
    out_dir = work / f"out-{task['index']}"
    record = workload.mode == "record"
    settings = _settings(work, out_dir, workload.mode, replay_inside=record)
    transports = corpusgen.TRANSPORTS if record else None
    if record:
        shutil.rmtree(work / "corpus" / "replay", ignore_errors=True)

    tracer = None
    if task["trace"]:
        tracer = tracing.Tracer()
        tracer.install()

    def timed(run_id: str) -> tuple[dict, float, float]:
        if tracer is not None:
            tracer.run_id = run_id
        wall, cpu = time.perf_counter(), time.process_time()
        summary = run_pipeline(settings, transports=transports)
        return summary, time.perf_counter() - wall, time.process_time() - cpu

    def compare_outputs(after: str) -> None:
        digests = _output_digests(out_dir)
        if digests != reference:
            changed = sorted(k for k in reference.keys() | digests.keys() if reference.get(k) != digests.get(k))
            failures.append(f"outputs after the {after} differ from the reference record pass: {changed[:5]}")

    failures: list[str] = []
    calibrations = [calibration.job_seconds()]
    build, build_s, build_cpu_s = timed("build")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calibrations.append(calibration.job_seconds())
    compare_outputs("cold build")
    noop, noop_s, _ = timed("noop")
    calibrations.append(calibration.job_seconds())
    corrupted = out_dir / CORRUPTED
    corrupted.write_bytes(corrupted.read_bytes() + b"{}\n")
    repair, repair_s, _ = timed("repair")
    calibrations.append(calibration.job_seconds())
    compare_outputs("repair rerun")
    build_scale, noop_scale, repair_scale = (calibration.scale(*calibrations[k:k + 2]) for k in range(3))

    failures += [f"database manifest: {problem}" for problem in store.verify_manifest(out_dir / STAGE_DIRS["database"] / "db")]
    recall, merge_problems = dedupe_truth(out_dir, truth)
    failures += merge_problems
    if sum(noop["live_calls"].values()):
        failures.append(f"no-op rerun made live calls: {noop['live_calls']}")
    if _recomputed(repair) != ["extract"]:
        failures.append(f"repair rerun recomputed {_recomputed(repair)}, expected only extract")
    if noop["pipeline_hash"] != repair["pipeline_hash"]:
        failures.append("repair rerun did not restore the pipeline hash")

    result = {
        "build_s": build_s * build_scale,
        "build_cpu_s": build_cpu_s * build_scale,
        "build_wall_s": build_s,
        "peak_rss_mb": peak_rss_mb,
        "noop_rerun_s": noop_s * noop_scale,
        "noop_rerun_wall_s": noop_s,
        "noop_rerun_stages": len(_recomputed(noop)),
        "repair_rerun_s": repair_s * repair_scale,
        "repair_rerun_wall_s": repair_s,
        "calibration_s": statistics.mean(calibrations),
        "dedupe_recall": recall,
        "live_calls": build["live_calls"],
        "failures": failures,
    }
    if tracer is not None:
        db_dir = out_dir / STAGE_DIRS["database"] / "db"
        result["layers"] = tracing.layer_metrics(
            tracer,
            records=truth["records"]["total"],
            ctgov_docs=truth["records"]["ctgov"],
            pubmed_articles=truth["records"]["pubmed"],
            bundle_bytes=sum(path.stat().st_size for path in db_dir.iterdir()),
            benchmark_counts=build["stages"]["benchmarks"]["counts"],
            live_calls=build["live_calls"],
        )
        tracer.dump(work / "spans.jsonl")
    shutil.rmtree(out_dir)
    return result


def _per_item_us(fn, items: list, repeats: int = 5) -> float:
    """Median over ``repeats`` passes of the mean time per item, in µs."""
    passes = []
    for _ in range(repeats):
        start = time.perf_counter()
        for item in items:
            fn(item)
        passes.append((time.perf_counter() - start) / len(items))
    return 1e6 * statistics.median(passes)


def micro(task: dict) -> dict:
    work = Path(task["work"])
    rng = random.Random(task["seed"])
    reference = work / "reference"
    studies = read_studies_jsonl(reference / STAGE_DIRS["ingest"] / "studies.jsonl")

    start = time.perf_counter()
    pairs = candidate_pairs(studies, tracing.DEDUPE_THRESHOLD)
    candidate_s = time.perf_counter() - start
    sample = rng.sample(pairs, min(200, len(pairs)))
    titles = [(studies[i].title, studies[j].title) for i, j in sample]

    with open(reference / STAGE_DIRS["dedupe"] / "studies.jsonl", encoding="utf-8") as fh:
        lines = [line for line in fh.readlines()[1:] if line.strip()]
    lines = rng.sample(lines, min(300, len(lines)))

    store_root = work / "replay"
    fixtures = sorted(store_root.glob("*/*.json"))
    fixtures = [json.loads(path.read_text(encoding="utf-8")) for path in rng.sample(fixtures, min(200, len(fixtures)))]
    client = ServiceClient("replay", ReplayStore(store_root))

    index = load_biomarker_index()
    spans = [
        span
        for study in rng.sample(studies, min(100, len(studies)))
        for text in (*study.primary_outcomes, *study.secondary_outcomes)
        for span in _candidate_spans(text)
    ]
    return {
        "micro.title_similarity.us": _per_item_us(lambda pair: title_similarity(*pair), titles),
        "micro.candidate_pairs.emitted": len(pairs),
        "micro.candidate_pairs.us_per_record": 1e6 * candidate_s / len(studies),
        "micro.decode_study.us": _per_item_us(decode_study, lines),
        "micro.replay_lookup.us": _per_item_us(lambda f: client.call(f["service"], f["request"]), fixtures),
        "micro.match_biomarker.us": _per_item_us(lambda span: match_biomarker(span, index), spans),
    }


TASKS = {"setup": setup, "iteration": iteration, "micro": micro}


def main(argv: list[str]) -> int:
    task = json.loads(argv[1])
    calibration.job()  # warm-up, so the first timed calibration is not a cold one
    print(json.dumps(TASKS[task["task"]](task), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
