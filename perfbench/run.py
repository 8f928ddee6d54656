"""Seeded end-to-end benchmark of the trialforge pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --baseline perfbench/baseline.json

Run from the root of a checkout; it needs ``src/trialforge`` and fails
with exit code 2 without it. All working files live in
``.perfbench-work/`` (removed on exit); reports go to ``.perfbench-out/``.

One run of a workload:

1. Set-up, three times: generate the seeded corpus and run the reference
   record pass through the scripted transports. ``setup_s`` is the
   median. The set-ups must agree byte for byte.
2. For ``--seconds``: one fresh child interpreter per iteration runs a
   cold build, a no-op rerun and a repair rerun (see ``child.py``) and
   checks them. Timings are medians over iterations.
3. With ``--trace 1`` every second iteration is traced (``tracing.py``),
   the per-layer metrics are the medians over traced iterations, tracing
   overhead is traced minus untraced median ``build_s``, and one more
   child takes the primitive micro-timings.

End-to-end times (``setup_s``, ``build_s``, ``build_cpu_s``,
``noop_rerun_s``, ``repair_rerun_s``) are in reference seconds: each
measured time is scaled by the host speed measured right around it with
a fixed calibration job (``calibration.py``). The raw wall times are
printed too, as ``*_wall_s``. Per-layer times are raw.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``. Every
other figure (failure ratio, no-op rerun stage count, tail percentile,
client write time) is printed above it and written to the report. The
exit code is 1 when any correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
# A run must end within 180 s; no iteration starts after this point.
HARD_STOP_S = 150
CHILD_TIMEOUT_S = 170

# Which end-to-end metric each per-layer metric should move, and where.
PREDICTIONS = [
    {"layer": "pipeline.stage.<name>.self_s", "moves": "build_s", "workload": "all"},
    {"layer": "pipeline.hash_corpus.calls, pipeline.hash_corpus.s", "moves": "noop_rerun_s, repair_rerun_s, build_s", "workload": "record-rerun"},
    {"layer": "pipeline.output_hash.files, pipeline.output_hash.s", "moves": "noop_rerun_s, repair_rerun_s", "workload": "all"},
    {"layer": "pipeline.ctgov_docs_parsed_ratio, pipeline.pubmed_reads_ratio", "moves": "build_s", "workload": "bulk-replay"},
    {"layer": "schema.studies_decoded_ratio, schema.read_studies.s, schema.write_studies.s, schema.decode_study.us", "moves": "build_s, peak_rss_mb", "workload": "bulk-replay"},
    {"layer": "ingest.records, ingest.parse.s", "moves": "build_s", "workload": "bulk-replay"},
    {"layer": "dedupe.candidate_pairs, dedupe.candidate_pairs.s, dedupe.pairs_scored, dedupe.score.s, dedupe.us_per_pair, dedupe.useful_pair_ratio", "moves": "build_s, dedupe_recall", "workload": "dedupe-skewed (prediction on bulk-replay: no change)"},
    {"layer": "ontology.match_biomarker.calls, ontology.match_biomarker.us, ontology.biomarker_hit_ratio, ontology.<annotate_conditions|link_drug|classify_endpoint>.calls/.s", "moves": "build_s", "workload": "bulk-replay"},
    {"layer": "evidence.results.parse.s, evidence.adverse_events.parse.s, evidence.disposition.parse.s, evidence.pico.calls, evidence.outcome_label.s", "moves": "build_s", "workload": "bulk-replay"},
    {"layer": "relations.triples, relations.s", "moves": "build_s", "workload": "bulk-replay"},
    {"layer": "store.write_database.s, store.rows_written, store.bundle_bytes", "moves": "build_s", "workload": "bulk-replay"},
    {"layer": "clients.<service>.lookup.us", "moves": "build_s", "workload": "bulk-replay"},
    {"layer": "clients.<service>.put.s, clients.<service>.put.bytes", "moves": "build_s", "workload": "record-rerun"},
    {"layer": "benchgen.items.<task>, benchgen.s", "moves": "build_s", "workload": "bulk-replay"},
]


class ChildFailed(Exception):
    pass


def run_child(task: dict, deadline: float) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
    )
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(task)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{task['task']} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{task['task']} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[max(0, math.ceil(p / 100 * n) - 1)]


def run_workload(name: str, seed: int, seconds: int, trace: bool, started: float) -> dict:
    """Set up, measure and check one workload; returns the raw samples."""
    work = ROOT / ".perfbench-work" / f"{name}-{os.getpid()}"
    deadline = started + CHILD_TIMEOUT_S
    shutil.rmtree(work, ignore_errors=True)
    failures: list[str] = []
    attempted = failed = 0
    try:
        setups = []
        for k in range(SETUPS):
            attempted += 1
            task = {"task": "setup", "work": str(work / f"setup{k}"), "workload": name, "seed": seed, "root": str(ROOT)}
            try:
                setups.append(run_child(task, deadline))
            except ChildFailed as exc:
                failed += 1
                failures.append(f"setup {k}: {exc}")
        if len({(s["corpus_hash"], s["outputs_hash"]) for s in setups}) > 1:
            failed += 1
            failures.append("set-ups of the same seed disagree")
        if not setups:
            return {"attempted": attempted, "failed": failed, "failures": failures, "samples": [], "setup_s": [], "setup_wall_s": []}
        base = work / "setup0"
        for k in range(1, SETUPS):
            shutil.rmtree(work / f"setup{k}", ignore_errors=True)

        samples: list[dict] = []
        loop_end = time.monotonic() + seconds
        index = 0
        while index < (2 if trace else 1) or (time.monotonic() < loop_end and time.monotonic() < started + HARD_STOP_S):
            attempted += 1
            task = {"task": "iteration", "work": str(base), "workload": name, "index": index, "trace": trace and index % 2 == 1}
            try:
                sample = run_child(task, deadline)
                sample["traced"] = task["trace"]
                samples.append(sample)
                failed += bool(sample["failures"])
                failures += [f"iteration {index}: {f}" for f in sample["failures"]]
            except ChildFailed as exc:
                failed += 1
                failures.append(f"iteration {index}: {exc}")
            index += 1

        micro = {}
        if trace:
            attempted += 1
            try:
                micro = run_child({"task": "micro", "work": str(base), "seed": seed}, deadline)
            except ChildFailed as exc:
                failed += 1
                failures.append(f"micro: {exc}")
        spans = base / "spans.jsonl"
        report_dir = ROOT / ".perfbench-out"
        if spans.is_file():
            report_dir.mkdir(exist_ok=True)
            shutil.copyfile(spans, report_dir / f"{name}-seed{seed}-spans.jsonl")
        records = json.loads((base / "truth.json").read_text(encoding="utf-8"))["records"]["total"]
        return {
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "samples": samples,
            "setup_s": [s["setup_s"] for s in setups],
            "setup_wall_s": [s["setup_wall_s"] for s in setups],
            "micro": micro,
            "records": records,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def summarize(result: dict) -> dict:
    """Every figure of one workload run: end-to-end, per-layer and extras."""
    samples = result["samples"]
    figures: dict[str, tuple[float, str]] = {}
    if result["setup_s"]:
        figures["setup_s"] = (statistics.median(result["setup_s"]), "s")
        figures["setup_wall_s"] = (statistics.median(result["setup_wall_s"]), "s")
    plain = [s for s in samples if not s["traced"]]
    if plain:
        def med(key):
            return statistics.median(s[key] for s in plain)
        build_s = med("build_s")
        figures.update({
            "build_s": (build_s, "s"),
            "build_cpu_s": (med("build_cpu_s"), "s"),
            "records_per_s": (result["records"] / build_s, "1/s"),
            "peak_rss_mb": (med("peak_rss_mb"), "MB"),
            "noop_rerun_s": (med("noop_rerun_s"), "s"),
            "repair_rerun_s": (med("repair_rerun_s"), "s"),
            "build_wall_s": (med("build_wall_s"), "s"),
            "noop_rerun_wall_s": (med("noop_rerun_wall_s"), "s"),
            "repair_rerun_wall_s": (med("repair_rerun_wall_s"), "s"),
            "calibration_s": (med("calibration_s"), "s"),
            "dedupe_recall": (med("dedupe_recall"), "ratio"),
            "noop_rerun_stages": (med("noop_rerun_stages"), "count"),
            "build_samples": (len(plain), "count"),
        })
        tail = tail_percentile([s["build_s"] for s in plain])
        if tail is not None:
            figures[f"build_s.p{tail[0]}"] = (tail[1], "s")
    figures["fail_ratio"] = (result["failed"] / result["attempted"], "ratio")
    traced = [s for s in samples if s["traced"]]
    if traced:
        for key in traced[0]["layers"]:
            figures[key] = (statistics.median(s["layers"][key] for s in traced), _layer_unit(key))
        if plain:
            figures["trace.overhead_s"] = (statistics.median(s["build_s"] for s in traced) - figures["build_s"][0], "s")
    for key, value in result.get("micro", {}).items():
        figures[key] = (value, _layer_unit(key))
    return {"figures": figures, "attempted": result["attempted"], "failed": result["failed"]}


def _layer_unit(key: str) -> str:
    for suffixes, unit in (((".us", "us_per_pair", "us_per_record"), "us"), ((".s", "_s"), "s"),
                           (("_ratio",), "ratio"), (("bytes",), "bytes")):
        if key.endswith(suffixes):
            return unit
    return "count"


def emit(name: str, seed: int, trace: bool, result: dict, summary: dict, spec: dict) -> dict:
    figures = summary["figures"]
    print(f"# workload {name}, seed {seed}, trace {int(trace)}: {summary['attempted']} runs, {summary['failed']} failed")
    for key, (value, unit) in figures.items():
        print(f"{key:48s} {value:14.6g} {unit}")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    line = {
        "correct": not result["failures"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    report_dir = ROOT / ".perfbench-out"
    report_dir.mkdir(exist_ok=True)
    report = dict(line, workload=name, seed=seed, trace=int(trace), figures={k: v for k, (v, _) in figures.items()},
                  failures=result["failures"], samples=result["samples"], setup_s=result["setup_s"])
    (report_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path, help="with --workload all: run trace 0 and 1 and write the baseline here")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "trialforge" / "pipeline.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'trialforge'} is missing; run from a trialforge checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (False, True) if args.baseline else (bool(args.trace),)
    lines: dict = {}
    for name in names:
        for trace in traces:
            if args.workload == "all":
                started = time.monotonic()
            result = run_workload(name, args.seed, args.seconds, trace, started)
            summary = summarize(result)
            lines[f"{name}/trace{int(trace)}"] = (emit(name, args.seed, trace, result, summary, spec), summary)

    if args.baseline:
        baseline = {
            "claim": None,
            "machine": {"python": platform.python_version(), "implementation": platform.python_implementation(),
                        "nproc": os.cpu_count(), "platform": platform.platform()},
            "seed": args.seed,
            "run_seconds": args.seconds,
            "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
            "predictions": PREDICTIONS,
            "results": {key: {k: v for k, (v, _) in summary["figures"].items()} for key, (_, summary) in lines.items()},
            "units": {k: u for _, summary in lines.values() for k, (_, u) in summary["figures"].items()},
        }
        args.baseline.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    results = [line for line, _ in lines.values()]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({key: line for key, (line, _) in lines.items()}))
    return 0 if all(line["correct"] for line in results) else 1


if __name__ == "__main__":
    sys.exit(main())
