"""Command-line front door: one verb per pipeline stage plus eval helpers.

Exit codes: 0 on success, 2 on data errors (including bad config), 3 on
client errors. Each stage verb runs the chain up to and including its
stage; stages whose manifests still match their inputs are skipped, so
``forge dedupe`` after ``forge ingest`` does not redo the ingest.

The verbs take no mode flag: recording needs transports, which only
``run_pipeline(settings, transports=...)`` can be given.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .clients import ReplayStore, ServiceClient, pubmed_search_callable
from .config import load_config
from .errors import ClientError, DataError
from .evaluate import evaluate_benchmarks, load_predictions, write_report
from .pipeline import STAGE_TABLE, STAGES, PipelineSettings, run_pipeline
from .relations import AWAITING_MODES
from .reward import score_reward
from .store import read_jsonl

logger = logging.getLogger(__name__)

# verb -> final pipeline stage it materializes
STAGE_VERBS = {stage.verb: stage.name for stage in STAGE_TABLE} | {"run-all": STAGES[-1]}


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    # Each dest is a PipelineSettings field, so a set flag overrides that config key.
    parser.add_argument("--config", type=Path, help="key=value config file")
    parser.add_argument("--corpus", dest="corpus_dir", type=Path, help="corpus root directory")
    parser.add_argument("--out", dest="out_dir", type=Path, help="output root directory")
    parser.add_argument("--seed", type=int, help="benchmark generation seed")
    parser.add_argument("--threshold", dest="dedupe_threshold", type=float, help="dedupe title-similarity threshold")
    parser.add_argument("--replay-dir", type=Path, help="replay store root")
    parser.add_argument("--awaiting", choices=AWAITING_MODES, help="awaiting-reference handling")
    parser.add_argument(
        "--allow-small",
        dest="allow_small_split",
        action="store_true",
        default=None,
        help="let recency splits truncate instead of failing on small corpora",
    )


def _settings_from_args(args: argparse.Namespace) -> PipelineSettings:
    values = load_config(args.config)
    for setting in fields(PipelineSettings):
        flag_value = getattr(args, setting.name, None)
        if flag_value is not None:
            values[setting.name] = str(flag_value)
    return PipelineSettings.from_config(values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="forge", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="log stage progress")
    subparsers = parser.add_subparsers(dest="verb", required=True)

    for verb in STAGE_VERBS:
        sub = subparsers.add_parser(verb, help=f"run the pipeline through its {STAGE_VERBS[verb]} stage")
        _add_pipeline_flags(sub)

    evaluate = subparsers.add_parser("evaluate", help="score predictions against benchmark files")
    evaluate.add_argument("--benchmarks", type=Path, required=True, help="benchmark directory")
    evaluate.add_argument("--predictions", type=Path, required=True, help="JSONL of {item_id, raw_output}")
    evaluate.add_argument("--out", type=Path, required=True, help="report TSV path")
    evaluate.add_argument("--split", default="test", help="benchmark split to score (default test)")

    reward = subparsers.add_parser("reward", help="score one model response against its benchmark item")
    reward.add_argument("--item", required=True, help="the benchmark item as JSON, one line of a gen-bench file")
    reward.add_argument("response", type=Path, help="file holding the raw model output")
    reward.add_argument("--replay-dir", type=Path, help="replay store root (for study_search retrieval)")
    reward.add_argument("--k", type=int, default=100, help="retrieval depth for study_search")

    return parser


def _cmd_stage(args: argparse.Namespace) -> int:
    settings = _settings_from_args(args)
    summary = run_pipeline(settings, until=STAGE_VERBS[args.verb])
    for name, stage in summary["stages"].items():
        state = "skipped" if stage["skipped"] else "ran"
        if "reused" in stage:
            state += f" ({stage['reused']} reused, {stage['computed']} computed)"
        print(f"{name}: {state} {json.dumps(stage['counts'], sort_keys=True)}")
    print(f"pipeline_hash: {summary['pipeline_hash']}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    records = [
        record
        for path in sorted(args.benchmarks.glob(f"*.{args.split}.jsonl"))
        for record in read_jsonl(path)
    ]
    if not records:
        raise ValueError(f"no *.{args.split}.jsonl files under {args.benchmarks}")
    predictions = load_predictions(args.predictions)
    report = evaluate_benchmarks(records, predictions)
    write_report(report, args.out)
    for task in sorted(report):
        parts = []
        for name, value in sorted(report[task].items()):
            if value is None:
                parts.append(f"{name}=NA")
            elif isinstance(value, float):
                parts.append(f"{name}={value:.4f}")
            else:
                parts.append(f"{name}={value}")
        print(f"{task}: {' '.join(parts)}")
    return 0


def _cmd_reward(args: argparse.Namespace) -> int:
    raw_output = args.response.read_text(encoding="utf-8")
    retrieval_fn = None
    if args.replay_dir is not None:
        client = ServiceClient("replay", ReplayStore(args.replay_dir))
        retrieval_fn = pubmed_search_callable(client, k=args.k)
    outcome = score_reward(raw_output, json.loads(args.item), retrieval_fn=retrieval_fn, k=args.k)
    print(json.dumps(asdict(outcome), sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.verb in STAGE_VERBS:
            return _cmd_stage(args)
        if args.verb == "evaluate":
            return _cmd_evaluate(args)
        return _cmd_reward(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ClientError as exc:
        print(f"client error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
