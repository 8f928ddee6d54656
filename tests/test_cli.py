import json
import os
import shutil

import pytest

from trialforge.cli import main
from trialforge.clients import ReplayStore, request_hash


@pytest.fixture(autouse=True)
def no_forge_env(monkeypatch):
    # load_config layers FORGE_* variables over the file; keep tests hermetic.
    for name in list(os.environ):
        if name.startswith("FORGE_"):
            monkeypatch.delenv(name)


def pipeline_argv(verb, golden, out_dir, **extra):
    argv = [
        verb,
        "--corpus", str(golden.corpus),
        "--out", str(out_dir),
        "--seed", str(golden.seed),
        "--mode", "replay",
        "--replay-dir", str(golden.replay),
        "--allow-small",
    ]
    for flag, value in extra.items():
        argv.extend([f"--{flag}", str(value)])
    return argv


# --- stage verbs ---------------------------------------------------------

def test_run_all_prints_stage_lines(golden, tmp_path, capsys):
    code = main(pipeline_argv("run-all", golden, tmp_path / "out"))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ingest: ran ")
    assert sum(1 for line in lines if ": ran " in line) == 7
    assert lines[-1].startswith("pipeline_hash: ")


def test_stage_verb_runs_prefix_only(golden, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(pipeline_argv("dedupe", golden, out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["ingest", "dedupe", "pipeline_hash"]
    assert (out / "01_ingest").is_dir()
    assert (out / "02_dedupe").is_dir()
    assert not (out / "03_link").exists()


def test_second_invocation_skips(golden, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(pipeline_argv("ingest", golden, out)) == 0
    capsys.readouterr()
    assert main(pipeline_argv("ingest", golden, out)) == 0
    assert "ingest: skipped" in capsys.readouterr().out


def test_build_db_reaches_database_stage(golden, tmp_path):
    out = tmp_path / "out"
    assert main(pipeline_argv("build-db", golden, out)) == 0
    assert (out / "06_database" / "db" / "studies.tsv").exists()
    assert not (out / "07_benchmarks").exists()


def test_flag_overrides_config_file(golden, tmp_path, capsys):
    config = tmp_path / "forge.cfg"
    config.write_text(
        "\n".join(
            [
                f"corpus_dir = {golden.corpus}",
                f"out_dir = {tmp_path / 'from_config'}",
                f"replay_dir = {golden.replay}",
                "mode = replay",
                f"seed = {golden.seed}",
                "allow_small_split = true",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    override = tmp_path / "from_flag"
    code = main(["ingest", "--config", str(config), "--out", str(override)])
    assert code == 0
    assert (override / "01_ingest").is_dir()
    assert not (tmp_path / "from_config").exists()


def test_missing_corpus_is_invalid_input(tmp_path, capsys):
    code = main(["ingest", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "invalid input:" in capsys.readouterr().err


def test_bad_config_line_is_invalid_input(tmp_path, capsys):
    config = tmp_path / "forge.cfg"
    config.write_text("this line has no equals sign\n", encoding="utf-8")
    code = main(["ingest", "--config", str(config)])
    assert code == 2
    assert "invalid input:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("awaiting = fold", "awaiting mode must be one of"),
        ("allow_small_split = maybe", "non-boolean value"),
        ("seed = seven", "invalid literal"),
    ],
)
def test_bad_config_value_fails_before_any_stage(golden, tmp_path, capsys, line, message):
    config = tmp_path / "forge.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run-all", "--config", str(config), "--corpus", str(golden.corpus), "--out", str(out),
                 "--replay-dir", str(golden.replay)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and message in err
    assert not out.exists()


def test_bad_awaiting_from_environment_fails_before_any_stage(golden, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FORGE_AWAITING", "fold")
    out = tmp_path / "out"
    assert main(pipeline_argv("run-all", golden, out)) == 2
    assert "awaiting mode must be one of" in capsys.readouterr().err
    assert not out.exists()


def test_env_supplies_settings_and_a_flag_beats_it(golden, tmp_path, monkeypatch):
    monkeypatch.setenv("FORGE_CORPUS_DIR", str(golden.corpus))
    monkeypatch.setenv("FORGE_OUT_DIR", str(tmp_path / "from_env"))
    monkeypatch.setenv("FORGE_REPLAY_DIR", str(golden.replay))
    assert main(["ingest"]) == 0
    assert (tmp_path / "from_env" / "01_ingest").is_dir()
    assert main(["ingest", "--out", str(tmp_path / "from_flag")]) == 0
    assert (tmp_path / "from_flag" / "01_ingest").is_dir()


def test_replay_miss_maps_to_client_error_exit(golden, tmp_path, capsys):
    empty = tmp_path / "empty_replay"
    empty.mkdir()
    code = main(pipeline_argv("run-all", golden, tmp_path / "out", **{"replay-dir": empty}))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("client error: stage link:")


# --- evaluate verb ---------------------------------------------------------

@pytest.fixture()
def tiny_benchmarks(tmp_path):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    mcq = {
        "id": "arm_design:NCT1",
        "task": "arm_design",
        "instruction": "pick",
        "input": "trial",
        "options": ["a", "b", "c", "d"],
        "answer": "B",
        "provenance": {},
    }
    completion = {
        "id": "completion:NCT2",
        "task": "completion",
        "instruction": "label",
        "input": "trial",
        "answer": "completed",
        "provenance": {},
    }
    (bench_dir / "arm_design.test.jsonl").write_text(json.dumps(mcq) + "\n", encoding="utf-8")
    (bench_dir / "completion.test.jsonl").write_text(json.dumps(completion) + "\n", encoding="utf-8")
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text(
        json.dumps({"item_id": "arm_design:NCT1", "raw_output": "<answer>B</answer>"})
        + "\n"
        + json.dumps({"item_id": "completion:NCT2", "raw_output": "completed"})
        + "\n",
        encoding="utf-8",
    )
    return bench_dir, predictions


def test_evaluate_writes_report(tiny_benchmarks, tmp_path, capsys):
    bench_dir, predictions = tiny_benchmarks
    report_path = tmp_path / "report.tsv"
    code = main(
        [
            "evaluate",
            "--benchmarks", str(bench_dir),
            "--predictions", str(predictions),
            "--out", str(report_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "arm_design: accuracy=1.0000 count=1" in out
    assert "completion: count=1 macro_f1=1.0000" in out
    report = report_path.read_text(encoding="utf-8")
    assert "arm_design\taccuracy\t1.000000" in report


def test_evaluate_missing_split_is_invalid_input(tiny_benchmarks, tmp_path, capsys):
    bench_dir, predictions = tiny_benchmarks
    code = main(
        [
            "evaluate",
            "--benchmarks", str(bench_dir),
            "--predictions", str(predictions),
            "--out", str(tmp_path / "report.tsv"),
            "--split", "validation",
        ]
    )
    assert code == 2
    assert "invalid input:" in capsys.readouterr().err


# --- reward verb -----------------------------------------------------------

def reward_argv(task, truth, response_path, **extra):
    argv = ["reward", "--task", task, "--truth", truth, str(response_path)]
    for flag, value in extra.items():
        argv.extend([f"--{flag}", str(value)])
    return argv


def test_reward_sample_size_hit(tmp_path, capsys):
    response = tmp_path / "response.txt"
    response.write_text("thinking...\n<answer>96</answer>\n", encoding="utf-8")
    code = main(reward_argv("sample_size", "100", response))
    assert code == 0
    outcome = json.loads(capsys.readouterr().out)
    assert outcome["performance"] == 1.0
    assert outcome["total"] == pytest.approx(1.1)
    assert outcome["format_ok"] is True
    assert outcome["parsed_answer"] == "96"


def test_reward_missing_tag_scores_malformed(tmp_path, capsys):
    response = tmp_path / "response.txt"
    response.write_text("the trial enrolled 100\n", encoding="utf-8")
    code = main(reward_argv("sample_size", "100", response))
    assert code == 0
    outcome = json.loads(capsys.readouterr().out)
    assert outcome["total"] == -2.0
    assert outcome["format_ok"] is False
    assert outcome["reason"] == "missing_answer_tag"


def test_reward_study_search_replays_recorded_retrieval(tmp_path, capsys):
    store = ReplayStore(tmp_path / "replay")
    request = {"query": "lamotrigine add-on epilepsy", "k": 100}
    store.put(
        "pubmed_search",
        request_hash(request),
        request,
        {"ids": ["11", "22", "33"]},
    )
    response = tmp_path / "response.txt"
    response.write_text("<answer>lamotrigine add-on epilepsy</answer>", encoding="utf-8")
    code = main(
        reward_argv(
            "study_search",
            json.dumps(["11", "22", "44", "55"]),
            response,
            **{"replay-dir": tmp_path / "replay", "k": 100},
        )
    )
    assert code == 0
    outcome = json.loads(capsys.readouterr().out)
    assert outcome["performance"] == pytest.approx(0.5)
    assert outcome["total"] == pytest.approx(0.6)


def test_reward_study_search_requires_replay_dir(tmp_path, capsys):
    response = tmp_path / "response.txt"
    response.write_text("<answer>query</answer>", encoding="utf-8")
    code = main(reward_argv("study_search", '["1"]', response))
    assert code == 2
    assert "invalid input:" in capsys.readouterr().err


def test_reward_unrecorded_query_is_client_error(tmp_path, capsys):
    empty = tmp_path / "replay"
    empty.mkdir()
    response = tmp_path / "response.txt"
    response.write_text("<answer>never recorded</answer>", encoding="utf-8")
    code = main(
        reward_argv(
            "study_search",
            '["1"]',
            response,
            **{"replay-dir": empty},
        )
    )
    assert code == 3
    assert "client error: pubmed_search:" in capsys.readouterr().err


def test_unknown_verb_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_deleted_served_fixture_exits_3_naming_the_stage(golden, in_corpus, tmp_path, capsys):
    shutil.copytree(golden.replay, in_corpus.store)
    argv = [
        "run-all",
        "--corpus", str(in_corpus.corpus),
        "--out", str(tmp_path / "out"),
        "--seed", str(golden.seed),
        "--mode", "replay",
        "--allow-small",
    ]
    if in_corpus.replay_dir is not None:
        argv += ["--replay-dir", str(in_corpus.replay_dir)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "out" / "03_link" / "manifest.json").read_text(encoding="utf-8"))
    (in_corpus.store / sorted(manifest["responses"])[0]).unlink()
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("client error: stage link: ")
