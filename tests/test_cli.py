import json
import os
import shutil

from dataclasses import replace

import pytest

from trialforge import pipeline
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


def test_record_without_transports_maps_to_client_error_exit(golden, tmp_path, capsys, monkeypatch):
    # The CLI has no --mode flag; a config value can still select record mode.
    monkeypatch.setenv("FORGE_MODE", "record")
    argv = pipeline_argv("run-all", golden, tmp_path / "out", **{"replay-dir": tmp_path / "empty"})
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("client error: stage link: rxnorm:")
    assert "record mode has no rxnorm transport" in err


@pytest.mark.parametrize("verb", ["run-all", "reward"])
def test_cli_does_not_offer_record_mode(tmp_path, capsys, verb):
    # no verb takes a mode flag at all
    for mode in ("record", "replay"):
        argv = [verb]
        if verb == "reward":
            argv += ["--task", "sample_size", "--truth", "1", str(tmp_path / "response.txt")]
        argv += ["--mode", mode]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: --mode {mode}" in capsys.readouterr().err


@pytest.mark.parametrize("rel, text, shape", [
    ("registry/ANZCTR.json", '{"a": 1}', "array of objects"),
    ("registry/ANZCTR.json", "[1, 2]", "array of objects"),
    ("ctgov/NCT00000150.json", "[]", "object"),
    ("pubmed/articles.json", '{"pmid": "1"}', "array of objects"),
], ids=["registry-object", "registry-numbers", "ctgov-array", "pubmed-object"])
def test_wrong_shaped_corpus_file_is_invalid_input(golden, tmp_path, capsys, rel, text, shape):
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    (corpus / rel).write_text(text, encoding="utf-8")
    assert main(pipeline_argv("ingest", golden, tmp_path / "out", corpus=corpus)) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ")
    assert f"{corpus / rel}: expected a JSON {shape}" in err


@pytest.mark.parametrize("rel, key, value, message", [
    ("reviews/index.json", "pmid", None, "entry 0 has no 'pmid'"),
    ("protocols/pairs.json", "nct_id", None, "entry 0 has no 'nct_id'"),
    ("protocols/pairs.json", "registry_enrollment", None, "entry 0 has no 'registry_enrollment'"),
    ("protocols/pairs.json", "registry_enrollment", "about 80", "registry_enrollment of NCT06330298 is 'about 80', expected an integer"),
], ids=["review-pmid", "pair-nct-id", "pair-enrollment", "pair-enrollment-text"])
def test_malformed_corpus_entry_is_invalid_input(golden, tmp_path, capsys, rel, key, value, message):
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    entries = json.loads((corpus / rel).read_text(encoding="utf-8"))
    if value is None:
        del entries[0][key]
    else:
        entries[0][key] = value
    (corpus / rel).write_text(json.dumps(entries), encoding="utf-8")
    assert main(pipeline_argv("run-all", golden, tmp_path / "out", corpus=corpus)) == 2
    assert capsys.readouterr().err == f"invalid input: {corpus / rel}: {message}\n"


@pytest.mark.parametrize("module, key, value", [
    ("eligibilityModule", "minimumAge", {"value": 18}),
    ("eligibilityModule", "maximumAge", ["65 Years"]),
    ("eligibilityModule", "healthyVolunteers", {"value": False}),
    ("sponsorCollaboratorsModule", "leadSponsor", {"name": {"en": "National Eye Institute"}}),
], ids=["minimum-age", "maximum-age", "healthy-volunteers", "sponsor-name"])
def test_non_text_ctgov_value_is_invalid_input(golden, tmp_path, capsys, module, key, value):
    # such a value used to pass ingest and crash the database stage with a TypeError
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    path = corpus / "ctgov" / "NCT00000150.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["protocolSection"][module][key] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(pipeline_argv("run-all", golden, tmp_path / "out", corpus=corpus)) == 2
    field = "leadSponsor.name" if key == "leadSponsor" else key
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: CT.gov study NCT00000150: {field} is "), err


@pytest.mark.parametrize("path, value, message", [
    (["protocolSection"], None, None),
    (["protocolSection", "statusModule"], None, None),
    (["protocolSection", "designModule", "phases"], None, None),
    (["protocolSection", "statusModule", "overallStatus"], {"value": "COMPLETED"}, "overallStatus is {'value': 'COMPLETED'}, expected str or null"),
    (["protocolSection", "identificationModule", "briefTitle"], 5, "briefTitle is 5, expected str or null"),
    (["protocolSection", "descriptionModule", "briefSummary"], ["A trial"], "briefSummary is ['A trial'], expected str or null"),
    (["protocolSection", "designModule", "studyType"], 3, "studyType is 3, expected str or null"),
    (["protocolSection", "eligibilityModule", "sex"], ["ALL"], "sex is ['ALL'], expected str or null"),
    (["protocolSection", "outcomesModule", "primaryOutcomes", 0], "Visual acuity", "primaryOutcomes[0] is 'Visual acuity', expected dict or null"),
    (["protocolSection", "statusModule", "startDateStruct", "date"], 2001, "startDateStruct.date is 2001, expected str or null"),
    (["protocolSection", "designModule", "enrollmentInfo", "type"], 1, "enrollmentInfo.type is 1, expected str or null"),
    (["protocolSection", "designModule", "enrollmentInfo", "count"], True, "enrollmentInfo.count is True, expected int or null"),
], ids=[
    "protocol-section-null", "status-module-null", "phases-null", "overall-status-object", "brief-title-number",
    "brief-summary-array", "study-type-number", "sex-array", "primary-outcome-text", "start-date-number",
    "enrollment-type-number", "enrollment-count-boolean",
])
def test_ctgov_value_of_another_shape(golden, tmp_path, capsys, path, value, message):
    # each used to stop ingest with a traceback (exit 1); a null object reads as empty
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    doc_path = corpus / "ctgov" / "NCT00000150.json"
    doc = json.loads(doc_path.read_text(encoding="utf-8"))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(pipeline_argv("ingest", golden, tmp_path / "out", corpus=corpus))
    if message is None:
        assert code == 0
    else:
        assert code == 2
        assert capsys.readouterr().err == f"invalid input: CT.gov study NCT00000150: {message}\n"


@pytest.mark.parametrize("value", [None, 5, ["NCT1"]], ids=["null", "number", "array"])
def test_ctgov_nct_id_must_be_text_or_null(golden, tmp_path, capsys, value):
    # a null used to ingest a study "None", an array one "['NCT1']"
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    doc_path = corpus / "ctgov" / "NCT00000150.json"
    doc = json.loads(doc_path.read_text(encoding="utf-8"))
    doc["nctId"] = value
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code = main(pipeline_argv("ingest", golden, out, corpus=corpus))
    if value is None:
        assert code == 0
        rows = (out / "01_ingest" / "studies.jsonl").read_text(encoding="utf-8").splitlines()[1:]
        ids = {json.loads(row)["study_id"] for row in rows}
        assert "None" not in ids and "NCT00000150" not in ids
    else:
        assert code == 2
        assert capsys.readouterr().err == f"invalid input: {doc_path}: nctId is {value!r}, expected str or null\n"


def test_invalid_study_stops_dedupe_alike_in_memory_and_from_file(golden, tmp_path, capsys, monkeypatch):
    # ingest writes an invalid study; dedupe refuses it whether ingest ran in
    # the same run (handed over in memory) or in an earlier one (read back)
    parse = pipeline.extract_pubmed_study
    monkeypatch.setattr(pipeline, "extract_pubmed_study", lambda record: replace(parse(record), actual_accrual=-5))
    message = "invalid input: invalid CanonicalStudy: actual_accrual: must be positive, got -5\n"

    in_memory = tmp_path / "in_memory"
    assert main(pipeline_argv("run-all", golden, in_memory)) == 2
    assert capsys.readouterr().err == message

    from_file = tmp_path / "from_file"
    assert main(pipeline_argv("ingest", golden, from_file)) == 0
    capsys.readouterr()
    assert main(pipeline_argv("run-all", golden, from_file)) == 2
    assert capsys.readouterr().err == message

    for out in (in_memory, from_file):
        assert (out / "01_ingest" / "manifest.json").is_file()
        assert (out / "02_dedupe").is_dir()
        assert not (out / "02_dedupe" / "manifest.json").exists()


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
