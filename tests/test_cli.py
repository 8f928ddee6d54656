import json
import os
import shutil

from dataclasses import replace

import pytest

from trialforge import DATA_DIR, pipeline
from trialforge.cli import STAGE_VERBS, main
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

def test_stage_verbs_come_from_the_stage_table():
    assert STAGE_VERBS == {
        "ingest": "ingest",
        "dedupe": "dedupe",
        "link": "link",
        "extract": "extract",
        "graph": "graph",
        "build-db": "database",
        "gen-bench": "benchmarks",
        "run-all": "benchmarks",
    }


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
        ("dedupe_threshold = -0.5", "dedupe_threshold must be in (0, 1]"),
        ("dedupe_threshold = 0", "dedupe_threshold must be in (0, 1]"),
        ("dedupe_threshold = nan", "dedupe_threshold must be in (0, 1]"),
        ("dedupe_threshold = 1.5", "dedupe_threshold must be in (0, 1]"),
        ("split_test_size = -1", "split_test_size must be at least 0"),
        ("split_validation_size = -1", "split_validation_size must be at least 0"),
        ("search_test_size = -1", "search_test_size must be at least 0"),
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
            argv += ["--item", '{"task": "sample_size", "answer": 1}', str(tmp_path / "response.txt")]
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


def test_two_ctgov_files_with_one_nct_id_exit_2_naming_both(golden, tmp_path, capsys):
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    original = corpus / "ctgov" / "NCT00000150.json"
    doc = json.loads(original.read_text(encoding="utf-8"))
    doc["protocolSection"]["identificationModule"]["briefTitle"] = "A second copy of this trial"
    copy = corpus / "ctgov" / "NCT00000150-copy.json"
    copy.write_text(json.dumps(doc), encoding="utf-8")
    assert main(pipeline_argv("ingest", golden, tmp_path / "out", corpus=corpus)) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ")
    assert str(original) in err and str(copy) in err
    assert "NCT00000150" in err


@pytest.mark.parametrize("rel, key", [("reviews/index.json", "pmid"), ("protocols/pairs.json", "nct_id")])
def test_two_entries_with_one_id_exit_2_naming_both(golden, tmp_path, capsys, rel, key):
    # used to exit 0 and write that review's or trial's benchmark items twice under one item id
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    entries = json.loads((corpus / rel).read_text(encoding="utf-8"))
    ident = entries[1][key]
    entries.append({**entries[1], key: f" {ident} "})
    (corpus / rel).write_text(json.dumps(entries), encoding="utf-8")
    assert main(pipeline_argv("run-all", golden, tmp_path / "out", corpus=corpus)) == 2
    assert capsys.readouterr().err == f"invalid input: {corpus / rel}: entries 1 and 3 both hold {key} {ident!r}\n"


def test_two_articles_with_one_pmid_are_left_to_dedupe(golden, tmp_path, capsys):
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    rel = corpus / "pubmed" / "articles.json"
    entries = json.loads(rel.read_text(encoding="utf-8"))
    rel.write_text(json.dumps(entries + entries[:1]), encoding="utf-8")
    assert main(pipeline_argv("ingest", golden, tmp_path / "out", corpus=corpus)) == 0
    assert f'"pubmed": {len(entries) + 1}' in capsys.readouterr().out


@pytest.mark.parametrize("cells, message", [
    # a null id and title used to read as the text 'None', unflagged, and pass the id check
    ({"Registration number": None, "Public title": None}, "entry 0 has no 'Registration number'"),
    ({"Public title": ["Aflibercept"]}, "entry 0: Public title is ['Aflibercept'], expected str, int, float or null"),
    ({"Target sample size": True}, "entry 0: Target sample size is True, expected str, int, float or null"),
], ids=["null-id", "list-title", "boolean-size"])
def test_malformed_registry_cell_is_invalid_input(golden, tmp_path, capsys, cells, message):
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    path = corpus / "registry" / "ANZCTR.json"
    rows = json.loads(path.read_text(encoding="utf-8"))
    rows[0].update(cells)
    path.write_text(json.dumps(rows), encoding="utf-8")
    assert main(pipeline_argv("ingest", golden, tmp_path / "out", corpus=corpus)) == 2
    assert capsys.readouterr().err == f"invalid input: {path}: {message}\n"


def test_wrong_typed_annotator_fixture_exits_3(golden, tmp_path, capsys):
    # a list mesh_id used to stop the run with TypeError: unhashable type: 'list' (exit 1)
    replay = shutil.copytree(golden.replay, tmp_path / "replay")
    for fixture in sorted((replay / "annotator").glob("*.json")):
        payload = json.loads(fixture.read_text(encoding="utf-8"))
        if payload["response"]["annotations"]:
            break
    payload["response"]["annotations"][0]["mesh_id"] = ["D003924"]
    fixture.write_text(json.dumps(payload), encoding="utf-8")
    assert main(pipeline_argv("run-all", golden, tmp_path / "out", **{"replay-dir": replay})) == 3
    err = capsys.readouterr().err
    assert err.startswith("client error: stage link: annotator answer for ")
    assert err.endswith(": annotations[0].mesh_id is ['D003924'], expected str\n")


@pytest.mark.parametrize("rel, key, value, message", [
    ("reviews/index.json", "pmid", None, "entry 0 has no 'pmid'"),
    ("protocols/pairs.json", "nct_id", None, "entry 0 has no 'nct_id'"),
    ("protocols/pairs.json", "registry_enrollment", None, "entry 0 has no 'registry_enrollment'"),
    ("protocols/pairs.json", "registry_enrollment", "about 80", "entry 0: registry_enrollment is 'about 80', expected int"),
    # these used to crash with a TypeError, reach a service as a request no store holds,
    # give the article a start year of 1, or drop a sample-size item without a word
    ("pubmed/articles.json", "accession_numbers", 5, "entry 0: accession_numbers is 5, expected list or null"),
    ("pubmed/articles.json", "title", {"en": "Lamotrigine"}, "entry 0: title is {'en': 'Lamotrigine'}, expected str or null"),
    ("pubmed/articles.json", "year", True, "entry 0: year is True, expected int or null"),
    ("reviews/index.json", "review_text", 7, "entry 0: review_text is 7, expected str or null"),
    ("protocols/pairs.json", "section_text", ["84"], "entry 0: section_text is ['84'], expected str or null"),
], ids=[
    "review-pmid", "pair-nct-id", "pair-enrollment", "pair-enrollment-text", "article-accession-numbers-number",
    "article-title-object", "article-year-boolean", "review-text-number", "pair-section-text-array",
])
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


@pytest.mark.parametrize("ids", ["padded", "integer"])
def test_corpus_entry_ids_are_read_once_as_stripped_text(golden, tmp_path, ids):
    # the review XML file name and ingest strip a review id; graph and benchmarks
    # used to key on it as written and lost that review's items
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    for rel, key in (("reviews/index.json", "pmid"), ("pubmed/articles.json", "pmid"), ("protocols/pairs.json", "nct_id")):
        entries = json.loads((corpus / rel).read_text(encoding="utf-8"))
        for entry in entries:
            if ids == "padded":
                entry[key] = f" {entry[key]}\t"
            elif entry[key].isdigit():
                entry[key] = int(entry[key])
        (corpus / rel).write_text(json.dumps(entries), encoding="utf-8")
    benchmarks = {}
    for name, source in (("golden", golden.corpus), (ids, corpus)):
        assert main(pipeline_argv("run-all", golden, tmp_path / name, corpus=source)) == 0
        benchmarks[name] = {path.name: path.read_bytes() for path in (tmp_path / name / "07_benchmarks").glob("*.jsonl")}
    assert len(benchmarks["golden"]) == 8
    assert benchmarks[ids] == benchmarks["golden"]


@pytest.mark.parametrize("name", ["drugbank_brands.tsv", "meddra_llt.tsv"])
def test_vocab_dir_without_a_file_a_loader_reads_exits_2_naming_it(golden, tmp_path, capsys, name):
    vocab = shutil.copytree(DATA_DIR / "vocab", tmp_path / "vocab")
    (vocab / name).unlink()
    config = tmp_path / "forge.cfg"
    config.write_text(f"vocab_dir = {vocab}\n", encoding="utf-8")
    assert main(pipeline_argv("run-all", golden, tmp_path / "out", config=config)) == 2
    assert capsys.readouterr().err == f"invalid input: {vocab / name}: no such vocabulary file\n"


def test_mapping_without_fields_exits_2_naming_file_and_key(golden, tmp_path, capsys):
    # such a mapping used to crash ingest with KeyError: 'fields'
    mappings = shutil.copytree(DATA_DIR / "sources", tmp_path / "sources")
    mapping = json.loads((mappings / "anzctr.json").read_text(encoding="utf-8"))
    del mapping["fields"]
    (mappings / "anzctr.json").write_text(json.dumps(mapping), encoding="utf-8")
    config = tmp_path / "forge.cfg"
    config.write_text(f"mapping_dir = {mappings}\n", encoding="utf-8")
    assert main(pipeline_argv("ingest", golden, tmp_path / "out", config=config)) == 2
    expected = f"invalid input: {mappings / 'anzctr.json'}: 'fields' must be an object of column names or nulls\n"
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("site, rel", [
    ("corpus", "pubmed/articles.json"),
    ("corpus", "ctgov/NCT00000150.json"),
    ("sources", "anzctr.json"),
], ids=["articles", "ctgov-doc", "mapping"])
def test_json_that_does_not_parse_exits_2_naming_its_file(golden, tmp_path, capsys, site, rel):
    # such a file used to print only the decoder's message, with no path
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    mappings = shutil.copytree(DATA_DIR / "sources", tmp_path / "sources")
    path = (corpus if site == "corpus" else mappings) / rel
    path.write_text(path.read_text(encoding="utf-8")[:20], encoding="utf-8")
    config = tmp_path / "forge.cfg"
    config.write_text(f"mapping_dir = {mappings}\n", encoding="utf-8")
    assert main(pipeline_argv("ingest", golden, tmp_path / "out", corpus=corpus, config=config)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {path}: "), err
    assert "(char " in err


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
    (["protocolSection", "armsInterventionsModule", "interventions"], "oops", "interventions is 'oops', expected list or null"),
    (["protocolSection", "armsInterventionsModule", "armGroups"], "oops", "armGroups is 'oops', expected list or null"),
    (["resultsSection"], "oops", "resultsSection is 'oops', expected dict or null"),
    (["protocolSection", "eligibilityModule", "eligibilityCriteria"], {"x": 1}, "eligibilityCriteria is {'x': 1}, expected str or null"),
    (["protocolSection", "armsInterventionsModule", "interventions", 0, "name"], ["x"], "interventions[0].name is ['x'], expected str or null"),
], ids=[
    "protocol-section-null", "status-module-null", "phases-null", "overall-status-object", "brief-title-number",
    "brief-summary-array", "study-type-number", "sex-array", "primary-outcome-text", "start-date-number",
    "enrollment-type-number", "enrollment-count-boolean", "interventions-text", "arm-groups-text",
    "results-section-text", "eligibility-object", "intervention-name-array",
])
def test_ctgov_value_of_another_shape(golden, tmp_path, capsys, path, value, message):
    # a null object reads as empty; any other shape is refused at ingest, before a later
    # stage trips over it or writes it into items and service requests
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
    # a null leaves the id to identificationModule.nctId; a number or an array is refused
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
        assert "None" not in ids and "NCT00000150" in ids
    else:
        assert code == 2
        assert capsys.readouterr().err == f"invalid input: {doc_path}: nctId is {value!r}, expected str or null\n"


@pytest.mark.parametrize("top, inner, message", [
    ("NCT00056836", "NCT09999999", "nctId 'NCT00056836' and identificationModule.nctId 'NCT09999999' differ"),
    (None, None, "no nctId"),
    ("", " ", "no nctId"),
    (None, 7, "identificationModule.nctId is 7, expected str or null"),
], ids=["ids-differ", "no-id", "blank-ids", "inner-id-number"])
def test_ctgov_study_id_is_one_nct_id(golden, tmp_path, capsys, top, inner, message):
    # with two ids the study and its disposition rows could be keyed apart;
    # a document without an id must not be dropped silently
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    doc_path = corpus / "ctgov" / "NCT00056836.json"
    doc = json.loads(doc_path.read_text(encoding="utf-8"))
    doc["nctId"] = top
    doc["protocolSection"]["identificationModule"]["nctId"] = inner
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(pipeline_argv("run-all", golden, tmp_path / "out", corpus=corpus)) == 2
    assert capsys.readouterr().err == f"invalid input: {doc_path}: {message}\n"


def test_ctgov_study_id_may_come_from_the_identification_module(golden, tmp_path):
    # CT.gov API v2 documents carry the id only there
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    for doc_path in (corpus / "ctgov").glob("*.json"):
        doc = json.loads(doc_path.read_text(encoding="utf-8"))
        del doc["nctId"]
        doc_path.write_text(json.dumps(doc), encoding="utf-8")
    summaries = []
    for name, source in (("golden", golden.corpus), ("inner", corpus)):
        assert main(pipeline_argv("run-all", golden, tmp_path / name, corpus=source)) == 0
        summaries.append(json.loads((tmp_path / name / "06_database" / "manifest.json").read_text(encoding="utf-8")))
    assert summaries[0]["counts"] == summaries[1]["counts"]
    assert summaries[0]["outputs"] == summaries[1]["outputs"]


def test_ctgov_stop_reason_of_another_shape_exits_2(golden, tmp_path, capsys):
    # the terminated trial must not be labelled from the text "['x']"
    corpus = shutil.copytree(golden.corpus, tmp_path / "corpus")
    doc_path = corpus / "ctgov" / "NCT02823470.json"
    doc = json.loads(doc_path.read_text(encoding="utf-8"))
    assert doc["protocolSection"]["statusModule"]["overallStatus"] == "TERMINATED"
    doc["protocolSection"]["statusModule"]["whyStopped"] = ["x"]
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(pipeline_argv("run-all", golden, tmp_path / "out", corpus=corpus)) == 2
    assert capsys.readouterr().err == "invalid input: CT.gov study NCT02823470: whyStopped is ['x'], expected str or null\n"


ANZCTR_ROW_WITHOUT_ID = {"Registration number": " ", "Public title": "Aflibercept for macular edema"}
ARTICLE_WITHOUT_ID = {"pmid": "", "title": "Lamotrigine in partial epilepsy"}


@pytest.mark.parametrize("registry, articles, rel, message", [
    ([ANZCTR_ROW_WITHOUT_ID], [ARTICLE_WITHOUT_ID], "registry/ANZCTR.json", "entry 0 has no 'Registration number'"),
    ([], [ARTICLE_WITHOUT_ID], "pubmed/articles.json", "entry 0 has no 'pmid'"),
], ids=["registry-row", "pubmed-article"])
def test_record_without_an_id_is_invalid_input(tmp_path, capsys, registry, articles, rel, message):
    # such records would pass dedupe as flagged and collide in the studies
    # table as "duplicate key ('',)"
    corpus = tmp_path / "corpus"
    for name, rows in (("registry/ANZCTR.json", registry), ("pubmed/articles.json", articles)):
        (corpus / name).parent.mkdir(parents=True)
        (corpus / name).write_text(json.dumps(rows), encoding="utf-8")
    argv = ["run-all", "--corpus", str(corpus), "--out", str(tmp_path / "out"), "--replay-dir", str(tmp_path / "replay")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"invalid input: {corpus / rel}: {message}\n"


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

def reward_argv(task, answer, response_path, **extra):
    item = {"id": f"{task}:x", "task": task, "answer": json.loads(answer)}
    argv = ["reward", "--item", json.dumps(item), str(response_path)]
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


def test_reward_scores_an_mcq_item_as_gen_bench_writes_it(tmp_path, capsys):
    item = {
        "id": "arm_design:NCT1",
        "task": "arm_design",
        "instruction": "pick",
        "input": "trial",
        "options": ["a", "b", "c", "d"],
        "answer": "B",
        "provenance": {},
    }
    response = tmp_path / "response.txt"
    response.write_text("<answer>B</answer>", encoding="utf-8")
    assert main(["reward", "--item", json.dumps(item), str(response)]) == 0
    outcome = json.loads(capsys.readouterr().out)
    assert outcome["performance"] == 1.0
    assert outcome["total"] == pytest.approx(1.1)


@pytest.mark.parametrize("item, message", [
    ("not json", "invalid input: "),
    ('["sample_size", 100]', "invalid input: benchmark record of unknown task None"),
    ('{"task": "made_up", "answer": 1}', "invalid input: benchmark record of unknown task 'made_up'"),
    ('{"id": "sample_size:x", "task": "sample_size", "answer": "100"}', "invalid input: sample_size:x: task sample_size cannot score"),
], ids=["not-json", "not-object", "unknown-task", "text-answer"])
def test_reward_bad_item_is_invalid_input(tmp_path, capsys, item, message):
    response = tmp_path / "response.txt"
    response.write_text("<answer>100</answer>", encoding="utf-8")
    assert main(["reward", "--item", item, str(response)]) == 2
    assert capsys.readouterr().err.startswith(message)


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
