import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trialforge.cli import main
from trialforge.clients import (
    MODES,
    SERVICES,
    ReplayStore,
    ServiceClient,
    annotator_callable,
    canonical_request,
    llm_callable,
    pubmed_search_callable,
    request_hash,
    rxnorm_callable,
)
from trialforge.config import load_config, parse_config_text
from trialforge.errors import (
    ClientUnavailable,
    ForeignKeyViolation,
    LiveCallForbidden,
    MalformedResponse,
    ReplayMiss,
)
from trialforge.pipeline import PipelineSettings, run_pipeline
from trialforge.store import (
    TABLE_COLUMNS,
    TABLE_ORDER,
    escape_cell,
    read_database,
    table_row,
    unescape_cell,
    verify_manifest,
    write_database,
)
from trialforge.ontology.biomarkers import BiomarkerMatch
from trialforge.ontology.endpoints import EndpointClassification
from trialforge.schema import CanonicalStudy, GenderLabel, PhaseLabel, Source, StudyType


class TestRequestHashing:
    def test_key_order_irrelevant(self):
        assert request_hash({"a": 1, "b": 2}) == request_hash({"b": 2, "a": 1})

    def test_distinct_requests_distinct_hashes(self):
        assert request_hash({"q": "x"}) != request_hash({"q": "y"})

    def test_canonical_form_is_tight(self):
        assert canonical_request({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def recording_transport(log):
    def transport(service, request):
        log.append((service, request))
        return {"echo": request, "n": len(log)}

    return transport


class TestServiceClient:
    def test_record_then_replay(self, tmp_path):
        log = []
        store = ReplayStore(tmp_path)
        client = ServiceClient("record", store, recording_transport(log))
        first = client.call("llm", {"prompt": "hi"})
        second = client.call("llm", {"prompt": "hi"})
        assert first == second
        assert client.live_calls == 1
        assert len(store.entries("llm")) == 1

        replayer = ServiceClient("replay", store)
        assert replayer.call("llm", {"prompt": "hi"}) == first
        assert replayer.live_calls == 0

    def test_replay_miss_names_hash(self, tmp_path):
        client = ServiceClient("replay", ReplayStore(tmp_path))
        request = {"prompt": "never recorded"}
        with pytest.raises(ReplayMiss) as excinfo:
            client.call("llm", request)
        assert request_hash(request) in str(excinfo.value)

    def test_offline_miss_is_live_call_forbidden(self, tmp_path):
        client = ServiceClient("offline", ReplayStore(tmp_path))
        with pytest.raises(LiveCallForbidden) as excinfo:
            client.call("rxnorm", {"op": "rxcui", "name": "aspirin"})
        assert "rxnorm" in str(excinfo.value)

    def test_offline_serves_recorded(self, tmp_path):
        store = ReplayStore(tmp_path)
        digest = request_hash({"q": "a"})
        store.put("pubmed_search", digest, {"q": "a"}, {"ids": [1, 2]})
        client = ServiceClient("offline", store)
        assert client.call("pubmed_search", {"q": "a"}) == {"ids": [1, 2]}

    def test_unknown_service_and_mode(self, tmp_path):
        store = ReplayStore(tmp_path)
        with pytest.raises(ValueError):
            ServiceClient("live", store)
        client = ServiceClient("replay", store)
        with pytest.raises(ValueError):
            client.call("geocoder", {})

    def test_record_requires_transport(self, tmp_path):
        client = ServiceClient("record", ReplayStore(tmp_path))
        with pytest.raises(ValueError):
            client.call("llm", {"prompt": "x"})

    def test_transport_oserror_wrapped(self, tmp_path):
        def broken(service, request):
            raise ConnectionError("refused")

        client = ServiceClient("record", ReplayStore(tmp_path), broken)
        with pytest.raises(ClientUnavailable):
            client.call("llm", {"prompt": "x"})

    def test_store_file_keeps_request_for_debugging(self, tmp_path):
        store = ReplayStore(tmp_path)
        client = ServiceClient("record", store, recording_transport([]))
        client.call("annotator", {"text": "diabetes"})
        digest = request_hash({"text": "diabetes"})
        payload = json.loads((tmp_path / "annotator" / f"{digest}.json").read_text())
        assert payload["request"] == {"text": "diabetes"}
        assert payload["service"] == "annotator"

    def test_adapters(self, tmp_path):
        store = ReplayStore(tmp_path)
        store.put("llm", request_hash({"prompt": "p"}), {"prompt": "p"}, {"text": "out"})
        store.put("rxnorm", request_hash({"op": "rxcui"}), {"op": "rxcui"}, {"rxcui": "1"})
        store.put("annotator", request_hash({"text": "t"}), {"text": "t"}, {"annotations": []})
        store.put(
            "pubmed_search",
            request_hash({"query": "amd", "k": 500}),
            {"query": "amd", "k": 500},
            {"ids": ["111", "222"]},
        )
        client = ServiceClient("replay", store)
        assert llm_callable(client)("p") == "out"
        assert rxnorm_callable(client)({"op": "rxcui"}) == {"rxcui": "1"}
        assert annotator_callable(client)({"text": "t"}) == {"annotations": []}
        assert pubmed_search_callable(client)("amd") == ["111", "222"]

    def test_constants(self):
        assert SERVICES == ("rxnorm", "annotator", "pubmed_search", "llm")
        assert MODES == ("record", "replay", "offline")


class TestReplayStoreDurability:
    def test_served_holds_sha256_of_the_bytes_on_disk(self, tmp_path):
        request = {"prompt": "x"}
        digest = request_hash(request)
        writer = ReplayStore(tmp_path)
        path = writer.put("llm", digest, request, {"text": "é"})
        key = f"llm/{digest}.json"
        assert writer.served == {key: hashlib.sha256(path.read_bytes()).hexdigest()}
        reader = ReplayStore(tmp_path)
        path.write_bytes(path.read_bytes() + b"\n")
        assert reader.get("llm", digest) == {"text": "é"}
        assert reader.served == {key: hashlib.sha256(path.read_bytes()).hexdigest()}

    def test_put_failing_mid_dump_leaves_no_fixture(self, tmp_path):
        store = ReplayStore(tmp_path)
        digest = request_hash({"prompt": "x"})
        # a response that cannot be encoded leaves no fixture and no temp file
        with pytest.raises(TypeError):
            store.put("llm", digest, {"prompt": "x"}, {"a": "partial", "z": object()})
        assert not (tmp_path / "llm" / f"{digest}.json").exists()
        assert not store.has("llm", digest)
        assert store.entries("llm") == []
        assert list((tmp_path / "llm").iterdir()) == []
        # a temp file left by a killed writer is invisible to lookups
        (tmp_path / "llm" / f"{digest}.json.tmp").write_text('{"resp', encoding="utf-8")
        assert not store.has("llm", digest)
        assert store.entries("llm") == []

    @pytest.mark.parametrize(
        "text",
        ['{"service": "llm", "resp', '{"request": {}}\n', "[]\n"],
        ids=["truncated", "no-response-key", "not-an-object"],
    )
    def test_malformed_fixture_is_client_error(self, tmp_path, text):
        store = ReplayStore(tmp_path)
        digest = request_hash({"prompt": "x"})
        (tmp_path / "llm").mkdir()
        (tmp_path / "llm" / f"{digest}.json").write_text(text, encoding="utf-8")
        with pytest.raises(MalformedResponse):
            ServiceClient("replay", store).call("llm", {"prompt": "x"})

    def test_record_mode_records_a_malformed_fixture_again(self, tmp_path, caplog):
        request = {"prompt": "x"}
        digest = request_hash(request)
        path = tmp_path / "llm" / f"{digest}.json"
        path.parent.mkdir()
        path.write_text('{"service": "llm", "resp', encoding="utf-8")
        log = []
        client = ServiceClient("record", ReplayStore(tmp_path), recording_transport(log))
        with caplog.at_level("WARNING", logger="trialforge.clients"):
            response = client.call("llm", request)
        assert client.live_calls == 1 and log == [("llm", request)]
        assert "unreadable fixture" in caplog.text
        assert ServiceClient("replay", ReplayStore(tmp_path)).call("llm", request) == response

    def test_record_run_repairs_a_truncated_fixture(self, golden, tmp_path):
        replay = shutil.copytree(golden.replay, tmp_path / "replay")
        [name] = ReplayStore(replay).entries("rxnorm")
        fixture = replay / "rxnorm" / f"{name}.json"
        fixture.write_bytes(fixture.read_bytes()[:40])
        settings = PipelineSettings(
            corpus_dir=golden.corpus, out_dir=tmp_path / "out", seed=golden.seed,
            mode="record", replay_dir=replay, allow_small_split=True,
        )
        summary = run_pipeline(settings, transports=golden.transports)
        assert summary["live_calls"] == {"annotator": 0, "llm": 0, "rxnorm": 1}
        assert fixture.read_bytes() == (golden.replay / "rxnorm" / f"{name}.json").read_bytes()
        def tree(root):
            return {path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}

        assert tree(tmp_path / "out") == tree(golden.record_out)

    def test_truncated_fixture_exits_with_client_error(self, golden, tmp_path, monkeypatch, capsys):
        for name in list(os.environ):
            if name.startswith("FORGE_"):
                monkeypatch.delenv(name)
        replay = tmp_path / "replay"
        shutil.copytree(golden.replay, replay)
        fixture = replay / "rxnorm" / f"{ReplayStore(replay).entries('rxnorm')[0]}.json"
        fixture.write_bytes(fixture.read_bytes()[:40])
        argv = [
            "run-all",
            "--corpus", str(golden.corpus),
            "--out", str(tmp_path / "out"),
            "--seed", str(golden.seed),
            "--mode", "replay",
            "--replay-dir", str(replay),
            "--allow-small",
        ]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("client error: ")
        assert "unreadable fixture" in err


class TestConfig:
    def test_parse_and_types(self):
        text = "\n".join(
            [
                "# pipeline knobs",
                "corpus_dir = corpus",
                "seed = 7",
                'out_dir = "/tmp/out"',
                "dedupe_threshold = 0.9",
                "allow_small_split = yes",
                "vocab_dir = '/data/vocab'",
                "workers = 4",
                "",
                "mode=offline",
            ]
        )
        values = parse_config_text(text)
        assert values["out_dir"] == "/tmp/out"
        assert values["seed"] == "7"
        settings = PipelineSettings.from_config(values)
        assert settings.seed == 7
        assert settings.out_dir == Path("/tmp/out")
        assert settings.dedupe_threshold == 0.9
        assert settings.allow_small_split is True
        assert settings.vocab_dir == Path("/data/vocab")
        assert settings.mode == "offline"
        # absent keys keep the dataclass defaults; `workers` names no setting
        assert settings.mapping_dir is None
        assert settings.split_test_size == 1000

    def test_bad_lines(self):
        with pytest.raises(ValueError):
            parse_config_text("just words")
        with pytest.raises(ValueError):
            parse_config_text("= value")

    def test_bad_bool(self):
        with pytest.raises(ValueError, match="config key 'allow_small_split' has non-boolean value 'maybe'"):
            PipelineSettings.from_config({"corpus_dir": "c", "out_dir": "o", "allow_small_split": "maybe"})

    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("seed", "seven", "invalid literal"),
            ("dedupe_threshold", "high", "could not convert"),
            ("awaiting", "fold", "awaiting mode"),
            ("mode", "live", "mode must be one of"),
        ],
    )
    def test_bad_values(self, key, raw, message):
        with pytest.raises(ValueError, match=message):
            PipelineSettings.from_config({"corpus_dir": "c", "out_dir": "o", key: raw})

    def test_corpus_and_out_are_required(self):
        with pytest.raises(ValueError, match="corpus_dir and out_dir"):
            PipelineSettings.from_config({"out_dir": "o", "seed": "7"})

    def test_env_override_wins(self, tmp_path):
        path = tmp_path / "forge.cfg"
        path.write_text("seed = 7\nmode = replay\n")
        values = load_config(path, env={"FORGE_SEED": "99", "HOME": "/root"})
        assert values == {"seed": "99", "mode": "replay"}

    def test_env_only(self):
        values = load_config(env={"FORGE_VOCAB_DIR": "/data/vocab", "FORGE_": "x"})
        assert values == {"vocab_dir": "/data/vocab"}


def minimal_bundle():
    study = table_row("studies", CanonicalStudy(study_id="NCT1", source=Source.CTGOV, title="T"))
    return {
        "studies": [study],
        "conditions": [
            {"study_id": "NCT1", "mesh_id": "D003924", "mesh_term": "Diabetes", "mesh_type": "mesh-list"}
        ],
    }


class TestEscaping:
    @given(st.text(max_size=200))
    def test_roundtrip(self, text):
        assert unescape_cell(escape_cell(text)) == text

    def test_tab_newline_visible(self):
        assert escape_cell("a\tb\nc\\d\re") == "a\\tb\\nc\\\\d\\re"


class TestTableRow:
    def test_study_cells(self):
        study = CanonicalStudy(
            study_id="NCT1",
            source=Source.CTGOV,
            title="T",
            study_type=StudyType.INTERVENTIONAL,
            start_year=2019,
            phases={PhaseLabel.PHASE2},
            gender=GenderLabel.BOTH,
            healthy_volunteers=False,
            target_accrual=0,
            flagged=True,
        )
        row = table_row("studies", study)
        assert list(row) == list(TABLE_COLUMNS["studies"])
        assert row["source"] == "CTGOV"
        assert row["study_type"] == "INTERVENTIONAL"
        assert row["start_year"] == "2019"
        assert row["phases"] == "PHASE2"
        assert row["gender"] == "MALE/FEMALE"
        assert row["min_age"] == ""
        assert row["healthy_volunteers"] == "false"
        assert row["target_accrual"] == "0"
        assert row["actual_accrual"] == ""
        assert row["results_text"] == ""
        assert row["flagged"] == "true"

    def test_phases_sorted_under_any_hash_seed(self):
        script = (
            "from trialforge.schema import CanonicalStudy, PhaseLabel, Source\n"
            "from trialforge.store import table_row\n"
            "phases = {PhaseLabel.PHASE1, PhaseLabel.PHASE2, PhaseLabel.PHASE3}\n"
            "study = CanonicalStudy(study_id='NCT1', source=Source.CTGOV, phases=phases)\n"
            "print(table_row('studies', study)['phases'])\n"
        )
        src_dir = str(Path(table_row.__code__.co_filename).resolve().parents[1])
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src_dir)
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            assert done.stdout.strip() == "PHASE1|PHASE2|PHASE3", seed

    def test_tuple_order_kept_and_extra_fields_layered(self):
        match = BiomarkerMatch("her2", "HER2", "protein", "predictive", ("ERBB2", "ABL1"), "exact")
        row = table_row("biomarkers", match, study_id="NCT1")
        assert row["biomarker_genes"] == "ERBB2|ABL1"
        assert row["study_id"] == "NCT1"
        endpoint = EndpointClassification(outcome="Overall survival", domain="Mortality/survival", subdomain=None)
        row = table_row("endpoints", endpoint, study_id="NCT1", outcome_text=endpoint.outcome)
        assert row == {
            "study_id": "NCT1",
            "outcome_text": "Overall survival",
            "domain": "Mortality/survival",
            "subdomain": "",
        }

    def test_unsupported_cell_type_raises(self):
        # e.g. an LLM answer whose label is a list or a number, not a string
        for domain, subdomain, kind in ((["Physiological"], None, "list"), ("Physiological", 1.5, "float")):
            endpoint = EndpointClassification("x", domain, subdomain)
            with pytest.raises(TypeError, match=kind):
                table_row("endpoints", endpoint, study_id="NCT1", outcome_text="x")


class TestWriteDatabase:
    def test_empty_input_header_only(self, tmp_path):
        bundle = write_database({}, tmp_path / "db")
        assert set(bundle.counts.values()) == {0}
        for name in TABLE_ORDER:
            lines = (tmp_path / "db" / f"{name}.tsv").read_text().splitlines()
            assert lines == ["\t".join(TABLE_COLUMNS[name])]
        manifest = (tmp_path / "db" / "manifest.tsv").read_text().splitlines()
        assert manifest[0] == "table\trows\tsha256"
        assert len(manifest) == 1 + len(TABLE_ORDER) + 1  # header + tables + bundle line

    def test_roundtrip_with_hostile_cells(self, tmp_path):
        tables = minimal_bundle()
        tables["studies"][0]["brief_summary"] = "line one\nline two\twith tab\\and slash"
        write_database(tables, tmp_path / "db")
        back = read_database(tmp_path / "db")
        assert back["studies"] == tables["studies"]
        assert back["conditions"] == tables["conditions"]

    def test_random_roundtrip(self, tmp_path):
        rng = random.Random(13)
        alphabet = "ab\t\n\\\"'x "
        studies = []
        for index in range(20):
            row = table_row("studies", CanonicalStudy(study_id=f"S{index:03d}", source=Source.ISRCTN, title="t"))
            row["title"] = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            studies.append(row)
        write_database({"studies": studies}, tmp_path / "db")
        back = read_database(tmp_path / "db")
        assert back["studies"] == sorted(studies, key=lambda r: r["study_id"])

    def test_two_runs_byte_identical(self, tmp_path):
        tables = minimal_bundle()
        write_database(tables, tmp_path / "one")
        write_database(tables, tmp_path / "two")
        for name in list(TABLE_ORDER) + ["manifest"]:
            first = (tmp_path / "one" / f"{name}.tsv").read_bytes()
            second = (tmp_path / "two" / f"{name}.tsv").read_bytes()
            assert first == second, name

    def test_rows_sorted_by_key(self, tmp_path):
        rows = [
            table_row("studies", CanonicalStudy(study_id=sid, source=Source.CTGOV, title="t"))
            for sid in ["NCT3", "NCT1", "NCT2"]
        ]
        write_database({"studies": rows}, tmp_path / "db")
        back = read_database(tmp_path / "db")
        assert [row["study_id"] for row in back["studies"]] == ["NCT1", "NCT2", "NCT3"]

    def test_foreign_key_violation_writes_nothing(self, tmp_path):
        tables = minimal_bundle()
        tables["conditions"][0]["study_id"] = "NCT-GHOST"
        out = tmp_path / "db"
        with pytest.raises(ForeignKeyViolation) as excinfo:
            write_database(tables, out)
        assert "NCT-GHOST" in str(excinfo.value)
        assert not out.exists()

    def test_duplicate_key_rejected(self, tmp_path):
        row = table_row("studies", CanonicalStudy(study_id="NCT1", source=Source.CTGOV, title="t"))
        with pytest.raises(ValueError):
            write_database({"studies": [row, dict(row)]}, tmp_path / "db")

    def test_bad_shape_and_type(self, tmp_path):
        with pytest.raises(ValueError):
            write_database({"conditions": [{"study_id": "NCT1"}]}, tmp_path / "db")
        tables = minimal_bundle()
        tables["conditions"][0]["mesh_id"] = 42
        with pytest.raises(TypeError):
            write_database(tables, tmp_path / "db")
        with pytest.raises(ValueError):
            write_database({"not_a_table": []}, tmp_path / "db")

    def test_verify_manifest(self, tmp_path):
        write_database(minimal_bundle(), tmp_path / "db")
        assert verify_manifest(tmp_path / "db") == []
        path = tmp_path / "db" / "conditions.tsv"
        path.write_text(path.read_text() + "NCT1\tD0\tx\tmesh-list\n")
        problems = verify_manifest(tmp_path / "db")
        assert any("conditions" in p for p in problems)

    def test_verify_missing_manifest(self, tmp_path):
        assert verify_manifest(tmp_path) == ["manifest missing"]
