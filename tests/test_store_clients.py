import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from conftest import within_timeout

from trialforge import clients
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
    MalformedResponse,
    ReplayMiss,
)
from trialforge.pipeline import PipelineSettings, run_pipeline
from trialforge.store import (
    TABLE_COLUMNS,
    TABLE_ORDER,
    encode_escaped,
    encode_row,
    escape_cell,
    json_encoder,
    read_database,
    read_tsv,
    table_row,
    unescape_cell,
    verify_manifest,
    write_database,
    write_tsv,
)
from trialforge.ontology.biomarkers import BiomarkerMatch
from trialforge.ontology.endpoints import EndpointClassification
from trialforge.schema import CanonicalStudy, GenderLabel, PhaseLabel, Source, StudyType


class Text(str):
    """A ``str`` subclass, as the record enums (``Source``, ``StudyStatus``, ...) are."""


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.text().map(Text),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

#: NaN, both infinities, nested lists, non-ASCII text, DEL and str subclasses in one value.
JSON_EXAMPLE = {
    "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
    "enum": Source.CTGOV,
    "nested": [[1, [2, []]], {"k": ["\u00e9\u4e2d\U0001f600", "\x7f", "\x00\n\"\\"]}],
    Text("\u00fc"): Text("sub\x7fclass"),
}

#: Each encoder built with `json_encoder`, and the `json.dumps` options it stands for.
ROW_ENCODERS = [
    (encode_row, {"sort_keys": True, "ensure_ascii": False}),
    (encode_escaped, {"sort_keys": True}),
]
ENCODER_OPTIONS = [options for _, options in ROW_ENCODERS] + [
    {"sort_keys": True, "separators": (",", ":"), "ensure_ascii": False}
]


class TestRequestHashing:
    def test_key_order_irrelevant(self):
        assert request_hash({"a": 1, "b": 2}) == request_hash({"b": 2, "a": 1})

    def test_distinct_requests_distinct_hashes(self):
        assert request_hash({"q": "x"}) != request_hash({"q": "y"})

    def test_canonical_form_is_tight(self):
        assert canonical_request({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    @given(JSON_VALUES)
    @example(JSON_EXAMPLE)
    def test_canonical_form_is_the_json_dumps_form(self, payload):
        expected = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        assert canonical_request(payload) == expected


class TestJsonEncoder:
    @pytest.mark.parametrize("encode,options", ROW_ENCODERS, ids=["encode_row", "escaped sort key"])
    @given(value=JSON_VALUES)
    @example(value=JSON_EXAMPLE)
    @example(value="caf\u00e9 \x7f")
    @example(value=Text("top-level str subclass"))
    def test_row_encoders_are_their_json_dumps_form(self, encode, options, value):
        assert encode(value) == json.dumps(value, **options)

    @given(JSON_VALUES)
    @example(JSON_EXAMPLE)
    def test_without_the_accelerator_it_is_the_encode_method(self, value):
        with mock.patch.object(json.encoder, "c_make_encoder", None):
            for options in ENCODER_OPTIONS:
                encode = json_encoder(**options)
                assert encode.__func__ is json.JSONEncoder.encode
                assert encode(value) == json.dumps(value, **options)

    def test_indent_is_the_encode_method(self):
        value = {"b": [1, {"c": "\u00e9"}], "a": None}
        encode = json_encoder(indent=2, sort_keys=True)
        assert encode.__func__ is json.JSONEncoder.encode
        assert encode(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("accelerated", [True, False], ids=["c_make_encoder", "no accelerator"])
    @pytest.mark.parametrize("value", [object(), {"cells": {"a"}}, [b"bytes"], {"key": Path("p")}, {("a", "b"): 1}])
    def test_unserializable_value_raises_the_json_dumps_error(self, accelerated, value, monkeypatch):
        if not accelerated:
            monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        for options in ENCODER_OPTIONS:
            with pytest.raises(TypeError) as expected:
                json.dumps(value, **options)
            with pytest.raises(TypeError) as raised:
                json_encoder(**options)(value)
            assert str(raised.value) == str(expected.value)


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

    def test_unknown_service_and_mode(self, tmp_path):
        store = ReplayStore(tmp_path)
        with pytest.raises(ValueError):
            ServiceClient("live", store)
        client = ServiceClient("replay", store)
        with pytest.raises(ValueError):
            client.call("geocoder", {})

    def test_record_requires_transport(self, tmp_path):
        client = ServiceClient("record", ReplayStore(tmp_path))
        with pytest.raises(ClientUnavailable, match=f"llm:{request_hash({'prompt': 'x'})}: record mode has no llm transport"):
            client.call("llm", {"prompt": "x"})

    def test_transport_oserror_wrapped(self, tmp_path):
        def broken(service, request):
            raise ConnectionError("refused")

        client = ServiceClient("record", ReplayStore(tmp_path), broken)
        with pytest.raises(ClientUnavailable):
            client.call("llm", {"prompt": "x"})

    def test_unwritable_store_is_client_unavailable(self, tmp_path):
        (tmp_path / "llm").write_text("not a directory", encoding="utf-8")
        client = ServiceClient("record", ReplayStore(tmp_path), recording_transport([]))
        with pytest.raises(ClientUnavailable, match=f"llm:{request_hash({'prompt': 'x'})}: .*File exists"):
            client.call("llm", {"prompt": "x"})

    # record mode without a transport: the miss reaches the transport check
    @pytest.mark.parametrize("mode, error", [("replay", ReplayMiss), ("record", ClientUnavailable)])
    @pytest.mark.parametrize("occupant", ["directory", "fifo", "under-a-file"])
    def test_non_file_at_fixture_path_is_a_miss(self, tmp_path, mode, error, occupant):
        request = {"prompt": "x"}
        digest = request_hash(request)
        if occupant == "under-a-file":
            (tmp_path / "llm").write_text("not a directory", encoding="utf-8")
        else:
            (tmp_path / "llm").mkdir()
            fixture = tmp_path / "llm" / f"{digest}.json"
            fixture.mkdir() if occupant == "directory" else os.mkfifo(fixture)
        store = ReplayStore(tmp_path)
        # the probe must not open a FIFO, which would block
        assert within_timeout(lambda: store.has("llm", digest)) is False
        with pytest.raises(error, match=digest):
            ServiceClient(mode, store).call("llm", request)
        assert store.served == {}

    def test_unreadable_fixture_is_client_unavailable(self, tmp_path, monkeypatch):
        store = ReplayStore(tmp_path)
        store.put("llm", request_hash({"prompt": "x"}), {"prompt": "x"}, {"text": "y"})

        def unreadable(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        # `get` reads a fixture through the `open` the clients module sees
        monkeypatch.setattr(clients, "open", unreadable, raising=False)
        for mode in MODES:
            with pytest.raises(ClientUnavailable, match="Permission denied"):
                ServiceClient(mode, store, recording_transport([])).call("llm", {"prompt": "x"})

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

    def test_adapters_refuse_a_response_of_another_shape(self, tmp_path):
        store = ReplayStore(tmp_path)
        for prompt, response in [("no-text", {"txt": "out"}), ("number", {"text": 5}), ("bare", "out")]:
            store.put("llm", request_hash({"prompt": prompt}), {"prompt": prompt}, response)
        request = {"query": "amd", "k": 500}
        store.put("pubmed_search", request_hash(request), request, {"ids": "111"})
        client = ServiceClient("replay", store)
        for prompt, message in [("no-text", " has no 'text'"), ("number", ": text is 5, expected str"),
                                ("bare", " is 'out', expected dict")]:
            digest = request_hash({"prompt": prompt})
            with pytest.raises(MalformedResponse, match=f"^llm:{digest}{message}$"):
                llm_callable(client)(prompt)
        with pytest.raises(MalformedResponse, match="^pubmed_search:[0-9a-f]{64}: ids is '111', expected list$"):
            pubmed_search_callable(client)("amd")

    def test_constants(self):
        assert SERVICES == ("rxnorm", "annotator", "pubmed_search", "llm")
        assert MODES == ("record", "replay")


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

    @pytest.mark.parametrize("service, prompt", [
        ("rxnorm", None),
        ("annotator", None),
        # the outcome prompt used to fall back to the p-values on any client failure
        ("llm", "NCT ID NCT00056836"),
    ], ids=["rxnorm", "annotator", "llm-outcome"])
    def test_truncated_fixture_exits_with_client_error(self, golden, tmp_path, monkeypatch, capsys, service, prompt):
        for name in list(os.environ):
            if name.startswith("FORGE_"):
                monkeypatch.delenv(name)
        replay = shutil.copytree(golden.replay, tmp_path / "replay")
        fixture = next(
            path for path in sorted((replay / service).glob("*.json"))
            if prompt is None or prompt in json.loads(path.read_text(encoding="utf-8"))["request"]["prompt"]
        )
        fixture.write_bytes(fixture.read_bytes()[:40])
        argv = [
            "run-all",
            "--corpus", str(golden.corpus),
            "--out", str(tmp_path / "out"),
            "--seed", str(golden.seed),
            "--replay-dir", str(replay),
            "--allow-small",
        ]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("client error: ")
        assert "unreadable fixture" in err

    @pytest.mark.parametrize("response", [{"txt": "positive"}, {"text": None}], ids=["no-text-key", "null-text"])
    def test_llm_fixture_without_text_exits_with_client_error(self, golden, tmp_path, monkeypatch, capsys, response):
        for name in list(os.environ):
            if name.startswith("FORGE_"):
                monkeypatch.delenv(name)
        replay = shutil.copytree(golden.replay, tmp_path / "replay")
        fixture = next(
            path for path in sorted((replay / "llm").glob("*.json"))
            if "NCT ID NCT00056836" in json.loads(path.read_text(encoding="utf-8"))["request"]["prompt"]
        )
        payload = json.loads(fixture.read_text(encoding="utf-8"))
        fixture.write_text(json.dumps({**payload, "response": response}), encoding="utf-8")
        argv = [
            "run-all",
            "--corpus", str(golden.corpus),
            "--out", str(tmp_path / "out"),
            "--seed", str(golden.seed),
            "--replay-dir", str(replay),
            "--allow-small",
        ]
        # used to stop with KeyError: 'text' and exit 1
        assert main(argv) == 3
        assert capsys.readouterr().err == f"client error: stage extract: llm:{fixture.stem} has no 'text'\n"

    def test_record_run_with_a_failing_transport_stops(self, golden, tmp_path):
        def llm(service, request):
            if "NCT ID NCT00056836" in request["prompt"]:
                raise ConnectionResetError("connection reset")
            return golden.transports["llm"](service, request)

        settings = PipelineSettings(
            corpus_dir=golden.corpus, out_dir=tmp_path / "out", seed=golden.seed,
            mode="record", replay_dir=tmp_path / "replay", allow_small_split=True,
        )
        with pytest.raises(ClientUnavailable, match="^stage extract: llm:.*connection reset"):
            run_pipeline(settings, transports={**golden.transports, "llm": llm})
        assert not (tmp_path / "out" / "04_extract" / "manifest.json").exists()


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
                "mode=record",
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
        assert settings.mode == "record"
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


# Cells lean on the characters the codec escapes, plus any other text.
_CELLS = st.text(st.one_of(st.sampled_from('\\\t\n\r"é→'), st.characters(codec="utf-8")), max_size=12)


@st.composite
def tsv_tables(draw):
    width = draw(st.integers(1, 4))
    row = st.lists(_CELLS, min_size=width, max_size=width)
    return draw(row), draw(st.lists(row, max_size=5))


class TestEscaping:
    @given(st.text(max_size=200))
    def test_roundtrip(self, text):
        assert unescape_cell(escape_cell(text)) == text

    @given(tsv_tables())
    def test_tsv_bytes_are_the_escaped_cells_joined(self, tmp_path_factory, table):
        header, rows = table
        path = tmp_path_factory.getbasetemp() / "joined.tsv"
        expected = "".join("\t".join(map(escape_cell, cells)) + "\n" for cells in (header, *rows))
        assert write_tsv(path, header, rows) == expected.encode("utf-8")

    @given(tsv_tables())
    def test_tsv_file_roundtrip(self, tmp_path_factory, table):
        header, rows = table
        path = tmp_path_factory.getbasetemp() / "roundtrip.tsv"
        payload = write_tsv(path, header, rows)
        assert payload == path.read_bytes()
        assert payload.count(b"\n") == 1 + len(rows)
        assert read_tsv(path) == (header, rows)

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

    @pytest.mark.parametrize("edit, error, message", [
        (lambda t: t.update(not_a_table=[]), ValueError,
         f"unknown table 'not_a_table'; expected one of {TABLE_ORDER}"),
        (lambda t: t["conditions"][0].pop("mesh_type"), ValueError,
         "table conditions: bad row shape (missing ['mesh_type'], extra [])"),
        (lambda t: t["conditions"][0].update(note=""), ValueError,
         "table conditions: bad row shape (missing [], extra ['note'])"),
        (lambda t: t["conditions"][0].update(mesh_id=42), TypeError,
         "table conditions: cell mesh_id must be str, got int"),
        (lambda t: t["studies"][0].update(title=None), TypeError,
         "table studies: cell title must be str, got NoneType"),
        (lambda t: t["studies"].append(dict(t["studies"][0], title="T2")), ValueError,
         "table studies: duplicate key ('NCT1',)"),
        (lambda t: t["conditions"].append(dict(t["conditions"][0], mesh_term="Other")), ValueError,
         "table conditions: duplicate key ('NCT1', 'D003924', 'mesh-list')"),
    ], ids=["unknown-table", "missing-column", "extra-column", "int-cell", "none-cell",
            "duplicate-study", "duplicate-condition"])
    def test_refusal_writes_nothing(self, tmp_path, edit, error, message):
        tables = minimal_bundle()
        edit(tables)
        out = tmp_path / "db"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            write_database(tables, out)
        assert not out.exists()

    def test_verify_manifest(self, tmp_path):
        write_database(minimal_bundle(), tmp_path / "db")
        assert verify_manifest(tmp_path / "db") == []
        path = tmp_path / "db" / "conditions.tsv"
        path.write_text(path.read_text() + "NCT1\tD0\tx\tmesh-list\n")
        problems = verify_manifest(tmp_path / "db")
        assert any("conditions" in p for p in problems)

    @pytest.mark.parametrize("line", [
        "conditions\t1\tabc\textra",
        "conditions\t1",
        "conditions\tone\tabc",
    ], ids=["extra-cell", "missing-cell", "non-integer-count"])
    def test_verify_manifest_reports_malformed_line(self, tmp_path, line):
        write_database(minimal_bundle(), tmp_path / "db")
        manifest = tmp_path / "db" / "manifest.tsv"
        lines = manifest.read_text().splitlines()
        assert lines[2].startswith("conditions\t")
        lines[2] = line
        manifest.write_text("\n".join(lines) + "\n")
        cells = line.split("\t")
        assert verify_manifest(tmp_path / "db") == [
            f"manifest line 3: expected table, row count and sha256, got {cells}",
            "conditions: not in manifest",
        ]

    def test_verify_missing_manifest(self, tmp_path):
        assert verify_manifest(tmp_path) == ["manifest missing"]
