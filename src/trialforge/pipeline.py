"""End-to-end corpus pipeline: raw dumps in, database and benchmarks out.

The pipeline is a fixed chain of seven stages, each reading files written
by the previous one and writing its own outputs plus a ``manifest.json``.
A stage's key hashes the corpus files, the settings' fingerprint and the
upstream stage's manifest; its manifest records that key and the sha256
of each output. A replay store inside the corpus (the default
``corpus_dir/replay``) is left out of the corpus hash, so recording
responses does not change the key; instead each manifest lists under
``responses`` the sha256 of every fixture served to that stage, and an
edited fixture reruns only the stages that used it. A store outside the
corpus is not keyed yet: editing one of its fixtures reruns nothing.
A rerun skips a stage only when its key matches and its outputs and
recorded responses still hash the same. Every such check reads each
recorded file's bytes once on every run, through its directory opened
once; a stat first makes sure it is a regular file, so nothing else (a
FIFO, a directory, a broken link) is ever opened. No mtime, size or other
metadata is trusted and nothing is cached between runs. A run whose stages
are all up to date writes no file: ``pipeline_manifest.json`` is rewritten
only when its bytes differ. Nothing in any output carries a timestamp; two
runs over the same corpus with the same settings are byte-identical.

Expected corpus layout::

    corpus_dir/
      registry/<SOURCE>.json   JSON array of raw rows, filename = source tag
      ctgov/<nctid>.json       one registry document per trial
      pubmed/articles.json     JSON array of articles, each with a pmid
      reviews/index.json       JSON array of review metadata, each with a pmid
      reviews/<pmid>.xml       full-text reference sections (JATS-style)
      protocols/pairs.json     JSON array of protocol/registry pairs, each with an
                               nct_id and an integer registry_enrollment
      replay/                  default replay store (override with replay_dir)

Every subdirectory is optional; missing ones simply contribute nothing.

Each stage is one entry of `STAGE_TABLE`: its name, CLI verb, function
and the run inputs it reads. An input is a corpus input (``registry``,
``ctgov``, ``pubmed``, ``reviews``, ``review_xmls``, ``protocols``); a table
from ``mapping_dir`` (``source_mappings``, the field mapping of each
registry file) or ``vocab_dir`` (``drug_vocab``, ``biomarker_vocab``,
``meddra_vocab``), the packaged directory when unset; a packaged table
(``drug_normalization``, ``termination_keywords``); or an upstream output
``"<stage>/<file>"``. Stage directories, CLI verbs and the release
schedule come from the table. One run context serves a stage only what it
declares, reads each input on first use (a skipped stage reads nothing)
and drops it once its last reader in the table is done. Corpus JSON inputs
are kept as their checked views (`views.py`), parsed once per run. A stage
that runs hands on the studies or rows it wrote; a later stage reads the
file only when its writer was skipped in this run, so a cold run decodes
none of its own outputs. Ingest also hands on the line it wrote for each
study: dedupe writes those lines for the studies it passes through
unchanged, encodes only the studies it merged, and drops them once it has
run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import stat
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, get_type_hints

from . import DATA_DIR, store
from .benchgen.design import DESIGN_FIELDS, gen_design_mcq, review_groups
from .benchgen.items import write_benchmark_files
from .benchgen.protocol import gen_completion_items, gen_sample_size_items
from .benchgen.review_tasks import (
    gen_evidence_mcq,
    gen_screening_items,
    gen_search_items,
    include_map,
    split_search_items,
)
from .benchgen.splits import split_by_numeric_id
from .clients import (
    MODES,
    ReplayStore,
    ServiceClient,
    annotator_callable,
    llm_callable,
    rxnorm_callable,
)
from .dedupe import dedupe_corpus
from .errors import ForgeError, MissingResultsSection
from .evidence import (
    OutcomeLabel,
    build_disposition,
    classify_completed_outcome,
    disposition_tables_from_ctgov,
    extract_pubmed_pico,
    label_terminated_study,
    load_termination_keywords,
    parse_adverse_events,
    parse_ctgov_results,
    pico_disposition_rows,
    primary_pvalues,
    termination_keyword_tokens,
)
from .ingest import (
    DIRECTORY,
    NOT_A_FILE,
    corpus_files,
    decode_text,
    extract_pubmed_study,
    load_source_mapping,
    parse_ctgov_study,
    parse_registry_record,
    read_at,
    read_json,
)
from .ontology.biomarkers import BiomarkerIndex, BiomarkerMatch, load_biomarker_index, match_biomarker
from .ontology.conditions import annotate_conditions
from .ontology.drugs import link_drug, load_drug_normalization, load_drug_resources
from .ontology.endpoints import classify_endpoint
from .ontology.meddra import load_meddra
from .relations import (
    AWAITING_MODES,
    assemble_graph,
    extract_nct_links,
    extract_review_references,
    write_relation_counts_tsv,
    write_relations_tsv,
)
from .schema import (
    RelationTriple,
    StudyStatus,
    check_study,
    decode_record,
    read_studies_jsonl,
    write_studies_jsonl,
)
from .views import Article, CtgovDoc, ProtocolPair, Review, ctgov_study_id, parse_ctgov_doc, parse_entry

logger = logging.getLogger(__name__)

# Widest span `_candidate_spans` emits: the longest default biomarker name,
# "human epidermal growth factor receptor 2", is six tokens, with no
# headroom. The link stage scans up to its index's `max_tokens` instead.
_BIOMARKER_MAX_TOKENS = 6


@dataclass(frozen=True)
class PipelineSettings:
    """Everything a run depends on besides the corpus bytes themselves.

    Each field is also a config key and a ``FORGE_*`` variable.
    """

    corpus_dir: Path
    out_dir: Path
    seed: int = 7
    dedupe_threshold: float = 0.95
    mode: str = "replay"
    replay_dir: Optional[Path] = None
    awaiting: str = "emit"
    allow_small_split: bool = False
    split_test_size: int = 1000
    split_validation_size: int = 500
    search_test_size: int = 100
    vocab_dir: Optional[Path] = None
    mapping_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.awaiting not in AWAITING_MODES:
            raise ValueError(f"awaiting mode must be one of {AWAITING_MODES}, got {self.awaiting!r}")
        if not 0 < self.dedupe_threshold <= 1:  # also refuses nan
            raise ValueError(f"dedupe_threshold must be in (0, 1], got {self.dedupe_threshold!r}")
        for name in ("split_test_size", "split_validation_size", "search_test_size"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)!r}")

    @classmethod
    def from_config(cls, values: dict[str, str]) -> PipelineSettings:
        """Parse string ``values`` by field type; absent keys keep defaults, unknown ones are ignored."""
        if "corpus_dir" not in values or "out_dir" not in values:
            raise ValueError("config needs corpus_dir and out_dir")
        return cls(**{
            name: _parse_setting(name, kind, values[name])
            for name, kind in _SETTING_TYPES.items()
            if name in values
        })

    def fingerprint(self) -> dict:
        """The stage key's view of the settings: every field not typed as a path, except ``mode``.

        The mode decides only what a store miss does, never what a stage
        computes, so a record run and a replay of its store share every key.
        A set ``vocab_dir`` or ``mapping_dir`` adds a digest of its contents, so
        an edit there reruns every stage, though `STAGE_TABLE` names their
        only readers: ingest reads ``mapping_dir``, link and extract read
        ``vocab_dir``. Keying each stage on its declared reads is planned in
        ROADMAP.md.
        """
        key = {name: getattr(self, name) for name, kind in _SETTING_TYPES.items() if kind not in _PATH_TYPES}
        del key["mode"]
        for name in ("vocab_dir", "mapping_dir"):
            directory = getattr(self, name)
            if directory is not None:
                key[name] = hash_corpus(directory)
        return key

    @property
    def replay_root(self) -> Path:
        return self.replay_dir if self.replay_dir is not None else self.corpus_dir / "replay"


_SETTING_TYPES = get_type_hints(PipelineSettings)
_PATH_TYPES = (Path, Optional[Path])
_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_setting(name: str, kind, raw: str):
    if kind is bool:
        lowered = raw.strip().lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise ValueError(f"config key {name!r} has non-boolean value {raw!r}")
    if kind in _PATH_TYPES:
        return Path(raw)
    return kind(raw)


@dataclass
class _Clients:
    llm: Callable[[str], str]
    annotator: Callable[[dict], dict]
    rxnorm: Callable[[dict], dict]
    store: ReplayStore
    raw: dict = field(default_factory=dict)

    def live_calls(self) -> dict:
        return {name: client.live_calls for name, client in self.raw.items()}


def build_clients(settings: PipelineSettings, transports: Optional[dict] = None) -> _Clients:
    """One client per external service, all backed by one replay store.

    ``transports`` maps service names to live callables and only matters
    in record mode; replay runs never touch them.
    """
    transports = transports or {}
    replay_store = ReplayStore(settings.replay_root)
    clients = {
        name: ServiceClient(settings.mode, replay_store, transport=transports.get(name))
        for name in ("llm", "annotator", "rxnorm")
    }
    return _Clients(
        llm=llm_callable(clients["llm"]),
        annotator=annotator_callable(clients["annotator"]),
        rxnorm=rxnorm_callable(clients["rxnorm"]),
        store=replay_store,
        raw=clients,
    )


# ---------------------------------------------------------------------------
# hashing and manifests


def _store_in_corpus(settings: PipelineSettings) -> Optional[Path]:
    """The replay store as a path below ``corpus_dir``, or None when it lies outside."""
    root, corpus = settings.replay_root.resolve(), settings.corpus_dir.resolve()
    if root == corpus or not root.is_relative_to(corpus):
        return None
    return settings.corpus_dir / root.relative_to(corpus)


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Reads are unbuffered; chunking keeps memory flat on large outputs.
_CHUNK = 1 << 16


def _sha256_at(dir_fd: int, name: str, first: int = _CHUNK) -> str:
    """The sha256 of the bytes of ``name`` in the open directory ``dir_fd``:
    the one content digest behind every skip check.

    ``first`` sizes the first read (capped at `_CHUNK`); reads go on until
    one returns nothing. The caller has made sure ``name`` is a regular file.
    """
    fd = os.open(name, os.O_RDONLY, dir_fd=dir_fd)
    try:
        digest = hashlib.sha256(os.read(fd, min(first, _CHUNK)))
        while chunk := os.read(fd, _CHUNK):
            digest.update(chunk)
    finally:
        os.close(fd)
    return digest.hexdigest()


def _tree_digests(root, skip: Optional[str] = None, leave_out: str = "") -> dict[str, str]:
    """Relative posix path -> sha256 of every regular file under ``root``.

    Files come in the order of their path parts (``a/b`` before ``a-b/x``),
    because each directory's entries are visited sorted by name. A symlink
    to a file counts; a symlinked directory is not entered, and a broken
    link or a FIFO is left out unopened. ``skip``, a relative directory
    path, is pruned, and a file named ``leave_out`` is not read. An
    unreadable or missing directory adds nothing. Each directory is opened
    once and each file through it, with no further stat of its own.
    """
    found: dict[str, str] = {}

    def visit(path, parent_fd: Optional[int], prefix: str) -> None:
        try:
            dir_fd = os.open(path, DIRECTORY, dir_fd=parent_fd)
        except OSError:
            return
        try:
            with os.scandir(dir_fd) as it:
                entries = sorted(it, key=lambda entry: entry.name)
            for entry in entries:
                rel = prefix + entry.name
                if entry.is_dir():
                    if rel != skip and not entry.is_symlink():
                        visit(entry.name, dir_fd, rel + "/")
                elif entry.is_file() and entry.name != leave_out:
                    found[rel] = _sha256_at(dir_fd, entry.name)
        finally:
            os.close(dir_fd)

    visit(root, None, "")
    return found


def hash_corpus(corpus_dir: Path, skip: Optional[Path] = None) -> str:
    """Order-independent digest of every file under the corpus root.

    ``skip``, a directory under the root, is left out with everything in it.
    """
    skip_rel = None
    if skip is not None:
        try:
            skip_rel = Path(skip).relative_to(corpus_dir).as_posix()
        except ValueError:  # not under the root, so nothing to prune
            pass
    digest = hashlib.sha256()
    for rel, sha256 in _tree_digests(corpus_dir, skip_rel).items():
        digest.update(f"{rel}\x00{sha256}\x00".encode("utf-8"))
    return digest.hexdigest()


def _hash_outputs(stage_dir: Path) -> dict:
    return _tree_digests(stage_dir, leave_out="manifest.json")


def _load_manifest(path: Path) -> tuple[Optional[dict], str]:
    """The stage manifest and the sha256 of its bytes, read once through its directory.

    The manifest is None when it or its directory is missing, unreadable or ill-shaped.
    """
    try:
        dir_fd = os.open(path.parent, DIRECTORY)
    except OSError:
        return None, ""
    try:
        data = read_at(dir_fd, path.name)
        manifest = None if data is None else json.loads(data.decode("utf-8"))
    except (ValueError, OSError):  # bad JSON or bad UTF-8
        return None, ""
    finally:
        os.close(dir_fd)
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("outputs"), dict)
        and isinstance(manifest.get("responses", {}), dict)
    ):
        return None, ""
    return manifest, hashlib.sha256(data).hexdigest()


def _changed_file(root: Path, recorded: dict) -> Optional[str]:
    """The first path in ``recorded`` (relative path -> sha256) missing or changed under ``root``.

    Each recorded file's directory is opened once; each file is then one
    stat (anything but a regular file, symlinks followed, is changed and
    never opened) and one read of its bytes through that directory.
    """
    dirs: dict[str, int] = {}
    try:
        for rel, expected in recorded.items():
            head, _, name = rel.rpartition("/")
            try:
                dir_fd = dirs.get(head)
                if dir_fd is None:
                    dir_fd = dirs[head] = os.open(os.path.join(root, head), DIRECTORY)
                info = os.stat(name, dir_fd=dir_fd)
            except OSError as exc:
                if exc.errno in NOT_A_FILE:
                    return rel
                raise
            if not stat.S_ISREG(info.st_mode) or _sha256_at(dir_fd, name, info.st_size + 1) != expected:
                return rel
    finally:
        for dir_fd in dirs.values():
            os.close(dir_fd)
    return None


def _outputs_intact(stage_dir: Path, manifest: dict) -> Optional[str]:
    """The first recorded output missing or changed, or None when all are intact."""
    return _changed_file(stage_dir, manifest["outputs"])


def _rerun_reason(stage_dir: Path, manifest: Optional[dict], input_hash: str, replay_root: Path) -> Optional[str]:
    """Why a stage must run, or None when its manifest proves it up to date.

    Up to date means the same input key, every output as recorded and
    every recorded service response (in-corpus store only) as served.
    """
    if manifest is None:
        return "no readable manifest"
    if manifest.get("input_hash") != input_hash:
        return "input key changed"
    output = _outputs_intact(stage_dir, manifest)
    if output is not None:
        return f"output {output} changed"
    response = _changed_file(replay_root, manifest.get("responses", {}))
    if response is not None:
        return f"recorded response {response.removesuffix('.json')} changed"
    return None


def _write_json(path: Path, payload) -> str:
    """Write ``payload`` as indented JSON; return the sha256 of its bytes.

    A file that already holds those bytes is left as it is, so a run that
    changes nothing writes nothing.
    """
    data = (json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")
    digest = hashlib.sha256(data).hexdigest()
    if _changed_file(path.parent, {path.name: digest}) is not None:
        path.write_bytes(data)
    return digest


#: ``json.dumps(row, sort_keys=True)``: the ASCII-escaped form of `store.encode_row`.
_encode_escaped = store.json_encoder(sort_keys=True)


def _write_sorted_rows(path: Path, rows: list[dict], encode: Callable[[dict], str] = store.encode_row) -> list[dict]:
    """Write ``rows`` as JSON lines in the order of their ASCII-escaped dumps; return them in that order.

    ``encode`` gives a row's line, the `store.encode_row` dump. Equal rows
    have equal lines, so an exact repeat is written and returned once: each
    table holds each distinct row once. Unescaped, the encoder leaves only
    DEL and non-ASCII characters raw, so every other line is its own escaped
    dump; just the rows with such a character are dumped a second time for
    their sort key.
    """
    unique = dict(zip(map(encode, rows), rows))
    escaped = {
        line: _encode_escaped(row)
        for line, row in unique.items()
        if not line.isascii() or "\x7f" in line
    }
    ordered = sorted(unique, key=lambda line: escaped.get(line, line)) if escaped else sorted(unique)
    store.write_lines(path, ordered)
    return list(map(unique.__getitem__, ordered))


def _write_tables(run: _RunContext, out: Path, tables: dict[str, list[dict]]) -> dict[str, int]:
    """Write each table to ``out/<name>.jsonl`` with `_write_sorted_rows` and hold it; return its row count by name.

    Each table's rows are `store.table_row` rows, encoded by its `store.line_encoder`.
    """
    counts = {}
    for name, rows in tables.items():
        path = out / f"{name}.jsonl"
        encode = store.line_encoder(store.TABLE_COLUMNS[name])
        counts[name] = len(run.hold(path, _write_sorted_rows(path, rows, encode)))
    return counts


# ---------------------------------------------------------------------------
# run input readers


def _json_objects(path: Path, data: Optional[bytes] = None) -> list[dict]:
    """A corpus file holding a JSON array of objects (its bytes ``data`` when read); any other shape is a ValueError."""
    rows = read_json(path, data)
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ValueError(f"{path}: expected a JSON array of objects")
    return rows


def _corpus_entries(path: Path, cls: type) -> list:
    """Each entry of a corpus JSON array read as a ``cls`` view, ordered by id; none when the file is absent.

    Two entries with one id are a ValueError, except articles: dedupe merges those into one study.
    """
    if not path.is_file():
        return []
    views, first = [], {}
    for n, row in enumerate(_json_objects(path)):
        view = parse_entry(cls, row, f"{path}: entry {n}")
        if cls is not Article and first.setdefault(view[0], n) != n:
            raise ValueError(f"{path}: entries {first[view[0]]} and {n} both hold {cls._fields[0]} {view[0]!r}")
        views.append(view)
    return sorted(views, key=lambda view: view[0])


def _corpus_registry_batches(corpus_dir: Path) -> list[tuple[Path, list[dict]]]:
    return [(path, _json_objects(path, data)) for path, data in corpus_files(corpus_dir / "registry", ".json")]


def _corpus_ctgov_docs(corpus_dir: Path) -> dict[str, CtgovDoc]:
    """Each CT.gov document's checked view, keyed by its NCT id; two files with one id exit 2."""
    docs, paths = {}, {}
    for path, data in corpus_files(corpus_dir / "ctgov", ".json"):
        doc = read_json(path, data)
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: expected a JSON object")
        try:
            nct_id = ctgov_study_id(doc)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if nct_id in paths:
            raise ValueError(f"{paths[nct_id]} and {path} both hold CT.gov study {nct_id}")
        paths[nct_id] = path
        docs[nct_id] = parse_ctgov_doc(doc)
    return docs


def _corpus_pubmed_articles(corpus_dir: Path) -> list[Article]:
    return _corpus_entries(corpus_dir / "pubmed" / "articles.json", Article)


def _corpus_review_xmls(corpus_dir: Path) -> list[tuple[str, str]]:
    return [(path.stem, decode_text(data)) for path, data in corpus_files(corpus_dir / "reviews", ".xml")]


# Input name -> its reader, given the settings; each calls a module global at call time, so readers can be wrapped.
# Every input not named here is an upstream output.
_INPUT_READERS = {
    "registry": lambda settings: _corpus_registry_batches(settings.corpus_dir),
    "ctgov": lambda settings: _corpus_ctgov_docs(settings.corpus_dir),
    "pubmed": lambda settings: _corpus_pubmed_articles(settings.corpus_dir),
    "reviews": lambda settings: _corpus_entries(settings.corpus_dir / "reviews" / "index.json", Review),
    "review_xmls": lambda settings: _corpus_review_xmls(settings.corpus_dir),
    "protocols": lambda settings: _corpus_entries(settings.corpus_dir / "protocols" / "pairs.json", ProtocolPair),
    "source_mappings": lambda settings: {
        path.stem: load_source_mapping(path.stem, settings.mapping_dir or DATA_DIR / "sources")
        for path in sorted((settings.corpus_dir / "registry").glob("*.json"))
    },
    "drug_vocab": lambda settings: load_drug_resources(settings.vocab_dir or DATA_DIR / "vocab"),
    "drug_normalization": lambda settings: load_drug_normalization(),
    "biomarker_vocab": lambda settings: load_biomarker_index(settings.vocab_dir or DATA_DIR / "vocab"),
    "meddra_vocab": lambda settings: load_meddra(settings.vocab_dir or DATA_DIR / "vocab"),
    "termination_keywords": lambda settings: termination_keyword_tokens(load_termination_keywords()),
}


# ---------------------------------------------------------------------------
# run context


class Stage(NamedTuple):
    """One pipeline stage: its name, CLI verb, function and the run inputs it reads."""

    name: str
    verb: str
    run: Callable[[_RunContext, Path], dict]
    reads: tuple[str, ...]


class _RunContext:
    """Settings, clients, corpus hash and run inputs of one run.

    ``run_pipeline`` keeps one context for the whole run and sets `stage` to
    the running table entry. `read` serves that stage only what the entry
    declares; any other read is a trialforge bug and raises ``RuntimeError``.
    Stages must not mutate what they read. A stage that runs passes each
    output a later stage reads to `hold`, so `read` reads the file only when
    its writer was skipped in this run; handed-over studies pass the same
    `check_study` as decoded ones; lines held with an output are taken once
    by `held_lines`. `release` drops every input, and any lines held with
    it, whose last reader was the given stage; the rest go with the context.

    `aliases` and `study_docs` are built once per run from the dedupe links.
    A surviving study can have absorbed the id its CT.gov document carries
    (the surviving id is lexicographic, not source-ranked), so stages find
    a study's document only through `study_docs`.
    """

    def __init__(self, settings: PipelineSettings, clients: _Clients, corpus_hash: str) -> None:
        self.settings = settings
        self.clients = clients
        self.corpus_hash = corpus_hash
        self.stage: Optional[Stage] = None
        self._held: dict[str, list] = {}
        self._lines: dict[str, list[str]] = {}
        self._inputs: dict[str, object] = {}
        self._aliases: Optional[dict[str, str]] = None
        self._study_docs: Optional[dict[str, CtgovDoc]] = None

    def hold(self, path: Path, value: list, lines: Optional[list[str]] = None) -> list:
        """Keep ``value``, the running stage's output file ``path`` as written, for later readers; return it.

        ``lines``, the line the file holds for each item of ``value``, are kept for `held_lines`.
        """
        name = f"{self.stage.name}/{path.name}"
        self._held[name] = value
        if lines is not None:
            self._lines[name] = lines
        return value

    def release(self, stage: str) -> None:
        """Forget every input whose last reader is ``stage``."""
        for name, last in _LAST_READER.items():
            if last == stage:
                self._held.pop(name, None)
                self._lines.pop(name, None)
                self._inputs.pop(name, None)

    def _check_declared(self, name: str) -> None:
        if self.stage is None or name not in self.stage.reads:
            raise RuntimeError(f"stage {self.stage and self.stage.name} read undeclared input {name!r}")

    def read(self, name: str):
        """The run input ``name``, which the running stage must declare."""
        self._check_declared(name)
        if name not in self._inputs:
            self._inputs[name] = self._load(name)
        return self._inputs[name]

    def _load(self, name: str):
        if name in _INPUT_READERS:
            return _INPUT_READERS[name](self.settings)
        writer, _, file = name.partition("/")
        path, held = self.settings.out_dir / STAGE_DIRS[writer] / file, self._held.pop(name, None)
        if file != "studies.jsonl":
            return store.read_jsonl(path) if held is None else held
        if held is None:
            return read_studies_jsonl(path)
        for study in held:
            check_study(study)
        return held

    def held_lines(self, name: str) -> list[str]:
        """The lines held with the declared input ``name``, in the order of its items; empty when none were."""
        self._check_declared(name)
        return self._lines.pop(name, [])

    @property
    def aliases(self) -> dict[str, str]:
        """Absorbed study id to surviving study id, from the dedupe links."""
        links = self.read("dedupe/dup_links.jsonl")
        if self._aliases is None:
            self._aliases = {row["tail_id"]: row["head_id"] for row in links if row["tail_id"] != row["head_id"]}
        return self._aliases

    @property
    def study_docs(self) -> dict[str, CtgovDoc]:
        """Surviving study id to its CT.gov document, in study id order; of several, the smallest document id's."""
        docs, aliases = self.read("ctgov"), self.aliases
        if self._study_docs is None:
            by_study: dict[str, CtgovDoc] = {}
            for doc_id in sorted(docs):
                by_study.setdefault(aliases.get(doc_id, doc_id), docs[doc_id])
            self._study_docs = dict(sorted(by_study.items()))
        return self._study_docs


# ---------------------------------------------------------------------------
# stages


def _stage_ingest(run: _RunContext, out: Path) -> dict:
    registry, batches, mappings = [], run.read("registry"), run.read("source_mappings")
    for path, rows in batches:
        mapping = mappings[path.stem]
        for position, raw in enumerate(rows):
            try:
                study = parse_registry_record(raw, mapping)
            except ValueError as exc:
                raise ValueError(f"{path}: entry {position}: {exc}") from None
            if not study.study_id:
                raise ValueError(f"{path}: entry {position} has no {mapping['fields'].get('study_id')!r}")
            registry.append(study)
    docs = run.read("ctgov")
    ctgov = [parse_ctgov_study(docs[nct_id]) for nct_id in sorted(docs)]
    pubmed = [extract_pubmed_study(record) for record in run.read("pubmed")]

    studies = sorted(registry + ctgov + pubmed, key=lambda s: (s.source.value, s.study_id))
    run.hold(out / "studies.jsonl", studies, write_studies_jsonl(studies, out / "studies.jsonl"))
    return {
        "registry": len(registry),
        "ctgov": len(ctgov),
        "pubmed": len(pubmed),
        "total": len(studies),
        "flagged": sum(1 for s in studies if s.flagged),
    }


def _stage_dedupe(run: _RunContext, out: Path) -> dict:
    records = run.read("ingest/studies.jsonl")
    merged, decisions, triples = dedupe_corpus(records, threshold=run.settings.dedupe_threshold)
    # Most studies pass through dedupe as the very objects ingest encoded;
    # `records` keeps each keyed object alive until the lines are written.
    known = dict(zip(map(id, records), run.held_lines("ingest/studies.jsonl")))
    write_studies_jsonl(run.hold(out / "studies.jsonl", merged), out / "studies.jsonl", known)

    store.write_tsv(
        out / "decisions.tsv",
        ("survivor_source", "survivor_id", "absorbed", "evidence", "score"),
        (decision.to_row() for decision in decisions),
    )
    links = [store.table_row("relations", t) for t in triples]
    store.write_jsonl(out / "dup_links.jsonl", run.hold(out / "dup_links.jsonl", links))
    return {
        "input": len(records),
        "output": len(merged),
        "absorbed": len(records) - len(merged),
        "links": len(triples),
    }


def _candidate_spans(text: str) -> list[str]:
    tokens = text.split()
    spans = []
    for width in range(1, _BIOMARKER_MAX_TOKENS + 1):
        for start in range(len(tokens) - width + 1):
            spans.append(" ".join(tokens[start : start + width]))
    return spans


def _biomarker_matches(text: str, index: BiomarkerIndex) -> list[BiomarkerMatch]:
    """Every match of a whitespace-token span of ``text``, by start then width.

    A span can match only if each of its lowercased tokens is a token of
    an indexed name, so a span stops growing at the first other token and
    at the longest name's width.
    """
    tokens = text.split()
    known = [token.lower() in index.tokens for token in tokens]
    matches = []
    for start in range(len(tokens)):
        end = start
        while end < len(tokens) and known[end] and end - start < index.max_tokens:
            end += 1
            match = match_biomarker(" ".join(tokens[start:end]), index)
            if match is not None:
                matches.append(match)
    return matches


def _stage_link(run: _RunContext, out: Path) -> dict:
    studies, docs, clients = run.read("dedupe/studies.jsonl"), run.study_docs, run.clients

    resources, normalization = run.read("drug_vocab"), run.read("drug_normalization")
    drug_rows: list[dict] = []
    linked: dict[str, object] = {}
    for study in sorted(studies, key=lambda s: s.study_id):
        doc = docs.get(study.study_id)
        if doc is None:
            continue
        for intervention in doc.interventions:
            if intervention.type.upper() != "DRUG":
                continue
            name = intervention.name.strip()
            if not name:
                continue
            if name not in linked:
                linked[name] = link_drug(name, resources, normalization, remote_client=clients.rxnorm)
            drug_rows.append(store.table_row("drugs", linked[name], study_id=study.study_id))

    condition_rows: list[dict] = []
    for study in studies:
        for annotation in annotate_conditions(study, clients.annotator):
            condition_rows.append(store.table_row("conditions", annotation))

    endpoint_rows: list[dict] = []
    classified: dict[str, list] = {}
    for study in studies:
        for text in (*study.primary_outcomes, *study.secondary_outcomes):
            text = text.strip()
            if not text:
                continue
            if text not in classified:
                classified[text] = classify_endpoint(text, clients.llm)
            for classification in classified[text]:
                endpoint_rows.append(store.table_row(
                    "endpoints",
                    classification,
                    study_id=study.study_id,
                    outcome_text=classification.outcome,
                ))

    bio_index = run.read("biomarker_vocab")
    biomarker_rows: list[dict] = []
    matched: dict[str, list[BiomarkerMatch]] = {}
    for study in studies:
        for text in (*study.primary_outcomes, *study.secondary_outcomes):
            if text not in matched:
                matched[text] = _biomarker_matches(text, bio_index)
            for match in matched[text]:
                biomarker_rows.append(store.table_row("biomarkers", match, study_id=study.study_id))

    return _write_tables(run, out, {
        "conditions": condition_rows,
        "drugs": drug_rows,
        "endpoints": endpoint_rows,
        "biomarkers": biomarker_rows,
    })


def _stage_extract(run: _RunContext, out: Path) -> dict:
    studies, aliases, docs, clients = run.read("dedupe/studies.jsonl"), run.aliases, run.study_docs, run.clients
    articles = run.read("pubmed")
    hierarchy = run.read("meddra_vocab")

    # Rows parsed out of a document are keyed to its surviving study, which
    # may have absorbed the document's own id during dedupe.
    result_rows: list[dict] = []
    skipped_no_results = 0
    for study_id, doc in docs.items():
        try:
            rows = parse_ctgov_results(doc)
        except MissingResultsSection:
            skipped_no_results += 1
            continue
        result_rows.extend(store.table_row("trial_results", row, study_id=study_id) for row in rows)

    ae_rows = [
        store.table_row("adverse_events", row, study_id=study_id)
        for study_id, doc in docs.items()
        for row in parse_adverse_events(doc, hierarchy)
    ]

    disposition_rows = [
        store.table_row("disposition", row, study_id=study_id)
        for study_id, doc in docs.items()
        for row in build_disposition(doc, disposition_tables_from_ctgov(doc))
    ]

    # PICO results for linked abstracts, keyed to the surviving study id; a
    # study's arms are numbered across all of its distinct reports.
    pico: dict[str, list] = {}
    for article in dict.fromkeys(articles):
        title, abstract = article.title.strip(), article.abstract.strip()
        if title and abstract:
            study_id = aliases.get(article.pmid, article.pmid)
            pico.setdefault(study_id, []).extend(extract_pubmed_pico(study_id, title, abstract, clients.llm))
    pico_count = 0
    for study_id, rows in pico.items():
        rows = list(dict.fromkeys(rows))
        pico_count += len(rows)
        result_rows.extend(store.table_row("trial_results", row) for row in rows)
        disposition_rows.extend(store.table_row("disposition", row) for row in pico_disposition_rows(study_id, rows))

    # Outcome labels for every completed or terminated study. A study's linked
    # abstracts come in the order of its own id, then its absorbed ids sorted;
    # `rank_abstracts` keeps that order on ties, so it decides the prompt.
    nct_abstracts: dict[str, list[Article]] = {}
    for article in articles:
        for triple in extract_nct_links(article):
            nct_abstracts.setdefault(triple.tail_id, []).append(article)
    absorbed: dict[str, list[str]] = {}
    for absorbed_id, study_id in sorted(aliases.items()):
        absorbed.setdefault(study_id, []).append(absorbed_id)

    label_rows: list[dict] = []
    keyword_tokens = run.read("termination_keywords")
    for study in sorted(studies, key=lambda s: s.study_id):
        doc = docs.get(study.study_id)
        if study.status is StudyStatus.COMPLETED:
            pvalues = primary_pvalues(doc) if doc is not None else []
            linked: dict[str, Article] = {}
            for alias in (study.study_id, *absorbed.get(study.study_id, ())):
                for article in nct_abstracts.get(alias, ()):
                    linked.setdefault(article.pmid, article)
            label = classify_completed_outcome(study, list(linked.values()), clients.llm, pvalues)
        elif study.status is StudyStatus.TERMINATED:
            label = label_terminated_study(study, doc.why_stopped if doc is not None else "", keyword_tokens)
        else:
            continue
        label_rows.append(store.table_row("trial_outcomes", label))

    return {"skipped_no_results": skipped_no_results, "pico_rows": pico_count} | _write_tables(run, out, {
        "trial_results": result_rows,
        "adverse_events": ae_rows,
        "disposition": disposition_rows,
        "trial_outcomes": label_rows,
    })


def _stage_graph(run: _RunContext, out: Path) -> dict:
    triples: list[RelationTriple] = []
    review_ids: set[str] = set()

    for pmid, xml_text in run.read("review_xmls"):
        review_ids.add(pmid)
        triples.extend(extract_review_references(pmid, xml_text, awaiting=run.settings.awaiting))
    review_ids.update(review.pmid for review in run.read("reviews"))

    for article in run.read("pubmed"):
        triples.extend(extract_nct_links(article))

    triples.extend(decode_record(RelationTriple, row) for row in run.read("dedupe/dup_links.jsonl"))

    graph = assemble_graph(triples, review_ids=review_ids)
    for head in graph.dangling_heads:
        logger.warning("relation head %s is not a known review", head)

    relation_rows = [store.table_row("relations", t) for t in graph.triples]
    store.write_jsonl(out / "relations.jsonl", run.hold(out / "relations.jsonl", relation_rows))
    write_relations_tsv(graph, out / "relations.tsv")
    write_relation_counts_tsv(graph, out / "relation_counts.tsv")
    return {
        "triples": len(graph),
        "dangling_heads": len(graph.dangling_heads),
        "types": {k: v for k, v in sorted(graph.type_counts.items())},
    }


def _stage_database(run: _RunContext, out: Path) -> dict:
    # Each declared read is one table, named by its file; only the studies are records.
    tables = {Path(name).stem: run.read(name) for name in run.stage.reads}
    tables["studies"] = [store.table_row("studies", s) for s in tables["studies"]]
    bundle = store.write_database(tables, out / "db")
    return {name: len(rows) for name, rows in tables.items()} | {
        "bundle_hash": bundle.bundle_hash
    }


def _stage_benchmarks(run: _RunContext, out: Path) -> dict:
    settings, clients, reviews = run.settings, run.clients, run.read("reviews")
    triples = [decode_record(RelationTriple, row) for row in run.read("graph/relations.jsonl")]

    groups, includes = review_groups(reviews, triples), include_map(triples)
    items = []
    for field_name in DESIGN_FIELDS:
        items.extend(gen_design_mcq(groups, run.read("ctgov"), field_name, settings.seed))

    items.extend(gen_sample_size_items(run.read("protocols"), clients.llm))

    labels = (decode_record(OutcomeLabel, row) for row in run.read("extract/trial_outcomes.jsonl"))
    outcomes = {label.study_id: label for label in labels}
    docs = run.study_docs
    completion_trials = [
        (study, docs[study.study_id])
        for study in sorted(run.read("dedupe/studies.jsonl"), key=lambda s: s.study_id)
        if study.study_id in docs
    ]
    items.extend(gen_completion_items(completion_trials, outcomes))

    items.extend(gen_search_items(reviews, includes))

    titles = {article.pmid: article.title for article in run.read("pubmed")}
    items.extend(gen_screening_items(reviews, triples, titles, settings.seed))
    items.extend(gen_evidence_mcq(reviews, includes, clients.llm))

    # Item ids are "<task>:<registry or PubMed id>" and no task name has a
    # digit, so the item id itself carries the recency key.
    by_task: dict[str, list] = {}
    for item in items:
        by_task.setdefault(item.task, []).append(item)
    assignments: dict[str, str] = {}
    for task, task_items in sorted(by_task.items()):
        ids = [item.item_id for item in task_items]
        if task == "study_search":
            assignments.update(split_search_items(ids, settings.search_test_size))
        else:
            assignments.update(split_by_numeric_id(
                ids, settings.split_test_size, settings.split_validation_size, settings.allow_small_split
            ))

    write_benchmark_files(items, assignments, out, run.corpus_hash, settings.seed)

    counts = {task: len(task_items) for task, task_items in sorted(by_task.items())}
    counts["total"] = len(items)
    return counts


# The stage chain in run order; everything else about the chain is derived from it below.
STAGE_TABLE = (
    Stage("ingest", "ingest", _stage_ingest, ("registry", "source_mappings", "ctgov", "pubmed")),
    Stage("dedupe", "dedupe", _stage_dedupe, ("ingest/studies.jsonl",)),
    Stage("link", "link", _stage_link, (
        "dedupe/studies.jsonl", "dedupe/dup_links.jsonl", "ctgov", "drug_vocab", "drug_normalization", "biomarker_vocab",
    )),
    Stage("extract", "extract", _stage_extract, (
        "dedupe/studies.jsonl", "dedupe/dup_links.jsonl", "ctgov", "pubmed", "meddra_vocab", "termination_keywords",
    )),
    Stage("graph", "graph", _stage_graph, ("review_xmls", "reviews", "pubmed", "dedupe/dup_links.jsonl")),
    Stage("database", "build-db", _stage_database, (
        "dedupe/studies.jsonl",
        *(f"link/{name}.jsonl" for name in ("conditions", "drugs", "endpoints", "biomarkers")),
        *(f"extract/{name}.jsonl" for name in ("trial_results", "adverse_events", "disposition", "trial_outcomes")),
        "graph/relations.jsonl",
    )),
    Stage("benchmarks", "gen-bench", _stage_benchmarks, (
        "dedupe/studies.jsonl", "dedupe/dup_links.jsonl", "ctgov", "pubmed", "reviews", "protocols",
        "graph/relations.jsonl", "extract/trial_outcomes.jsonl",
    )),
)
STAGES = tuple(stage.name for stage in STAGE_TABLE)
STAGE_DIRS = {stage.name: f"{position:02d}_{stage.name}" for position, stage in enumerate(STAGE_TABLE, start=1)}
# run_pipeline calls each stage through this dict, so an entry can be wrapped.
_STAGE_FUNCS = {stage.name: stage.run for stage in STAGE_TABLE}
# input name -> the last stage in the table that reads it
_LAST_READER = {name: stage.name for stage in STAGE_TABLE for name in stage.reads}


def run_pipeline(
    settings: PipelineSettings,
    transports: Optional[dict] = None,
    until: str = "benchmarks",
) -> dict:
    """Run the stage chain from ``ingest`` through ``until``.

    Stages whose manifests still match their inputs are skipped. An
    unknown ``until`` is a ``ValueError``. Returns a summary dict with
    per-stage counts and the chained pipeline hash (the hash of the
    ``until`` stage's manifest); a run through ``benchmarks`` also writes
    it to ``out_dir/pipeline_manifest.json``.
    """
    if until not in STAGES:
        raise ValueError(f"unknown stage {until!r}; expected one of {STAGES}")
    wanted = STAGE_TABLE[: STAGES.index(until) + 1]

    settings.out_dir.mkdir(parents=True, exist_ok=True)
    store_in_corpus = _store_in_corpus(settings)
    corpus_hash = hash_corpus(settings.corpus_dir, skip=store_in_corpus)
    config_hash = _sha256_text(json.dumps(settings.fingerprint(), sort_keys=True))
    clients = build_clients(settings, transports)
    served = clients.store.served
    run = _RunContext(settings, clients, corpus_hash)

    upstream = ""
    summary: dict = {"corpus_hash": corpus_hash, "config_hash": config_hash, "stages": {}}
    for stage in wanted:
        name = stage.name
        stage_dir = settings.out_dir / STAGE_DIRS[name]
        manifest_path = stage_dir / "manifest.json"
        input_hash = _sha256_text(f"{corpus_hash}:{config_hash}:{upstream}")

        existing, existing_digest = _load_manifest(manifest_path)
        reason = _rerun_reason(stage_dir, existing, input_hash, settings.replay_root)
        if reason is None:
            logger.info("stage %s: up to date", name)
            summary["stages"][name] = {"counts": existing.get("counts", {}), "skipped": True}
            upstream = existing_digest
        else:
            if stage_dir.exists():
                shutil.rmtree(stage_dir)
            stage_dir.mkdir(parents=True)
            logger.info("stage %s: running (%s)", name, reason)
            served.clear()
            run.stage = stage
            try:
                counts = _STAGE_FUNCS[name](run, stage_dir)
            except ForgeError as exc:
                exc.args = (f"stage {name}: {exc}",)
                raise
            manifest = {
                "stage": name,
                "input_hash": input_hash,
                "counts": counts,
                "outputs": _hash_outputs(stage_dir),
            }
            if store_in_corpus is not None:
                manifest["responses"] = dict(served)
            upstream = _write_json(manifest_path, manifest)
            summary["stages"][name] = {"counts": counts, "skipped": False}
        run.release(name)

    summary["pipeline_hash"] = upstream
    summary["live_calls"] = clients.live_calls()
    if wanted == STAGE_TABLE:
        _write_json(settings.out_dir / "pipeline_manifest.json", {
            "corpus_hash": corpus_hash,
            "config_hash": config_hash,
            "pipeline_hash": upstream,
        })
    return summary
