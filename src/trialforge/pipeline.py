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
metadata is trusted. A run whose stages are all up to date writes no file:
``pipeline_manifest.json`` is rewritten only when its bytes differ. Nothing
in any output carries a timestamp; two runs over the same corpus with the
same settings are byte-identical.

Between runs, link and extract keep one memo each, ``out_dir/memo/<stage>.memo``
(`memo.Memo`), outside the stage directories: never a recorded output, never read
or written by a skipped stage. It keys each joined study, by
`_RunContext.entry_keys`, on the stage, the package's code and data files, the
settings' fingerprint less the settings only later stages read (`_LATE_SETTINGS`)
and the entry's own input bytes, and holds the entry's table lines, count
shares and the sha256 of each fixture its kernel read. A stage that runs
serves an entry from it only when those fixtures still hash the same, then
counts them as served; it runs the kernel for every other entry and rewrites
the memo with exactly this run's entries, in the join's order. So a rerun
recomputes only the entries whose inputs changed, and its tree equals a cold
build's. The memo changes no stage key: an edited fixture in a store outside
the corpus still leaves every stage up to date.

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
file only when its writer was skipped in this run or reused a memo entry,
so a cold run decodes none of its own outputs. Ingest also hands on the
line it wrote for each study: dedupe writes those lines for the studies it
passes through unchanged, encodes only the studies it merged, and drops
them once it has run. Dedupe refuses an id that two surviving studies hold,
so link, extract and benchmarks read one study per id, through one per-study
join, `_RunContext.join`; link and extract each map one kernel over it and
write its rows sorted, so the order of entries and calls never shows.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import stat
from dataclasses import dataclass, field
from operator import attrgetter, sub
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, get_type_hints

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
    corpus_file,
    corpus_files,
    decode_text,
    extract_pubmed_study,
    load_source_mapping,
    parse_ctgov_study,
    parse_registry_record,
    read_json,
    read_regular,
)
from .memo import EMPTY, Memo
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
    CanonicalStudy,
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


def _tree_digests(root, skip: Optional[str] = None, leave_out: str = "", prune: str = "") -> dict[str, str]:
    """Relative posix path -> sha256 of every regular file under ``root``.

    Files come in the order of their path parts (``a/b`` before ``a-b/x``),
    because each directory's entries are visited sorted by name. A symlink
    to a file counts; a symlinked directory is not entered, and a broken
    link or a FIFO is left out unopened. ``skip``, a relative directory
    path, and every directory named ``prune`` are pruned, and a file named
    ``leave_out`` is not read. An unreadable or missing directory adds
    nothing. Each directory is opened once and each file through it, with no
    further stat of its own.
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
                    if rel != skip and entry.name != prune and not entry.is_symlink():
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
    return _digest_files(_tree_digests(corpus_dir, skip_rel))


def _digest_files(files: dict[str, str]) -> str:
    """One digest of ``files`` (relative path -> sha256), in their order."""
    digest = hashlib.sha256()
    for rel, sha256 in files.items():
        digest.update(f"{rel}\x00{sha256}\x00".encode("utf-8"))
    return digest.hexdigest()


def _hash_outputs(stage_dir: Path) -> dict:
    return _tree_digests(stage_dir, leave_out="manifest.json")


def _load_manifest(path: Path) -> tuple[Optional[dict], str]:
    """The stage manifest and the sha256 of its bytes, read once through its directory.

    The manifest is None when it or its directory is missing, unreadable or ill-shaped.
    """
    try:
        data = read_regular(path)
        manifest = None if data is None else json.loads(data.decode("utf-8"))
    except (ValueError, OSError):  # bad JSON or bad UTF-8
        return None, ""
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("outputs"), dict)
        and isinstance(manifest.get("responses", {}), dict)
    ):
        return None, ""
    return manifest, hashlib.sha256(data).hexdigest()


def _changed_file(root: Path, recorded: dict, dirs: Optional[dict[str, int]] = None) -> Optional[str]:
    """The first path in ``recorded`` (relative path -> sha256) missing or changed under ``root``.

    Each recorded file's directory is opened once; each file is then one
    stat (anything but a regular file, symlinks followed, is changed and
    never opened) and one read of its bytes through that directory. Given
    ``dirs`` (relative directory -> its descriptor), the caller keeps the
    directories opened and closes them.
    """
    owned, dirs = dirs is None, {} if dirs is None else dirs
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
        if owned:
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


#: The compact ASCII dump of the absorbed ids and articles in a memo key.
_encode_compact = store.json_encoder(sort_keys=True, separators=(",", ":"))


def _code_digest() -> str:
    """The digest of every file of the imported package, by relative path, but those under ``__pycache__``."""
    return _digest_files(_tree_digests(DATA_DIR.parent, prune="__pycache__"))


def _write_tables(
    run: _RunContext, out: Path, names: tuple, entries: Iterator, kernel: Callable, *args, counts: Optional[dict] = None
) -> dict:
    """Write each table of ``names``: the rows ``kernel(entry, *args) -> {table: rows}`` gives for ``entries``; return row counts.

    Each entry's lines, its share of ``counts`` (which the kernel tallies) and the fixtures it read come from the
    stage's `Memo` when it holds them and each of those fixtures still hashes the same; the kernel runs only for the
    rest. The memo is rewritten with every entry's, in entry order, table by table, as each table goes to
    ``out/<name>.jsonl`` by `store.write_sorted_lines`, encoded by its `store.line_encoder`. A table is held only when
    every entry was computed: otherwise its readers read the file.
    """
    counts = {} if counts is None else counts
    memo = Memo(run.settings.out_dir / "memo" / f"{run.stage.name}.memo", names, tuple(counts))
    replay, key_of = run.clients.store, run.entry_keys()
    items: list[list] = [[] for _ in names]  # each table's rows made or lines reused, in entry order
    # each entry's key, number of items of each table, count shares and fixtures, in entry order: few objects kept
    # alive per entry, since each costs collector time, and the memo's one empty map for those without shares or fixtures
    keys, sizes, shares, reads = [], [[] for _ in names], [], []
    written, dirs, reused = {}, {}, 0  # dirs: the fixture directories the checks opened
    get, traced = memo.get, replay.traced
    try:
        for entry in entries:
            key = key_of(entry)
            found = get(key)
            if found is None or found[2] and _changed_file(replay.root, found[2], dirs) is not None:
                before = tuple(counts.values())
                rows, fixtures = traced(kernel, entry, *args)
                parts, fixtures = list(map(rows.__getitem__, names)), fixtures or EMPTY
                share = dict(zip(counts, map(sub, counts.values(), before))) if counts else EMPTY
            else:
                (parts, share, fixtures), reused = found, reused + 1
                replay.served.update(fixtures)
                for name, value in share.items():
                    counts[name] += value
            keys.append(key)
            shares.append(share)
            reads.append(fixtures)
            for table, size, part in zip(items, sizes, parts):
                table += part
                size.append(len(part))
        memo.start(keys, sizes, shares, reads, reused)
        for name, table in zip(names, items):
            encode = store.line_encoder(store.TABLE_COLUMNS[name])
            lines = [item if isinstance(item, str) else encode(item) for item in table] if reused else list(map(encode, table))
            memo.feed(lines)
            path = out / f"{name}.jsonl"
            unique = dict(zip(lines, table))
            ordered = store.write_sorted_lines(path, unique)
            written[name] = len(ordered) if reused else len(run.hold(path, list(map(unique.__getitem__, ordered))))
        memo.finish()
    finally:
        memo.close()
        for dir_fd in dirs.values():
            os.close(dir_fd)
    run.reuse[run.stage.name] = {"reused": reused, "computed": len(keys) - reused}
    return written


# ---------------------------------------------------------------------------
# run input readers


def _json_objects(path: Path, data: bytes) -> list[dict]:
    """``data``, the bytes of the corpus file ``path``, as a JSON array of objects; any other shape is a ValueError."""
    rows = read_json(path, data)
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ValueError(f"{path}: expected a JSON array of objects")
    return rows


def _corpus_entries(path: Path, cls: type) -> list:
    """Each entry of the corpus JSON array `corpus_file` reads, as a ``cls`` view, by id; none when it is absent.

    Two entries with one id are a ValueError, except articles: dedupe merges those into one study.
    """
    data = corpus_file(path)
    if data is None:
        return []
    views, first = [], {}
    for n, row in enumerate(_json_objects(path, data)):
        view = parse_entry(cls, row, f"{path}: entry {n}")
        if cls is not Article and first.setdefault(view[0], n) != n:
            raise ValueError(f"{path}: entries {first[view[0]]} and {n} both hold {cls._fields[0]} {view[0]!r}")
        views.append(view)
    return sorted(views, key=lambda view: view[0])


def _corpus_registry_batches(corpus_dir: Path) -> list[tuple[Path, list[dict]]]:
    return [(path, _json_objects(path, data)) for path, data in corpus_files(corpus_dir / "registry", ".json")]


class _CtgovDocs(dict):
    """NCT id -> the checked view of its CT.gov document; ``digests`` maps each id to the sha256 of its file's bytes."""

    def __init__(self) -> None:
        super().__init__()
        self.digests: dict[str, str] = {}


def _corpus_ctgov_docs(corpus_dir: Path) -> _CtgovDocs:
    """Each CT.gov document's checked view, keyed by its NCT id; two files with one id exit 2."""
    docs, paths = _CtgovDocs(), {}
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
        docs.digests[nct_id] = hashlib.sha256(data).hexdigest()
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


class StudyEntry(NamedTuple):
    """One surviving study id joined to what link and extract read about it.

    ``study``: the surviving study with the id; dedupe refuses a second. ``absorbed``: the ids it
    absorbed, sorted. ``doc``: the CT.gov document with the smallest of all these ids, or None.
    ``articles``: the distinct articles with one of them as pmid, in pmid order.
    ``nct_articles``: one per pmid, those naming the id, then each absorbed id, an order `rank_abstracts` keeps.
    """

    study_id: str
    study: CanonicalStudy
    doc: Optional[CtgovDoc]
    absorbed: tuple[str, ...]
    articles: tuple[Article, ...]
    nct_articles: tuple[Article, ...]


# the studies `_RunContext.join` reads
_JOINED = "dedupe/studies.jsonl"


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

    `join` is the one per-study join: a surviving study can have absorbed the id its CT.gov document
    or article carries (the surviving id is lexicographic, not source-ranked), so stages use only it.
    `entry_keys` keys the running map stage's `Memo` on ``memo_hash``, the digest of the settings' fingerprint less
    `_LATE_SETTINGS`; `reuse` collects, per map stage that ran, how many entries it reused and computed.
    """

    def __init__(self, settings: PipelineSettings, clients: _Clients, corpus_hash: str, memo_hash: str = "") -> None:
        self.settings = settings
        self.clients = clients
        self.corpus_hash = corpus_hash
        self.memo_hash = memo_hash
        self.stage: Optional[Stage] = None
        self.reuse: dict[str, dict[str, int]] = {}
        self._held: dict[str, list] = {}
        self._lines: dict[str, list[str]] = {}
        self._digests: dict[str, dict[str, str]] = {}
        self._inputs: dict[str, object] = {}
        self._code: Optional[str] = None

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
                self._digests.pop(name, None)
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
        if held is None and name == _JOINED:  # `entry_keys` digests each study's line
            lines: list[str] = []
            studies = read_studies_jsonl(path, lines)
            self._digests[name] = {study.study_id: _sha256_text(line) for study, line in zip(studies, lines)}
            return studies
        if held is None:
            return read_studies_jsonl(path)
        for study in held:
            check_study(study)
        return held

    def held_lines(self, name: str) -> list[str]:
        """The lines held with the declared input ``name``, in the order of its items; empty when none were."""
        self._check_declared(name)
        return self._lines.pop(name, [])

    def entry_keys(self) -> Callable[[StudyEntry], str]:
        """The running stage's memo key of an entry: the sha256 of the stage, the code, ``memo_hash`` and what a kernel
        reads of the entry, which is the sha256 of its document's file (``-`` for none) and of its study's line, then
        any absorbed ids and articles, encoded. The first call of a run digests the code."""
        if self._code is None:
            self._code = _code_digest()
        studies = self.read(_JOINED)
        if _JOINED not in self._digests:  # handed on by dedupe, with the lines it wrote
            self._digests[_JOINED] = {study.study_id: _sha256_text(line) for study, line in zip(studies, self.held_lines(_JOINED))}
        prefix, lines, docs = f"{self.stage.name} {self._code} {self.memo_hash}", self._digests[_JOINED], self.read("ctgov").digests

        def key(entry: StudyEntry) -> str:
            doc = "-" if entry.doc is None else docs[entry.doc.nct_id]
            text = f"{prefix} {doc} {lines[entry.study_id]}"
            if entry.absorbed or entry.articles or entry.nct_articles:
                text += " " + _encode_compact((entry.absorbed, entry.articles, entry.nct_articles))
            return _sha256_text(text)

        return key

    def join(self, articles: Sequence[Article]) -> Iterator[StudyEntry]:
        """Each surviving study id, in id order, joined to its CT.gov document, absorbed ids and ``articles``.

        Extract alone passes articles. Entries are made as they are taken, so each lives only while used.
        """
        studies = sorted(self.read(_JOINED), key=attrgetter("study_id"))
        links, docs = self.read("dedupe/dup_links.jsonl"), self.read("ctgov")
        aliases = {row["tail_id"]: row["head_id"] for row in links if row["tail_id"] != row["head_id"]}
        absorbed: dict[str, list[str]] = {}
        for absorbed_id, study_id in sorted(aliases.items()):
            absorbed.setdefault(study_id, []).append(absorbed_id)
        doc_of: dict[str, CtgovDoc] = {}
        for doc_id in sorted(docs):
            doc_of.setdefault(aliases.get(doc_id, doc_id), docs[doc_id])
        articles_of: dict[str, list[Article]] = {}
        citing: dict[str, list[Article]] = {}
        for article in dict.fromkeys(articles):
            articles_of.setdefault(aliases.get(article.pmid, article.pmid), []).append(article)
            for triple in extract_nct_links(article):
                citing.setdefault(triple.tail_id, []).append(article)
        for study in studies:
            study_id = study.study_id
            ids = (study_id, *absorbed.get(study_id, ()))
            linked: dict[str, Article] = {}
            for alias in ids:
                for article in citing.get(alias, ()):
                    linked.setdefault(article.pmid, article)
            yield StudyEntry(
                study_id, study, doc_of.get(study_id), ids[1:],
                tuple(articles_of.get(study_id, ())), tuple(linked.values()),
            )


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
    # One study per id from here on: `studies` is keyed on it, and the join gives each id one entry.
    first: dict[str, CanonicalStudy] = {}
    for study in merged:
        other = first.setdefault(study.study_id, study)
        if other is not study:
            raise ValueError(f"study id {study.study_id} survives dedupe twice, from {other.source.value} and {study.source.value}")
    # Most studies pass through dedupe as the very objects ingest encoded;
    # `records` keeps each keyed object alive until the lines are written.
    known = dict(zip(map(id, records), run.held_lines("ingest/studies.jsonl")))
    run.hold(out / "studies.jsonl", merged, write_studies_jsonl(merged, out / "studies.jsonl", known))

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


_LINK_TABLES = ("conditions", "drugs", "endpoints", "biomarkers")
_EXTRACT_TABLES = ("trial_results", "adverse_events", "disposition", "trial_outcomes")


def _link_rows(
    entry: StudyEntry, clients: _Clients, drug_vocab, normalization, biomarker_index: BiomarkerIndex,
    linked: dict, classified: dict, matched: dict,
) -> dict[str, list[dict]]:
    """The link tables' rows for one joined study id; ``linked``, ``classified`` and ``matched`` memoize for the run.

    ``linked`` and ``classified`` keep with each value the fixtures read to make it, served again at each use.
    """
    study_id, drugs = entry.study_id, []
    for intervention in entry.doc.interventions if entry.doc is not None else ():
        name = intervention.name.strip()
        if intervention.type.upper() == "DRUG" and name:
            if name not in linked:
                linked[name] = clients.store.traced(link_drug, name, drug_vocab, normalization, clients.rxnorm)
            drug, reads = linked[name]
            clients.store.served.update(reads)
            drugs.append(store.table_row("drugs", drug, study_id=study_id))
    study, endpoints, biomarkers = entry.study, [], []
    conditions = [store.table_row("conditions", annotation) for annotation in annotate_conditions(study, clients.annotator)]
    for text in (*study.primary_outcomes, *study.secondary_outcomes):
        if text not in matched:
            matched[text] = _biomarker_matches(text, biomarker_index)
        for match in matched[text]:
            biomarkers.append(store.table_row("biomarkers", match, study_id=study_id))
        text = text.strip()
        if not text:
            continue
        if text not in classified:
            classified[text] = clients.store.traced(classify_endpoint, text, clients.llm)
        classifications, reads = classified[text]
        clients.store.served.update(reads)
        for classification in classifications:
            endpoints.append(store.table_row("endpoints", classification, study_id=study_id, outcome_text=classification.outcome))
    return {"conditions": conditions, "drugs": drugs, "endpoints": endpoints, "biomarkers": biomarkers}


def _stage_link(run: _RunContext, out: Path) -> dict:
    vocab = run.read("drug_vocab"), run.read("drug_normalization"), run.read("biomarker_vocab")
    return _write_tables(run, out, _LINK_TABLES, run.join(()), _link_rows, run.clients, *vocab, {}, {}, {})


def _extract_rows(entry: StudyEntry, clients: _Clients, meddra, keyword_tokens, counts: dict[str, int]) -> dict:
    """The extract tables' rows for one joined study id, to which its document's and articles' rows are keyed.

    Its PICO arms are numbered across its distinct reports; ``counts`` tallies, for the run, documents with no
    results section and PICO rows.
    """
    study_id, doc = entry.study_id, entry.doc
    results, events, disposition = [], [], []
    if doc is not None:
        try:
            results = [store.table_row("trial_results", row, study_id=study_id) for row in parse_ctgov_results(doc)]
        except MissingResultsSection:
            counts["skipped_no_results"] += 1
        events = [store.table_row("adverse_events", row, study_id=study_id) for row in parse_adverse_events(doc, meddra)]
        arms = build_disposition(doc, disposition_tables_from_ctgov(doc))
        disposition = [store.table_row("disposition", row, study_id=study_id) for row in arms]

    pico = []
    for article in entry.articles:
        title, abstract = article.title.strip(), article.abstract.strip()
        if title and abstract:
            pico.extend(extract_pubmed_pico(study_id, title, abstract, clients.llm))
    if pico:
        pico = list(dict.fromkeys(pico))
        counts["pico_rows"] += len(pico)
        results.extend(store.table_row("trial_results", row) for row in pico)
        disposition.extend(store.table_row("disposition", row) for row in pico_disposition_rows(study_id, pico))

    study, labels = entry.study, []
    if study.status is StudyStatus.COMPLETED:
        pvalues = primary_pvalues(doc) if doc is not None else []
        labels = [classify_completed_outcome(study, entry.nct_articles, clients.llm, pvalues)]
    elif study.status is StudyStatus.TERMINATED:
        labels = [label_terminated_study(study, doc.why_stopped if doc is not None else "", keyword_tokens)]
    outcomes = [store.table_row("trial_outcomes", label) for label in labels]
    return {"trial_results": results, "adverse_events": events, "disposition": disposition, "trial_outcomes": outcomes}


def _stage_extract(run: _RunContext, out: Path) -> dict:
    counts = {"skipped_no_results": 0, "pico_rows": 0}
    extras = run.clients, run.read("meddra_vocab"), run.read("termination_keywords"), counts
    entries = run.join(run.read("pubmed"))
    return counts | _write_tables(run, out, _EXTRACT_TABLES, entries, _extract_rows, *extras, counts=counts)


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
    items.extend(gen_completion_items([(entry.study, entry.doc) for entry in run.join(()) if entry.doc is not None], outcomes))

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
        *(f"link/{name}.jsonl" for name in _LINK_TABLES),
        *(f"extract/{name}.jsonl" for name in _EXTRACT_TABLES),
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
# the settings only stages after extract read, left out of the memo keys: graph reads `awaiting`, benchmarks the rest
_LATE_SETTINGS = ("seed", "awaiting", "allow_small_split", "split_test_size", "split_validation_size", "search_test_size")


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
    fingerprint = settings.fingerprint()
    config_hash = _sha256_text(json.dumps(fingerprint, sort_keys=True))
    for name in _LATE_SETTINGS:
        del fingerprint[name]
    clients = build_clients(settings, transports)
    served = clients.store.served
    run = _RunContext(settings, clients, corpus_hash, _sha256_text(json.dumps(fingerprint, sort_keys=True)))

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
            summary["stages"][name] = {"counts": counts, "skipped": False, **run.reuse.get(name, {})}
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
