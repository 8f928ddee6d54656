r"""Ten-table TSV database with a manifest, and the tabular file codec.

Every TSV file trialforge writes goes through ``write_tsv``/``read_tsv``,
and every JSON-lines file through ``write_lines``/``read_jsonl``;
``write_jsonl`` encodes each row with ``encode_row`` on the way. A line
already encoded is written as it is: the row writer of the link and
extract tables keys rows by their lines, and the study file (its header
line first; ``schema`` reads it back, checking the header) reuses the
lines ingest encoded for the studies dedupe passes through. A TSV cell
escapes backslash, tab, newline and CR as ``\\``, ``\t``, ``\n`` and
``\r``, so any text survives the round trip; a JSON line is the
key-sorted dump of one row, non-ASCII text kept as is. Rows read back are
plain dicts; ``schema.decode_record`` turns one into a record.

``write_database`` checks each table in one pass (columns, text cells,
and the key order that finds repeated keys by comparing neighbours),
then the study ids of the child tables, before it writes a byte.
Database tables are written with a header row and rows sorted by
primary key, which makes two runs over the same input byte-identical.
The manifest (row counts plus a sha256 per file and for the bundle) is
written last so a torn run never leaves a manifest pointing at missing
files.

The store deals in string-valued dicts only; ``table_row`` turns a
domain record into one, formatting every cell by one rule: text is kept
as is, ``None`` is empty, booleans are ``true``/``false``, enums are
their value, sets are sorted and tuples kept in order, each joined with
``|``.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Optional

from .errors import ForeignKeyViolation

TABLE_COLUMNS = {
    "studies": (
        "study_id",
        "source",
        "title",
        "brief_summary",
        "study_type",
        "sponsor",
        "start_year",
        "phases",
        "gender",
        "min_age",
        "max_age",
        "healthy_volunteers",
        "status",
        "target_accrual",
        "actual_accrual",
        "results_text",
        "flagged",
    ),
    "conditions": ("study_id", "mesh_id", "mesh_term", "mesh_type"),
    "drugs": (
        "study_id",
        "raw_name",
        "cleaned_name",
        "rxcui",
        "rxnorm_method",
        "drugbank_id",
        "drugbank_method",
        "approved_fda",
        "approved_ema",
        "approved_pmda",
    ),
    "disposition": (
        "study_id",
        "design_group_id",
        "group_type",
        "intervention_id",
        "intervention_type",
        "treatment_name",
        "description",
    ),
    "adverse_events": (
        "study_id",
        "arm_description",
        "term",
        "organ_system",
        "num_affected",
        "num_at_risk",
        "is_serious",
        "description",
        "meddra_code",
    ),
    "trial_results": (
        "study_id",
        "population_text",
        "population_n",
        "arm_label",
        "is_control",
        "outcome_text",
    ),
    "trial_outcomes": ("study_id", "outcome_type", "evidence"),
    "endpoints": ("study_id", "outcome_text", "domain", "subdomain"),
    "biomarkers": (
        "study_id",
        "span",
        "biomarker_name",
        "biomarker_class",
        "biomarker_type",
        "biomarker_genes",
        "match_type",
    ),
    "relations": ("head_id", "relation_type", "tail_id", "head_source", "tail_source"),
}

TABLE_ORDER = tuple(TABLE_COLUMNS)

#: Sort / uniqueness key per table.
TABLE_KEYS = {
    "studies": ("study_id",),
    "conditions": ("study_id", "mesh_id", "mesh_type"),
    "drugs": ("study_id", "raw_name"),
    "disposition": ("study_id", "design_group_id", "intervention_id"),
    "adverse_events": ("study_id", "arm_description", "term", "is_serious", "organ_system"),
    "trial_results": ("study_id", "arm_label", "outcome_text"),
    "trial_outcomes": ("study_id",),
    "endpoints": ("study_id", "outcome_text", "domain", "subdomain"),
    "biomarkers": ("study_id", "span", "biomarker_name"),
    "relations": ("head_id", "relation_type", "tail_id"),
}

#: Child tables whose study_id must exist in the studies table.
FK_TABLES = (
    "conditions",
    "drugs",
    "disposition",
    "adverse_events",
    "trial_results",
    "trial_outcomes",
    "endpoints",
    "biomarkers",
)

MANIFEST_NAME = "manifest.tsv"

_UNESCAPE_RE = re.compile(r"\\[\\tnr]")
_UNESCAPE_MAP = {"\\\\": "\\", "\\t": "\t", "\\n": "\n", "\\r": "\r"}


def escape_cell(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def unescape_cell(value: str) -> str:
    return _UNESCAPE_RE.sub(lambda match: _UNESCAPE_MAP[match.group(0)], value)


def write_tsv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> bytes:
    """Write a header line and one line per row; return the bytes written.

    Every cell must be a ``str``; a line is the row's cells passed through
    :func:`escape_cell` and joined by tabs, and ends in ``\\n``. A row that
    escaping leaves unchanged (no backslash, newline or CR, and a tab only
    between cells) is joined once, without escaping each cell.
    """
    lines = []
    for cells in chain([header], rows):
        line = "\t".join(cells)
        if "\\" in line or "\n" in line or "\r" in line or line.count("\t") != len(cells) - 1:
            line = "\t".join(map(escape_cell, cells))
        lines.append(line)
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    Path(path).write_bytes(payload)
    return payload


def read_tsv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """The header and the rows of a file written by :func:`write_tsv`, cells unescaped."""
    lines = Path(path).read_bytes().decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    # Unescaping leaves a line without a backslash as it is.
    table = [
        line.split("\t") if "\\" not in line else [unescape_cell(cell) for cell in line.split("\t")]
        for line in lines
    ]
    return (table[0] if table else []), table[1:]


def json_encoder(**options) -> Callable[[object], str]:
    """A function equivalent to ``json.JSONEncoder(**options).encode``, its C encoder built once.

    ``JSONEncoder.encode`` builds a new C encoder on every call; this one is
    built with the arguments ``iterencode`` passes, except that cycles are
    not tracked: rows and requests are built from text, numbers and flat
    lists and cannot hold one. A value that cannot be serialized raises the
    encoder's own ``TypeError``. Without the ``_json`` accelerator, or with
    an ``indent`` (which the C encoder ignores before Python 3.13), this is
    the bound ``encode`` method.
    """
    encoder = json.JSONEncoder(**options)
    if json.encoder.c_make_encoder is None or encoder.indent is not None:
        return encoder.encode
    make = json.encoder.c_make_encoder(
        None,
        encoder.default,
        json.encoder.encode_basestring_ascii if encoder.ensure_ascii else json.encoder.encode_basestring,
        None,
        encoder.key_separator,
        encoder.item_separator,
        encoder.sort_keys,
        encoder.skipkeys,
        encoder.allow_nan,
    )

    def encode(value) -> str:
        return "".join(make(value, 0))

    return encode


#: The one JSON-lines row encoder: a key-sorted dump, non-ASCII text kept as is.
encode_row = json_encoder(sort_keys=True, ensure_ascii=False)


def line_encoder(columns: tuple[str, ...]) -> Callable[[dict], str]:
    """`encode_row` for a row whose keys are ``columns`` and whose cells are all text.

    The line is one format string over the sorted columns, each cell
    quoted by the JSON encoder's own string encoder, so the bytes are the
    same; `table_row` makes such rows.
    """
    quote, names = json.encoder.encode_basestring, sorted(columns)
    template = "{" + ", ".join(f"{quote(name)}: %s" for name in names) + "}"
    cells = itemgetter(*names)
    return lambda row: template % tuple(map(quote, cells(row)))


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each line followed by ``\\n``; return the number of lines."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
            count += 1
    return count


def write_jsonl(path: str | Path, rows: Iterable) -> int:
    """Write one :func:`encode_row` dump per line; return the number of rows."""
    return write_lines(path, map(encode_row, rows))


#: ``json.dumps(row, sort_keys=True)``: the ASCII-escaped form of `encode_row`.
encode_escaped = json_encoder(sort_keys=True)


def write_sorted_lines(path: str | Path, unique: dict) -> list[str]:
    """Write the lines of ``unique`` (line -> its row, or the line again where no row is at hand) in the order of
    their rows' `encode_escaped` dumps; return them so.

    Each line is its row's `encode_row` dump. Unescaped, the encoder leaves
    only DEL and non-ASCII characters raw, so every other line is its own
    escaped dump; just the rows with such a character are dumped a second
    time for their sort key, decoded first where ``unique`` holds no row.
    """
    escaped = {
        line: encode_escaped(json.loads(line) if isinstance(row, str) else row)
        for line, row in unique.items()
        if not line.isascii() or "\x7f" in line
    }
    ordered = sorted(unique, key=lambda line: escaped.get(line, line)) if escaped else sorted(unique)
    write_lines(path, ordered)
    return ordered


def read_jsonl(path: str | Path) -> list:
    """Every non-blank line of a JSON-lines file, decoded."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@dataclass(frozen=True)
class DatabaseBundle:
    out_dir: Path
    counts: dict[str, int]
    file_hashes: dict[str, str]
    bundle_hash: str


def _refuse_rows(name: str, rows: Sequence[dict]) -> None:
    """Raise on the first row of ``name`` whose columns are wrong or whose cell is not text."""
    columns = set(TABLE_COLUMNS[name])
    for row in rows:
        if set(row) != columns:
            missing, extra = columns - set(row), set(row) - columns
            raise ValueError(f"table {name}: bad row shape (missing {sorted(missing)}, extra {sorted(extra)})")
        for column, cell in row.items():
            if not isinstance(cell, str):
                raise TypeError(f"table {name}: cell {column} must be str, got {type(cell).__name__}")


def _ordered_table(name: str, rows: Sequence[dict]) -> tuple[list[dict], Optional[tuple]]:
    """``rows`` sorted by key, and the first key in row order that an earlier row holds too (None when unique).

    A row with the wrong columns or a cell that is not text raises first.
    """
    shape = frozenset(TABLE_COLUMNS[name])
    if (
        not all(row.keys() == shape for row in rows)
        or set(map(type, chain.from_iterable(map(dict.values, rows)))) - {str}
    ):
        # names the row at fault, or passes rows whose cells are str subclasses
        _refuse_rows(name, rows)
    keys = list(map(itemgetter(*TABLE_KEYS[name]), rows))
    order = sorted(range(len(rows)), key=keys.__getitem__)
    # a stable sort puts equal keys next to each other, in row order
    repeats = [later for earlier, later in zip(order, order[1:]) if keys[earlier] == keys[later]]
    duplicate = tuple(rows[min(repeats)][column] for column in TABLE_KEYS[name]) if repeats else None
    return [rows[index] for index in order], duplicate


def _bundle_hash(file_hashes: dict[str, str]) -> str:
    """The bundle digest: sha256 over every table's name and file digest, in table order."""
    return hashlib.sha256(
        "".join(f"{name}:{file_hashes[name]}" for name in TABLE_ORDER).encode("ascii")
    ).hexdigest()


def write_database(tables: dict, out_dir: str | Path) -> DatabaseBundle:
    """Check all ten tables, then write each sorted by its key, plus the manifest.

    ``tables`` maps a table name to a list of its rows, each a dict from
    every column of ``TABLE_COLUMNS`` to its text; an absent table is empty.
    Refused, in this order: an unknown table name; a row with a missing
    or extra column, or a cell that is not a ``str`` (the first such row
    of the first such table in ``TABLE_ORDER``); two rows with one
    ``TABLE_KEYS`` key; a child row whose ``study_id`` no ``studies`` row
    holds (``ForeignKeyViolation``). Every check happens before the first
    byte is written, so a refusal leaves the output directory untouched.
    """
    for name in tables:
        if name not in TABLE_COLUMNS:
            raise ValueError(f"unknown table {name!r}; expected one of {TABLE_ORDER}")
    ordered: dict[str, list[dict]] = {}
    duplicates = []
    for name in TABLE_ORDER:
        ordered[name], duplicate = _ordered_table(name, tables.get(name, ()))
        if duplicate is not None:
            duplicates.append(f"table {name}: duplicate key {duplicate}")
    if duplicates:
        raise ValueError(duplicates[0])
    study_ids = set(map(itemgetter("study_id"), ordered["studies"]))
    broken = [
        f"{name}:{study_id}"
        for name in FK_TABLES
        for study_id in map(itemgetter("study_id"), tables.get(name, ()))
        if study_id not in study_ids
    ]
    if broken:
        shown = ", ".join(broken[:10])
        more = f" (+{len(broken) - 10} more)" if len(broken) > 10 else ""
        raise ForeignKeyViolation(f"unresolved study ids: {shown}{more}")

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    counts: dict[str, int] = {}
    file_hashes: dict[str, str] = {}
    for name in TABLE_ORDER:
        columns = TABLE_COLUMNS[name]
        payload = write_tsv(out_path / f"{name}.tsv", columns, map(itemgetter(*columns), ordered[name]))
        counts[name] = len(ordered[name])
        file_hashes[name] = hashlib.sha256(payload).hexdigest()

    bundle_hash = _bundle_hash(file_hashes)
    manifest_rows = [(name, str(counts[name]), file_hashes[name]) for name in TABLE_ORDER]
    manifest_rows.append(("bundle", str(sum(counts.values())), bundle_hash))
    write_tsv(out_path / MANIFEST_NAME, ("table", "rows", "sha256"), manifest_rows)

    return DatabaseBundle(out_path, counts, file_hashes, bundle_hash)


def read_table(path: str | Path, name: str) -> list[dict]:
    columns = TABLE_COLUMNS[name]
    header, rows = read_tsv(path)
    if tuple(header) != columns:
        raise ValueError(f"table {name}: header mismatch")
    for cells in rows:
        if len(cells) != len(columns):
            raise ValueError(f"table {name}: row has {len(cells)} cells, expected {len(columns)}")
    return [dict(zip(columns, cells)) for cells in rows]


def read_database(out_dir: str | Path) -> dict[str, list[dict]]:
    out_path = Path(out_dir)
    return {name: read_table(out_path / f"{name}.tsv", name) for name in TABLE_ORDER}


def verify_manifest(out_dir: str | Path) -> list[str]:
    """Re-derive counts and hashes; return a list of mismatches (empty = clean)."""
    out_path = Path(out_dir)
    manifest_path = out_path / MANIFEST_NAME
    if not manifest_path.is_file():
        return ["manifest missing"]
    problems = []
    recorded = {}
    for lineno, cells in enumerate(read_tsv(manifest_path)[1], start=2):
        try:
            name, count, digest = cells
            recorded[name] = (int(count), digest)
        except ValueError:
            problems.append(f"manifest line {lineno}: expected table, row count and sha256, got {cells}")

    derived_hashes = {}
    total = 0
    for name in TABLE_ORDER:
        path = out_path / f"{name}.tsv"
        if not path.is_file():
            problems.append(f"{name}: file missing")
            continue
        payload = path.read_bytes()
        digest = hashlib.sha256(payload).hexdigest()
        derived_hashes[name] = digest
        rows = len(payload.decode("utf-8").rstrip("\n").split("\n")) - 1
        total += rows
        if name not in recorded:
            problems.append(f"{name}: not in manifest")
            continue
        want_count, want_digest = recorded[name]
        if want_count != rows:
            problems.append(f"{name}: manifest says {want_count} rows, file has {rows}")
        if want_digest != digest:
            problems.append(f"{name}: content hash mismatch")
    if "bundle" in recorded and len(derived_hashes) == len(TABLE_ORDER):
        want_count, want_digest = recorded["bundle"]
        if want_digest != _bundle_hash(derived_hashes):
            problems.append("bundle: content hash mismatch")
        if want_count != total:
            problems.append(f"bundle: manifest says {want_count} rows, files have {total}")
    return problems


# --- domain object -> row ---------------------------------------------------


def _cell(value) -> str:
    """One cell's text: the single formatting rule for every table."""
    if type(value) is str:
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value._value_
    if isinstance(value, int):
        return str(value)
    if isinstance(value, set):
        return "|".join(sorted(_cell(item) for item in value))
    if isinstance(value, tuple):
        return "|".join(_cell(item) for item in value)
    raise TypeError(f"no cell format for {type(value).__name__}: {value!r}")


def table_row(table: str, record, **extra) -> dict:
    """The ``table`` row of a domain record, with ``extra`` fields on top.

    Columns are read by name from the record's fields; ``extra`` supplies
    columns the record does not carry (a drug entry's ``study_id``) or
    names it differently (an endpoint's ``outcome_text``), and overrides
    a column the record does carry (the ``study_id`` of a row parsed from
    a CT.gov document that dedupe absorbed into another study).
    """
    fields, row = vars(record), {}
    for column in TABLE_COLUMNS[table]:
        value = extra[column] if column in extra else fields[column]
        row[column] = value if type(value) is str else _cell(value)
    return row

