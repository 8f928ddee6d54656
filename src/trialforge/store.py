r"""Ten-table TSV database with a manifest, and the tabular file codec.

Every TSV file trialforge writes goes through ``write_tsv``/``read_tsv``,
and every JSON-lines row file through ``write_jsonl``/``read_jsonl``.
The study file is written by ``write_jsonl`` too, its header line as the
first row; ``schema`` reads it back, checking the header. A TSV cell
escapes backslash, tab, newline and CR as ``\\``, ``\t``, ``\n`` and
``\r``, so any text survives the round trip; a JSON line is the
key-sorted dump of one row, non-ASCII text kept as is. Rows read back are
plain dicts; ``schema.decode_record`` turns one into a record.

Database tables are written with a header row and rows sorted by
primary key, which makes two runs over the same input byte-identical.
The manifest (row counts plus a sha256 per file and for the bundle) is
written last so a torn run never leaves a manifest pointing at missing
files.

The store deals in string-valued dicts only; ``table_row`` turns a
domain record into one, formatting every cell by one rule: ``None`` is
empty, booleans are ``true``/``false``, enums are their value, sets
are sorted and tuples kept in order, each joined with ``|``.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path

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
    "adverse_events": ("study_id", "arm_description", "term", "is_serious"),
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


#: The one JSON-lines row encoder: a key-sorted dump, non-ASCII text kept
#: as is. Built once, where ``json.dumps`` with these options builds one a call.
encode_row = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode


def write_jsonl(path: str | Path, rows: Iterable) -> int:
    """Write one :func:`encode_row` dump per line; return the number of rows."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(encode_row(row) + "\n")
            count += 1
    return count


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


def _validate_tables(tables: dict) -> dict[str, list[dict]]:
    for name in tables:
        if name not in TABLE_COLUMNS:
            raise ValueError(f"unknown table {name!r}; expected one of {TABLE_ORDER}")
    full = {name: list(tables.get(name, [])) for name in TABLE_ORDER}
    for name, rows in full.items():
        columns = TABLE_COLUMNS[name]
        for row in rows:
            if set(row) != set(columns):
                missing = set(columns) - set(row)
                extra = set(row) - set(columns)
                raise ValueError(
                    f"table {name}: bad row shape (missing {sorted(missing)}, extra {sorted(extra)})"
                )
            for column, cell in row.items():
                if not isinstance(cell, str):
                    raise TypeError(
                        f"table {name}: cell {column} must be str, got {type(cell).__name__}"
                    )
    return full


def _check_foreign_keys(full: dict[str, list[dict]]) -> None:
    study_ids = {row["study_id"] for row in full["studies"]}
    broken: list[str] = []
    for name in FK_TABLES:
        for row in full[name]:
            if row["study_id"] not in study_ids:
                broken.append(f"{name}:{row['study_id']}")
    if broken:
        shown = ", ".join(broken[:10])
        more = f" (+{len(broken) - 10} more)" if len(broken) > 10 else ""
        raise ForeignKeyViolation(f"unresolved study ids: {shown}{more}")


def _check_unique_keys(full: dict[str, list[dict]]) -> None:
    for name, rows in full.items():
        key_columns = TABLE_KEYS[name]
        seen = set()
        for row in rows:
            key = tuple(row[column] for column in key_columns)
            if key in seen:
                raise ValueError(f"table {name}: duplicate key {key}")
            seen.add(key)


def _bundle_hash(file_hashes: dict[str, str]) -> str:
    """The bundle digest: sha256 over every table's name and file digest, in table order."""
    return hashlib.sha256(
        "".join(f"{name}:{file_hashes[name]}" for name in TABLE_ORDER).encode("ascii")
    ).hexdigest()


def write_database(tables: dict, out_dir: str | Path) -> DatabaseBundle:
    """Validate, then write all ten tables plus the manifest.

    Validation (column shapes, string cells, unique keys, foreign keys)
    happens before the first byte is written, so a failure leaves the
    output directory untouched.
    """
    full = _validate_tables(tables)
    _check_unique_keys(full)
    _check_foreign_keys(full)

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    counts: dict[str, int] = {}
    file_hashes: dict[str, str] = {}
    for name in TABLE_ORDER:
        columns = TABLE_COLUMNS[name]
        key_columns = TABLE_KEYS[name]
        rows = sorted(full[name], key=lambda row: tuple(row[c] for c in key_columns))
        payload = write_tsv(out_path / f"{name}.tsv", columns, ([row[c] for c in columns] for row in rows))
        counts[name] = len(rows)
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
        return value.value
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
    names it differently (an endpoint's ``outcome_text``).
    """
    fields = vars(record) | extra if extra else vars(record)
    return {column: _cell(fields[column]) for column in TABLE_COLUMNS[table]}

