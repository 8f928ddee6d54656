"""Plain TSV readers for the vocabulary subset files.

These files are hand-curated and never contain embedded tabs or newlines,
so each line splits on tab as it stands: no quoting or escaping layer
(unlike the database writer in ``trialforge.store``), and a ``"`` is an
ordinary character.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator


def iter_tsv(path: Path, columns: int) -> Iterator[list[str]]:
    """Yield rows from a TSV file, skipping blanks and ``#`` comments.

    Rows shorter than ``columns`` are padded with empty strings so loaders
    can rely on a fixed width; longer rows raise to surface editing slips
    in the curated files, and so does a missing file.
    """
    if not path.is_file():
        raise ValueError(f"{path}: no such vocabulary file")
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            row = line.rstrip("\n").split("\t")
            if row == [""] or row[0].lstrip().startswith("#"):
                continue
            if len(row) > columns:
                raise ValueError(f"{path.name}:{lineno}: expected at most {columns} columns, got {len(row)}")
            yield row + [""] * (columns - len(row))
