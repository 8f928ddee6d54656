"""The per-entry memo of a map stage, kept between runs.

`pipeline._write_tables` keys each entry it maps a kernel over and asks a
stage's `Memo` for the entry's record: its lines of each table, its share of
each stage count and the sha256 of every fixture its kernel read. It serves
the record only when each of those fixtures still hashes the same, and runs
the kernel otherwise; then it writes the memo anew with this run's records,
table by table, as it writes the tables. A stage's memo is
``out_dir/memo/<stage>.memo``, outside the stage directories: no manifest
lists it and a skipped stage never opens it.

The file is lines: the keys, in the order the driver took its entries (the
join's study-id order, not sorted by key); for each table, the number of lines
of each record; for each count, each record's share; for each record, its
``<fixture>=<sha256>`` pairs; then, table by table, each record's lines; last,
the sha256 of all the bytes before it. Each of the first lines is
space-separated. A file that is missing, is not a regular file or does not
hash as its last line says holds no record. Every key hashes the code, so a
file that other code laid out with other tables or counts holds no key a run
asks for.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from itertools import accumulate
from operator import itemgetter
from pathlib import Path
from typing import Optional

from .ingest import read_regular

# the count shares or fixtures of a record that has none, shared with the driver: records are many, each read only
EMPTY: dict = {}
# lines written at once, some 50 KB of table rows
_CHUNK = 256


class Memo:
    """The records a map stage of ``tables`` and ``counts`` kept in ``path``, and the file of this run's.

    `get` gives a record; `start` begins this run's file, `feed` adds one
    table's lines, in the order of its keys, and `finish` replaces the file
    atomically, unless it already holds exactly this run's records; `close`
    closes a file `finish` did not end, which is then left unused.
    """

    def __init__(self, path: Path, tables: tuple[str, ...], counts: tuple[str, ...]) -> None:
        self.path, self._counts = path, counts
        data = read_regular(path) or b""
        body, self._fixtures = data[:-65], 1 + len(tables) + len(counts)
        intact = data[-65:] == hashlib.sha256(body).hexdigest().encode("ascii") + b"\n"
        self._lines = lines = body.decode("utf-8").split("\n") if intact else [""] * self._fixtures
        try:
            columns = [list(map(int, line.split(" "))) if line else [] for line in lines[1:self._fixtures]]
        except ValueError:  # another layout, of other code
            lines[0], columns = "", []
        self._keys = lines[0].split(" ") if lines[0] else []
        # for each table, where each record's lines start, and where the last one's end
        self._starts, base = [], self._fixtures + len(self._keys)
        for rows in columns[:len(tables)]:
            self._starts.append(list(accumulate(rows, initial=base)))
            base = self._starts[-1][-1]
        self._shares = columns[len(tables):]
        self._index = dict(zip(self._keys, range(len(self._keys))))
        self._out = None

    def get(self, key: str) -> Optional[tuple[tuple[list[str], ...], dict[str, int], dict[str, str]]]:
        """The record of ``key``: its lines of each table, its count shares and its fixtures; None when there is none."""
        n = self._index.get(key)
        if n is None:
            return None
        fixtures = self._lines[self._fixtures + n]
        return (
            tuple(self._lines[starts[n]:starts[n + 1]] for starts in self._starts),
            {name: shares[n] for name, shares in zip(self._counts, self._shares)} if self._counts else EMPTY,
            dict(pair.split("=") for pair in fixtures.split(" ")) if fixtures else EMPTY,
        )

    def start(self, keys: list[str], rows: list, counts: list[dict], fixtures: list[dict], reused: int) -> None:
        """Begin the file of the records of ``keys``: for each table, each one's number of lines; each one's count
        shares and fixtures.

        ``reused`` of them came from `get`; when they are all of these keys and of the file's, the file is kept.
        """
        if reused == len(keys) and keys == self._keys:
            return
        self.path.parent.mkdir(exist_ok=True)
        self._out, self._digest = open(self.path.with_name(self.path.name + ".tmp"), "wb"), hashlib.sha256()
        self.feed([
            " ".join(keys),
            *(" ".join(map(str, table)) for table in rows),
            *(" ".join(map(str, map(itemgetter(name), counts))) for name in self._counts),
            *(" ".join(map("=".join, sorted(pairs.items()))) if pairs else "" for pairs in fixtures),
        ])

    def feed(self, lines: list[str]) -> None:
        if self._out is None:
            return
        for start in range(0, len(lines), _CHUNK):  # in pieces: a table's text at once would grow the heap for good
            data = ("\n".join(lines[start:start + _CHUNK]) + "\n").encode("utf-8")
            self._digest.update(data)
            self._out.write(data)

    def finish(self) -> None:
        if self._out is None:
            return
        with self._out:
            self._out.write(self._digest.hexdigest().encode("ascii") + b"\n")
        tmp, self._out = self._out.name, None
        try:
            os.replace(tmp, self.path)
        except IsADirectoryError:
            shutil.rmtree(self.path)
            os.replace(tmp, self.path)

    def close(self) -> None:
        if self._out is not None:
            self._out.close()
