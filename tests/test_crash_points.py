"""Crash-point sweep: a golden build stopped at any write is repaired by the next run.

A forked child runs a cold replay build of the golden corpus and counts its
write operations: opens for writing, ``Path.mkdir``, ``os.replace``,
``os.rename``, ``os.unlink`` and ``shutil.rmtree``. For each operation N, one
child ``os._exit``s just before N and another just after N has put half of its
first write on disk (or just after N, for an operation that is not an open).
``os._exit`` runs no cleanup, as a killed process would not. After each crash,
``forge run-all`` over the same out dir must exit 0 and leave a tree equal,
byte for byte, to that of an uninterrupted run.

A record build is swept the same way, its store emptied before each build:
the next record run must also leave the store equal to that of an
uninterrupted run, so a half-written fixture is never served.

This is the application-level crash testing of ALICE (Pillai et al., OSDI 2014)
and CrashMonkey (Mohan et al., OSDI 2018). Power loss (files written but never
synced) is not swept here.
"""

from __future__ import annotations

import builtins
import gc
import json
import os
import pathlib
import shutil
import sys
import traceback
from pathlib import Path

from trialforge import cli
from trialforge.pipeline import PipelineSettings, run_pipeline

#: Exit status of a child stopped at its crash point.
CRASHED = 70


def opens_for_writing(file, mode="r", *args, **kwargs) -> bool:
    return any(flag in mode for flag in "wax+")


class HalfWrite:
    """A file whose first write puts half its data on disk, then stops the process.

    Closing it unwritten stops the process too, leaving the file empty.
    """

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        self._handle.flush()
        os._exit(CRASHED)

    def close(self):
        self._handle.close()
        os._exit(CRASHED)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)


class WriteOps:
    """Counts write operations; stops the process at operation ``crash_at``.

    With ``half`` unset the stop comes just before that operation; with it
    set, just after it, or at the first write of the file it opens. An
    operation made inside another (``Path.mkdir``'s recursion, the unlinks
    of ``shutil.rmtree``) is not counted.
    """

    def __init__(self, crash_at: int | None = None, half: bool = False):
        self.crash_at, self.half = crash_at, half
        self.seen: list[str] = []
        self._depth = 0

    def wrap(self, name: str, fn, counts=lambda *args, **kwargs: True):
        def operation(*args, **kwargs):
            if self._depth or not counts(*args, **kwargs):
                return fn(*args, **kwargs)
            self.seen.append(f"{name} {args[0] if args else ''}")
            crash_here = len(self.seen) == self.crash_at
            if crash_here and not self.half:
                os._exit(CRASHED)
            self._depth += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if crash_here:  # an operation that failed stops the process just after failing
                    os._exit(CRASHED)
                raise
            finally:
                self._depth -= 1
            if crash_here:
                if name == "open":
                    return HalfWrite(result)
                os._exit(CRASHED)
            return result

        return operation

    def install(self) -> WriteOps:
        """Route this process's write operations through ``self``; for a forked child only."""
        builtins.open = self.wrap("open", builtins.open, opens_for_writing)
        pathlib.Path.open = self.wrap("open", pathlib.Path.open, opens_for_writing)
        pathlib.Path.mkdir = self.wrap("mkdir", pathlib.Path.mkdir)
        os.replace = self.wrap("replace", os.replace)
        os.rename = self.wrap("rename", os.rename)
        os.unlink = self.wrap("unlink", os.unlink)
        shutil.rmtree = self.wrap("rmtree", shutil.rmtree)
        return self


def in_child(body) -> int:
    """The exit status of ``body()`` run in a forked child, its stdout discarded."""
    pid = os.fork()
    if pid == 0:
        status = 1
        gc.disable()  # a collection would touch, and so copy, every object shared with the parent
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            status = body()
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def tree(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root``: a file's bytes, None for a directory."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes() if path.is_file() else None
        for path in sorted(root.rglob("*"))
    }


def crash_sweep(out: Path, build, repair, store: Path | None = None) -> list[str]:
    """Each failure of a sweep over the write operations of ``build()``, a cold build into ``out``.

    ``build`` first runs uninterrupted to count its operations and give the
    reference trees. Then, for each operation, a build stopped before it and
    one stopped halfway through it are each followed by ``repair()``, which
    must exit 0 and leave ``out``, and ``store`` when given, equal to the
    reference. ``store`` starts empty for every build.
    """
    roots = [out] if store is None else [out, store]

    def reset() -> None:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)
        if store is not None:
            store.mkdir(parents=True)

    read_fd, write_fd = os.pipe()

    def count_operations() -> int:
        ops = WriteOps().install()
        build()
        os.write(write_fd, json.dumps(ops.seen).encode("utf-8"))
        return 0

    reset()
    assert in_child(count_operations) == 0
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        operations = json.loads(pipe.read())
    reference = [tree(root) for root in roots]
    assert len(operations) >= 40 and any(name.startswith("open") for name in operations)

    def build_until(number: int, half: bool) -> int:
        WriteOps(number, half).install()
        build()
        return 0

    failures = []
    for number, operation in enumerate(operations, start=1):
        for half in (False, True):
            case = f"{'after' if half else 'before'} operation {number} ({operation})"
            reset()
            crashed = in_child(lambda: build_until(number, half))
            if crashed != CRASHED:
                failures.append(f"{case}: the build exited {crashed} instead of stopping")
                continue
            repaired = in_child(repair)
            if repaired != 0:
                failures.append(f"{case}: the next run exited {repaired}")
            elif [tree(root) for root in roots] != reference:
                failures.append(f"{case}: the next run left a different tree")
    return failures


def test_a_crash_at_any_write_is_repaired_by_the_next_run(golden, tmp_path):
    out = tmp_path / "out"
    settings = PipelineSettings(
        corpus_dir=golden.corpus,
        out_dir=out,
        seed=golden.seed,
        mode="replay",
        replay_dir=golden.replay,
        allow_small_split=True,
    )
    run_all = [
        "run-all", "--corpus", str(golden.corpus), "--out", str(out),
        "--replay-dir", str(golden.replay), "--seed", str(golden.seed), "--allow-small",
    ]
    failures = crash_sweep(out, lambda: run_pipeline(settings), lambda: cli.main(run_all))
    assert not failures, "\n".join(failures)


def test_a_crash_at_any_write_of_a_record_build_is_repaired_by_the_next_run(golden, tmp_path):
    """The record build also writes each fixture into its store, so the store must come out whole too."""
    settings = PipelineSettings(
        corpus_dir=golden.corpus,
        out_dir=tmp_path / "out",
        seed=golden.seed,
        mode="record",
        replay_dir=tmp_path / "replay",
        allow_small_split=True,
    )

    def build() -> int:
        run_pipeline(settings, transports=golden.transports)
        return 0

    failures = crash_sweep(settings.out_dir, build, build, store=settings.replay_dir)
    assert not failures, "\n".join(failures)
