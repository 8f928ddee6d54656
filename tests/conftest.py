"""Shared fixtures: a golden corpus run recorded once per session.

The replay store is generated, not checked in. scripts/build_golden_replay.py
holds the scripted transports; building the store here keeps the recorded
responses in lockstep with the prompts the code actually sends. The corpus
itself is committed as the only copy; tests/README.md says why each record
is there and how to change it.
"""

from __future__ import annotations

import importlib.util
import shutil
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CORPUS = Path(__file__).resolve().parent / "golden_corpus"


def load_script(name: str, directory: str = "scripts"):
    """Import ``<repo>/<directory>/<name>.py`` by path as module ``name``."""
    path = REPO_ROOT / directory / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def within_timeout(fn, seconds: float = 10.0):
    """``fn()``'s result; fails instead of hanging if it blocks (say, opening a FIFO)."""
    result = []
    worker = threading.Thread(target=lambda: result.append(fn()), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "blocked"
    return result[0]


@pytest.fixture(scope="session")
def replay_builder():
    return load_script("build_golden_replay")


@pytest.fixture(scope="session")
def golden(tmp_path_factory, replay_builder):
    """Record-mode run over the golden corpus; downstream tests replay it."""
    root = tmp_path_factory.mktemp("golden")
    replay_dir = root / "replay"
    record_out = root / "record_out"
    summary = replay_builder.build_replay(GOLDEN_CORPUS, replay_dir, record_out)
    return SimpleNamespace(
        corpus=GOLDEN_CORPUS,
        replay=replay_dir,
        record_out=record_out,
        summary=summary,
        seed=replay_builder.GOLDEN_SEED,
        transports=replay_builder.TRANSPORTS,
    )


@pytest.fixture(params=["default", "explicit"])
def in_corpus(request, tmp_path):
    """A golden corpus copy whose replay store lives inside it.

    ``default`` leaves ``replay_dir`` unset (``corpus/replay``); ``explicit``
    sets it to a nested directory of the corpus. The store starts empty.
    """
    corpus = tmp_path / "corpus"
    shutil.copytree(GOLDEN_CORPUS, corpus)
    explicit = request.param == "explicit"
    store = corpus / "cache" / "responses" if explicit else corpus / "replay"
    return SimpleNamespace(corpus=corpus, store=store, replay_dir=store if explicit else None)
