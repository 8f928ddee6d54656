"""Host-speed calibration for the benchmark's end-to-end timings.

On a shared host the speed one process gets drifts by up to 2x over a
few minutes, as neighbours load the caches, memory and sibling threads.
Raw wall times of the same build then spread by 30-40% between runs a
few minutes apart, more than any useful regression bound.

A fixed pure-Python job with the pipeline's mix of work (JSON encoding
and decoding, regex scanning, dict building, sorting, edit distance)
slows down with the host in step with the pipeline. Each timed step is
bracketed by this job, and its time is scaled by
``REFERENCE_S / <job time measured around it>``: the result is the
step's time in seconds at the reference host speed, the speed at which
the job takes ``REFERENCE_S``. The job does not touch trialforge, so a
change to the program moves the scaled time exactly as it moves the raw
one. Raw wall times are reported next to the scaled ones.
"""

from __future__ import annotations

import gc
import json
import random
import re
import statistics
import time

# Median time of `job` on a quiet 2-vCPU x86-64 host under CPython 3.11.
REFERENCE_S = 0.020

_WORD_RE = re.compile(r"[a-z]+")
_rng = random.Random(0)
_DOCS = [
    {
        "id": f"X{i:06d}",
        "title": " ".join(_rng.choice(("alpha", "beta", "gamma", "delta", "trial", "study", "of", "in")) for _ in range(12)),
        "n": i,
        "tags": [str(j) for j in range(i % 7)],
    }
    for i in range(750)
]


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def job() -> int:
    docs = json.loads(json.dumps(_DOCS, sort_keys=True))
    index: dict[str, list] = {}
    for doc in docs:
        for word in _WORD_RE.findall(doc["title"]):
            index.setdefault(word, []).append(doc["id"])
    rows = sorted((doc["title"], doc["id"]) for doc in docs)
    return len(index) + sum(_edit_distance(rows[k][0][:40], rows[k + 1][0][:40]) for k in range(30))


def job_seconds(repeats: int = 3) -> float:
    """Median time of ``repeats`` runs of `job`, with the collector paused.

    A collection inside the job would cost time in proportion to the heap
    the timed step left behind, not to the host speed.
    """
    times = []
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            job()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two job timings into reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
