"""External-service access with record/replay.

Every remote dependency (RxNorm resolution, the condition annotator,
PubMed search, the LLM) goes through one choke point, `ServiceClient.call`,
so tests and offline runs can serve canned responses from disk instead of
the network. Requests are canonicalized to JSON with sorted keys and
hashed; the hash names the fixture file under ``<root>/<service>/``.

Modes:

* ``record``  — serve from the store when present, otherwise invoke the
  live transport and persist the response.
* ``replay``  — store only; a miss is a `ReplayMiss`.
* ``offline`` — store only; a miss is a `LiveCallForbidden`, signalling
  that the caller would have needed the network.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import ClientUnavailable, LiveCallForbidden, MalformedResponse, ReplayMiss

SERVICES = ("rxnorm", "annotator", "pubmed_search", "llm")
MODES = ("record", "replay", "offline")


def canonical_request(request) -> str:
    """Serialize a request deterministically (sorted keys, tight separators)."""
    return json.dumps(request, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def request_hash(request) -> str:
    return hashlib.sha256(canonical_request(request).encode("utf-8")).hexdigest()


class ReplayStore:
    """Directory of recorded responses, one JSON file per request hash.

    Files keep the originating request alongside the response so a human
    can tell which fixture is which; only the response is served back.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _path(self, service: str, digest: str) -> Path:
        return self.root / service / f"{digest}.json"

    def has(self, service: str, digest: str) -> bool:
        return self._path(service, digest).is_file()

    def get(self, service: str, digest: str):
        path = self._path(service, digest)
        if not path.is_file():
            raise KeyError(digest)
        with open(path, encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except ValueError as exc:  # JSONDecodeError, or UTF-8 cut mid-character
                raise MalformedResponse(f"{path}: unreadable fixture: {exc}") from exc
        if not isinstance(payload, dict) or "response" not in payload:
            raise MalformedResponse(f"{path}: fixture has no \"response\" key")
        return payload["response"]

    def put(self, service: str, digest: str, request, response) -> Path:
        """Write the fixture atomically: a crash leaves the old file or none.

        The payload goes to ``<digest>.json.tmp`` in the same directory and
        is renamed over ``<digest>.json``; `entries` and `has` never see
        the temp name.
        """
        path = self._path(service, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"service": service, "request": request, "response": response}
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True, indent=2, ensure_ascii=False)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def entries(self, service: str) -> list[str]:
        directory = self.root / service
        if not directory.is_dir():
            return []
        return sorted(path.stem for path in directory.glob("*.json"))


@dataclass
class ServiceClient:
    """Mode-aware dispatcher in front of a `ReplayStore`.

    ``transport(service, request) -> response`` is only ever invoked in
    record mode; ``live_calls`` counts those invocations so tests can
    assert that replay and offline runs never touch the network.
    """

    mode: str
    store: ReplayStore
    transport: Callable[[str, object], object] | None = None
    live_calls: int = field(default=0)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    def call(self, service: str, request):
        if service not in SERVICES:
            raise ValueError(f"unknown service {service!r}; expected one of {SERVICES}")
        digest = request_hash(request)
        if self.store.has(service, digest):
            return self.store.get(service, digest)
        if self.mode == "replay":
            raise ReplayMiss(f"{service}:{digest}")
        if self.mode == "offline":
            raise LiveCallForbidden(f"{service}:{digest}")
        if self.transport is None:
            raise ValueError("record mode requires a transport")
        try:
            response = self.transport(service, request)
        except OSError as exc:
            raise ClientUnavailable(f"{service}: {exc}") from exc
        self.live_calls += 1
        self.store.put(service, digest, request, response)
        return response


def rxnorm_callable(client: ServiceClient) -> Callable[[dict], dict]:
    """Adapter matching the drug linker's remote-client signature."""
    return lambda request: client.call("rxnorm", request)


def annotator_callable(client: ServiceClient) -> Callable[[dict], dict]:
    """Adapter matching the condition annotator signature."""
    return lambda request: client.call("annotator", request)


def llm_callable(client: ServiceClient) -> Callable[[str], str]:
    """Adapter matching the prompt-in, text-out LLM signature."""

    def call(prompt: str) -> str:
        response = client.call("llm", {"prompt": prompt})
        return response["text"]

    return call


def pubmed_search_callable(client: ServiceClient, k: int = 500) -> Callable[[str], list]:
    """Adapter returning the top-k PMID list for a query string."""

    def call(query: str) -> list:
        response = client.call("pubmed_search", {"query": query, "k": k})
        return list(response["ids"])

    return call
