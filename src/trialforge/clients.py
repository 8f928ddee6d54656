"""External-service access with record/replay.

Every remote dependency (RxNorm resolution, the condition annotator,
PubMed search, the LLM) goes through one choke point, `ServiceClient.call`,
so tests and replay runs can serve canned responses from disk instead of
the network. Requests are canonicalized to JSON with sorted keys and
hashed; the hash names the fixture file under ``<root>/<service>/``.

Modes:

* ``record`` — serve from the store when present, otherwise invoke the
  live transport and persist the response. A fixture that no longer
  parses (say, cut short by a crash) is recorded again the same way.
* ``replay`` — store only; a miss is a `ReplayMiss`.

The mode decides only what a miss does: a hit serves the same bytes in
both, so a record run and a replay of its store give the same outputs.

`ServiceClient.call` alone decides what a failed call means. Callers only
check what a response contains and let every `ClientError` through, so no
output is derived from a call that failed. A response or a model answer of
the wrong shape is a `MalformedResponse`: the adapters and every caller read
it through `views.parse_answer`, after `json_answer` for an answer in JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import stat
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import ClientUnavailable, MalformedResponse, ReplayMiss
from .store import json_encoder
from .views import LlmAnswer, SearchAnswer, parse_answer

logger = logging.getLogger(__name__)

SERVICES = ("rxnorm", "annotator", "pubmed_search", "llm")
MODES = ("record", "replay")


_encode_request = json_encoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_request(request) -> str:
    """Serialize a request deterministically (sorted keys, tight separators)."""
    return _encode_request(request)


def request_hash(request) -> str:
    return hashlib.sha256(canonical_request(request).encode("utf-8")).hexdigest()


class ReplayStore:
    """Directory of recorded responses, one JSON file per request hash.

    Files keep the originating request alongside the response so a human
    can tell which fixture is which; only the response is served back.
    ``served`` maps ``"<service>/<digest>.json"`` to the sha256 of the bytes
    of every fixture `get` read or `put` wrote since its owner last
    cleared it, so a pipeline stage can key on the responses it used.

    A fixture is ``<root>/<service>/<digest>.json``, a path built as text.
    `has` is one ``stat`` that counts only a regular file, so a directory
    or a FIFO there is a miss and is never opened; `get`, called after it,
    is one open and read. `put` creates the service directory only when
    opening its temp file fails for want of it.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._prefix = os.fspath(self.root) + os.sep
        self.served: dict[str, str] = {}

    def _path(self, service: str, digest: str) -> str:
        return f"{self._prefix}{service}{os.sep}{digest}.json"

    def has(self, service: str, digest: str) -> bool:
        try:
            return stat.S_ISREG(os.stat(self._path(service, digest)).st_mode)
        except (FileNotFoundError, NotADirectoryError):
            return False

    def get(self, service: str, digest: str):
        path = self._path(service, digest)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except (FileNotFoundError, NotADirectoryError):
            raise KeyError(digest) from None
        try:
            payload = json.loads(data.decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError, or UTF-8 cut mid-character
            raise MalformedResponse(f"{path}: unreadable fixture: {exc}") from exc
        if not isinstance(payload, dict) or "response" not in payload:
            raise MalformedResponse(f"{path}: fixture has no \"response\" key")
        self.served[f"{service}/{digest}.json"] = hashlib.sha256(data).hexdigest()
        return payload["response"]

    def put(self, service: str, digest: str, request, response) -> Path:
        """Write the fixture atomically: a crash leaves the old file or none.

        The payload goes to ``<digest>.json.tmp`` in the same directory and
        is renamed over ``<digest>.json``; `entries` and `has` never see
        the temp name.
        """
        path = self._path(service, digest)
        tmp = path + ".tmp"
        try:
            handle = open(tmp, "wb")
        except (FileNotFoundError, NotADirectoryError):
            os.makedirs(os.path.dirname(tmp), exist_ok=True)
            handle = open(tmp, "wb")
        try:
            with handle:
                payload = {"service": service, "request": request, "response": response}
                data = (json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
        self.served[f"{service}/{digest}.json"] = hashlib.sha256(data).hexdigest()
        return Path(path)

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
    assert that replay runs never touch the network.
    """

    mode: str
    store: ReplayStore
    transport: Callable[[str, object], object] | None = None
    live_calls: int = field(default=0)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    def call(self, service: str, request):
        """The response to ``request``, or a `ClientError` naming the service and request hash.

        A miss in replay mode is a `ReplayMiss`, a fixture that does not
        parse (outside record mode) a `MalformedResponse`, and a missing
        transport or any `OSError` from the store or the transport a
        `ClientUnavailable`. An unknown service is a `ValueError`.
        """
        if service not in SERVICES:
            raise ValueError(f"unknown service {service!r}; expected one of {SERVICES}")
        digest = request_hash(request)
        try:
            if self.store.has(service, digest):
                try:
                    return self.store.get(service, digest)
                except MalformedResponse as exc:
                    if self.mode != "record":
                        raise
                    logger.warning("%s; recording it again", exc)
            if self.mode == "replay":
                raise ReplayMiss(f"{service}:{digest}")
            if self.transport is None:
                raise ClientUnavailable(f"{service}:{digest}: record mode has no {service} transport")
            response = self.transport(service, request)
            self.live_calls += 1
            self.store.put(service, digest, request, response)
        except OSError as exc:
            raise ClientUnavailable(f"{service}:{digest}: {exc}") from exc
        return response


def rxnorm_callable(client: ServiceClient) -> Callable[[dict], dict]:
    """Adapter matching the drug linker's remote-client signature."""
    return lambda request: client.call("rxnorm", request)


def annotator_callable(client: ServiceClient) -> Callable[[dict], dict]:
    """Adapter matching the condition annotator signature."""
    return lambda request: client.call("annotator", request)


def _answer(client: ServiceClient, service: str, request, cls: type):
    """The call's response read as the answer view ``cls``; a refusal is labelled by the service and request hash."""
    response = client.call(service, request)
    try:
        return parse_answer(cls, response, "")
    except MalformedResponse as exc:  # hashed only here: every model call passes through
        raise MalformedResponse(f"{service}:{request_hash(request)}{exc}") from None


def llm_callable(client: ServiceClient) -> Callable[[str], str]:
    """Adapter matching the prompt-in, text-out LLM signature."""
    return lambda prompt: _answer(client, "llm", {"prompt": prompt}, LlmAnswer).text


def pubmed_search_callable(client: ServiceClient, k: int = 500) -> Callable[[str], list]:
    """Adapter returning the top-k PMID list for a query string."""
    return lambda query: list(_answer(client, "pubmed_search", {"query": query, "k": k}, SearchAnswer).ids)


def json_answer(task: str, text: str):
    """The JSON value of a model answer, without its opening code-fence line and closing fence.

    An answer that does not parse is a `MalformedResponse` naming ``task``.
    """
    answer = text.strip()
    if answer.startswith("```"):
        answer = answer.split("\n", 1)[1] if "\n" in answer else ""
        if answer.rstrip().endswith("```"):
            answer = answer.rstrip()[:-3]
    try:
        return json.loads(answer)
    except ValueError as exc:
        raise MalformedResponse(f"{task} is not JSON: {answer.strip()[:120]!r}") from exc
