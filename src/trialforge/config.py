"""Flat key/value configuration with environment overrides.

The config file is one ``key = value`` pair per line; ``#`` starts a
comment, blank lines are skipped, and paired surrounding quotes on a
value are stripped. Environment variables prefixed ``FORGE_`` override
file values (``FORGE_DEDUPE_THRESHOLD=0.9`` beats ``dedupe_threshold``
in the file). There are no sections and no nesting. Values stay strings
here; ``PipelineSettings.from_config`` parses each one by the declared
type of the setting it names.
"""

from __future__ import annotations

import os
from pathlib import Path

ENV_PREFIX = "FORGE_"


def _strip_quotes(value: str) -> str:
    if len(value) >= 2 and value[0] == value[-1] and value[0] in ("'", '"'):
        return value[1:-1]
    return value


def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {line_number}: expected key = value, got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"line {line_number}: empty key")
        values[key] = _strip_quotes(value.strip())
    return values


def load_config(path: str | Path | None = None, env: dict | None = None) -> dict[str, str]:
    """Read the file (when given), then layer FORGE_ environment overrides."""
    values: dict[str, str] = {}
    if path is not None:
        values.update(parse_config_text(Path(path).read_text(encoding="utf-8")))
    environment = os.environ if env is None else env
    for name, value in environment.items():
        if name.startswith(ENV_PREFIX) and len(name) > len(ENV_PREFIX):
            values[name[len(ENV_PREFIX) :].lower()] = value
    return values
