"""No trialforge module imports another's private names.

A leading underscore marks a name as its module's own; a module that needs
one from elsewhere means the name wants to be public, or the work wants to
move to the module that owns it.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trialforge"


def private_imports(path: Path) -> list[str]:
    """``<module> <name>`` for each underscore name ``path`` imports from a trialforge module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "trialforge":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"{'.' * node.level}{module} {alias.name}")
    return found


def test_no_module_imports_a_private_name_from_another():
    found = [
        f"{path.relative_to(PACKAGE).as_posix()}: {entry}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for entry in private_imports(path)
    ]
    assert found == []


def test_the_check_sees_relative_and_absolute_imports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "from .benchgen.review_tasks import _include_map, gen_search_items\n"
        "from trialforge.store import _private\n"
        "from . import __version__\n"
        "from os import _exit\n",
        encoding="utf-8",
    )
    assert private_imports(module) == [".benchgen.review_tasks _include_map", "trialforge.store _private"]
