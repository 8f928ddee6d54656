"""perfbench traces trialforge functions by name, so each name must still resolve.

A renamed or removed target would otherwise fail only a ``--trace 1``
benchmark run.
"""

from conftest import load_script


def test_every_trace_target_resolves():
    tracing = load_script("tracing", directory="perfbench")
    unresolved = []
    for _key, module, path, _kind in tracing.TARGETS:
        try:
            tracing._resolve(module, path)
        except LookupError as exc:
            unresolved.append(str(exc))
    assert tracing.TARGETS and unresolved == []
