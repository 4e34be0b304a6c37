"""The repo benchmark's tracer still finds every layer it wraps.

``perfbench/tracer.py`` times layers from outside the program by
looking each one up by name (``TARGETS``: module + function or
``Class.method``).  Renaming or deleting one of those names in
``src/`` would otherwise surface only when someone runs
``perfbench/run.py --trace 1``, so this test resolves every entry the
way the tracer does.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load_tracer().TARGETS
    assert targets
    for span, module_name, path, _ in targets:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
            assert owner is not None, f"{span}: {module_name}.{path} does not resolve"
        assert callable(owner), f"{span}: {module_name}.{path} is not callable"
