"""Every entry point the repo benchmark's tracer wraps still exists.

``perfbench/tracer.py`` patches the library from outside ``src/`` by
name, so a renamed or deleted entry point otherwise fails only the
traced benchmark runs. This loads the tracer's ``ENTRY_POINTS`` table
without registering or installing anything and resolves each name the
way ``install()`` does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _entry_points() -> tuple:
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.ENTRY_POINTS


def test_every_traced_entry_point_resolves():
    missing = []
    for module_name, owner_name, attr, _layer, _span in _entry_points():
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module_name}:{owner_name or ''}.{attr}")
    assert not missing, f"perfbench traces missing names: {missing}"
