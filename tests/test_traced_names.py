"""The names the traced benchmark reads. Each per-layer metric of
perfbench/tracing.py needs some driftfluid functions; a traced run drops
the metric of a function that is gone and still exits 0, so a rename or a
deletion in `src` must fail here first."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    """perfbench/tracing.py, loaded from its file: it imports the standard
    library alone and patches nothing when imported."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_a_per_layer_metric_needs_resolves():
    needs = {name for _, _, names, _ in _tracing().PER_LAYER for name in names}
    assert "spectral.SpectralField" in needs and len(needs) > 1
    unresolved = []
    for name in sorted(needs):
        module, attr = name.split(".")
        obj = getattr(importlib.import_module(f"driftfluid.{module}"), attr, None)
        ok = inspect.isclass(obj) if attr == "SpectralField" else callable(obj)
        if not ok:
            unresolved.append(name)
    assert unresolved == []
