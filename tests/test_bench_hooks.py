"""The benchmark's layer trace (bench/layers.py) wraps package functions by
name; a rename or deletion there would break only `bench/run.py --trace 1`.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def load_layers(monkeypatch):
    """bench/layers.py by path; it imports only the standard library.

    dataclasses looks the defining module up in sys.modules, so it is
    registered there for the duration of the test.
    """
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    layers = load_layers(monkeypatch)
    hooks = [layers.ROOT, *layers.WRAPS]
    assert len(hooks) > 1
    missing = [
        f"emstclust.{module_name}.{attr}"
        for module_name, attr, _, _ in hooks
        if not callable(getattr(importlib.import_module(f"emstclust.{module_name}"), attr, None))
    ]
    assert missing == []
