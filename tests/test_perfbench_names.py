"""The benchmark's tracer looks up sgnlab functions by name; every name must resolve."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves_to_a_callable():
    # run_path compiles the source without importing it as a module, so nothing is written next to it
    layers = runpy.run_path(str(TRACER))["LAYERS"]
    missing = [f"{mod}.{name}" for mod, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"sgnlab.{mod}"), name, None))]
    assert layers and not missing
