"""The end-to-end benchmark's contract with the library.

``perfbench/tracing.py`` wraps one library function per stack layer,
named by module and attribute.  Without this check a rename in ``src``
would only show up as failed samples of the benchmark run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("layer", tracing.LAYERS,
                         ids=lambda layer: f"{layer.module}.{layer.attribute}")
def test_every_traced_layer_resolves(layer):
    owner, name = tracing._resolve(layer)
    # Tracer.install takes a class attribute from the class dict, so an
    # inherited method would resolve through getattr yet fail to install.
    found = (owner.__dict__.get(name) if isinstance(owner, type)
             else getattr(owner, name, None))
    assert callable(found), (
        f"perfbench traces {layer.module}.{layer.attribute} as span "
        f"'{layer.span}', but the library no longer defines it")
