"""Every layer the benchmark traces still exists in pbcap.

``perfbench/tracing.py`` records a layer it cannot find as absent and
goes on, so a rename in pbcap would quietly drop that layer from the
benchmark's report.  This test resolves each ``(module, attribute
path)`` in its ``LAYERS`` without wrapping anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("layer, target", sorted(_layers().items()))
def test_traced_layer_resolves(layer, target):
    module_name, path = target
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), layer
