"""Every function the benchmark's tracer wraps exists under its traced name.

`perfbench/tracing.py` looks up each `TRACED` entry `layer.fn` as an attribute
of `mfsmp.<layer>` when a run is traced, so a renamed or deleted function
breaks every traced benchmark run.  The tracer module is loaded by path and
left as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    layer, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"mfsmp.{layer}"), fn, None)), name
