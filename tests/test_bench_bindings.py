"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
(module, name).  A function renamed or deleted in the library would show
only when the benchmark runs; these tests name it at once."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_targets():
    if not TRACING.exists():
        return []
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.TARGETS)


@pytest.mark.parametrize("module, name", traced_targets())
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"ncbeta.{module}"), name, None))
