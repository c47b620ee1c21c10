"""The benchmark's tracer wraps misens functions by name: each must exist.

perfbench/spans.py imports only the standard library, so it loads here
without the benchmark's own dependencies; a rename or deletion of a traced
function then fails this suite, not only the benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return sorted(spans.TARGETS)


@pytest.mark.parametrize("module,function", _targets())
def test_traced_name_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))
