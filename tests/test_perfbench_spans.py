"""Every program attribute that the benchmark's span tracer wraps by name
exists, so a rename or a deletion fails here and not only in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _spans_module()


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _, _ in _SPANS.OPERATION_SPANS + _SPANS.SETUP_SPANS],
    ids=lambda name: name,
)
def test_every_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
