"""The benchmark's tracer can still find every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/tracer.py is not in this checkout")
def test_every_traced_name_resolves():
    # the tracer looks each name up with getattr, so a pruned name would
    # break `--trace 1` only when a traced benchmark runs
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module_name}.{name}"
        for module_name, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"farey_index.{module_name}"), name, None))
    ]
    assert missing == []
