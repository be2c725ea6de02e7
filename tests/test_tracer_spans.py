"""Every function and method that `perfbench/tracer.py` wraps still exists
in wtc: a renamed or removed target would otherwise drop out of traced
benchmark runs without an error.  The check resolves the names only; it
does not call `tracer.install`, which patches the modules for good."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_tracer().SPANS


@pytest.mark.parametrize("span", sorted(SPANS))
def test_span_targets_resolve(span):
    for module, *attrs in SPANS[span]:
        obj = importlib.import_module(module)
        for attr in attrs:
            obj = getattr(obj, attr)
        assert callable(obj), (module, *attrs)
