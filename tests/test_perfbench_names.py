"""The names perfbench's tracer wraps exist in sincsum.

The tracer replaces library functions and class constructors by name, so a
rename in ``src`` breaks the benchmark, not the library.  These tests load
``perfbench/tracer.py`` by path, read its tables and never call
``install``, so a rename fails here, on every Python version and backend.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracer):
    for modname, funcs in tracer.LAYERS:
        module = importlib.import_module(modname)
        for func in funcs:
            assert callable(getattr(module, func, None)), f"{modname}.{func}"


def test_traced_classes_exist(tracer):
    classes = [*tracer.CLASS_SPANS, *((m, c) for m, c, _ in tracer.COUNTED_CLASSES)]
    for modname, clsname in classes:
        cls = getattr(importlib.import_module(modname), clsname, None)
        assert isinstance(cls, type), f"{modname}.{clsname}"


def test_counted_constructors_take_lo_and_hi(tracer):
    # the counting wrapper calls the original as __init__(self, lo, hi)
    for modname, clsname, _ in tracer.COUNTED_CLASSES:
        init = getattr(importlib.import_module(modname), clsname).__init__
        assert list(inspect.signature(init).parameters) == ["self", "lo", "hi"], clsname
