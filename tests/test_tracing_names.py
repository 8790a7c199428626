"""The benchmark tracer wraps program functions by name: each must exist."""

import importlib
from pathlib import Path
from types import ModuleType

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    # executed from its source text, so nothing is written next to it
    module = ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _resolves(name):
    module, *attrs = name.split(".")
    target = importlib.import_module(f"vesselseg.{module}")
    for attr in attrs:
        target = getattr(target, attr, None)
    return callable(target)


def test_every_traced_name_is_a_program_function():
    t = _tracing()
    names = [f"autograd.{op}" for op in t.POINTWISE]
    # autograd.pointwise is the group of the POINTWISE ops, not a function
    names += [s for layers in (t.LAYERS, t.SETUP_LAYERS) for s in layers if s != "autograd.pointwise"]
    assert "autograd.Adam.step" in names
    assert [n for n in names if not _resolves(n)] == []
