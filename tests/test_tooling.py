"""Guards for the tooling next to the library: the benchmark's tracer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer, path, name", _tracer_targets())
def test_tracer_target_is_defined_where_it_is_wrapped(layer, path, name):
    # the tracer reads owner.__dict__[attr], which misses a method that a
    # class inherits from a base class, so the traced run would fail
    owner = importlib.import_module(f"monogenic.{layer}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{name}: {path} is not defined on monogenic.{layer}"
