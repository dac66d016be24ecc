"""Every name the benchmark tracer wraps resolves in the package, so a
refactor that renames a traced function fails here rather than when
``perfbench/run.py --trace 1`` next runs.  Only reads ``perfbench/``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def resolve(module_name: str, attr: str):
    owner = importlib.import_module(f"orientsemi.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module_name, attr, span", tracing.TARGETS, ids=[t[2] for t in tracing.TARGETS])
def test_target_resolves(module_name, attr, span):
    assert callable(resolve(module_name, attr))


def test_per_caller_and_counted_names_resolve():
    for module_name, attr in [*tracing.PER_CALLER, tracing.COUNTED]:
        assert callable(resolve(module_name, attr))


def test_rotated_nms_bound_in_sampler_and_evaluation():
    # The tracer gives each caller's binding its own span.
    nms = resolve("geometry", "rotated_nms")
    assert resolve("sampling", "rotated_nms") is nms
    assert resolve("evaluation", "rotated_nms") is nms
