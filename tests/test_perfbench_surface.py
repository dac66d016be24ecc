"""Every call that the benchmark script makes into the package binds to
the callee's signature with the arguments the script passes, so a
signature change fails here rather than when ``perfbench/run.py`` next
runs.  The calls are read from the script's source; only reads
``perfbench/``."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from orientsemi.config import RunConfig

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
MODULES = {"detector", "evaluation", "sampling", "scenes", "training", "transport"}
# Calls the benchmark cannot run without; the parse must find each one.
REQUIRED = {
    "training.run_training",
    "training.load_checkpoint",
    "training.init_state",
    "scenes.strong_augment",
    "scenes.save_dataset",
    "scenes.SceneDataset",
    "transport.gc_loss",
    "evaluation.evaluate_model",
    "sampling.build_pairs",
    "sampling.candidate_detections",
    "RunConfig.sampler_config",
    "RunConfig.augment_config",
}


def owner(node):
    """What a call's receiver names in run.py: a package module, or
    ``RunConfig`` for the run config (always the local ``config``)."""
    if isinstance(node, ast.Name):
        if node.id in MODULES:
            return node.id
        return {"os_config": "config", "config": "RunConfig"}.get(node.id)
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "os_mods"
        and isinstance(node.slice, ast.Constant)
    ):
        return node.slice.value
    return None


def benchmark_calls():
    """``(callee, positional count, keyword names, line)`` per call."""
    calls = []
    for node in ast.walk(ast.parse(RUN.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = owner(node.func.value)
            if name is not None:
                calls.append((f"{name}.{node.func.attr}", node.args, node.keywords, node.lineno))
    return calls


CALLS = benchmark_calls()


def resolve(callee: str):
    name, attr = callee.split(".")
    if name == "RunConfig":
        return getattr(RunConfig(), attr)
    return getattr(importlib.import_module(f"orientsemi.{name}"), attr)


def test_every_required_call_is_found():
    assert REQUIRED <= {callee for callee, *_ in CALLS}


@pytest.mark.parametrize("callee, args, keywords, line", CALLS, ids=[f"{c[0]}@{c[3]}" for c in CALLS])
def test_call_binds(callee, args, keywords, line):
    assert not any(isinstance(arg, ast.Starred) for arg in args)
    assert all(keyword.arg is not None for keyword in keywords)
    inspect.signature(resolve(callee)).bind(*[None] * len(args), **{k.arg: None for k in keywords})
