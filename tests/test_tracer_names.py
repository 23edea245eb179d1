"""The benchmark tracer wraps library functions by name: each must exist."""

import ast
import importlib
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def _layer_functions():
    """LAYER_FUNCTIONS of bench/tracer.py, read without importing it."""
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no LAYER_FUNCTIONS")


@pytest.mark.parametrize("module, name", _layer_functions())
def test_traced_function_exists(module, name):
    fn = getattr(importlib.import_module(f"entire_growth.{module}"), name, None)
    assert callable(fn), f"entire_growth.{module}.{name}"
