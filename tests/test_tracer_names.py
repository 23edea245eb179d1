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


def test_record_extra_reads_a_bound_result():
    # a traced run hands every max_function_upper_bound result to
    # _record_extra, which reads a scalar eps_star and the report's eps_grid
    import types
    from collections import defaultdict

    from entire_growth.bounds import max_function_upper_bound, stirling_decay

    tracer = types.ModuleType("tracer")
    with open(TRACER) as fh:
        exec(compile(fh.read(), TRACER, "exec"), tracer.__dict__)
    counts = defaultdict(int)
    Q = stirling_decay()
    for v in (1.0, 7.0):
        result = max_function_upper_bound(Q, v, eps_points=19)
        tracer._record_extra("bounds.max_function_upper_bound", (Q, v), result, counts)
    assert counts["bounds.eps_star_at_edge"] == 1  # eps* ~ 0.24 at v = 1, 1/20 at v = 7
