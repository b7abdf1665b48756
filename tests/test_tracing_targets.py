import ast
import importlib
import inspect
from pathlib import Path

import mbsp  # noqa: F401  (loads the modules the targets name)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracing_targets_resolve_to_functions():
    # `bench/run.py --trace 1` wraps the functions in TARGETS by name, so a
    # renamed or deleted library function breaks it; read, never run, the file
    tree = ast.parse(TRACING.read_text())
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    names = [(entry.elts[1].value, entry.elts[2].value) for entry in targets.elts]
    assert len(names) > 10
    for module, attr in names:
        assert inspect.isfunction(getattr(importlib.import_module(module), attr)), (module, attr)
