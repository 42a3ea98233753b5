"""Module layering of the package: every import points down the stack.

errors -> problem -> {prox, zoo, regularity} -> ppm -> {ippm, gd, traceio} -> cli

A module may import only from modules on a lower layer, and only at module
level; ``__init__`` re-exports everything and is exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "proxlab"
LAYERS = [("errors",), ("problem",), ("prox", "zoo", "regularity"), ("ppm",),
          ("ippm", "gd", "traceio"), ("cli",)]
LEVEL = {name: level for level, names in enumerate(LAYERS) for name in names}
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def package_imports(tree: ast.Module):
    """(node, imported module) for every import of a proxlab module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "proxlab":
                continue
            parts = (node.module or "").split(".")
            parts = parts[1:] if node.level == 0 else parts
            if parts and parts[0]:
                yield node, parts[0]
            else:  # from . import a, b
                for alias in node.names:
                    yield node, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "proxlab":
                    yield node, parts[1] if len(parts) > 1 else "__init__"


def test_every_module_has_a_layer():
    assert sorted(LEVEL) == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_imports_point_down_the_stack(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    top_level = set(map(id, tree.body))
    for node, target in package_imports(tree):
        where = f"{module}.py:{node.lineno} imports {target}"
        assert id(node) in top_level, f"function-local import: {where}"
        assert target in LEVEL and LEVEL[target] < LEVEL[module], f"upward import: {where}"
