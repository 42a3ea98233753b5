"""Module layering of the package: every import points down the stack.

errors -> problem -> {prox, zoo, regularity} -> ppm -> {ippm, gd, traceio} -> checks -> cli

A module may import only from modules on a lower layer, and only at module
level; ``__init__`` re-exports everything and is exempt.  No module imports
another's underscore names, and the bound checkers are defined in ``checks``
alone: the loop modules only run.  ``errors`` defines the three error types,
and every ``raise`` in the package names one of them or ValueError.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "proxlab"
LAYERS = [("errors",), ("problem",), ("prox", "zoo", "regularity"), ("ppm",),
          ("ippm", "gd", "traceio"), ("checks",), ("cli",)]
LEVEL = {name: level for level, names in enumerate(LAYERS) for name in names}
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
# The names that replay a bound against a trace.
CHECKER = re.compile(r"BoundCheck|RateBounds|check_\w+|verify_gd_rates")


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


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
    tree = parse(module)
    top_level = set(map(id, tree.body))
    for node, target in package_imports(tree):
        where = f"{module}.py:{node.lineno} imports {target}"
        assert id(node) in top_level, f"function-local import: {where}"
        assert target in LEVEL and LEVEL[target] < LEVEL[module], f"upward import: {where}"


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_module_imports_private_names(module):
    for node, target in package_imports(parse(module)):
        private = [alias.name for alias in node.names if alias.name.startswith("_")]
        assert not private, f"{module}.py:{node.lineno} imports {private} from {target}"


def test_bound_checkers_are_defined_only_in_checks():
    homes = {}
    for module in MODULES:
        for node in parse(module).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and CHECKER.fullmatch(node.name):
                homes.setdefault(node.name, []).append(module)
    assert set(homes) == {"BoundCheck", "RateBounds", "check_sublinear_bound", "check_one_step",
                          "check_linear_rates", "check_ippm_sublinear", "check_ippm_linear",
                          "check_inexact_one_step", "verify_gd_rates"}
    assert all(modules == ["checks"] for modules in homes.values()), homes


# The error types some code tells apart: the CLI prints a ProxlabError as one
# "error:" line, and the outer loop turns the other two into stop reasons.  A
# refused value is a ValueError ("config error:").
ERRORS = {"ProxlabError", "InnerBudgetExhausted", "ResolutionFloor"}


def test_errors_defines_the_three_types():
    classes = {node.name for node in parse("errors").body if isinstance(node, ast.ClassDef)}
    assert classes == ERRORS


@pytest.mark.parametrize("module", MODULES)
def test_every_raise_names_a_package_error_or_value_error(module):
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.Raise) and node.exc is not None:  # not a bare re-raise
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
            assert name in ERRORS | {"ValueError"}, f"{module}.py:{node.lineno} raises {name}"
