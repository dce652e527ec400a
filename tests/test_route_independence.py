"""The three star-product routes stay independent.

The series star of :mod:`hypermoyal.symbols`, the distributional route of
:mod:`hypermoyal.distributions` and the two operator routes of
:mod:`hypermoyal.operators` are each other's oracles, so a kernel shared
between them would make those checks compare a computation with itself.
These tests read the source with :mod:`ast` and fail when one route starts
to name another's kernel.
"""

import ast
import inspect

import pytest

from hypermoyal import distributions, operators, symbols


def _tree(module) -> ast.Module:
    return ast.parse(inspect.getsource(module))


def _function(module, *path) -> ast.AST:
    """The definition at ``path`` (class then method, or a function name)."""
    node = _tree(module)
    for name in path:
        node = next(
            child for child in ast.iter_child_nodes(node)
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name
        )
    return node


def _names(node) -> set:
    """Every plain name and attribute name used inside ``node``."""
    out = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            out.add(child.id)
        elif isinstance(child, ast.Attribute):
            out.add(child.attr)
    return out


def test_distributions_imports_only_the_cap_and_the_symbol_type_from_symbols():
    imported = set()
    for node in ast.walk(_tree(distributions)):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("symbols", "hypermoyal.symbols"):
                imported.update(alias.name for alias in node.names)
            else:
                assert "symbols" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert all(alias.name != "hypermoyal.symbols" for alias in node.names)
    assert imported == {"DEFAULT_DEGREE_CAP", "PolySymbol"}


def test_shift_route_does_not_use_the_normal_ordered_kernel():
    names = _names(_function(operators, "Operator", "apply_shift_form"))
    assert "_derivative_terms" not in names


def test_normal_ordered_route_does_not_differentiate_exppolys():
    names = _names(_function(operators, "Operator", "apply_normal_ordered"))
    assert not [name for name in names if name.startswith("differentiate")]


@pytest.mark.parametrize(
    "kernel", ["_flatten", "_from_integers", "_structure_constants", "_accumulate"]
)
def test_poisson_bracket_does_not_use_the_star_kernel(kernel):
    assert kernel not in _names(_function(symbols, "poisson_bracket"))


def test_guard_sees_what_it_forbids():
    """The name scan finds the kernels where they are in use."""
    assert "_derivative_terms" in _names(_function(operators, "Operator", "apply_normal_ordered"))
    assert "differentiate_multi" in _names(_function(operators, "Operator", "apply_shift_form"))
    assert "_accumulate" in _names(_function(symbols, "star"))
