"""The float edge has one conversion and one place that picks cos or cosh.

``scalars._float`` is the one ``float()`` call of the package: it turns an
overflow into :class:`~hypermoyal.errors.ValidationError`, so every exact
value that becomes a float passes one check.  ``scalars._cos_sin`` is the one
caller of ``math.cos``, ``math.sin``, ``math.cosh`` and ``math.sinh``, so the
ring decides between the circular and the hyperbolic functions in one place.
These tests read the source with :mod:`ast`, as
``tests/test_route_independence.py`` does, and each guard has a test that
plants a violation in a copy of :mod:`hypermoyal.interference`.
"""

import ast
import importlib
import pkgutil

import pytest

import hypermoyal
from hypermoyal import interference
from test_route_independence import _definition, _tree

MODULES = [m.name for m in pkgutil.iter_modules(hypermoyal.__path__)]

#: The functions of ``scalars`` that may call ``float()``: ``_float`` itself,
#: and ``_num_str``, which converts a value that is already not exact, to
#: write it to 12 significant digits.
FLOAT_CALLERS = {"_float", "_num_str"}

TRIGONOMETRIC = {"cos", "sin", "cosh", "sinh"}


def _callers(tree, matches) -> set:
    """The innermost functions of ``tree`` around each call whose callee
    ``matches``, ``"<module>"`` for a call outside any.  The scope is read
    from the nesting, not from line numbers, so a statement planted into a
    parsed function counts as that function's."""
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and matches(child.func):
                callers.add(scope)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else scope)

    visit(tree, "<module>")
    return callers


def _float_callers(tree) -> set:
    return _callers(tree, lambda func: isinstance(func, ast.Name) and func.id == "float")


def _trigonometric_callers(tree) -> set:
    """:func:`_callers` of ``math.cos``, ``sin``, ``cosh`` and ``sinh``, and
    ``"<import>"`` when ``tree`` imports one of them from :mod:`math`."""
    callers = _callers(tree, lambda func: isinstance(func, ast.Attribute)
                       and func.attr in TRIGONOMETRIC
                       and isinstance(func.value, ast.Name) and func.value.id == "math")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            if {alias.name for alias in node.names} & TRIGONOMETRIC:
                callers.add("<import>")
    return callers


@pytest.mark.parametrize("name", MODULES)
def test_only_float_converts_to_float(name):
    module = importlib.import_module(f"hypermoyal.{name}")
    assert _float_callers(_tree(module)) == (FLOAT_CALLERS if name == "scalars" else set())


@pytest.mark.parametrize("name", MODULES)
def test_only_cos_sin_calls_the_trigonometric_functions(name):
    module = importlib.import_module(f"hypermoyal.{name}")
    assert _trigonometric_callers(_tree(module)) == ({"_cos_sin"} if name == "scalars"
                                                    else set())


def test_a_bare_float_fails_only_the_float_guard():
    planted = _tree(interference)
    _definition(planted, "classify").body.insert(0, ast.parse("x = float(lam)").body[0])
    assert _float_callers(planted) == {"classify"}
    assert _trigonometric_callers(planted) == set()


def test_a_math_cosh_fails_only_the_cos_sin_guard():
    planted = _tree(interference)
    _definition(planted, "Amplitude2", "born_value").body.insert(
        0, ast.parse("cross = math.cosh(self.phases[0])").body[0])
    assert _trigonometric_callers(planted) == {"born_value"}
    assert _float_callers(planted) == set()
    planted.body.insert(0, ast.parse("from math import cos, tan").body[0])
    assert _trigonometric_callers(planted) == {"born_value", "<import>"}
