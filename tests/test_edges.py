"""The float edge has one conversion and one place that picks cos or cosh;
numbers and powers have one writer each, and rational text one reader.

``scalars._float`` is the one ``float()`` call of the package: it turns an
overflow into :class:`~hypermoyal.errors.ValidationError`, so every exact
value that becomes a float passes one check.  ``scalars._cos_sin`` is the one
caller of ``math.cos``, ``math.sin``, ``math.cosh`` and ``math.sinh``, so the
ring decides between the circular and the hyperbolic functions in one place.

``scalars._num_str`` is the one writer of a number: no other explicit
conversion to text (``str``, ``repr``, ``format`` or an f-string field with a
format spec) is given a bare number, and ``sys.get_int_max_str_digits`` is
read only by ``scalars._too_long``, the refusal of a number too long to
write.  ``scalars._as_fraction`` is the one reader of rational text: every
other ``Fraction`` of one argument converts a number.  ``sparse.power_factors``
is the one writer of a power ``name^e``.  A plain f-string field ``{x}`` is
out of the number guard's reach: it writes numbers and text alike.

These tests read the source with :mod:`ast`, as
``tests/test_route_independence.py`` does, and each guard has a test that
plants a violation in a copy of a module.
"""

import ast
import functools
import importlib
import pkgutil

import pytest

import hypermoyal
from hypermoyal import cli, distributions, interference, scalars, symbols
from test_route_independence import _definition, _tree

MODULES = [m.name for m in pkgutil.iter_modules(hypermoyal.__path__)]

#: The functions of ``scalars`` that may call ``float()``: ``_float`` itself,
#: and ``_num_str``, which converts a value that is already not exact, to
#: write it to 12 significant digits.
FLOAT_CALLERS = {"_float", "_num_str"}

TRIGONOMETRIC = {"cos", "sin", "cosh", "sinh"}


def _sites(tree, label) -> set:
    """``(function, label(node))`` for each node of ``tree`` whose label is
    not ``None``: the innermost function around it, ``"<module>"`` outside
    any.  The scope is read from the nesting, not from line numbers, so a
    statement planted into a parsed function counts as that function's."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            found = label(child)
            if found is not None:
                sites.add((scope, found))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else scope)

    visit(tree, "<module>")
    return sites


def _scopes(tree, matches) -> set:
    """The functions of :func:`_sites` around each node that ``matches``."""
    return {scope for scope, _ in _sites(tree, lambda node: "" if matches(node) else None)}


def _callers(tree, matches) -> set:
    """The innermost functions of ``tree`` around each call whose callee
    ``matches``, ``"<module>"`` for a call outside any."""
    return _scopes(tree, lambda node: isinstance(node, ast.Call) and matches(node.func))


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


@functools.cache
def _module_tree(name) -> ast.Module:
    """The parsed source of ``hypermoyal.<name>``, shared by the read-only scans."""
    return _tree(importlib.import_module(f"hypermoyal.{name}"))


#: Every explicit conversion to text in ``src/``, as ``(function, source of
#: the converted value)``; a field that formats ``_num_str``'s text is left
#: out.  None is given a bare number: each converts text, an exception, an
#: enum member or an object whose ``__str__`` writes its numbers through
#: ``_num_str``, or is ``_num_str`` itself.
TEXT_CONVERSIONS = {
    "cli": {("_cmd_super", "witness"), ("_cmd_super", "a"), ("_cmd_super", "b"),
            ("_cmd_super", "a.parity()"), ("_cmd_super", "b.parity()"),
            ("_cmd_super", "product"), ("_cmd_super", "scomm"),
            ("text", "h")},  # the limit table's h, already _num_str's text
    "distributions": {("to_text", "coeff")},
    "errors": {("json_document", "exc")},
    "grassmann": {("_term_text", "coeff")},
    "interference": {("to_json_dict", "self.regime")},
    "scalars": {("_num_str", "value"), ("_num_str", "float(value)"),
                ("__str__", "self.value"),  # the ring's sign, written with its sign: +1 or -1
                ("_as_fraction", "exc"), ("_num_msg", "value"), ("_json_fraction", "value")},
    "sparse": {("integer", "value"), ("__repr__", "self"), ("_term_text", "c")},
    "symbols": {("_render_monomial", "value")},
}

#: Every ``Fraction`` of one argument in ``src/`` that is not an int literal,
#: as ``(function, source of the argument)``.  Only ``_as_fraction`` is given
#: text; each other is given a number.
FRACTION_CONVERSIONS = {
    "interference": {("_sqrt", "value")},  # an int or Fraction, tested just before
    "parsing": {("primary", "numerator")},  # the int of a number token
    "scalars": {("_as_fraction", "value"), ("reconstruct", "self.sign * self.modulus"),
                ("reconstruct", "c"), ("reconstruct", "s"),  # floats of _cos_sin
                ("character", "c"), ("character", "s")},
}


def _is_call(node, *names) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names


def _text_conversions(tree) -> set:
    def label(node):
        if _is_call(node, "str", "repr", "format") and node.args:
            return ast.unparse(node.args[0])
        if (isinstance(node, ast.FormattedValue) and node.format_spec
                and not _is_call(node.value, "_num_str")):
            return ast.unparse(node.value)
        return None

    return _sites(tree, label)


def _digit_limit_readers(tree) -> set:
    return _scopes(tree, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "get_int_max_str_digits"
        or isinstance(node, ast.Name) and node.id == "get_int_max_str_digits"))


def _fraction_conversions(tree) -> set:
    def label(node):
        if not (isinstance(node, ast.Call) and len(node.args) == 1 and not node.keywords):
            return None
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "Fraction"
                or isinstance(func, ast.Attribute) and func.attr == "Fraction"):
            return None
        arg = node.args[0]
        literal = isinstance(arg, ast.Constant) and type(arg.value) is int
        return None if literal else ast.unparse(arg)

    return _sites(tree, label)


def _ends_in_caret(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and (
        node.value.endswith("^"))


def _writes_power(node) -> bool:
    """``^`` written before a value: an f-string part ending in ``^`` before
    a field, ``"...^" + x``, ``"...^%d" % x``, ``"...^{}".format(x)`` or
    ``"^".join(...)``."""
    if isinstance(node, ast.JoinedStr):
        parts = node.values
        return any(_ends_in_caret(a) and isinstance(b, ast.FormattedValue)
                   for a, b in zip(parts, parts[1:]))
    if isinstance(node, ast.BinOp) and isinstance(node.left, ast.Constant):
        text = node.left.value
        return isinstance(text, str) and (isinstance(node.op, ast.Add) and text.endswith("^")
                                          or isinstance(node.op, ast.Mod) and "^%" in text)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Constant)
            and isinstance(node.func.value.value, str)):
        text, method = node.func.value.value, node.func.attr
        return method == "join" and text == "^" or method == "format" and "^{" in text
    return False


def _power_writers(tree) -> set:
    return _scopes(tree, _writes_power)


@pytest.mark.parametrize("name", MODULES)
def test_only_num_str_writes_a_number(name):
    assert _text_conversions(_module_tree(name)) == TEXT_CONVERSIONS.get(name, set())
    assert _digit_limit_readers(_module_tree(name)) == ({"_too_long"} if name == "scalars"
                                                        else set())


@pytest.mark.parametrize("name", MODULES)
def test_only_as_fraction_reads_rational_text(name):
    assert _fraction_conversions(_module_tree(name)) == FRACTION_CONVERSIONS.get(name, set())


@pytest.mark.parametrize("name", MODULES)
def test_only_power_factors_writes_a_power(name):
    assert _power_writers(_module_tree(name)) == ({"power_factors"} if name == "sparse"
                                                  else set())


def test_a_bare_str_of_a_number_fails_only_the_writer_guard():
    planted = _tree(distributions)
    _definition(planted, "ExpPoly", "to_text").body.insert(
        0, ast.parse("text = str(freq)").body[0])
    assert (_text_conversions(planted) - TEXT_CONVERSIONS["distributions"]
            == {("to_text", "freq")})
    assert _fraction_conversions(planted) == set()
    assert _power_writers(planted) == set()
    limit = _tree(scalars)
    _definition(limit, "_num_str").body.insert(
        0, ast.parse("digits = sys.get_int_max_str_digits()").body[0])
    assert _digit_limit_readers(limit) == {"_too_long", "_num_str"}


def test_a_fraction_of_text_fails_only_the_reader_guard():
    planted = _tree(cli)
    _definition(planted, "_positive_h").body.insert(0, ast.parse("h = Fraction(text)").body[0])
    assert _fraction_conversions(planted) == {("_positive_h", "text")}
    assert _text_conversions(planted) == TEXT_CONVERSIONS["cli"]
    assert _power_writers(planted) == set()


def test_a_hand_written_power_fails_only_the_power_guard():
    planted = _tree(symbols)
    _definition(planted, "_render_monomial").body.insert(
        0, ast.parse('head = f"{names[0]}^{exps[0]}"').body[0])
    assert _power_writers(planted) == {"_render_monomial"}
    assert _text_conversions(planted) == TEXT_CONVERSIONS["symbols"]
    assert _fraction_conversions(planted) == set()
    for text in ('"q^" + str(e)', '"q^%d" % e', '"q^{}".format(e)', '"^".join(parts)'):
        variant = _tree(symbols)
        _definition(variant, "_render_monomial").body.insert(0, ast.parse(text).body[0])
        assert _power_writers(variant) == {"_render_monomial"}
