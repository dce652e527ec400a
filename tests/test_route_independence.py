"""The three star-product routes stay independent.

The series star of :mod:`hypermoyal.symbols`, the distributional route of
:mod:`hypermoyal.distributions` and the two operator routes of
:mod:`hypermoyal.operators` are each other's oracles, so a kernel shared
between them would make those checks compare a computation with itself.
These tests read the source with :mod:`ast` and fail when one route starts
to name another's kernel.  The routes do share :mod:`hypermoyal.sparse`,
which only reads coefficients as integer numerators, adds real and unit
parts and builds the result's binarions; it must stay free of kernel math
and remain the one place that converts coefficients and builds them, with
the one reader of a binarion's numerators, ``scalars._integers``.  It is
also the one home of every input bound and of the degree-cap check that
all three routes run.  Its one product loop, which every algebra class's
``*`` runs, is called by no route kernel.  The ring methods of
:class:`~hypermoyal.scalars.Binarion` build their results only through its
unchecked builder ``_exact``.  No module imports :mod:`dataclasses` or
:mod:`inspect`, which would add their import to every command's start.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest
from conftest import fresh_modules

import hypermoyal
from hypermoyal import distributions, operators, scalars, sparse, symbols


def _tree(module) -> ast.Module:
    return ast.parse(inspect.getsource(module))


def _function(module, *path) -> ast.AST:
    """The definition at ``path`` (class then method, or a function name)."""
    return _definition(_tree(module), *path)


def _definition(node, *path) -> ast.AST:
    """The definition at ``path`` inside the parsed ``node``."""
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


def _symbols_imports(tree) -> set:
    """The names ``tree`` imports from :mod:`hypermoyal.symbols`; importing the
    module itself fails."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("symbols", "hypermoyal.symbols"):
                imported.update(alias.name for alias in node.names)
            else:
                assert "symbols" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert all(alias.name != "hypermoyal.symbols" for alias in node.names)
    return imported


#: What the other routes may take from the series route: the symbol type, and
#: in ``operators`` the ``star`` that ``compose_check`` compares against.
SERIES_IMPORTS = {"distributions": (distributions, {"PolySymbol"}),
                  "operators": (operators, {"PolySymbol", "star"})}


@pytest.mark.parametrize("route, allowed", SERIES_IMPORTS.values(), ids=SERIES_IMPORTS)
def test_routes_import_only_the_symbol_type_and_star_from_symbols(route, allowed):
    assert _symbols_imports(_tree(route)) == allowed


def test_import_guard_sees_what_it_forbids():
    planted = _tree(distributions)
    planted.body.insert(0, ast.parse("from .symbols import check_degree_cap").body[0])
    assert _symbols_imports(planted) == {"PolySymbol", "check_degree_cap"}


def _bound_definitions(tree) -> set:
    """The module-level names that ``tree`` binds by assignment and that name
    an input bound: ``MAX_*`` and ``DEFAULT_DEGREE_CAP``."""
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        names.update(
            child.id for target in targets for child in ast.walk(target)
            if isinstance(child, ast.Name)
            and (child.id.startswith("MAX_") or child.id == "DEFAULT_DEGREE_CAP")
        )
    return names


@pytest.mark.parametrize(
    "name", [m.name for m in pkgutil.iter_modules(hypermoyal.__path__) if m.name != "sparse"]
)
def test_only_sparse_defines_an_input_bound(name):
    module = importlib.import_module(f"hypermoyal.{name}")
    assert _bound_definitions(_tree(module)) == set()


def test_bound_guard_sees_what_it_forbids():
    assert _bound_definitions(_tree(sparse)) == {
        "DEFAULT_DEGREE_CAP", "MAX_INDEX", "MAX_DIGITS", "MAX_DEPTH", "MAX_STEPS",
        "MAX_WITNESS_GENERATORS"}
    planted = _tree(operators)
    planted.body.insert(0, ast.parse("MAX_TERMS = 1").body[0])
    assert _bound_definitions(planted) == {"MAX_TERMS"}


def _reached(tree, *path) -> set:
    """:func:`_names` of the definition at ``path`` in ``tree`` and of every
    function or method defined in ``tree`` under a name that it uses, and of
    the value of every module-level name it uses (a memo such as
    ``lru_cache(...)(builder)``), followed to the end, so a helper's helper
    is scanned too."""
    defined = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defined.setdefault(target.id, []).append(node.value)
        for child in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(child, ast.FunctionDef):
                defined.setdefault(child.name, []).append(child)
    names, todo = set(), [_definition(tree, *path)]
    while todo:
        found = _names(todo.pop())
        todo += [node for name in found - names for node in defined.get(name, ())]
        names |= found
    return names


#: The normal-ordered kernel's helpers in ``operators``, and the memo's bounds.
DERIVATIVE_HELPERS = ["_derivative_terms", "_derivative_row", "_derivative_factors",
                      "DERIVATIVE_ROW_TERMS"]
#: The factor-row helpers of ``distributions``: ``differentiate_multi``'s axis
#: rows, the twist rows of ``_pair_factors``, and their bounds.
AXIS_HELPERS = ["_axis_row", "_axis_factors"]
TWIST_HELPERS = ["_pair_factors", "_twist_row", "_twist_terms"]
FACTOR_BOUNDS = ["FACTOR_ROW_TERMS"]


def test_shift_route_does_not_use_the_normal_ordered_kernel():
    names = _reached(_tree(operators), "Operator", "apply_shift_form")
    assert not names & set(DERIVATIVE_HELPERS)


@pytest.mark.parametrize("path", [("Operator", "apply_normal_ordered"), ("_derivative_terms",)],
                         ids=["apply_normal_ordered", "_derivative_terms"])
@pytest.mark.parametrize("helper", AXIS_HELPERS + TWIST_HELPERS + FACTOR_BOUNDS)
def test_normal_ordered_route_uses_no_distributions_helper(path, helper):
    assert helper not in _reached(_tree(operators), *path)


def test_normal_ordered_route_does_not_differentiate_exppolys():
    names = _reached(_tree(operators), "Operator", "apply_normal_ordered")
    assert not [name for name in names if name.startswith("differentiate")]


@pytest.mark.parametrize(
    "kernel",
    ["_flatten", "_commutator_integers", "_structure_constants", "_kappa_row", "_accumulate",
     "_common_denominator", "_kappa_units", "_unpacked", "_KAPPA_ZERO", "_support", "KAPPA_ROWS",
     "KAPPA_ROW_TERMS"],
)
def test_poisson_bracket_does_not_use_the_star_kernel(kernel):
    assert kernel not in _names(_function(symbols, "poisson_bracket"))


@pytest.mark.parametrize(
    "kernel",
    ["_flatten", "_structure_constants", "_kappa_row", "_accumulate", "star", "substitute_h",
     "_common_denominator", "_kappa_units", "_unpacked", "_KAPPA_ZERO", "_support", "KAPPA_ROWS",
     "KAPPA_ROW_TERMS", *DERIVATIVE_HELPERS, *AXIS_HELPERS, "differentiate_multi"],
)
def test_distributional_star_does_not_use_the_series_or_operator_kernels(kernel):
    """Neither ``star_distributional`` nor the twist helpers it calls name a
    series kernel, an operator row helper or ``differentiate_multi``'s."""
    for path in ("star_distributional", "_pair_factors"):
        names = _reached(_tree(distributions), path)
        assert set(TWIST_HELPERS) <= names | {path} and kernel not in names
        assert not [name for name in names if name.lstrip("_").startswith("KAPPA")]


#: The route kernels, none of which may sum its products in the shared loop of
#: ``sparse``, which every algebra class's ``*`` runs.
ROUTE_KERNELS = {
    "star": (symbols, "star"),
    "_accumulate": (symbols, "_accumulate"),
    "_commutator_integers": (symbols, "_commutator_integers"),
    "poisson_bracket": (symbols, "poisson_bracket"),
    "star_distributional": (distributions, "star_distributional"),
    "apply_normal_ordered": (operators, "Operator", "apply_normal_ordered"),
    "apply_shift_form": (operators, "Operator", "apply_shift_form"),
}


@pytest.mark.parametrize("path", ROUTE_KERNELS.values(), ids=ROUTE_KERNELS)
def test_route_kernels_do_not_use_the_shared_product_loop(path):
    assert "multiply" not in _names(_function(*path))


def test_guard_sees_what_it_forbids():
    """The name scan finds the kernels where they are in use."""
    assert "_derivative_terms" in _names(_function(operators, "Operator", "apply_normal_ordered"))
    assert set(DERIVATIVE_HELPERS) <= _reached(_tree(operators), "Operator",
                                               "apply_normal_ordered")
    assert {"_derivative_row", "_derivative_factors", "DERIVATIVE_ROW_TERMS"} <= _names(
        _function(operators, "_derivative_terms"))
    assert {"FACTOR_ROW_TERMS", *AXIS_HELPERS} <= _names(
        _function(distributions, "ExpPoly", "differentiate_multi"))
    assert {"_twist_row", "_twist_terms"} <= _names(_function(distributions, "_pair_factors"))
    assert {"FACTOR_ROW_TERMS", "_twist_terms"} <= _names(_function(distributions, "_twist_row"))
    assert set(TWIST_HELPERS + FACTOR_BOUNDS) <= _reached(_tree(distributions),
                                                          "star_distributional")
    assert "differentiate_multi" in _names(_function(operators, "Operator", "apply_shift_form"))
    assert "_accumulate" in _names(_function(symbols, "star"))
    assert "_commutator_integers" in _names(_function(symbols, "scaled_bracket"))
    for helper in ("_kappa_units", "_unpacked"):
        assert helper in _names(_function(symbols, "star"))
        assert helper in _names(_function(symbols, "_commutator_integers"))
    assert {"_structure_constants", "_kappa_row", "_support"} <= _names(
        _function(symbols, "_accumulate"))
    assert {"KAPPA_ROWS", "KAPPA_ROW_TERMS", "_kappa_row"} <= _names(
        _function(symbols, "_structure_constants"))
    for path in STORAGE_READERS.values():
        assert {"_terms", "_cden"} <= _names(_function(*path))
    assert "multiply" in _names(_function(sparse, "SparseAlgebra", "__mul__"))
    assert "multiply" in _names(_function(distributions, "Ultradistribution", "tensor"))


@pytest.mark.parametrize(
    "module, helper, planted, path",
    [(operators, ("_derivative_factors",), "_axis_row(b, e)",
      ("Operator", "apply_normal_ordered")),
     (operators, ("_derivative_terms",), "_twist_terms(b, e, 0, 0, 1)",
      ("Operator", "apply_normal_ordered")),
     (operators, ("Operator", "_check_cap"), "_derivative_row(1, 1)",
      ("Operator", "apply_shift_form")),
     (distributions, ("_twist_terms",), "_derivative_factors(a, b)", ("star_distributional",)),
     (distributions, ("_twist_row",), "KAPPA_ROWS", ("_pair_factors",))],
    ids=["axis-row-in-derivative-factors", "twist-terms-in-derivative-terms",
         "derivative-row-in-the-shift-route", "derivative-factors-in-twist-terms",
         "kappa-bound-in-twist-row"],
)
def test_reach_guard_sees_a_cross_route_call_in_a_helper(module, helper, planted, path):
    """A cross-route name planted in a helper, not in the kernel the guard
    names, is found through the helpers the kernel calls."""
    tree = _tree(module)
    name = planted.split("(")[0]
    assert name not in _reached(tree, *path)
    _definition(tree, *helper).body.insert(0, ast.parse(planted).body[0])
    assert name not in _names(_definition(tree, *path))
    assert name in _reached(tree, *path)


def test_reach_guard_follows_a_memo_to_its_builder():
    """A memo bound by assignment is scanned through its value: a derivative
    memo planted over the axis rows is found from the normal-ordered route."""
    tree = _tree(operators)
    memo = next(node for node in tree.body if isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) == "_derivative_row")
    assert "_axis_factors" not in _reached(tree, "Operator", "apply_normal_ordered")
    memo.value.args[0] = ast.Name("_axis_factors")
    assert "_axis_factors" in _reached(tree, "Operator", "apply_normal_ordered")


#: Kernels that read the stored integer coefficients of their operands: none of
#: them converts a coefficient to or from a binarion.
STORAGE_READERS = {
    "_flatten": (symbols, "_flatten"),
    "substitute_h": (symbols, "PolySymbol", "substitute_h"),
    "poisson_bracket": (symbols, "poisson_bracket"),
    "from_poly_symbol": (distributions, "ExpPoly", "from_poly_symbol"),
    "differentiate_multi": (distributions, "ExpPoly", "differentiate_multi"),
    "shift": (distributions, "ExpPoly", "shift"),
    "mul_monomial": (distributions, "Ultradistribution", "mul_monomial"),
    "star_distributional": (distributions, "star_distributional"),
    "apply_normal_ordered": (operators, "Operator", "apply_normal_ordered"),
    "apply_shift_form": (operators, "Operator", "apply_shift_form"),
}

#: The names of the two coefficient edges, of what they build, of the one
#: reader of a binarion's numerators and of the two readers of a constructor's
#: coefficients into integers.
EDGES = {"numerators", "from_parts", "stored", "_binarions", "Binarion", "_integers",
         "coefficient_parts", "_coefficient_parts"}


@pytest.mark.parametrize(
    "path",
    [*STORAGE_READERS.values(), (symbols, "star"), (symbols, "_commutator_integers"),
     (symbols, "moyal_bracket"), (symbols, "scaled_bracket"), (symbols, "_accumulate")],
    ids=[*STORAGE_READERS, "star", "_commutator_integers", "moyal_bracket", "scaled_bracket",
         "_accumulate"],
)
def test_kernels_work_on_the_stored_integers(path):
    assert not EDGES & _names(_function(*path))


def test_edge_guard_sees_what_it_forbids():
    planted = _function(symbols, "_flatten")
    planted.body.insert(0, ast.parse("den, weights = numerators(symbol._terms)").body[0])
    assert EDGES & _names(planted) == {"numerators"}
    planted.body.insert(0, ast.parse("x, y, d = _integers(c)").body[0])
    assert EDGES & _names(planted) == {"numerators", "_integers"}
    for line in ("x, y, d = coefficient_parts(c, sigma, 'symbol')",
                 "parts = HPoly._coefficient_parts(c, sigma, 'symbol')"):
        planted.body.insert(0, ast.parse(line).body[0])
    assert EDGES & _names(planted) == {"numerators", "_integers", "coefficient_parts",
                                       "_coefficient_parts"}
    assert "from_parts" in _names(_function(sparse, "SparseMap", "_binarions"))


#: The kernels that sum integer numerators and divide once at the end.
INTEGER_KERNELS = {
    "star_distributional": (distributions, "star_distributional"),
    "apply_shift_form": (operators, "Operator", "apply_shift_form"),
    "apply_normal_ordered": (operators, "Operator", "apply_normal_ordered"),
    "differentiate_multi": (distributions, "ExpPoly", "differentiate_multi"),
    "mul_monomial": (distributions, "Ultradistribution", "mul_monomial"),
    "substitute_h": (symbols, "PolySymbol", "substitute_h"),
    "poisson_bracket": (symbols, "poisson_bracket"),
}


@pytest.mark.parametrize("path", INTEGER_KERNELS.values(), ids=INTEGER_KERNELS)
def test_integer_kernels_name_no_fraction(path):
    assert "Fraction" not in _names(_function(*path))


def test_fraction_guard_sees_what_it_forbids():
    """A copy of each integer kernel with one ``Fraction`` planted in it fails the scan."""
    for path in INTEGER_KERNELS.values():
        planted = _function(*path)
        planted.body.append(ast.parse("h = Fraction(h)").body[0])
        assert "Fraction" in _names(planted)


def _is_part(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in ("re", "im")


def _part_names(scope) -> set:
    """The names that ``scope`` binds to a ``.re`` or ``.im`` attribute, by
    assignment (``re, im = v.re, v.im``) or as a loop target over such
    attributes (``for v in (c.re, c.im)``)."""
    names = set()
    for node in ast.walk(scope):
        pairs = []
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs += zip(target.elts, node.value.elts)
                else:
                    pairs.append((target, node.value))
        elif isinstance(node, (ast.For, ast.comprehension)):
            if isinstance(node.iter, (ast.Tuple, ast.List)) and all(
                    map(_is_part, node.iter.elts)):
                pairs.append((node.target, node.iter.elts[0]))
        names.update(t.id for t, v in pairs if isinstance(t, ast.Name) and _is_part(v))
    return names


def _coefficient_part_reads(tree) -> list:
    """Line numbers of the reads of ``.numerator`` or ``.denominator`` of a
    ``.re`` or ``.im`` attribute, such as ``c.re.numerator``, or of a name
    bound to one in the same function or anywhere in the module, which also
    catches a helper that takes the parts from its caller."""
    lines = set()
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for scope in scopes:
        names = _part_names(scope)
        lines.update(
            node.lineno
            for node in ast.walk(scope)
            if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")
            and (_is_part(node.value)
                 or isinstance(node.value, ast.Name) and node.value.id in names)
        )
    return sorted(lines)


@pytest.mark.parametrize(
    "name", [m.name for m in pkgutil.iter_modules(hypermoyal.__path__) if m.name != "scalars"]
)
def test_only_scalars_converts_coefficients_to_numerators(name):
    module = importlib.import_module(f"hypermoyal.{name}")
    assert _coefficient_part_reads(_tree(module)) == []


def _part_readers(tree) -> set:
    """The names of the innermost functions of ``tree`` around its
    :func:`_coefficient_part_reads`, ``"<module>"`` for a read outside any."""
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    readers = set()
    for line in _coefficient_part_reads(tree):
        around = [f for f in functions if f.lineno <= line <= f.end_lineno]
        readers.add(max(around, key=lambda f: f.lineno).name if around else "<module>")
    return readers


def test_in_scalars_only_integers_converts_coefficients_to_numerators():
    assert _part_readers(_tree(scalars)) == {"_integers"}
    planted = ast.parse(
        "def _integers(value):\n"
        "    return [c.re.numerator for c in value]\n"
        "def numerators(terms):\n"
        "    return [c.im.denominator for c in terms]\n"
        "d = c.re.denominator\n"
    )
    assert _part_readers(planted) == {"_integers", "numerators", "<module>"}


@pytest.mark.parametrize("module", [sparse, symbols, operators], ids=lambda m: m.__name__)
def test_a_second_reader_outside_scalars_fails_the_guard(module):
    """The reader that ``sparse.stored`` once held, planted back into a module
    that reads stored terms, is found."""
    planted = _tree(module)
    planted.body.append(ast.parse(
        "def stored(pairs):\n"
        "    return {key: (c.re.numerator, c.im.numerator) for key, c in pairs}\n"
    ).body[0])
    assert _part_readers(planted) == {"stored"}


def test_numerator_guard_sees_what_it_forbids():
    assert _coefficient_part_reads(_tree(scalars))
    planted = ast.parse(
        "n = c.re.numerator * (den // c.im.denominator)\n"
        "def f(v, x):\n"
        "    re, im = v.re, v.im\n"
        "    d = [w.denominator for w in (v.re, v.im)]\n"
        "    return re.numerator, im.denominator, x.numerator\n"
    )
    assert _coefficient_part_reads(planted) == [1, 4, 5]


#: The ring methods of ``Binarion``: each builds its result through ``_exact``
#: or hands it to another of them.
BINARION_RING_METHODS = (
    "__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__", "__rtruediv__",
    "_divided", "__pow__", "conjugate", "invert",
)


def _binarion_builds(node) -> set:
    """The builders that ``node`` calls: ``"Binarion"`` for the validating
    constructor (or ``cls(...)``), and the attribute name for a classmethod
    such as ``Binarion._exact`` or ``Binarion.one``."""
    builds = set()
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Name) and func.id in ("Binarion", "cls"):
            builds.add("Binarion")
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in ("Binarion", "cls")):
            builds.add(func.attr)
    return builds


@pytest.mark.parametrize("method", BINARION_RING_METHODS)
def test_binarion_ring_methods_build_only_through_exact(method):
    assert _binarion_builds(_function(scalars, "Binarion", method)) <= {"_exact"}


def test_binarion_ring_methods_use_exact():
    built = set()
    for method in BINARION_RING_METHODS:
        built |= _binarion_builds(_function(scalars, "Binarion", method))
    assert built == {"_exact"}


def test_binarion_builder_guard_sees_what_it_forbids():
    planted = _function(scalars, "Binarion", "conjugate")
    planted.body.insert(0, ast.parse("out = Binarion(self.re, -self.im, self.sigma)").body[0])
    assert _binarion_builds(planted) == {"Binarion", "_exact"}
    planted = _function(scalars, "Binarion", "__pow__")
    planted.body.insert(0, ast.parse("result = Binarion.one(self.sigma)").body[0])
    assert _binarion_builds(planted) == {"one", "_exact"}
    assert _binarion_builds(ast.parse("z = cls(re, im, sigma)")) == {"Binarion"}
    assert "Binarion" in _binarion_builds(_function(scalars, "Binarion", "_coerce"))


#: Methods that carry route kernels, besides the routes' module-level functions.
KERNEL_METHODS = {
    "substitute_h", "from_poly_symbol", "differentiate_multi", "mul_monomial", "tensor",
    "apply_normal_ordered", "apply_shift_form",
}


def _route_kernels() -> set:
    """The module-level functions of the three routes, and their kernel methods."""
    names = set(KERNEL_METHODS)
    for module in (symbols, distributions, operators):
        names.update(
            node.name for node in _tree(module).body if isinstance(node, ast.FunctionDef)
        )
    return names


def _binarion_dict_comprehensions(tree) -> list:
    """Line numbers of the dict comprehensions that call ``Binarion`` or one
    of its constructors."""
    def builds(call):
        func = call.func
        if isinstance(func, ast.Attribute):
            func = func.value
        return isinstance(func, ast.Name) and func.id == "Binarion"

    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.DictComp)
        and any(isinstance(c, ast.Call) and builds(c) for c in ast.walk(node))
    ]


@pytest.mark.parametrize(
    "name", [m.name for m in pkgutil.iter_modules(hypermoyal.__path__) if m.name != "sparse"]
)
def test_only_sparse_builds_binarions_in_a_dict_comprehension(name):
    module = importlib.import_module(f"hypermoyal.{name}")
    assert _binarion_dict_comprehensions(_tree(module)) == []


def test_sparse_names_no_route_kernel_and_imports_no_route():
    tree = _tree(sparse)
    assert not _names(tree) & _route_kernels()
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert relative <= {"errors", "scalars"}


def test_sparse_guards_see_what_they_forbid():
    assert _binarion_dict_comprehensions(_tree(sparse))
    assert _binarion_dict_comprehensions(
        ast.parse("out = {key: Binarion.zero(sigma) for key in keys}")
    )
    kernel_call = ast.parse("def f(acc, a, b):\n    return _pair_factors(a.tensor(b))")
    assert _names(kernel_call) & _route_kernels() == {"_pair_factors", "tensor"}


def _json_parsers(tree) -> set:
    """The innermost functions of ``tree`` that name ``json.load`` or
    ``json.loads``, ``"<module>"`` for a use outside any, and ``"<import>"``
    when ``tree`` imports either from :mod:`json`."""
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    parsers = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            parsers.add(max(around, key=lambda f: f.lineno).name if around else "<module>")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            if {alias.name for alias in node.names} & {"load", "loads"}:
                parsers.add("<import>")
    return parsers


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(hypermoyal.__path__)])
def test_only_the_one_reader_parses_json(name):
    module = importlib.import_module(f"hypermoyal.{name}")
    assert _json_parsers(_tree(module)) == ({"json_document"} if name == "errors" else set())


def test_json_guard_sees_what_it_forbids():
    planted = _tree(importlib.import_module("hypermoyal.cli"))
    planted.body += ast.parse(
        "from json import loads\n"
        "def _read_json(path):\n"
        "    with open(path) as fh:\n"
        "        return json.load(fh)\n"
        "reader = json.loads\n"
    ).body
    assert _json_parsers(planted) == {"<import>", "_read_json", "<module>"}


#: Modules the package does not import: ``dataclasses`` and the ``inspect`` it
#: loads took about 5.7 ms of every CLI process's start.
SLOW_IMPORTS = {"dataclasses", "inspect"}

MODULES = ["hypermoyal"] + [
    f"hypermoyal.{m.name}" for m in pkgutil.iter_modules(hypermoyal.__path__)]


def _imported_modules(tree) -> set:
    """The top-level names of the modules ``tree`` imports, relative imports
    left out."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module.split(".")[0])
    return imported


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_dataclasses_or_inspect(name):
    assert _imported_modules(_tree(importlib.import_module(name))) & SLOW_IMPORTS == set()


def test_slow_import_guard_sees_what_it_forbids():
    assert {"fractions", "math"} <= _imported_modules(_tree(symbols))
    planted = _tree(symbols)
    planted.body.insert(0, ast.parse("from dataclasses import dataclass").body[0])
    assert _imported_modules(planted) & SLOW_IMPORTS == {"dataclasses"}


def test_no_import_loads_dataclasses_or_inspect():
    """Compared with a bare interpreter, so that a module a site hook loads
    does not decide the test."""
    added = fresh_modules("\n".join(f"import {name}" for name in MODULES)) - fresh_modules("")
    assert "hypermoyal.cli" in added and "hypermoyal.interference" in added
    assert added & SLOW_IMPORTS == set()
