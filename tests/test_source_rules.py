"""The source rules: the one place that does each thing at the number edges,
and the independence of the three star-product routes.

Number edges.  ``scalars._float`` is the one ``float()`` call of the package
besides ``scalars._num_str``, which writes a value that is already not
exact: it turns an overflow into :class:`~hypermoyal.errors.ValidationError`.
``scalars._cos_sin`` is the one caller of ``math.cos``, ``sin``, ``cosh`` and
``sinh``, so the ring picks the circular or the hyperbolic functions in one
place.  ``scalars._num_str`` is the one writer of a number: no other explicit
conversion to text (``str``, ``repr``, ``format`` or an f-string field with a
format spec) is given a bare number, and ``sys.get_int_max_str_digits`` is
read only by ``scalars._too_long``.  A plain f-string field ``{x}`` is out of
this rule's reach: it writes numbers and text alike.  ``scalars._as_fraction``
is the one reader of rational text: every other ``Fraction`` of one argument
converts a number.  ``sparse.power_factors`` is the one writer of a power
``name^e``, and ``errors.json_document`` the one parser of JSON.

Route independence.  The series star of :mod:`hypermoyal.symbols`, the
distributional route of :mod:`hypermoyal.distributions` and the two operator
routes of :mod:`hypermoyal.operators` are each other's oracles, so a kernel
shared between them would make those checks compare a computation with
itself.  The other routes import only the symbol type, and ``operators`` the
``star`` that ``compose_check`` compares against, from ``symbols``.  Each
route kernel must not reach another's kernel (:data:`REACH`).  The routes
share :mod:`hypermoyal.sparse`, which names no route kernel and imports only
``errors`` and ``scalars``.  It is the one home of every input bound and the
one module that builds binarions in a dict comprehension, and its product
loop, which every algebra class's ``*`` runs, is called by no route kernel.
The kernels work on the stored integers: ``scalars._integers`` is the one
reader of a coefficient part's numerator, and the ring methods of
:class:`~hypermoyal.scalars.Binarion` build their results only through its
unchecked builder ``_exact``.  No module imports :mod:`dataclasses` or
:mod:`inspect`, which would add their import to every command's start.

How the rules read the source.  Each module is parsed once.  One walk labels
its nodes for every rule of :data:`RULES`; a site is the innermost function
around a labelled node, found by nesting (``"<module>"`` outside any
function, ``"<import>"`` for an import), paired with the label when the
rule gives one.  A reach row of :data:`REACH` reads the names that one
definition uses, or reaches through the helpers it calls; each guard of
:data:`GUARDS` that binds the row is its own test, and a further test
checks that the scan still sees the names the kernel is known to use.  Each row of
:data:`PLANTS` plants a statement into a fresh parse of a module and checks
that it adds exactly its sites to each rule, and nothing to any other.
"""

import ast
import functools
from collections import namedtuple
from fnmatch import fnmatchcase
from pathlib import Path

import pytest
from conftest import fresh_modules

import hypermoyal

SOURCE = Path(hypermoyal.__file__).parent
MODULES = tuple(sorted(path.stem for path in SOURCE.glob("*.py")))


def _parse(name) -> ast.Module:
    return ast.parse((SOURCE / f"{name}.py").read_text(encoding="utf-8"))


#: The parsed source of each module, shared by the read-only scans.
_tree = functools.cache(_parse)


def _definition(tree, path) -> ast.AST:
    """The definition at the dotted ``path`` (class then method, or a
    function name) inside ``tree``; ``tree`` itself for ``""``."""
    for name in filter(None, path.split(".")):
        tree = next(child for child in ast.iter_child_nodes(tree)
                    if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name)
    return tree


# -- the scope rules ---------------------------------------------------------
#
# A label function is given the nodes of its rule's types and returns None
# for no site, True for a site at the node's scope, or a text label.


def _is_call(node, *names) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names


def _imports_from(node, module, names):
    return node.module == module and not names.isdisjoint(a.name for a in node.names) or None


def _float_call(node):
    return _is_call(node, "float") or None


TRIGONOMETRIC = {"cos", "sin", "cosh", "sinh"}


def _trigonometry(node):
    if isinstance(node, ast.ImportFrom):
        return _imports_from(node, "math", TRIGONOMETRIC)
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr in TRIGONOMETRIC
            and isinstance(func.value, ast.Name) and func.value.id == "math") or None


def _number_text(node):
    """The source of the value that an explicit conversion to text is given
    (a field that formats ``_num_str``'s text is left out), or of a read of
    the digit limit."""
    if isinstance(node, ast.Call):
        converts = _is_call(node, "str", "repr", "format") and node.args
        return ast.unparse(node.args[0]) if converts else None
    if isinstance(node, ast.FormattedValue):
        converts = node.format_spec and not _is_call(node.value, "_num_str")
        return ast.unparse(node.value) if converts else None
    name = node.attr if isinstance(node, ast.Attribute) else node.id
    return ast.unparse(node) if name == "get_int_max_str_digits" else None


def _fraction_of_one(node):
    """The source of the one argument of a ``Fraction`` that is not an int
    literal."""
    func = node.func
    if len(node.args) != 1 or node.keywords or not (
            isinstance(func, ast.Name) and func.id == "Fraction"
            or isinstance(func, ast.Attribute) and func.attr == "Fraction"):
        return None
    arg = node.args[0]
    return None if isinstance(arg, ast.Constant) and type(arg.value) is int else ast.unparse(arg)


def _ends_in_caret(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and (
        node.value.endswith("^"))


def _writes_power(node):
    """``^`` written before a value: an f-string part ending in ``^`` before
    a field, ``"...^" + x``, ``"...^%d" % x``, ``"...^{}".format(x)`` or
    ``"^".join(...)``."""
    if isinstance(node, ast.JoinedStr):
        parts = node.values
        return any(_ends_in_caret(a) and isinstance(b, ast.FormattedValue)
                   for a, b in zip(parts, parts[1:])) or None
    if isinstance(node, ast.BinOp):
        text = node.left.value if isinstance(node.left, ast.Constant) else None
        return isinstance(text, str) and (isinstance(node.op, ast.Add) and text.endswith("^")
                                          or isinstance(node.op, ast.Mod) and "^%" in text) or None
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Constant) and isinstance(
            func.value.value, str):
        text, method = func.value.value, func.attr
        return method == "join" and text == "^" or method == "format" and "^{" in text or None
    return None


def _json_parse(node):
    if isinstance(node, ast.ImportFrom):
        return _imports_from(node, "json", {"load", "loads"})
    return (node.attr in ("load", "loads")
            and isinstance(node.value, ast.Name) and node.value.id == "json") or None


def _is_part(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in ("re", "im")


def _part_use(node):
    """The source of a ``.numerator`` or ``.denominator`` read of a ``.re``
    or ``.im`` attribute or of a name; or ``"=name,..."`` for the names that
    an assignment (``re, im = v.re, v.im``) or a loop over such attributes
    (``for v in (c.re, c.im)``) binds to one."""
    if isinstance(node, ast.Attribute):
        read = node.attr in ("numerator", "denominator") and (
            _is_part(node.value) or isinstance(node.value, ast.Name))
        return ast.unparse(node) if read else None
    pairs = []
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs += zip(target.elts, node.value.elts)
            else:
                pairs.append((target, node.value))
    elif isinstance(node.iter, (ast.Tuple, ast.List)) and node.iter.elts and all(
            map(_is_part, node.iter.elts)):
        pairs.append((node.target, node.iter.elts[0]))
    names = [t.id for t, v in pairs if isinstance(t, ast.Name) and _is_part(v)]
    return "=" + ",".join(names) if names else None


def _part_reads(sites) -> set:
    """The reads of a coefficient part among :func:`_part_use`'s ``sites``:
    of a part itself (``c.re.numerator``), or of a name bound to one anywhere
    in the module, which also catches a helper that takes the parts from its
    caller."""
    bound = {name for _, label in sites if label[0] == "=" for name in label[1:].split(",")}
    reads = set()
    for scope, label in sites:
        base = label.rpartition(".")[0]
        if label[0] != "=" and ("." in base or base in bound):
            reads.add((scope, label))
    return reads


def _builds_binarions(node):
    """True for a dict comprehension that calls ``Binarion`` or one of its
    constructors."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func.value if isinstance(call.func, ast.Attribute) else call.func
            if isinstance(func, ast.Name) and func.id == "Binarion":
                return True
    return None


def _bound_name(node):
    """A name bound to an input bound: ``MAX_*`` or ``DEFAULT_DEGREE_CAP``."""
    bound = node.id.startswith("MAX_") or node.id == "DEFAULT_DEGREE_CAP"
    return node.id if bound and isinstance(node.ctx, ast.Store) else None


#: Modules the package does not import: ``dataclasses`` and the ``inspect`` it
#: loads took about 5.7 ms of every CLI process's start.
SLOW_IMPORTS = {"dataclasses", "inspect"}


def _slow_import(node):
    if isinstance(node, ast.Import):
        roots = {alias.name.split(".")[0] for alias in node.names}
    else:
        roots = set() if node.level else {node.module.split(".")[0]}
    return ast.unparse(node) if roots & SLOW_IMPORTS else None


#: Methods that carry route kernels, besides the routes' module-level functions.
KERNEL_METHODS = {
    "substitute_h", "from_poly_symbol", "differentiate_multi", "mul_monomial", "tensor",
    "apply_normal_ordered", "apply_shift_form",
}


@functools.cache
def _route_kernels() -> frozenset:
    """The module-level functions of the three routes, and their kernel methods."""
    return frozenset(KERNEL_METHODS).union(
        node.name for name in ("symbols", "distributions", "operators")
        for node in _tree(name).body if isinstance(node, ast.FunctionDef))


def _route_use(node):
    """A route kernel's name, or a relative import of a module other than
    ``errors`` and ``scalars``."""
    if isinstance(node, ast.ImportFrom):
        route = node.level and node.module not in ("errors", "scalars")
        return ast.unparse(node) if route else None
    name = node.id if isinstance(node, ast.Name) else node.attr
    return name if name in _route_kernels() else None


def _symbols_import(node):
    """An import from :mod:`hypermoyal.symbols`, or of the module itself."""
    if isinstance(node, ast.Import):
        found = any(alias.name == "hypermoyal.symbols" for alias in node.names)
    else:
        found = node.module in ("symbols", "hypermoyal.symbols") or any(
            alias.name == "symbols" for alias in node.names)
    return ast.unparse(node) if found else None


def _binarion_builder(node):
    """The builder that a call names: ``"Binarion"`` for the validating
    constructor (or ``cls(...)``), and the attribute name for a classmethod
    such as ``Binarion._exact`` or ``Binarion.one``."""
    func = node.func
    if isinstance(func, ast.Name):
        return "Binarion" if func.id in ("Binarion", "cls") else None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and (
            func.value.id in ("Binarion", "cls")):
        return func.attr
    return None


Rule = namedtuple("Rule", "name types label expected modules finish", defaults=(MODULES, None))

#: Each "only these functions do X" rule: its name, the node types its label
#: function reads, the label function, and its sites per module (none in a
#: module it does not list).  The last two rules read one module each.
RULES = [
    Rule("float()", (ast.Call,), _float_call, {"scalars": {"_float", "_num_str"}}),
    Rule("math trigonometry", (ast.Call, ast.ImportFrom), _trigonometry,
         {"scalars": {"_cos_sin"}}),
    # Each explicit conversion to text converts text, an exception, an enum
    # member or an object whose ``__str__`` writes its numbers through
    # ``_num_str``, or is ``_num_str`` itself.
    Rule("number text", (ast.Call, ast.FormattedValue, ast.Attribute, ast.Name), _number_text, {
        "cli": {("_cmd_super", "witness"), ("_cmd_super", "a"), ("_cmd_super", "b"),
                ("_cmd_super", "a.parity()"), ("_cmd_super", "b.parity()"),
                ("_cmd_super", "product"), ("_cmd_super", "scomm"),
                ("text", "h")},  # the limit table's h, already _num_str's text
        "distributions": {("to_text", "coeff")},
        "errors": {("json_document", "exc")},
        "grassmann": {("_term_text", "coeff")},
        "interference": {("to_json_dict", "self.regime")},
        "scalars": {("_num_str", "value"), ("_num_str", "float(value)"),
                    ("__str__", "self.value"),  # the ring's sign, written with its sign
                    ("_as_fraction", "exc"), ("_num_msg", "value"), ("_json_fraction", "value"),
                    ("_too_long", "sys.get_int_max_str_digits"),
                    ("_as_fraction", "sys.get_int_max_str_digits")},  # the exponent bound
        "sparse": {("integer", "value"), ("__repr__", "self"), ("_term_text", "c")},
        "symbols": {("_render_monomial", "value")},
    }),
    # Only ``_as_fraction`` is given text; each other is given a number.
    Rule("Fraction of one", (ast.Call,), _fraction_of_one, {
        "parsing": {("primary", "numerator")},  # the int of a number token
        "scalars": {("_as_fraction", "value"), ("reconstruct", "self.sign * self.modulus"),
                    ("reconstruct", "c"), ("reconstruct", "s"),  # floats of _cos_sin
                    ("character", "c"), ("character", "s")},
    }),
    Rule("power", (ast.JoinedStr, ast.BinOp, ast.Call), _writes_power,
         {"sparse": {"power_factors"}}),
    Rule("json", (ast.Attribute, ast.ImportFrom), _json_parse, {"errors": {"json_document"}}),
    Rule("part numerator", (ast.Attribute, ast.Assign, ast.For, ast.comprehension), _part_use,
         {"scalars": {("_integers", f"{part}.{read}") for part in ("re", "im")
                      for read in ("numerator", "denominator")}}, finish=_part_reads),
    Rule("Binarion dict", (ast.DictComp,), _builds_binarions, {"sparse": {"from_parts"}}),
    Rule("input bound", (ast.Name,), _bound_name, {"sparse": {
        ("<module>", name) for name in ("DEFAULT_DEGREE_CAP", "MAX_INDEX", "MAX_DIGITS",
                                        "MAX_DEPTH", "MAX_STEPS", "MAX_WITNESS_GENERATORS")}}),
    Rule("slow import", (ast.Import, ast.ImportFrom), _slow_import, {}),
    # What each module takes from the series route: the other routes take
    # the symbol type, and ``operators`` the ``star`` that ``compose_check``
    # compares against.
    Rule("symbols import", (ast.Import, ast.ImportFrom), _symbols_import, {
        "cli": {("<import>", "from .symbols import PhasePoint, poisson_bracket, scaled_bracket, "
                             "star")},
        "distributions": {("<import>", "from .symbols import PolySymbol")},
        "operators": {("<import>", "from .symbols import PolySymbol, star")},
        "parsing": {("<import>", "from .symbols import HPoly, PolySymbol")},
        "selftest": {("<import>", "from . import symbols as sym")},
    }),
    Rule("sparse", (ast.Name, ast.Attribute, ast.ImportFrom), _route_use, {},
         modules=("sparse",)),
    # The ring methods build through ``_exact``; the others are listed too.
    Rule("Binarion builder", (ast.Call,), _binarion_builder, {"scalars": {
        *((method, "_exact") for method in (
            "__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "_divided", "__pow__",
            "conjugate", "invert")),  # and __rsub__, __rtruediv__ through these
        *((function, "Binarion") for function in (
            "zero", "one", "unit", "_coerce", "binarion_from_json", "reconstruct", "character")),
    }}, modules=("scalars",)),
]


def _sites(tree) -> dict:
    """Each rule's sites in ``tree``, from one walk."""
    sites, by_type = {rule.name: set() for rule in RULES}, {}
    for rule in RULES:
        for kind in rule.types:
            by_type.setdefault(kind, []).append(rule)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            for rule in by_type.get(type(child), ()):
                label = rule.label(child)
                if label is not None:
                    where = "<import>" if isinstance(child, (ast.Import, ast.ImportFrom)) else scope
                    sites[rule.name].add(where if label is True else (where, label))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else scope)

    visit(tree, "<module>")
    return {rule.name: rule.finish(sites[rule.name]) if rule.finish else sites[rule.name]
            for rule in RULES}


# -- the reach rows -----------------------------------------------------------


def _names(tree, path) -> set:
    """Every plain name and attribute name used inside the definition at
    ``path``."""
    out = set()
    for child in ast.walk(_definition(tree, path)):
        if isinstance(child, ast.Name):
            out.add(child.id)
        elif isinstance(child, ast.Attribute):
            out.add(child.attr)
    return out


def _reached(tree, path) -> set:
    """:func:`_names` of the definition at ``path`` and of every function or
    method defined in ``tree`` under a name that it uses, and of the value of
    every module-level name it uses (a memo such as
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
    names, todo = set(), [_definition(tree, path)]
    while todo:
        found = _names(todo.pop(), "")
        todo += [node for name in found - names for node in defined.get(name, ())]
        names |= found
    return names


#: The normal-ordered kernel's helpers in ``operators``, and the memo's bound.
DERIVATIVE_HELPERS = {"_derivative_terms", "_derivative_row", "_derivative_factors",
                      "DERIVATIVE_ROW_TERMS"}
#: The factor-row helpers of ``distributions``: ``differentiate_multi``'s axis
#: rows, the twist rows of ``_pair_factors``, and their bound.
AXIS_HELPERS = {"_axis_row", "_axis_factors"}
TWIST_HELPERS = {"_pair_factors", "_twist_row", "_twist_terms"}
FACTOR_BOUNDS = {"FACTOR_ROW_TERMS"}
#: The series star kernel, its memo and its bounds.
STAR_KERNEL = {"_flatten", "_structure_constants", "_kappa_row", "_accumulate",
               "_common_denominator", "_kappa_units", "_unpacked", "_KAPPA_ZERO", "_support",
               "KAPPA_ROWS", "KAPPA_ROW_TERMS"}
#: What neither ``star_distributional`` nor the twist helpers it calls may
#: reach: a series kernel, an operator row helper, ``differentiate_multi``'s.
NOT_IN_THE_TWIST = {*STAR_KERNEL, "star", "substitute_h", *DERIVATIVE_HELPERS, *AXIS_HELPERS,
                    "differentiate_multi", "*KAPPA*"}
#: The shared product loop of ``sparse``, which every algebra class's ``*``
#: runs and no route kernel calls.
LOOP = {"multiply"}
#: The two coefficient edges, what they build, the one reader of a binarion's
#: numerators and the two readers of a constructor's coefficients into
#: integers: a kernel that reads the stored integer coefficients names none.
EDGES = {"numerators", "from_parts", "stored", "_binarions", "Binarion", "_integers",
         "coefficient_parts", "_coefficient_parts"}
#: The integer kernels sum numerators and divide once at the end.
FRACTION = {"Fraction"}
#: The stored terms and their denominator, which a storage reader reads.
STORED = {"_terms", "_cden"}

#: Each guard of the reach rows: the names (or ``fnmatch`` patterns) that a
#: kernel it binds must not reach.
GUARDS = {
    "normal-ordered kernel": DERIVATIVE_HELPERS,
    "distributions helpers": AXIS_HELPERS | TWIST_HELPERS | FACTOR_BOUNDS,
    "differentiation": {"differentiate*"},
    "series or operator kernels": NOT_IN_THE_TWIST,
    "series star kernel": STAR_KERNEL | {"_commutator_integers"},
    "product loop": LOOP,
    "coefficient edges": EDGES,
    "Fraction": FRACTION,
}
NO_EDGES = ("coefficient edges",)
INTEGER_KERNEL = ("coefficient edges", "Fraction")
ROUTE_KERNEL = ("product loop", "coefficient edges", "Fraction")

Reach = namedtuple("Reach", "module path scan guards required")

#: Each route-independence check: a definition, the scan that reads it, the
#: guards that bind it and the names it must reach.
REACH = [
    Reach("operators", "Operator.apply_shift_form", _reached, ("normal-ordered kernel",), set()),
    Reach("operators", "Operator.apply_normal_ordered", _reached,
          ("distributions helpers", "differentiation"), DERIVATIVE_HELPERS),
    Reach("operators", "_derivative_terms", _reached, ("distributions helpers",), set()),
    Reach("distributions", "star_distributional", _reached, ("series or operator kernels",),
          TWIST_HELPERS | FACTOR_BOUNDS),
    Reach("distributions", "_pair_factors", _reached, ("series or operator kernels",), set()),
    Reach("symbols", "poisson_bracket", _names, ("series star kernel", *ROUTE_KERNEL), STORED),
    Reach("symbols", "star", _names, ("product loop", *NO_EDGES),
          {"_accumulate", "_kappa_units", "_unpacked"}),
    Reach("symbols", "_commutator_integers", _names, ("product loop", *NO_EDGES),
          {"_kappa_units", "_unpacked"}),
    Reach("symbols", "_accumulate", _names, ("product loop", *NO_EDGES),
          {"_structure_constants", "_kappa_row", "_support"}),
    Reach("symbols", "moyal_bracket", _names, NO_EDGES, set()),
    Reach("symbols", "scaled_bracket", _names, NO_EDGES, {"_commutator_integers"}),
    Reach("symbols", "_structure_constants", _names, (),
          {"KAPPA_ROWS", "KAPPA_ROW_TERMS", "_kappa_row"}),
    Reach("symbols", "_flatten", _names, NO_EDGES, STORED),
    Reach("symbols", "PolySymbol.substitute_h", _names, INTEGER_KERNEL, STORED),
    Reach("distributions", "ExpPoly.from_poly_symbol", _names, NO_EDGES, STORED),
    Reach("distributions", "ExpPoly.differentiate_multi", _names, INTEGER_KERNEL,
          STORED | FACTOR_BOUNDS | AXIS_HELPERS),
    Reach("distributions", "ExpPoly.shift", _names, NO_EDGES, STORED),
    Reach("distributions", "Ultradistribution.mul_monomial", _names, INTEGER_KERNEL, STORED),
    Reach("distributions", "Ultradistribution.tensor", _names, (), LOOP),
    Reach("distributions", "star_distributional", _names, ROUTE_KERNEL, STORED),
    Reach("distributions", "_pair_factors", _names, (), {"_twist_row", "_twist_terms"}),
    Reach("distributions", "_twist_row", _names, (), {"FACTOR_ROW_TERMS", "_twist_terms"}),
    Reach("operators", "Operator.apply_normal_ordered", _names, ROUTE_KERNEL,
          STORED | {"_derivative_terms"}),
    Reach("operators", "Operator.apply_shift_form", _names, ROUTE_KERNEL,
          STORED | {"differentiate_multi"}),
    Reach("operators", "_derivative_terms", _names, (),
          {"_derivative_row", "_derivative_factors", "DERIVATIVE_ROW_TERMS"}),
    Reach("sparse", "SparseAlgebra.__mul__", _names, (), LOOP),
    Reach("sparse", "SparseMap._binarions", _names, (), {"from_parts"}),
]


def _key(row) -> str:
    return f"{row.scan.__name__[1:]} {row.path}"


def _forbidden(names, guards) -> set:
    patterns = set().union(*(GUARDS[guard] for guard in guards))
    return {name for name in names if any(fnmatchcase(name, p) for p in patterns)}


def _readings(name, tree) -> dict:
    """What each rule that reads module ``name`` finds in ``tree``, and the
    forbidden names that each reach row of the module finds."""
    sites = _sites(tree)
    readings = {rule.name: sites[rule.name] for rule in RULES if name in rule.modules}
    for row in REACH:
        if row.module == name:
            readings[_key(row)] = _forbidden(row.scan(tree, row.path), row.guards)
    return readings


@functools.cache
def _unplanted(name) -> dict:
    return _readings(name, _tree(name))


@functools.cache
def _scanned(name, path, scan) -> frozenset:
    return frozenset(scan(_tree(name), path))


@pytest.mark.parametrize("rule, name", [(rule, name) for rule in RULES for name in rule.modules],
                         ids=lambda value: getattr(value, "name", value))
def test_only_the_listed_sites_do_what_a_rule_names(rule, name):
    assert _unplanted(name)[rule.name] == rule.expected.get(name, set())


@pytest.mark.parametrize("row, guard", [(row, guard) for row in REACH for guard in row.guards],
                         ids=lambda value: _key(value) if isinstance(value, Reach) else value)
def test_a_kernel_reaches_only_its_own_route(row, guard):
    assert _forbidden(_scanned(row.module, row.path, row.scan), (guard,)) == set()


@pytest.mark.parametrize("row", [row for row in REACH if row.required], ids=_key)
def test_a_reach_scan_sees_the_names_its_kernel_uses(row):
    """The scan still sees what the kernel is known to use, so a scan that
    went blind cannot pass its guards."""
    assert row.required <= _scanned(row.module, row.path, row.scan)


# -- the planted violations -----------------------------------------------------

#: Each planted violation: the module, the definition it goes into (``""``
#: for the module level), the statement, and what it adds to each rule or
#: reach row; every other reads as on the unplanted source.
PLANTS = [
    # the number edges, each seen only by its own rule
    ("interference", "classify", "x = float(lam)", {"float()": {"classify"}}),
    ("interference", "Amplitude2.born_value", "cross = math.cosh(self.phases[0])",
     {"math trigonometry": {"born_value"}}),
    ("interference", "", "from math import cos, tan", {"math trigonometry": {"<import>"}}),
    ("distributions", "ExpPoly.to_text", "text = str(freq)",
     {"number text": {("to_text", "freq")}}),
    ("scalars", "_num_str", "digits = sys.get_int_max_str_digits()",
     {"number text": {("_num_str", "sys.get_int_max_str_digits")}}),
    ("cli", "_positive_h", "h = Fraction(text)", {"Fraction of one": {("_positive_h", "text")}}),
    ("symbols", "_render_monomial", 'head = f"{names[0]}^{exps[0]}"',
     {"power": {"_render_monomial"}}),
    ("symbols", "_render_monomial", '"q^" + str(e)',
     {"power": {"_render_monomial"}, "number text": {("_render_monomial", "e")}}),
    ("symbols", "_render_monomial", '"q^%d" % e', {"power": {"_render_monomial"}}),
    ("symbols", "_render_monomial", '"q^{}".format(e)', {"power": {"_render_monomial"}}),
    ("symbols", "_render_monomial", '"^".join(parts)', {"power": {"_render_monomial"}}),
    # JSON parsing, numerator reads, slow imports and input bounds
    ("cli", "", "from json import loads", {"json": {"<import>"}}),
    ("cli", "", "def _read_json(path):\n    with open(path) as fh:\n        return json.load(fh)",
     {"json": {"_read_json"}}),
    ("cli", "", "reader = json.loads", {"json": {"<module>"}}),
    ("cli", "_cmd_star", "data = json.loads(text)", {"json": {"_cmd_star"}}),
    ("cli", "_read_json", "data = json.loads(text)", {"json": {"_read_json"}}),
    ("symbols", "PolySymbol.substitute_h", "n = c.re.numerator",
     {"part numerator": {("substitute_h", "c.re.numerator")}}),
    ("sparse", "stored", "n = c.re.numerator", {"part numerator": {("stored", "c.re.numerator")}}),
    ("scalars", "", "def _integers(value):\n    return [c.re.numerator for c in value]",
     {"part numerator": {("_integers", "c.re.numerator")}}),
    ("scalars", "", "def numerators(terms):\n    return [c.im.denominator for c in terms]",
     {"part numerator": {("numerators", "c.im.denominator")}}),
    ("scalars", "", "d = c.re.denominator", {"part numerator": {("<module>", "c.re.denominator")}}),
    *((name, "",
       "def stored(pairs):\n"
       "    return {key: (c.re.numerator, c.im.numerator) for key, c in pairs}",
       {"part numerator": {("stored", "c.re.numerator"), ("stored", "c.im.numerator")}})
      for name in ("sparse", "symbols", "operators")),
    ("interference", "", "n = c.re.numerator * (den // c.im.denominator)",
     {"part numerator": {("<module>", "c.re.numerator"), ("<module>", "c.im.denominator")}}),
    ("interference", "", "def f(v, x):\n"
                         "    re, im = v.re, v.im\n"
                         "    d = [w.denominator for w in (v.re, v.im)]\n"
                         "    return re.numerator, im.denominator, x.numerator",
     {"part numerator": {("f", "w.denominator"), ("f", "re.numerator"),
                         ("f", "im.denominator")}}),
    ("symbols", "", "from dataclasses import dataclass",
     {"slow import": {("<import>", "from dataclasses import dataclass")}}),
    ("symbols", "star", "import inspect", {"slow import": {("<import>", "import inspect")}}),
    ("operators", "", "MAX_TERMS = 1", {"input bound": {("<module>", "MAX_TERMS")}}),
    # what sparse and the routes may use
    ("distributions", "", "from .symbols import check_degree_cap",
     {"symbols import": {("<import>", "from .symbols import check_degree_cap")}}),
    ("symbols", "_flatten", "out = {key: Binarion.zero(sigma) for key in keys}",
     {"Binarion dict": {"_flatten"}, "names _flatten": {"Binarion"}}),
    ("sparse", "", "def f(acc, a, b):\n    return _pair_factors(a.tensor(b))",
     {"sparse": {("f", "_pair_factors"), ("f", "tensor")}}),
    ("scalars", "Binarion.conjugate", "out = Binarion(self.re, -self.im, self.sigma)",
     {"Binarion builder": {("conjugate", "Binarion")}}),
    ("scalars", "Binarion.__pow__", "result = Binarion.one(self.sigma)",
     {"Binarion builder": {("__pow__", "one")}}),
    ("scalars", "Binarion.__neg__", "z = cls(re, im, sigma)",
     {"Binarion builder": {("__neg__", "Binarion")}}),
    # the kernels on the stored integers
    ("symbols", "_flatten", "den, weights = numerators(symbol._terms)",
     {"names _flatten": {"numerators"}}),
    ("symbols", "_flatten", "x, y, d = _integers(c)", {"names _flatten": {"_integers"}}),
    ("symbols", "_flatten", "x, y, d = coefficient_parts(c, sigma, 'symbol')",
     {"names _flatten": {"coefficient_parts"}}),
    ("symbols", "_flatten", "parts = HPoly._coefficient_parts(c, sigma, 'symbol')",
     {"names _flatten": {"_coefficient_parts"}}),
    ("distributions", "star_distributional", "out = multiply(a, b)",
     {"names star_distributional": {"multiply"}}),
    *((name, path, "h = Fraction(h)", {f"names {path}": {"Fraction"},
                                       "Fraction of one": {(path.split(".")[-1], "h")}})
      for name, path in [("distributions", "star_distributional"),
                         ("operators", "Operator.apply_shift_form"),
                         ("operators", "Operator.apply_normal_ordered"),
                         ("distributions", "ExpPoly.differentiate_multi"),
                         ("distributions", "Ultradistribution.mul_monomial"),
                         ("symbols", "PolySymbol.substitute_h"),
                         ("symbols", "poisson_bracket")]),
    # a cross-route name in a helper, found through the helpers a kernel calls
    ("operators", "_derivative_factors", "_axis_row(b, e)",
     {"reached Operator.apply_normal_ordered": {"_axis_row"},
      "reached _derivative_terms": {"_axis_row"}}),
    ("operators", "_derivative_terms", "_twist_terms(b, e, 0, 0, 1)",
     {"reached Operator.apply_normal_ordered": {"_twist_terms"},
      "reached _derivative_terms": {"_twist_terms"}}),
    ("operators", "Operator._check_cap", "_derivative_row(1, 1)",
     {"reached Operator.apply_shift_form": {"_derivative_row", "_derivative_factors",
                                            "DERIVATIVE_ROW_TERMS"}}),
    ("distributions", "_twist_terms", "_derivative_factors(a, b)",
     {"reached star_distributional": {"_derivative_factors"},
      "reached _pair_factors": {"_derivative_factors"}}),
    ("distributions", "_twist_row", "KAPPA_ROWS",
     {"reached star_distributional": {"KAPPA_ROWS"}, "reached _pair_factors": {"KAPPA_ROWS"}}),
    # a memo bound by assignment is scanned through its value
    ("operators", "", "_derivative_row = lru_cache(maxsize=DERIVATIVE_ROW_TERMS**2)(_axis_factors)",
     {"reached Operator.apply_normal_ordered": {"_axis_factors"},
      "reached _derivative_terms": {"_axis_factors"}}),
]


@pytest.mark.parametrize("name, path, statement, gains", PLANTS,
                         ids=[f"{name}.{path or '<module>'}" for name, path, *_ in PLANTS])
def test_a_plant_adds_exactly_its_sites(name, path, statement, gains):
    tree = _parse(name)
    _definition(tree, path).body[:0] = ast.parse(statement).body
    base, planted = _unplanted(name), _readings(name, tree)
    assert {key: planted[key] - base[key] for key in base if planted[key] - base[key]} == gains
    assert all(base[key] <= planted[key] for key in base)


def test_no_import_loads_dataclasses_or_inspect():
    """Compared with a bare interpreter, so that a module a site hook loads
    does not decide the test."""
    imports = ["hypermoyal", *(f"hypermoyal.{name}" for name in MODULES if name != "__init__")]
    added = fresh_modules("\n".join(f"import {name}" for name in imports)) - fresh_modules("")
    assert "hypermoyal.cli" in added and "hypermoyal.interference" in added
    assert added & SLOW_IMPORTS == set()
