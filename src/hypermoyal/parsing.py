"""Minimal expression grammar for symbols, scalars and Grassmann elements.

Accepted tokens: integer and rational literals (``3``, ``3/2``), the
variables ``q``/``p`` with an optional 1-based index (``q2``; bare ``q``
means ``q1``), the formal parameter ``h``, the imaginary unit (``j`` for
the hyperbolic signature, ``i`` for the complex one), Grassmann generators
``t<k>``/``θ<k>``, the operators ``+ - * ^`` and parentheses.  Whitespace
is insignificant.  ``^`` takes a nonnegative integer exponent; ``/``
appears only inside rational literals.  A numeric literal may carry the
unit as a suffix (``2j``, ``3/2i``), matching the scalar text rendering.
A unary sign binds looser than ``^`` wherever it stands (``q*-p^2`` is
``-q*p^2``), and ``+`` is accepted wherever ``-`` is (``q*+p``).

Deliberately not a general expression parser: no functions, no floating
literals, no implicit multiplication.  A digit run longer than
:data:`MAX_DIGITS`, a variable index, generator index or ``dof`` above
:data:`MAX_INDEX`, and parentheses nested deeper than :data:`MAX_DEPTH` are
refused before anything is built from them.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, ValidationError
from .scalars import Binarion, _num_str, as_sigma
from .sparse import MAX_DEPTH, MAX_DIGITS, MAX_INDEX, integer
from .symbols import HPoly, PolySymbol

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+)"
    r"|(?P<name>[qp]\d*|h|[ij]|(?:t|θ)\d+)"
    r"|(?P<op>[-+*^/()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = depth = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", where)
        kind = m.lastgroup
        token, start = m.group(kind), m.start(kind)
        digits = token if kind == "number" else token[1:] if kind == "name" else ""
        if len(digits) > MAX_DIGITS:
            raise ParseError(f"more than {MAX_DIGITS} digits in a row", start)
        if kind == "name" and digits and int(digits) > MAX_INDEX:
            raise ParseError(f"index of {token[0]!r} above {MAX_INDEX}", start)
        if token == "(":
            depth += 1
            if depth > MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", start)
        elif token == ")":
            depth -= 1
        tokens.append((kind, token, start))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser over a ring of values.

    The ring is supplied through small factory callbacks so the same
    grammar serves phase-space symbols and Grassmann elements.
    """

    def __init__(self, tokens, make_number, make_name):
        self.tokens = tokens
        self.index = 0
        self.make_number = make_number
        self.make_name = make_name

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def parse(self):
        value = self.expression()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {text!r}", pos)
        return value

    def expression(self):
        total = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                total = total - rhs if value == "-" else total + rhs
            else:
                return total

    def term(self):
        total = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                total = total * self.factor()
            else:
                return total

    def factor(self):
        """``('+'|'-') factor | primary ('^' number)?``: the one sign rule."""
        negate = False
        kind, value, _ = self.peek()
        while kind == "op" and value in "+-":
            self.advance()
            negate ^= value == "-"
            kind, value, _ = self.peek()
        base = self.primary()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, text, pos = self.peek()
            if kind != "number":
                raise ParseError("exponent must be a nonnegative integer", pos)
            self.advance()
            base = base ** int(text)
        return -base if negate else base

    def primary(self):
        kind, text, pos = self.advance()
        if kind == "number":
            numerator = int(text)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.advance()
                k3, v3, p3 = self.peek()
                if k3 != "number":
                    raise ParseError("expected denominator", p3)
                self.advance()
                if int(v3) == 0:
                    raise ParseError("zero denominator", p3)
                value = self.make_number(Fraction(numerator, int(v3)))
            else:
                value = self.make_number(Fraction(numerator))
            k2, v2, p2 = self.peek()
            if k2 == "name" and v2 in ("i", "j"):
                # unit-suffixed literal such as 2j or 3/2i
                self.advance()
                value = value * self.make_name(v2, p2)
            return value
        if kind == "name":
            return self.make_name(text, pos)
        if kind == "op" and text == "(":
            value = self.expression()
            kind, text, pos = self.advance()
            if kind != "op" or text != ")":
                raise ParseError("expected ')'", pos)
            return value
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


def _highest_index(letters: str, *texts: str) -> int:
    """The highest index on a name starting with one of ``letters`` in any of
    ``texts``, and at least 1 (a bare ``q``/``p`` is index 1).

    It sizes symbols (``"qp"``) and Grassmann elements (``"tθ"``) alike, so
    several expressions can share one size and each be built once.
    """
    return max(
        (int(name[1:]) for text in texts for kind, name, _ in _tokenize(text)
         if kind == "name" and name[0] in letters and len(name) > 1),
        default=1,
    )


def parse_symbol(text: str, sigma, dof: int = None) -> PolySymbol:
    """Parse a phase-space symbol expression into a :class:`PolySymbol`.

    The number of degrees of freedom defaults to the highest variable index
    used (bare ``q``/``p`` count as index 1).
    """
    sigma = as_sigma(sigma)
    k = _highest_index("qp", text) if dof is None else integer(dof)
    if k > MAX_INDEX:
        raise ValidationError(f"dof must be <= {MAX_INDEX}, got {_num_str(k)}")

    def make_number(value: Fraction) -> PolySymbol:
        return PolySymbol.constant(value, k, sigma)

    def make_name(name: str, pos: int) -> PolySymbol:
        if name == "h":
            return PolySymbol.constant(HPoly.h_power(1, sigma), k, sigma)
        if name in ("i", "j"):
            if name != sigma.unit_symbol:
                raise ParseError(
                    f"unit {name!r} belongs to sigma={'-1' if name == 'i' else '+1'}; "
                    f"the requested signature is sigma={sigma}",
                    pos,
                )
            return PolySymbol.constant(Binarion.unit(sigma), k, sigma)
        if name[0] in "qp":
            index = int(name[1:]) if len(name) > 1 else 1
            if index < 1 or index > k:
                raise ParseError(f"variable {name!r} out of range for dof {k}", pos)
            return PolySymbol.coordinate(name[0], index - 1, k, sigma)
        raise ParseError(f"unknown name {name!r} in a symbol expression", pos)

    return _Parser(_tokenize(text), make_number, make_name).parse()


def parse_binarion(text: str, sigma) -> Binarion:
    """Parse scalar text such as ``3/2 + 1j`` into a :class:`Binarion`."""
    symbol = parse_symbol(text, sigma, dof=1)
    if symbol.total_degree() > 0:
        raise ParseError("expected a scalar, found phase-space variables", 0)
    value = symbol.coeff((0,), (0,))
    if value.degree() > 0:
        raise ParseError("expected a scalar, found the parameter h", 0)
    return value.constant_term


def parse_grassmann(text: str, sigma, n: int = None) -> GrassmannElement:
    """Parse a Grassmann expression over generators ``t1..tn`` (or ``θ1..θn``)."""
    from .grassmann import GrassmannElement

    sigma = as_sigma(sigma)
    n = _highest_index("tθ", text) if n is None else integer(n)

    def make_number(value: Fraction) -> GrassmannElement:
        return GrassmannElement.scalar(value, n, sigma)

    def make_name(name: str, pos: int) -> GrassmannElement:
        if name in ("i", "j"):
            if name != sigma.unit_symbol:
                raise ParseError(f"unit {name!r} does not match sigma={sigma}", pos)
            return GrassmannElement.scalar(Binarion.unit(sigma), n, sigma)
        if name[0] in ("t", "θ"):
            index = int(name[1:])
            if index < 1 or index > n:
                raise ParseError(f"generator {name!r} out of range for n={_num_str(n)}", pos)
            return GrassmannElement.generator(index - 1, n, sigma)
        raise ParseError(f"unknown name {name!r} in a Grassmann expression", pos)

    return _Parser(_tokenize(text), make_number, make_name).parse()
