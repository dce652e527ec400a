"""Tests for the expression grammar."""

import random
from fractions import Fraction

import sympy as sp
from sympy.parsing.sympy_parser import parse_expr
from test_refusals import refusal_tests

from hypermoyal import (
    Binarion,
    HPoly,
    PolySymbol,
    Sigma,
    parse_binarion,
    parse_grassmann,
    parse_symbol,
    star,
)
from hypermoyal.grassmann import generators
from hypermoyal.sparse import MAX_DEPTH, MAX_DIGITS, MAX_INDEX

H = Sigma.HYPERBOLIC
C = Sigma.COMPLEX
globals().update(refusal_tests(__name__))  # the tests named in ``test_refusals.HOMES``


def _random_h_symbol(rng, k, sigma):
    """Up to four terms ``c h^d q^alpha p^beta`` of total degree at most 3,
    with rational real and unit parts."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * (2 * k)
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(2 * k)] += 1
        key = (tuple(exps[:k]), tuple(exps[k:]))
        parts = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2))
        coeff = HPoly({rng.randint(0, 2): Binarion(*parts, sigma)}, sigma)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return PolySymbol(k, sigma, terms)


def test_symbol_text_reads_back_as_itself():
    rng = random.Random(71)
    for sigma in (H, C):
        for k in (1, 2, 3):
            for _ in range(8):
                a, b = _random_h_symbol(rng, k, sigma), _random_h_symbol(rng, k, sigma)
                h = Fraction(rng.randint(1, 5), rng.randint(1, 4))
                ab, ba = star(a, b), star(b, a)
                for symbol in (a, ab, ab.substitute_h(h), ab - ba,
                               ab.substitute_h(h) - ba.substitute_h(h), a - a):
                    assert parse_symbol(symbol.to_text(), sigma, k) == symbol


def test_parse_coordinates():
    q = parse_symbol("q", H)
    assert q == PolySymbol.coordinate("q", 0, 1, H)
    p2 = parse_symbol("p2", H)
    assert p2.dof == 2
    assert p2 == PolySymbol.coordinate("p", 1, 2, H)


def test_parse_polynomial():
    got = parse_symbol("3/2*q^2*p + h*j - 1", H)
    expected = (
        PolySymbol.monomial((2,), (1,), Fraction(3, 2), H)
        + PolySymbol.constant(HPoly.h_power(1, H, Binarion.unit(H)), 1, H)
        - PolySymbol.one(1, H)
    )
    assert got == expected


def test_parse_respects_precedence_and_parens():
    assert parse_symbol("q + p*q^2", H) == parse_symbol("q + (p*(q^2))", H)
    assert parse_symbol("(q + p)^2", H) == parse_symbol("q^2 + 2*q*p + p^2", H)
    assert parse_symbol("-q^2", H) == -parse_symbol("q^2", H)
    assert parse_symbol("2*-q", H) == parse_symbol("-2*q", H)
    # one unary-sign rule: ``-x^2`` is ``-(x^2)`` after an operator as at the
    # start, and ``+`` is accepted wherever ``-`` is
    assert parse_symbol("q*-p^2", H) == parse_symbol("-q*p^2", H) == -parse_symbol("q*p^2", H)
    assert parse_symbol("2--3/2^2", H) == PolySymbol.constant(Fraction(17, 4), 1, H)
    assert parse_symbol("-2^2", H) == PolySymbol.constant(-4, 1, H)
    assert parse_binarion("2*-3^2", H) == -18
    assert parse_binarion("2*(-3)^2", H) == 18
    assert parse_symbol("q*+p", H) == parse_symbol("q*p", H)
    assert parse_symbol("q-+p", H) == parse_symbol("q-p", H)
    assert parse_symbol("q*-+-p", H) == parse_symbol("q*p", H)
    assert parse_grassmann("t1*-t2", H) == -parse_grassmann("t1*t2", H)


_ORACLE_NAMES = {name: sp.Symbol(name) for name in ("q1", "p1", "h")}


def _random_expression(rng, depth):
    """Text from a random derivation of the grammar over ``q1 p1 h 2 3/2 1``,
    with unary signs, ``^`` and parentheses nested ``depth`` deep."""

    def expression(d):
        text = term(d)
        for _ in range(rng.randint(0, 2)):
            text += rng.choice(("+", "-", " + ", " - ")) + term(d)
        return text

    def term(d):
        return "*".join(factor(d) for _ in range(rng.randint(1, 2)))

    def factor(d):
        signs = rng.choice(("", "", "-", "-", "--", "+"))
        power = f"^{rng.randint(0, 3)}" if rng.random() < 0.5 else ""
        return signs + primary(d) + power

    def primary(d):
        if d and rng.random() < 0.4:
            return f"({expression(d - 1)})"
        return rng.choice(("q1", "p1", "h", "2", "3/2", "1"))

    return expression(depth)


def test_grammar_matches_sympy_on_random_expressions():
    """sympy reads the same text, with ``^`` written ``**`` and each rational
    literal in parentheses, as an independent oracle for precedence and
    signs; the two must give the same polynomial in ``q1, p1, h``."""
    rng = random.Random(1)
    for _ in range(200):
        text = _random_expression(rng, 2)
        got = {
            (alpha[0], beta[0], d): value.re
            for alpha, beta, coeff in parse_symbol(text, H, 1).terms()
            for d, value in coeff.items()
        }
        oracle = parse_expr(text.replace("^", "**").replace("3/2", "(3/2)"),
                            local_dict=_ORACLE_NAMES)
        want = sp.Poly(oracle, *_ORACLE_NAMES.values()).as_dict()
        assert got == {key: Fraction(int(c.p), int(c.q)) for key, c in want.items()}, text


def test_parse_unit_suffix_literals():
    assert parse_symbol("2j", H) == PolySymbol.constant(Binarion(0, 2, H), 1, H)
    assert parse_symbol("3/2i", C) == PolySymbol.constant(
        Binarion(0, Fraction(3, 2), C), 1, C
    )


def test_parse_whitespace_insensitive():
    assert parse_symbol("q^2*p+h", H) == parse_symbol(" q^2 * p + h ", H)


def test_parse_dof_inference_and_override():
    a = parse_symbol("q1*p3", H)
    assert a.dof == 3
    b = parse_symbol("q", H, dof=2)
    assert b.dof == 2


def test_round_trip_canonical_text():
    rng = random.Random(3)
    for sigma in (H, C):
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                alpha = (rng.randint(0, 3), rng.randint(0, 2))
                beta = (rng.randint(0, 2), rng.randint(0, 3))
                coeff = Binarion(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                    sigma,
                )
                hp = HPoly({rng.randint(0, 2): coeff}, sigma)
                key = (alpha, beta)
                terms[key] = terms[key] + hp if key in terms else hp
            symbol = PolySymbol(2, sigma, terms)
            assert parse_symbol(symbol.to_text(), sigma, dof=2) == symbol


def test_indices_and_digit_runs_are_bounded():
    """Text at each bound still reads; one past it is a row of
    ``test_refusals.REFUSALS``."""
    assert parse_symbol(f"q{MAX_INDEX}", H).dof == MAX_INDEX
    assert parse_symbol("0" * (MAX_DIGITS - 1) + "1*p", H) == PolySymbol.coordinate("p", 0, 1, H)
    assert parse_grassmann(f"t{MAX_INDEX}", H, MAX_INDEX + 1) is not None


def _nested(depth: int, inner: str) -> str:
    return "(" * depth + inner + ")" * depth


def test_parenthesis_nesting_is_bounded():
    """Nesting at the bound reads on a deep caller stack; one deeper is a row
    of ``test_refusals.REFUSALS``."""
    def parse_below(frames: int):
        """Parse at the bound with ``frames`` more frames on the caller's stack."""
        return parse_below(frames - 1) if frames else parse_symbol(_nested(MAX_DEPTH, "q"), H)

    assert parse_below(400) == PolySymbol.coordinate("q", 0, 1, H)
    assert parse_grassmann(_nested(MAX_DEPTH, "t1"), H) == generators(1, H)[0]
    # closed parentheses do not count toward the bound
    assert parse_symbol("+".join([_nested(MAX_DEPTH, "q")] * 3), H) == 3 * parse_symbol("q", H)


def test_parse_binarion_values():
    assert parse_binarion("3 - 2j", H) == Binarion(3, -2, H)
    assert parse_binarion("-1/2", C) == Binarion(Fraction(-1, 2), 0, C)


def test_parse_grassmann():
    t1, t2 = generators(2, H)
    one = t1 * 0 + 1
    assert parse_grassmann("t1*t2", H) == t1 * t2
    assert parse_grassmann("θ2*θ1", H, n=2) == -(t1 * t2)
    got = parse_grassmann("1 + 2j*t1", H, n=2)
    assert got == one + Binarion(0, 2, H) * t1

