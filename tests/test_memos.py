"""One contract for the four row memos, one test per property.

Each star-product route memoizes its own combinatorial rows in its own module:
kappa rows in ``symbols``, twist and axis rows in ``distributions`` and
derivative rows in ``operators``.  No result may depend on what a memo holds:
cold, warm, or cycled through a bound smaller than the rows pushed through it,
each result equals its route's oracle.  A memoized row is a tuple.  A row above
the term bound keeps a ``()`` slot (kappa, twist) or never enters the memo
(axis, derivative), and keys past the bound never enter a memo or evict a row.
The bound caps the memo's memory, and the suite's one full selftest
(criterion 10's two runs, the ``full_selftest`` fixture of ``conftest.py``)
fills under a quarter of each memo.
"""

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from types import ModuleType
from typing import Callable, Optional

import pytest
from conftest import _quadratic_wavefunction
from test_distributions import (_differentiate_multi_cases, _iterated_differentiate,
                                _nonzero_twist_cases, _pair_factors_as_fractions,
                                _rational_pair_factors, _staged_oracle_cases,
                                _staged_star_distributional)
from test_operators import _iterated_apply, _normal_ordered_cases
from test_sparse import _assert_clean
from test_symbols import _packing_cases, _tuple_brackets, _tuple_star

from hypermoyal import (ExpPoly, Operator, PolySymbol, Sigma, WaveFunction, moyal_bracket,
                        parse_symbol, scaled_bracket, star, star_distributional)
from hypermoyal import distributions, operators, symbols
from hypermoyal.symbols import KAPPA_ROW_TERMS

H = Sigma.HYPERBOLIC
RAISED_BOUND = 256


def _elements(results) -> list:
    """The sparse elements of ``results``: each of a tuple's, and a
    wavefunction's function."""
    out = []
    for value in results:
        out += _elements(value) if isinstance(value, tuple) else [getattr(value, "func", value)]
    return out


def _stored(results) -> list:
    return [(x._terms, x._cden, getattr(x, "_den", None)) for x in _elements(results)]


def _checked(memo, cases) -> list:
    """The memo's kernel on ``cases``, each result equal to its oracle's."""
    got = [memo.kernel(*case) for case in cases]
    assert got == [memo.oracle(*case) for case in cases]
    return got


def _twist_factors(keys, every=1) -> list:
    """``_pair_factors`` at ``h = 2/3`` of each ``(x, y, a, b, sigma)`` of
    ``keys``, every ``every``-th checked against the closed form."""
    h = Fraction(2, 3)
    got = [_pair_factors_as_fractions(x, y, a, b, h, sigma) for x, y, a, b, sigma in keys]
    for (x, y, a, b, sigma), factors in itertools.islice(zip(keys, got), 0, None, every):
        assert factors == _rational_pair_factors(Fraction(x), Fraction(y), a, b, h, sigma)
    return got


# Above the term bound: the pair ``beta1 = alpha2 = (1,)*8``, whose row has
# 2^8 - 1 = 255 terms; twist keys ``(4, 4)`` off the origin, 55 terms, and
# ``a = 32`` or ``b = 32``, at the bound; ``d^32`` of ``x^33``; ``p^32`` on
# ``q^33``, shifted and not, and on ``(1 + q)^2`` times a plane wave.


def _kappa_above() -> list:
    return _checked(KAPPA, [(parse_symbol("p1*p2*p3*p4*p5*p6*p7*p8", H),
                             parse_symbol("q1*q2*q3*q4*q5*q6*q7*q8", H), None)])


def _twist_above() -> list:
    return _twist_factors([(x, y, a, b, sigma) for sigma in (1, -1) for x, y, a, b in (
        (Fraction(1, 2), Fraction(-3, 5), 4, 4), (0, 0, 32, 1), (0, Fraction(1, 3), 1, 32))])


def _axis_above() -> list:
    f = ExpPoly.monomial((33,), 1, H) + ExpPoly.character((Fraction(1, 3),), H)
    return _checked(AXIS, [(f, (32,))])


def _derivative_above() -> list:
    h, cases = Fraction(2, 3), []
    for sigma in (H, Sigma.COMPLEX):
        op = Operator(PolySymbol.monomial((0,), (32,), 1, sigma), h)
        phi = WaveFunction(ExpPoly.monomial((33,), 1, sigma), h)
        cases += [(op, psi, 32) for psi in (phi, phi.shift((Fraction(1, 2),)),
                                            _quadratic_wavefunction(sigma, h))]
    return _checked(DERIVATIVE, cases)


# Past the bound: more keys than the memo holds.


def _twist_outside():
    """The 1,072 keys ``(m, 0)`` and ``(0, m)``, ``m = 40..106``, at and off the
    origin in both rings, every 67th checked against the closed form."""
    x, y = Fraction(1, 2), Fraction(-3, 5)
    _twist_factors([(xi, yi, a, b, sigma) for m in range(40, 107) for a, b in ((m, 0), (0, m))
                    for xi in (0, x) for yi in (0, y) for sigma in (1, -1)], every=67)


def _axis_outside():
    """``d^2`` of ``x^e exp(u x)`` at the 1,060 exponents ``e = 40..1099``."""
    _checked(AXIS, [(ExpPoly(1, H, {((1,), (e,)): 1 for e in range(40, 1100)}), (2,))])


def _derivative_outside():
    """``d^b (x^3 exp(u x))`` at the 1,060 orders ``b = 40..1099``."""
    for b in range(40, 1100):
        assert operators._derivative_terms((b,), (3,), (1,)) == [
            ((3 - j,), math.comb(b, j) * math.perm(3, j), b - j) for j in range(4)]


@dataclass(frozen=True, eq=False)
class Memo:
    """The memo ``module.name`` of ``maxsize`` rows, bounded by ``module.bound``."""

    label: str
    module: ModuleType
    name: str
    bound: str
    maxsize: int
    cases: Callable[[], list]  # the inputs of ``kernel``, which reads the memo,
    kernel: Callable  # and of ``oracle``, which reads no memo
    oracle: Callable
    rows: dict  # in-bound keys and their rows
    above: Callable[[], list]  # results that need a row above the term bound,
    slots: int  # which leave this many ``()`` slots
    outside: Optional[Callable[[], None]]
    max_bytes: int  # a cap on the bytes, by ``_footprint``, of the rows that bound the memory
    most: int  # the terms of the longest admitted row
    edge: tuple = ()  # the keys of the longest admitted row and of one too long
    terms: Callable[[tuple], int] = len

    def cached(self):
        return getattr(self.module, self.name)


# d^2 x^3 = (u f)^2 x^3 + 6 (u f) x^2 + 6x and d^3 x = (u f)^3 x + 3 (u f)^2
DERIVATIVE_ROWS = {(2, 3): ((3, 1, 2), (2, 6, 1), (1, 6, 0)), (3, 1): ((1, 1, 3), (0, 3, 2))}
MEMOS = KAPPA, TWIST, AXIS, DERIVATIVE = [
    Memo("kappa", symbols, "_structure_constants", "KAPPA_ROW_TERMS", 4096,
         cases=lambda: [(x, y, cap) for a, b, cap in _packing_cases()
                        for x, y in ((a, b), (b, a))],
         kernel=lambda x, y, cap: (star(x, y, cap), moyal_bracket(x, y, cap),
                                   scaled_bracket(x, y, cap)),
         oracle=lambda x, y, _: (_tuple_star(x, y), *_tuple_brackets(x, y)),
         rows={((2, 1), (1, 3), symbols._kappa_units(2, 3), -1):
               ((3576, 1, -3), (4031, 1, -2), (7607, 0, -6))},
         # the 31-term row of the edge key holds 3,348 B, 108 B a term: a cap of
         # 112 B a term
         above=_kappa_above, slots=1, outside=None, max_bytes=31 * 112, most=31,
         edge=(((1,) * 5, (1,) * 5, symbols._kappa_units(5, 5), -1),
               ((1,) * 6, (1,) * 6, symbols._kappa_units(6, 5), -1))),
    Memo("twist", distributions, "_twist_row", "FACTOR_ROW_TERMS", 1024,
         # the staged oracle's cases, and plane waves whose twist atoms sit at
         # q1*p2 != 0, where every term of the closed form contributes
         cases=lambda: _staged_oracle_cases() + [(a, b, phi.h)
                                                 for a, b, phi in _nonzero_twist_cases()],
         kernel=star_distributional, oracle=_staged_star_distributional,
         # at the origin delta^((1, 1)) keeps j = s = t: the factors 1 and c = u*h
         rows={(1, 1, True, True, -1): ((1, 1, ((0, 1, (0, 2, 0, 1, 0, 1)),)),
                                        (0, 0, ((1, 1, (1, 1, 0, 1, 0, 1)),)))},
         # the largest of the 3,288 admitted rows, 32 terms at (a, b) = (31, 31)
         # at the origin in either ring, holds 11,684 B
         above=_twist_above, slots=2, outside=_twist_outside, max_bytes=12_000, most=32,
         edge=((31, 31, True, True, -1), (31, 31, False, True, -1)),
         terms=lambda row: sum(len(terms) for _, _, terms in row)),
    Memo("axis", distributions, "_axis_row", "FACTOR_ROW_TERMS", 1024,
         cases=_differentiate_multi_cases, kernel=lambda f, order: f.differentiate_multi(order),
         # all 1,024 admitted rows hold 1,184,344 B, as do the derivative rows
         oracle=_iterated_differentiate, rows=DERIVATIVE_ROWS, above=_axis_above, slots=0,
         outside=_axis_outside, max_bytes=1_200_000, most=32),
    Memo("derivative", operators, "_derivative_row", "DERIVATIVE_ROW_TERMS", 1024,
         cases=_normal_ordered_cases,
         kernel=lambda op, phi, cap=None: op.apply_normal_ordered(phi, degree_cap=cap),
         oracle=lambda op, phi, cap=None: _iterated_apply(op, phi), rows=DERIVATIVE_ROWS,
         above=_derivative_above, slots=0, outside=_derivative_outside, max_bytes=1_200_000,
         most=32),
]
EACH = pytest.mark.parametrize("memo", MEMOS, ids=attrgetter("label"))


def _results(memo) -> list:
    return [memo.kernel(*case) for case in memo.cases()]


@functools.cache
def _expected(memo) -> list:
    return [memo.oracle(*case) for case in memo.cases()]


def _stand_in(monkeypatch, memo, maxsize) -> list:
    """Put an ``lru_cache`` of ``maxsize`` over the memo's builder in its
    place, and return the rows it builds, in order."""
    kept, build = [], memo.cached().__wrapped__

    def recording(*args):
        kept.append(build(*args))
        return kept[-1]

    monkeypatch.setattr(memo.module, memo.name, functools.lru_cache(maxsize=maxsize)(recording))
    return kept


def _largest(memo) -> list:
    """The rows that bound the memo's memory: its longest admitted row, of
    which it holds at most ``maxsize``, or else every row its bound admits."""
    build = memo.cached().__wrapped__
    if memo.edge:
        return [build(*memo.edge[0])]
    return [build(*key) for key in itertools.product(range(32), repeat=2)]  # the bound, 32


def _footprint(rows) -> int:
    """The bytes of ``rows``: ``sys.getsizeof`` summed over the tuples and ints
    in them, each object counted once.  No allocator state moves it, unlike a
    ``tracemalloc`` reading, which misses the tuples taken from CPython's free
    lists and so can read a row smaller than it is."""
    seen, total, stack = set(), 0, list(rows)
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            total += sys.getsizeof(obj)
            if type(obj) is tuple:
                stack.extend(obj)
    return total


# -- the contract ---------------------------------------------------------------------


@EACH
def test_cold_and_warm_memos_give_equal_results(monkeypatch, memo):
    _results(memo)
    misses = memo.cached().cache_info().misses
    warm = _results(memo)
    assert memo.cached().cache_info().misses == misses  # every row memoized
    _stand_in(monkeypatch, memo, 0)  # keeps nothing: every row is built cold
    cold = _results(memo)
    assert cold == warm == _expected(memo)
    assert _stored(cold) == _stored(warm)
    for element in _elements(cold):
        _assert_clean(element)


@EACH
def test_memoized_rows_are_tuples_returned_again(memo):
    for key, row in memo.rows.items():
        got = memo.cached()(*key)
        assert got == row and type(got) is tuple
        hash(got)  # a list or dict anywhere in the row raises
        assert memo.cached()(*key) is got


@EACH
def test_a_full_memo_evicts_and_results_stay_equal(monkeypatch, memo):
    expected = _results(memo)
    bound = 8
    _stand_in(monkeypatch, memo, bound)
    got = _results(memo)
    info = memo.cached().cache_info()
    assert info.misses > 4 * bound  # far more rows built than the bound holds
    assert info.currsize <= bound
    assert got == expected == _expected(memo)
    assert _stored(got) == _stored(expected)


@EACH
def test_a_row_above_the_term_bound_is_not_memoized(monkeypatch, memo):
    """Its slot holds ``()`` or it never reaches the memo; under a raised
    bound memoized rows give the same results."""
    bound = getattr(memo.module, memo.bound)
    kept = _stand_in(monkeypatch, memo, memo.maxsize)
    once = memo.above()
    assert memo.above() == once
    assert kept == [()] * memo.slots  # the second pass found each slot
    info = memo.cached().cache_info()
    assert (info.misses, info.currsize) == (memo.slots, memo.slots)
    monkeypatch.setattr(memo.module, memo.bound, RAISED_BOUND)
    memo.cached().cache_clear()  # the recorded slots stay in ``kept``
    assert memo.above() == once
    misses = memo.cached().cache_info().misses
    assert memo.above() == once  # the same results from memoized rows
    assert memo.cached().cache_info().misses == misses
    assert all(kept[memo.slots:]) and max(map(memo.terms, kept)) > bound


@pytest.mark.parametrize("memo", [m for m in MEMOS if m.outside], ids=attrgetter("label"))
def test_out_of_bound_keys_never_enter_the_memo(memo):
    """Their rows are built each time and never stored, so the one in-bound
    row asked before them is still the memo's only row, and a hit."""
    key = next(iter(memo.rows))
    memo.cached().cache_clear()
    row = memo.cached()(*key)
    memo.outside()
    info = memo.cached().cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    assert memo.cached()(*key) is row
    assert memo.cached().cache_info().hits == info.hits + 1


@EACH
def test_the_bound_caps_the_memo_memory(memo):
    """By :func:`_footprint`, the 31-term kappa row of the edge key holds under
    112 B a term; the largest twist row holds under 12,000 B, so a full twist
    memo of 1,024 rows holds under 12.3 MB; and all 1,024 axis or derivative
    rows hold under 1.2 MB."""
    assert memo.cached().cache_info().maxsize == memo.maxsize
    rows = _largest(memo)
    assert len(rows) == (1 if memo.edge else memo.maxsize)
    assert max(map(memo.terms, rows)) == memo.most
    if memo.edge:
        widest, over = memo.edge
        assert memo.cached()(*widest) == rows[0] and memo.cached()(*over) == ()
    assert _footprint(rows) < memo.max_bytes


@EACH
def test_full_selftest_fills_under_a_quarter_of_each_memo(full_selftest, memo):
    """Criterion 10's first run meets every shape its second run meets, and
    leaves each memo at least 4x headroom."""
    cold, warm = (memos[memo.cached()] for _, _, memos in full_selftest)
    assert 0 < cold.currsize < memo.maxsize / 4
    assert warm.misses == cold.misses
    assert warm.hits > cold.hits


def test_full_selftest_is_byte_identical_from_cold_and_warm_memos(full_selftest):
    (_, cold, _), (_, warm, _) = full_selftest
    assert cold == warm


# -- one memo each ---------------------------------------------------------------------


def test_pairs_without_overlap_are_not_memoized():
    symbols._structure_constants.cache_clear()
    q1, p1 = PolySymbol.coordinate("q", 0, 2, H), PolySymbol.coordinate("p", 0, 2, H)
    assert star(q1, p1) == q1 * p1 and moyal_bracket(q1 * q1, q1).is_zero()
    assert symbols._structure_constants.cache_info().currsize == 0


def test_every_row_of_the_star_wide_shapes_is_memoized(monkeypatch):
    """The largest shapes of perfbench's star-wide ladder per degree of
    freedom; their longest rows have 11 terms, kappa = 0 left out."""
    pairs = [
        ("(q1+2*p1+1)^8", "(3*q1+p1)^8"),
        ("(q1+q2+p1+p2)^6", "(q1+2*q2+p1+p2+j)^5"),
        ("(q1+q2+q3+p1+p2+p3)^4", "(q1+q2+2*q3+p1+p2+p3)^3"),
    ]
    kept = _stand_in(monkeypatch, KAPPA, KAPPA.maxsize)
    for x, y in pairs:
        a, b = parse_symbol(x, H), parse_symbol(y, H)
        star(a, b), scaled_bracket(a, b)
    assert all(kept) and max(map(len, kept)) == 11 < KAPPA_ROW_TERMS


def test_twist_rows_at_and_off_the_origin_in_one_process():
    """One ``(a, b, sigma)`` twisted at the origin and off it, at locations of
    either sign, in both rings, in one process: each zero pattern has its
    own memoized row."""
    distributions._twist_row.cache_clear()
    points = [(0, 0), (Fraction(1, 2), 0), (0, Fraction(-3, 5)),
              (Fraction(1, 2), Fraction(-3, 5)), (Fraction(-1, 2), Fraction(3, 5)), (0, 0)]
    _twist_factors([(x, y, a, b, sigma) for sigma in (1, -1, 1)
                    for a, b in ((2, 3), (3, 1), (1, 1)) for x, y in points])
    info = distributions._twist_row.cache_info()
    assert info.currsize == 2 * 3 * 4 and info.hits > 0
