"""Invariants of the sparse term map behind the six algebra classes.

Results of arithmetic are built without validation, so each must already
be what the validating public constructor makes of its own terms: equal to
them passed back through that constructor, with the same stored form.  Every
element stores its coefficients as pairs of int numerators over one
denominator, the least one, and no zero pair; exponential polynomials and
distributions also store the rational parts of their keys as integer
numerators over one denominator, which must be the least one.  That rebuild
reads back the result's own map, so it cannot see a term lost where two
keys collide; results whose terms collide are also compared with an
independent computation.  The public constructors store what summing the
coefficients as binarions and then reading them as integers would store;
their refusals of malformed input are rows of ``test_refusals.REFUSALS``.

The four classes with a size share one JSON codec in ``SizedMap``; every
element, and each wrapper around one, reads back as itself.
"""

import functools
import json
import math
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_refusals import refusal_tests

from hypermoyal import (
    Binarion,
    CharSum,
    ExpPoly,
    GrassmannElement,
    HPoly,
    Operator,
    PolySymbol,
    Sigma,
    SignatureMismatchError,
    Ultradistribution,
    WaveFunction,
    inverse_fourier_symbol,
    moyal_bracket,
    parse_grassmann,
    parse_symbol,
    scaled_bracket,
    star,
    star_distributional,
    supercommutator,
)
from hypermoyal import sparse
from hypermoyal.scalars import _integers
from hypermoyal.selftest import (_random_binarion, _random_distribution, _random_fraction,
                                 _random_grassmann, _random_symbol)
from hypermoyal.sparse import SparseAlgebra, SparseMap, add_parts, from_parts, stored, summed

H = Sigma.HYPERBOLIC
C = Sigma.COMPLEX
globals().update(refusal_tests(__name__))  # the tests named in ``test_refusals.HOMES``
SIGMAS = (H, C)


def _coeff(rng, sigma):
    # few small values, half of them on the light cone x = +/-y, so that
    # sums cancel and hyperbolic products vanish
    re = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    im = rng.choice([re, -re, Fraction(rng.randint(-1, 1))])
    return Binarion(re, im, sigma)


def _exps(rng, k):
    return tuple(rng.randint(0, 2) for _ in range(k))


def _hpoly(rng, sigma):
    return HPoly({rng.randint(0, 2): _coeff(rng, sigma) for _ in range(3)}, sigma)


def _charsum(rng, sigma):
    return CharSum({Fraction(rng.randint(-2, 2), 2): _coeff(rng, sigma) for _ in range(3)}, sigma)


def _symbol(rng, sigma):
    return PolySymbol(
        2, sigma, {(_exps(rng, 2), _exps(rng, 2)): _hpoly(rng, sigma) for _ in range(3)}
    )


def _exppoly(rng, sigma, dim=1):
    return ExpPoly(
        dim,
        sigma,
        {
            (tuple(Fraction(rng.randint(-1, 1)) for _ in range(dim)), _exps(rng, dim)):
                _charsum(rng, sigma)
            for _ in range(3)
        },
    )


def _exppoly_2(rng, sigma):
    return _exppoly(rng, sigma, dim=2)


def _mixed(rng, sigma, cls=ExpPoly):
    """Plane waves on two variables, or atoms if ``cls`` is
    ``Ultradistribution``, whose frequencies or locations and characters have
    different denominators, so that sums and products change ``_den``."""
    def rational():
        return Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3, 4, 6)))

    parts = [((rational(), rational()), _exps(rng, 2),
              CharSum({rational(): _coeff(rng, sigma) for _ in range(2)}, sigma))
             for _ in range(3)]
    if cls is ExpPoly:
        return ExpPoly(2, sigma, {(vector, orders): w for vector, orders, w in parts})
    return Ultradistribution(2, sigma, parts)


def _distribution(rng, sigma):
    return Ultradistribution(
        1,
        sigma,
        [((Fraction(rng.randint(-1, 1)),), _exps(rng, 1), _charsum(rng, sigma)) for _ in range(3)],
    )


def _grassmann(rng, sigma):
    return GrassmannElement(3, sigma, {rng.randrange(8): _coeff(rng, sigma) for _ in range(3)})


REBUILD = {
    HPoly: lambda x: HPoly(dict(x.items()), x.sigma),
    CharSum: lambda x: CharSum(dict(x.items()), x.sigma),
    PolySymbol: lambda x: PolySymbol(x.dof, x.sigma, {(a, b): c for a, b, c in x.terms()}),
    ExpPoly: lambda x: ExpPoly(x.dim, x.sigma, {(f, e): c for f, e, c in x.terms()}),
    Ultradistribution: lambda x: Ultradistribution(x.dim, x.sigma, x.atoms()),
    GrassmannElement: lambda x: GrassmannElement(x.n, x.sigma, dict(x.terms())),
}

#: The type of the coefficient in each ``(head, coefficient)`` view of a class.
VIEWS = {HPoly: Binarion, CharSum: Binarion, PolySymbol: HPoly, ExpPoly: CharSum,
         Ultradistribution: CharSum, GrassmannElement: Binarion}


def _assert_clean(x):
    rebuilt = REBUILD[type(x)](x)
    assert x == rebuilt
    assert (x._terms, x._cden) == (rebuilt._terms, rebuilt._cden)
    assert x.sigma in SIGMAS
    # coefficients: (re, im) int pairs over the least positive denominator
    parts = []
    for value in x._terms.values():
        assert type(value) is tuple and len(value) == 2 and value != (0, 0)
        assert type(value[0]) is int and type(value[1]) is int
        parts += value
    assert type(x._cden) is int and x._cden >= 1
    assert math.gcd(x._cden, *parts) == 1  # and 1 for the empty element
    for _, coeff in x._grouped():
        assert type(coeff) is VIEWS[type(x)] and not coeff.is_zero()
        if VIEWS[type(x)] is not Binarion:
            _assert_clean(coeff)
    if isinstance(x, (ExpPoly, Ultradistribution)):
        # vector and r numerators over the least common denominator
        numerators = [n for vector, _, r in x._terms for n in (*vector, r)]
        assert all(type(n) is int for n in numerators)
        assert type(x._den) is int and x._den >= 1
        assert math.gcd(x._den, *numerators) == 1


def _unreduced_make(cls, size, sigma, pairs, cden=1):
    """``SparseMap._make`` without its gcd pass: the ``(key, (re, im))``
    pairs with the zero pairs dropped, the denominator kept as given."""
    out = object.__new__(cls)
    out._size, out.sigma, out._cden = size, sigma, cden
    out._terms = {key: (re, im) for key, (re, im) in pairs if re or im}
    return out


def test_the_clean_check_sees_a_denominator_left_unreduced(monkeypatch):
    for sigma in SIGMAS:
        half = HPoly({0: Fraction(1, 2), 1: Binarion(0, Fraction(1, 2), sigma)}, sigma)
        symbol = PolySymbol.monomial((1,), (1,), Fraction(1, 2), sigma)

        def results():  # each over 2 before it is reduced
            return [half + half, symbol + symbol, star(symbol, symbol * 2)]

        for x in results():
            _assert_clean(x)
        monkeypatch.setattr(SparseMap, "_make", classmethod(_unreduced_make))
        for x in results():
            with pytest.raises(AssertionError):
                _assert_clean(x)
        monkeypatch.undo()


def test_filters_and_views_reduce_the_denominator():
    """A filter or a view that leaves out the terms over the larger
    denominator stores its rest over the smaller one."""
    for sigma in SIGMAS:
        third, half = Fraction(1, 3), Fraction(1, 2)
        symbol = PolySymbol(1, sigma, {
            ((1,), (0,)): HPoly({0: half, 1: third}, sigma),
            ((0,), (1,)): HPoly({1: Binarion(0, third, sigma)}, sigma),
        })
        assert symbol._cden == 6
        for x, cden in (
            (symbol.h_constant_part(), 2), (symbol.coeff((1,), (0,)), 6),
            (symbol.coeff((0,), (1,)), 3), (symbol.coeff((0,), (1,)).div_h(), 3),
            ((symbol - symbol.h_constant_part()).div_h(), 3),
            (HPoly({1: half, 2: third}, sigma).div_h(), 6),
        ):
            assert x._cden == cden
            _assert_clean(x)
        grassmann = GrassmannElement(2, sigma, {0: half, 1: third, 3: Binarion(0, 2, sigma)})
        for x, cden in ((grassmann.even_part(), 2), (grassmann.odd_part(), 3)):
            assert x._cden == cden
            _assert_clean(x)
        views = [coeff for _, _, coeff in symbol.terms()] + [
            w for _, _, w in ExpPoly(1, sigma, {
                ((0,), (0,)): CharSum({0: half, 1: third}, sigma), ((1,), (0,)): 1,
            }).terms()
        ]
        assert sorted(v._cden for v in views) == [1, 3, 6, 6]
        for x in views:
            _assert_clean(x)


def _ring_results(a, b, sigma):
    light_cone = Binarion(1, 1, sigma)
    return [a + b, a - b, a - a, -a, a * b, b * a, a**0, a**2, a + 1, 2 - a, a * light_cone]


def _extra_results(a, b, sigma):
    if isinstance(a, PolySymbol):
        h = Fraction(1, 3)
        return [
            a.scale_hpoly(HPoly({1: Binarion(1, -1, sigma)}, sigma)),
            star(a, b), moyal_bracket(a, b), scaled_bracket(a, b), moyal_bracket(a, b).div_h(),
            a.differentiate("p", 1), a.substitute_h(h), a.h_constant_part(), a.conjugate(),
            a.coeff((0, 0), (0, 0)), ExpPoly.from_poly_symbol(a, h),
        ] + [coeff for _, _, coeff in a.terms()]
    if isinstance(a, (HPoly, CharSum)):
        return [a.conjugate()]
    if isinstance(a, ExpPoly):
        point = (Fraction(1, 2),) * a.dim
        third = ExpPoly.character((Fraction(1, 3),) * a.dim, sigma)
        results = [
            a.differentiate(0), a.shift(point), a.evaluate(point),
            a.differentiate_multi((2,) * a.dim), a.shift((Fraction(-1, 3),) * a.dim),
            (a + third) - third, a * third,
        ]
        if a.dim == 2:
            results += [star_distributional(a, b, Fraction(1, 3)), inverse_fourier_symbol(a)]
        return results
    return [a.even_part(), a.odd_part(), supercommutator(a, b)]


@pytest.mark.parametrize(
    "make", [_hpoly, _charsum, _symbol, _exppoly, _exppoly_2, _mixed, _grassmann]
)
def test_ring_results_are_clean(make):
    rng = random.Random(17)
    for sigma in SIGMAS:
        for _ in range(25):
            a, b = make(rng, sigma), make(rng, sigma)
            for result in _ring_results(a, b, sigma) + _extra_results(a, b, sigma):
                _assert_clean(result)


def test_distribution_results_are_clean():
    rng = random.Random(17)
    for sigma in SIGMAS:
        two_characters = CharSum(
            {Fraction(0): Binarion(1, -1, sigma), Fraction(1, 2): Binarion(2, 1, sigma)}, sigma
        )
        thirds = Ultradistribution.delta((Fraction(-1, 3),), sigma, (2,), Binarion(1, 1, sigma))
        for _ in range(25):
            a, b = _distribution(rng, sigma), _distribution(rng, sigma)
            for result in (
                a + b, a - b, a - a, -a, a.scale(Binarion(1, -1, sigma)),
                a.scale(two_characters), a.derivative(0), a.mul_monomial((2,)),
                a.tensor(b), a.fourier(), a.pair(b.fourier()),
                a.tensor(thirds), thirds.tensor(a), (a + thirds) - thirds,
                (a + thirds).mul_monomial((3,)), (a + thirds).derivative_multi((2,)),
            ):
                _assert_clean(result)


def test_a_cancellation_lowers_the_key_denominator():
    for sigma in SIGMAS:
        half = ExpPoly.character((Fraction(1, 2),), sigma)
        third = ExpPoly.character((Fraction(1, 3),), sigma)
        assert half != third  # both store the numerator 1
        both = half + third
        assert both._den == 6
        assert (both - third)._den == 2 and both - third == half
        assert (both - both)._den == 1 and (both - both).is_zero()
        shifted = half.shift((Fraction(2, 3),))  # e^(u/3) e^(u x/2): r = 1/3
        assert shifted._den == 6
        assert shifted.shift((Fraction(-2, 3),)) == half
        assert shifted.shift((Fraction(-2, 3),))._den == 2
        # atoms that cancel in the constructor leave no denominator behind
        built = Ultradistribution(1, sigma, [
            ((Fraction(1, 3),), (0,), 1), ((Fraction(1, 2),), (1,), 1), ((Fraction(1, 3),), (0,), -1),
        ])
        assert built._den == 2
        for x in (both, both - third, both - both, shifted, built):
            _assert_clean(x)


def test_operator_route_results_are_clean():
    """Both routes' output on wavefunctions, and plane-wave symbols, whose
    frequencies have different denominators."""
    rng = random.Random(23)
    for sigma in SIGMAS:
        for _ in range(10):
            h = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            phi = WaveFunction(_mixed(rng, sigma), h)
            symbol = _symbol(rng, sigma)
            plane = ExpPoly(4, sigma, {
                (freq + freq, exps + exps): c for freq, exps, c in _mixed(rng, sigma).terms()
            })
            for result in (
                Operator(symbol, h).apply_normal_ordered(phi).func,
                Operator(symbol, h).apply_shift_form(phi).func,
                Operator(plane, h).apply_shift_form(phi).func,
            ):
                _assert_clean(result)


@pytest.mark.parametrize("make", [_exppoly, _exppoly_2])
def test_evaluate_sums_colliding_phases(make):
    """At ``x = 1/2`` the phases ``r + <freq, x>`` of distinct terms meet
    (``freq`` in -1..1, ``r`` in -1..1 by halves), so ``evaluate`` must sum
    them: it equals the sum of its terms evaluated one by one and is
    additive."""
    rng = random.Random(31)
    for sigma in SIGMAS:
        for _ in range(25):
            a, b = make(rng, sigma), make(rng, sigma)
            point = (Fraction(1, 2),) * a.dim
            value = a.evaluate(point)
            one_by_one = CharSum.zero(sigma)
            for freq, exps, weight in a.terms():
                for r, c in weight.items():
                    term = ExpPoly(a.dim, sigma, {(freq, exps): CharSum.character(r, sigma, c)})
                    one_by_one = one_by_one + term.evaluate(point)
            assert value == one_by_one
            assert (a + b).evaluate(point) == value + b.evaluate(point)
            _assert_clean(value)


class _Repeated(list):
    """``(key, coefficient)`` terms with repeated keys, which no dict holds:
    a constructor reads them through ``items()`` and sums them."""

    def items(self):
        return iter(self)


def _scalar(value, sigma) -> Binarion:
    return value if isinstance(value, Binarion) else Binarion(value, 0, sigma)


def _reference_stored(pairs) -> tuple:
    """The stored form of ``(key, coefficient)`` pairs by the sum-then-read
    formula: the binarions summed per key, the zero sums dropped, each sum
    read by ``_integers`` and all put over the lcm of their denominators."""
    terms = {key: _integers(c) for key, c in summed(pairs).items() if not c.is_zero()}
    den = math.lcm(*(d for _, _, d in terms.values()))
    return {key: (x * (den // d), y * (den // d)) for key, (x, y, d) in terms.items()}, den


def _reference_keyed(pairs) -> tuple:
    """:func:`_reference_stored` of ``((vector, orders, r), coefficient)``
    pairs, with the vector and ``r`` as numerators over the lcm of the
    denominators of the terms left: ``(terms, cden, den)``."""
    terms, cden = _reference_stored(pairs)
    den = math.lcm(*(x.denominator for vector, _, r in terms for x in (*vector, r)))
    return {(tuple(int(x * den) for x in vector), orders, int(r * den)): c
            for (vector, orders, r), c in terms.items()}, cden, den


def _ring_pairs(head, value, ring, sigma) -> list:
    """The flat ``(head + (key,), binarion)`` pairs of a coefficient: each term
    of an element of ``ring``, or a scalar at the ring's key 0."""
    if isinstance(value, ring):
        return [(head + (key,), c) for key, c in value.items()]
    return [(head + (Fraction(0) if ring is CharSum else 0,), _scalar(value, sigma))]


def _stored_form(x) -> tuple:
    return x._terms, x._cden, getattr(x, "_den", None)


def _stored_form_cases(rng, sigma) -> list:
    """``(element, reference)`` pairs: constructor input drawn from the
    selftest's generators, with repeated keys that cancel, mixed
    denominators, weights whose ``r`` have their own denominators and
    ``HPoly`` coefficients over a ``_cden`` that no one term needs."""
    def hpoly():
        return HPoly({d: _random_binarion(rng, sigma) for d in range(rng.randint(1, 3))}, sigma)

    def charsum():
        return CharSum({_random_fraction(rng): _random_binarion(rng, sigma)
                        for _ in range(rng.randint(1, 3))}, sigma)

    def cancelled(terms):
        """``terms`` and, for some, the same key again with the negated
        coefficient, so that the two cancel."""
        out = _Repeated(terms)
        for key, value in terms:
            if rng.random() < 0.4:
                out.append((key, -value))
        return out

    cases = []
    degrees = cancelled([(rng.randint(0, 4), _random_binarion(rng, sigma)) for _ in range(4)])
    cases.append((HPoly(degrees, sigma), _reference_stored(
        (d, _scalar(c, sigma)) for d, c in degrees) + (None,)))
    exponents = cancelled([(_random_fraction(rng), _random_binarion(rng, sigma))
                           for _ in range(4)])
    exponents += [(str(r), c) for r, c in exponents[:2]]  # the same r, as text
    cases.append((CharSum(exponents, sigma), _reference_stored(
        (Fraction(r), _scalar(c, sigma)) for r, c in exponents) + (None,)))

    symbol = _random_symbol(rng, 2, sigma, 4, 4)
    terms = cancelled([((a, b), rng.choice((c, hpoly(), _random_fraction(rng))))
                       for a, b, c in symbol.terms()])
    cases.append((PolySymbol(2, sigma, terms), _reference_stored(
        pair for head, c in terms for pair in _ring_pairs(head, c, HPoly, sigma)) + (None,)))

    def keyed(vector, orders, weight):
        return _ring_pairs((tuple(map(Fraction, vector)), orders), weight, CharSum, sigma)

    dim = rng.randint(1, 3)
    atoms = [(loc, order, rng.choice((w, charsum())))
             for loc, order, w in _random_distribution(rng, dim, sigma, 4, 2).atoms()]
    atoms += [(loc, order, -w) for loc, order, w in atoms if rng.random() < 0.4]
    atoms += [(tuple(map(str, loc)), order, w) for loc, order, w in atoms[:1]]
    cases.append((Ultradistribution(dim, sigma, atoms), _reference_keyed(
        pair for loc, order, w in atoms for pair in keyed(loc, order, w))))
    terms = cancelled([((loc, order), w) for loc, order, w in atoms])
    cases.append((ExpPoly(dim, sigma, terms), _reference_keyed(
        pair for (freq, exps), w in terms for pair in keyed(freq, exps, w))))

    element = _random_grassmann(rng, 3, sigma)
    masks = cancelled(list(element.terms()) + [(rng.randrange(8), _random_fraction(rng))])
    cases.append((GrassmannElement(3, sigma, masks), _reference_stored(
        (m, _scalar(c, sigma)) for m, c in masks) + (None,)))

    freq = tuple(_random_fraction(rng) for _ in range(dim))
    exps = tuple(rng.randint(0, 2) for _ in range(dim))
    value = rng.choice((_random_binarion(rng, sigma), _random_fraction(rng), charsum()))
    index = rng.randrange(dim)
    unit = tuple(int(i == index) for i in range(dim))
    h = Fraction(rng.randint(1, 5), rng.randint(1, 4))
    for element, (vector, orders, weight) in (
        (ExpPoly.character(freq, sigma, value), (freq, (0,) * dim, value)),
        (ExpPoly.constant(value, dim, sigma), ((0,) * dim, (0,) * dim, value)),
        (ExpPoly.monomial(exps, value, sigma), ((0,) * dim, exps, value)),
        (ExpPoly.coordinate(index, dim, sigma), ((0,) * dim, unit, 1)),
        (Ultradistribution.delta(freq, sigma, exps, value), (freq, exps, value)),
        (WaveFunction.plane_wave(freq, h, sigma).func,
         (tuple(p / h for p in freq), (0,) * dim, 1)),
    ):
        cases.append((element, _reference_keyed(keyed(vector, orders, weight))))
    return cases


def test_constructors_store_the_sum_then_read_form():
    rng = random.Random(3803)
    for _ in range(30):
        for sigma in SIGMAS:
            for element, reference in _stored_form_cases(rng, sigma):
                assert _stored_form(element) == reference
                _assert_clean(element)


def test_stored_form_edges_of_the_constructors():
    """A cancelled key takes its denominators with it, a bool or text entry
    is read as the number it names, and zero builds the empty element."""
    for sigma in SIGMAS:
        b = Binarion(Fraction(1, 6), Fraction(-1, 4), sigma)
        cancelled = ExpPoly(1, sigma, _Repeated([
            (((Fraction(1, 3),), (0,)), CharSum({Fraction(1, 5): b}, sigma)),
            ((("1/3",), (0,)), CharSum({"1/5": -b}, sigma)),
            (((Fraction(1, 2),), (1,)), Fraction(2, 3)),
        ]))
        assert _stored_form(cancelled) == ({((1,), (1,), 0): (2, 0)}, 3, 2)
        assert _stored_form(Ultradistribution(1, sigma, [((Fraction(1, 7),), (0,), b),
                                                         ((Fraction(1, 7),), (0,), -b)])) == (
            {}, 1, 1)
        assert _stored_form(PolySymbol(1, sigma, {((1,), (0,)): HPoly({0: Fraction(1, 2),
                                                                        1: Fraction(1, 3)},
                                                                       sigma)})) == (
            {((1,), (0,), 0): (3, 0), ((1,), (0,), 1): (2, 0)}, 6, None)
        for element in (ExpPoly.character((True, "1/2"), sigma, True),
                        ExpPoly(2, sigma, {((1, Fraction(1, 2)), (0, 0)): 1})):
            assert _stored_form(element) == ({((2, 1), (0, 0), 0): (1, 0)}, 1, 2)
        for element in (ExpPoly.constant(0, 2, sigma), ExpPoly.character((Fraction(1, 3),),
                                                                          sigma, 0),
                        ExpPoly.monomial((2,), Binarion(0, 0, sigma), sigma)):
            assert _stored_form(element) == ({}, 1, 1)
        wave = WaveFunction.plane_wave((True, "3/4"), Fraction(1, 2), sigma)
        assert (wave.h, _stored_form(wave.func)) == (
            Fraction(1, 2), ({((4, 3), (0, 0), 0): (1, 0)}, 1, 2))


def test_make_reads_a_one_shot_generator_of_pairs_once_and_in_order():
    """``_make`` takes ``(key, (re, im))`` pairs: here a generator, with list
    and tuple values, zero pairs and the common factor 6 over ``cden`` 18.
    It reads each pair once, keeps the order of the others, drops the
    zeros and reduces to ``cden`` 3."""
    entries = [(3, [6, -12]), (0, (0, 0)), (5, (0, 18)), (1, [0, 0]), (2, (-6, 0))]
    for sigma in SIGMAS:
        reads = []

        def pairs():
            for pair in entries:
                reads.append(pair[0])
                yield pair

        source = pairs()
        x = HPoly._make(None, sigma, source, 18)
        assert reads == [3, 0, 5, 1, 2]
        assert next(source, None) is None
        assert list(x._terms.items()) == [(3, (1, -2)), (5, (0, 3)), (2, (-1, 0))]
        assert all(type(value) is tuple for value in x._terms.values())
        assert x._cden == 3
        _assert_clean(x)
        third = Fraction(1, 3)
        assert x == HPoly({2: -third, 3: Binarion(third, -2 * third, sigma),
                           5: Binarion(0, 1, sigma)}, sigma)


def test_add_parts_sums_both_parts_of_colliding_keys():
    acc = {}
    for key, re, im in (("a", 1, 2), ("b", 5, 0), ("a", 3, -7), ("a", 0, 1)):
        add_parts(acc, key, re, im)
    assert acc == {"a": [4, -4], "b": [5, 0]}


def test_from_parts_divides_integers_by_den():
    acc = {}
    for key, re, im in (("real", 6, 0), ("unit", 0, -4), ("both", 3, 9)):
        add_parts(acc, key, re, im)
    for sigma in SIGMAS:
        out = from_parts(acc, sigma, 6)
        assert out == {
            "real": Binarion(1, 0, sigma),
            "unit": Binarion(0, Fraction(-2, 3), sigma),
            "both": Binarion(Fraction(1, 2), Fraction(3, 2), sigma),
        }
        assert all(v.sigma is sigma for v in out.values())
        assert [(v.re, v.im) for v in out.values()] == [
            (Fraction(1), Fraction(0)), (Fraction(0), Fraction(-2, 3)),
            (Fraction(1, 2), Fraction(3, 2)),
        ]


def test_from_parts_takes_fraction_parts_as_they_are_or_over_one():
    acc = {}
    for key, re, im in (
        (0, Fraction(1, 3), Fraction(-1, 2)), (0, Fraction(2, 3), Fraction(1, 2)),
        (2, Fraction(0), Fraction(5, 4)), (3, 2, 0),
    ):
        add_parts(acc, key, re, im)
    for sigma in SIGMAS:
        expected = {0: Binarion(1, 0, sigma), 2: Binarion(0, Fraction(5, 4), sigma),
                    3: Binarion(2, 0, sigma)}
        for out in (from_parts(acc, sigma), from_parts(acc, sigma, 1)):
            assert out == expected
            # an int part becomes a Fraction, as the validating constructor makes it
            assert all(type(v.re) is Fraction and type(v.im) is Fraction for v in out.values())


def _stored_binarions(pairs) -> tuple:
    """``stored`` of ``(key, binarion)`` pairs, each read by ``_integers``."""
    return stored((key, _integers(c)) for key, c in pairs)


def _assert_numerators_invert_from_parts(terms, sigma):
    """``stored`` of the binarions of ``terms`` holds ints over the least common
    denominator, in the map's order, and ``from_parts`` builds ``terms`` back
    from them."""
    stored_terms, den = _stored_binarions(terms.items())
    assert list(stored_terms) == list(terms)
    assert all(type(pair) is tuple and len(pair) == 2 for pair in stored_terms.values())
    parts = [n for re, im in stored_terms.values() for n in (re, im)]
    assert all(type(n) is int for n in parts)
    assert math.gcd(den, *parts) == 1  # no smaller denominator holds them all
    out = from_parts({key: [re, im] for key, (re, im) in stored_terms.items()}, sigma, den)
    assert out == terms and list(out) == list(terms)
    assert all(v.sigma is sigma for v in out.values())


def test_numerators_inverts_from_parts_in_both_rings():
    rng = random.Random(17)
    for sigma in SIGMAS:
        _assert_numerators_invert_from_parts({
            "mixed": Binarion(Fraction(1, 2), Fraction(-5, 3), sigma),
            "light cone": Binarion(Fraction(3, 4), Fraction(-3, 4), sigma),
            "int": Binarion(7, -2, sigma),
            "no unit part": Binarion(Fraction(-2, 5), 0, sigma),
            "no real part": Binarion(0, Fraction(1, 7), sigma),
        }, sigma)
        for _ in range(20):
            terms = {}
            for key in range(rng.randint(1, 6)):
                c = Binarion(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 12)), sigma)
                if not c.is_zero():
                    terms[key] = c
            _assert_numerators_invert_from_parts(terms, sigma)
        for element in (_symbol(rng, sigma), _mixed(rng, sigma),
                        _distribution(rng, sigma), _grassmann(rng, sigma)):
            _assert_numerators_invert_from_parts(_viewed_terms(element), sigma)
            # and the stored form is the numerators of the flat binarion view
            assert _stored_binarions(element._binarions().items()) == (element._terms,
                                                                      element._cden)


def test_numerators_take_the_least_common_denominator_and_one_when_empty():
    for sigma in SIGMAS:
        assert _stored_binarions([("a", Binarion(Fraction(1, 2), Fraction(1, 3), sigma))]) == (
            {"a": (3, 2)}, 6)
        terms, den = _stored_binarions([(0, Binarion(Fraction(1, 2), 0, sigma)),
                             (1, Binarion(0, Fraction(-1, 3), sigma))])
        assert (den, list(terms.items())) == (6, [(0, (3, 0)), (1, (0, -2))])
        assert _stored_binarions([(0, Binarion(3, -4, sigma))]) == ({0: (3, -4)}, 1)
        # repeated keys add, in the order keys first appear; a cancelling sum
        # is dropped, and the denominator is that of the sums, not the inputs
        half = Binarion(Fraction(1, 2), Fraction(1, 3), sigma)
        fifth = Binarion(0, Fraction(1, 5), sigma)
        terms, den = _stored_binarions([("a", half), ("b", Binarion(1, 1, sigma)), ("a", -half),
                             ("c", Binarion(Fraction(1, 4), 0, sigma)),
                             ("b", Binarion(0, Fraction(1, 6), sigma))])
        assert (den, list(terms.items())) == (12, [("b", (12, 14)), ("c", (3, 0))])
        assert _stored_binarions([(0, fifth), (1, half), (0, -fifth)]) == ({1: (3, 2)}, 6)
        assert _stored_binarions([(1, fifth), (2, half), (1, -fifth), (2, -half)]) == ({}, 1)
    assert stored([]) == ({}, 1)
    # integer triples as a ring element stores them, over a denominator that
    # one term alone does not need, and repeated keys over different ones
    assert stored([(0, (3, 0, 6)), (1, (2, 0, 6))]) == ({0: (3, 0), 1: (2, 0)}, 6)
    assert stored([(0, (3, 0, 6))]) == ({0: (1, 0)}, 2)
    assert stored([(0, (1, 0, 2)), (1, (4, 0, 6)), (0, (1, -1, 3))]) == (
        {0: (5, -2), 1: (4, 0)}, 6)
    assert stored([(0, (1, 1, 2)), (0, (1, -1, 2)), (1, (2, 2, 4)), (1, (-1, -1, 2))]) == (
        {0: (1, 0)}, 1)


# -- JSON ----------------------------------------------------------------------


def _scalar_atom(rng, sigma):
    """A distribution that also holds a weight free of characters, written
    as a bare ``{"re", "im"}`` object, at a nonzero location."""
    return _distribution(rng, sigma) + Ultradistribution.delta(
        (Fraction(rng.randint(1, 3), 2),), sigma, (rng.randint(0, 2),), _coeff(rng, sigma)
    )


JSON_ELEMENTS = {
    "PolySymbol": _symbol,
    "ExpPoly": _exppoly_2,
    "Ultradistribution": _scalar_atom,
    "GrassmannElement": _grassmann,
    "WaveFunction": lambda rng, sigma: WaveFunction(_exppoly(rng, sigma), Fraction(1, 3)),
    "Operator": lambda rng, sigma: Operator(
        rng.choice([_symbol, _exppoly_2])(rng, sigma), Fraction(2, 3), sigma
    ),
}


def _dumps(x) -> str:
    return json.dumps(x.to_json_dict(), sort_keys=True)


@pytest.mark.parametrize("make", JSON_ELEMENTS.values(), ids=JSON_ELEMENTS)
def test_json_reads_back_as_itself_and_its_text_is_a_fixed_point(make):
    rng = random.Random(41)
    for sigma in SIGMAS:
        for _ in range(25):
            x = make(rng, sigma)
            text = _dumps(x)
            back = type(x).from_json_dict(json.loads(text))
            assert back == x
            assert _dumps(back) == text
            if isinstance(x, SparseMap):
                assert x.to_json() == text
                assert type(x).from_json(text) == x


JSON_NAMES = {"to_json", "from_json", "to_json_dict", "from_json_dict"}


@pytest.mark.parametrize("cls", [PolySymbol, ExpPoly, Ultradistribution, GrassmannElement])
def test_no_sparse_class_writes_its_own_codec(cls):
    assert not JSON_NAMES & set(vars(cls))


@pytest.mark.parametrize("cls", [HPoly, CharSum])
def test_the_scalar_rings_have_no_json_form(cls):
    assert not [name for name in JSON_NAMES if hasattr(cls, name)]


# -- keys over one denominator ----------------------------------------------------

_rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6)))


@st.composite
def _keyed_pairs(draw):
    """Two exponential polynomials or two distributions of one dim and ring,
    whose vectors and ``r`` have mixed denominators, and whose weights are
    often on the light cone, so that sums cancel and products vanish."""
    cls = draw(st.sampled_from((ExpPoly, Ultradistribution)))
    dim = draw(st.integers(1, 2))
    sigma = draw(st.sampled_from(SIGMAS))

    def element():
        atoms = []
        for _ in range(draw(st.integers(0, 4))):
            vector = tuple(draw(_rationals) for _ in range(dim))
            orders = tuple(draw(st.integers(0, 2)) for _ in range(dim))
            re = draw(st.sampled_from((-1, Fraction(1, 2), 1, 2)))
            im = draw(st.sampled_from((re, -re, 0, Fraction(1, 3))))
            weight = CharSum.character(draw(_rationals), sigma, Binarion(re, im, sigma))
            atoms.append((vector, orders, weight))
        if cls is ExpPoly:
            return ExpPoly(dim, sigma, summed(((v, o), w) for v, o, w in atoms))
        return Ultradistribution(dim, sigma, atoms)

    return element(), element()


@given(_keyed_pairs())
def test_keys_over_one_denominator_property(pair):
    a, b = pair
    cls = type(a)
    assert cls.from_json(a.to_json()) == a
    assert (a + b) - b == a
    assert (a - a).is_zero() and (a - a)._den == 1
    if cls is ExpPoly:
        product, term_mul, dim = a * b, _symbol_term_mul, a.dim
    else:
        product, term_mul, dim = a.tensor(b), _tensor_term_mul, a.dim + b.dim
    assert (product.dim, product.sigma) == (dim, a.sigma)
    assert _viewed_terms(product) == _by_terms(term_mul, _viewed_terms(a), _viewed_terms(b))
    for x in (a, b, a + b, a - b, product):
        _assert_clean(x)


SPARSE_CLASSES = [HPoly, CharSum, PolySymbol, ExpPoly, Ultradistribution, GrassmannElement]


def _defined_below_sparse_map(cls) -> set:
    """The names ``cls`` and its bases under ``SparseMap`` define."""
    return set().union(*(
        vars(base) for base in cls.__mro__ if issubclass(base, SparseMap) and base is not SparseMap
    ))


def test_sparse_map_holds_the_only_views_and_text_join():
    for cls in SPARSE_CLASSES:
        assert not {"__repr__", "_json_terms"} & _defined_below_sparse_map(cls), cls
    writers = {cls for cls in SPARSE_CLASSES if {"__str__", "to_text"} & set(vars(cls))}
    assert writers == {PolySymbol, ExpPoly}
    assert not hasattr(sparse, "regroup")


#: Elements whose later terms start with ``-``.  Only ``PolySymbol`` writes
#: ``a + -b`` as ``a - b``; every other class joins its terms with ``" + "``.
JOINED_TEXTS = {
    "charsum": (
        lambda: CharSum({-1: 2, Fraction(-1, 2): Binarion(1, -1, H), 0: -3}, H),
        "(2)*e^(-1j) + (1 - 1j)*e^(-1/2j) + -3",
    ),
    "charsum_unit": (
        lambda: CharSum({-2: -1, 0: Binarion(-1, 1, C)}, C), "(-1)*e^(-2i) + (-1 + 1i)",
    ),
    "hpoly": (
        lambda: HPoly({0: -1, 1: Binarion(-1, 2, H), 2: -3}, H), "-1 + (-1 + 2j)*h + (-3)*h^2",
    ),
    "hpoly_unit": (
        lambda: HPoly({0: Binarion(-1, 1, H), 1: 1}, H), "(-1 + 1j) + (1)*h",
    ),
    "distribution": (
        lambda: Ultradistribution(1, C, [
            ((0,), (1,), -1), ((Fraction(-1, 2),), (0,), CharSum({-1: -2, 0: -1}, C)),
        ]),
        "((-2)*e^(-1i) + -1)*delta[-1/2] + (-1)*d^(1)delta[0]",
    ),
    "exppoly": (
        lambda: ExpPoly(1, H, {
            ((0,), (1,)): 1, ((0,), (2,)): -2, ((-1,), (0,)): CharSum({-1: -1}, H),
        }),
        "((-1)*e^(-1j))*exp(j*(-1*x1)) + x1 + -2*x1^2",
    ),
    "grassmann": (
        lambda: GrassmannElement(2, C, {0: 1, 1: -1, 2: Binarion(0, -1, C), 3: -2}),
        "1 + -θ1 + (-1i)·θ2 + (-2)·θ1θ2",
    ),
    "symbol": (
        lambda: PolySymbol(1, H, {
            ((1,), (0,)): 1, ((0,), (1,)): -2,
            ((0,), (0,)): HPoly({0: -1, 1: Binarion(-1, -1, H)}, H),
        }),
        "q1 - 2*p1 - 1 + (-1 - 1j)*h",
    ),
}


@pytest.mark.parametrize("build, text", JOINED_TEXTS.values(), ids=JOINED_TEXTS)
def test_text_folds_a_leading_minus_only_in_symbols(build, text):
    x = build()
    assert str(x) == repr(x) == text


def test_a_lone_compound_constant_is_written_bare():
    for sigma in SIGMAS:
        value = Binarion(-1, 1, sigma)
        assert str(HPoly({0: value}, sigma)) == str(CharSum({0: value}, sigma)) == str(value)


def _unit(size, index, n):
    return tuple(n if i == index else 0 for i in range(size))


#: Elements with a variable index or an exponent of 10 or more, so that a
#: writer that reads either one digit at a time shows.
POWER_TEXTS = {
    "symbol": (
        lambda: PolySymbol(10, C, {
            (_unit(10, 9, 12), _unit(10, 2, 1)): HPoly({11: 1}, C),
            ((0,) * 10, _unit(10, 9, 10)): HPoly({0: -2, 10: Binarion(1, -1, C)}, C),
        }),
        "h^11*q10^12*p3 - 2*p10^10 + (1 - 1i)*h^10*p10^10",
    ),
    "hpoly": (lambda: HPoly({10: -3, 1: 1, 0: 2}, H), "2 + (1)*h + (-3)*h^10"),
    "exppoly": (
        lambda: ExpPoly(11, H, {
            ((0,) * 11, _unit(11, 10, 10)): 1,
            (_unit(11, 10, Fraction(1, 2)), _unit(11, 0, 12)): -1,
        }),
        "x11^10 + -1*x1^12*exp(j*(1/2*x11))",
    ),
    "wavefunction": (
        lambda: WaveFunction(ExpPoly(2, C, {
            ((0, 3), (10, 1)): 1, ((0, 0), (0, 11)): Binarion(1, 1, C),
        }), Fraction(1, 3)),
        "(1 + 1i)*q2^11 + q1^10*q2*exp(i*(3*q2))",
    ),
}


@pytest.mark.parametrize("build, text", POWER_TEXTS.values(), ids=POWER_TEXTS)
def test_text_writes_indices_and_exponents_of_several_digits(build, text):
    assert str(build()) == text


def _entries(*res):
    return [{"h": 0, "re": re} for re in res]


#: Documents that repeat a key, with the element that sums the repeats.
REPEATED_KEYS = {
    "h-degree": (PolySymbol, {"dof": 1, "sigma": 1, "terms": [
        {"q": [1], "p": [0], "coeff": _entries("1", "2")},
    ]}, PolySymbol.monomial((1,), (0,), 3, H)),
    "symbol term": (PolySymbol, {"dof": 1, "sigma": 1, "terms": [
        {"q": [1], "p": [0], "coeff": _entries("1")},
        {"q": [1], "p": [0], "coeff": _entries("2")},
    ]}, PolySymbol.monomial((1,), (0,), 3, H)),
    "character": (ExpPoly, {"dim": 1, "sigma": 1, "terms": [
        {"freq": ["0"], "exp": [0], "coeff": {"chars": [
            {"exp": "1/2", "re": "1"}, {"exp": "1/2", "re": "2"},
        ]}},
    ]}, ExpPoly.constant(CharSum.character(Fraction(1, 2), H, 3), 1, H)),
    "atom": (Ultradistribution, {"dim": 1, "sigma": 1, "atoms": [
        {"loc": ["1/2"], "order": [1], "weight": {"re": "1"}},
        {"loc": ["1/2"], "order": [1], "weight": {"re": "2"}},
    ]}, Ultradistribution.delta((Fraction(1, 2),), H, (1,), 3)),
    "Grassmann word": (GrassmannElement, {"n": 2, "sigma": 1, "terms": [
        {"gens": [1, 2], "re": "1"}, {"gens": [1, 2], "re": "2"},
    ]}, GrassmannElement.monomial((0, 1), 2, H, 3)),
}


@pytest.mark.parametrize("cls, data, expected", REPEATED_KEYS.values(), ids=REPEATED_KEYS)
def test_repeated_json_keys_add(cls, data, expected):
    assert cls.from_json_dict(data) == expected


def test_integral_values_and_order_entries_below_one_still_work():
    """What ``sparse.integer`` keeps: the refusals of what it would change
    are rows of ``test_refusals.REFUSALS``."""
    x, q = ExpPoly.coordinate(0, 1, H), PolySymbol.coordinate("q", 0, 1, H)
    delta = Ultradistribution.delta((0,), H)
    assert x.differentiate_multi((-1, 0, 0.0)) == x
    assert q.differentiate_multi("p", (0, -2)) == q
    assert delta.derivative_multi((-1, 0, 0.0)) == delta
    assert ExpPoly.coordinate(1.0, 2, H) == ExpPoly.coordinate(1, 2, H)
    assert HPoly({2.0: 1}, H) == HPoly.h_power(2, H)
    assert GrassmannElement(2, H, {2.0: 1}).terms() == [(2, Binarion(1, 0, H))]
    assert parse_symbol("q1*p1", H, 2.0).dof == 2
    assert parse_grassmann("t1*t2", H, 2.0).n == 2


# -- one product loop ---------------------------------------------------------------
#
# ``SparseAlgebra.__mul__``, ``Ultradistribution.tensor`` and
# ``Ultradistribution.scale`` all sum integer numerators in ``sparse.multiply``.
# The oracle below is the per-term loop that loop replaced: each pair of
# terms is multiplied with ``Binarion.__mul__`` under its class's key rule and
# the products are summed per key, with the zero sums dropped, by the oracle
# itself.  It reads the operands through their public views, so keys are
# compared as rationals, whatever denominator each element stores them over.


def _default_term_mul(k1, c1, k2, c2):
    return k1 + k2, c1 * c2


def _symbol_term_mul(k1, c1, k2, c2):
    (a1, b1, d1), (a2, b2, d2) = k1, k2
    return (tuple(map(add, a1, a2)), tuple(map(add, b1, b2)), d1 + d2), c1 * c2


def _reorder_sign(m1, m2) -> int:
    """``(-1)`` to the number of generator pairs ``i`` of ``m1`` and ``j`` of
    ``m2`` with ``i > j``, each one transposition of ``theta^m1 theta^m2``."""
    inversions = sum(
        1 for i in range(m1.bit_length()) if m1 >> i & 1 for j in range(i) if m2 >> j & 1
    )
    return -1 if inversions % 2 else 1


def _grassmann_term_mul(m1, c1, m2, c2):
    if m1 & m2:
        return None  # repeated generator: square is zero
    c = c1 * c2
    return m1 | m2, (-c if _reorder_sign(m1, m2) < 0 else c)


def _tensor_term_mul(k1, c1, k2, c2):
    (l1, o1, r1), (l2, o2, r2) = k1, k2
    return (l1 + l2, o1 + o2, r1 + r2), c1 * c2


def _scale_term_mul(k1, c1, s, c2):
    loc, order, r = k1
    return (loc, order, r + s), c1 * c2


def _by_terms(term_mul, a: dict, b: dict) -> dict:
    """The per-term product of two ``{key: Binarion}`` maps, summed per key
    with the zero sums dropped."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            term = term_mul(k1, c1, k2, c2)
            if term is not None:
                key, c = term
                out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if not c.is_zero()}


def _viewed_terms(x) -> dict:
    """``{key: Binarion}`` of ``x`` read from its public view, with the
    rational parts of keys as ``Fraction`` values."""
    if isinstance(x, (HPoly, CharSum)):
        return dict(x.items())
    if isinstance(x, GrassmannElement):
        return dict(x.terms())
    rows = x.atoms() if isinstance(x, Ultradistribution) else x.terms()
    return {(vector, orders, r): c for vector, orders, w in rows for r, c in w.items()}


TERM_MULS = {
    HPoly: _default_term_mul,
    CharSum: _default_term_mul,
    PolySymbol: _symbol_term_mul,
    ExpPoly: _symbol_term_mul,
    GrassmannElement: _grassmann_term_mul,
}


def _grassmann_wide(rng, sigma):
    """Six terms on five generators, so that most products reorder."""
    return GrassmannElement(5, sigma, {rng.randrange(32): _coeff(rng, sigma) for _ in range(6)})


@pytest.mark.parametrize(
    "make", [_hpoly, _charsum, _symbol, _mixed, _grassmann, _grassmann_wide]
)
def test_products_match_the_per_term_binarion_loop(make):
    rng = random.Random(29)
    for sigma in SIGMAS:
        light_cone = Binarion(1, 1, sigma)
        for _ in range(25):
            a, b = make(rng, sigma), make(rng, sigma)
            term_mul = TERM_MULS[type(a)]
            for x, y in ((a, b), (b, a), (a, a), (a, a + light_cone)):
                product = x * y
                assert _viewed_terms(product) == _by_terms(
                    term_mul, _viewed_terms(x), _viewed_terms(y)
                )
                _assert_clean(product)


@pytest.mark.parametrize("make", [_distribution, pytest.param(
    functools.partial(_mixed, cls=Ultradistribution), id="_distribution_mixed")])
def test_tensor_and_scale_match_the_per_term_binarion_loop(make):
    rng = random.Random(31)
    for sigma in SIGMAS:
        for _ in range(25):
            a, b = make(rng, sigma), make(rng, sigma)
            factor = _charsum(rng, sigma) + CharSum.character(
                Fraction(rng.randint(-2, 2), rng.choice((1, 3, 4))), sigma, Binarion(1, -1, sigma)
            )
            tensor, scaled = a.tensor(b), a.scale(factor)
            assert _viewed_terms(tensor) == _by_terms(
                _tensor_term_mul, _viewed_terms(a), _viewed_terms(b)
            )
            assert _viewed_terms(scaled) == _by_terms(
                _scale_term_mul, _viewed_terms(a), _viewed_terms(factor)
            )
            for x in (tensor, scaled):
                _assert_clean(x)


def test_the_oracle_sees_products_vanish_and_reorder():
    """The cases the loop must get right occur in the oracle's inputs: light-cone
    products that vanish in the split ring, and Grassmann reorderings of each sign."""
    x = Binarion(1, 1, H)
    assert (x * Binarion(1, -1, H)).is_zero()
    assert _grassmann_term_mul(0b10, x, 0b01, x)[1] == -(x * x)
    assert _grassmann_term_mul(0b01, x, 0b10, x)[1] == x * x
    assert _grassmann_term_mul(0b11, x, 0b01, x) is None
    assert _reorder_sign(0b110, 0b001) == 1 and _reorder_sign(0b100, 0b011) == 1
    assert _reorder_sign(0b10100, 0b01011) == -1


@pytest.mark.parametrize("make", [_hpoly, _charsum, _symbol, _mixed, _grassmann])
def test_a_scalar_of_the_other_sigma_does_not_combine(make):
    """A binarion of the other signature is refused on either side of ``*``,
    ``+`` and ``-``, as the per-term binarion product refused it."""
    rng = random.Random(37)
    for sigma, other in ((H, C), (C, H)):
        x = make(rng, sigma)
        for scalar in (Binarion(1, 1, other), Binarion(2, 0, other)):
            for combine in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
                for left, right in ((x, scalar), (scalar, x)):
                    with pytest.raises(SignatureMismatchError):
                        combine(left, right)


#: Each algebra class, a maker of its elements, and its constant built by the
#: public constructor at the size of an element ``x``.
PUBLIC_CONSTANTS = {
    HPoly: (_hpoly, lambda x, c: HPoly({0: c}, x.sigma)),
    CharSum: (_charsum, lambda x, c: CharSum({0: c}, x.sigma)),
    PolySymbol: (_symbol, lambda x, c: PolySymbol.constant(c, x.dof, x.sigma)),
    ExpPoly: (_mixed, lambda x, c: ExpPoly.constant(c, x.dim, x.sigma)),
    GrassmannElement: (_grassmann, lambda x, c: GrassmannElement.scalar(c, x.n, x.sigma)),
}

_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _same(got, expected):
    assert got == expected and (got._terms, got._cden) == (expected._terms, expected._cden)
    assert {k: type(k) for k in got._terms} == {k: type(k) for k in expected._terms}
    _assert_clean(got)


@pytest.mark.parametrize("cls", PUBLIC_CONSTANTS)
@given(seed=st.integers(0, 2**16), sigma=st.sampled_from(SIGMAS),
       kind=st.sampled_from(("int", "Fraction", "Binarion", "other sigma")),
       re=_small, im=_small, n=st.integers(0, 3))
def test_a_scalar_operand_acts_as_the_public_constant(cls, seed, sigma, kind, re, im, n):
    """``x + c``, ``x * c``, ``c * x``, ``x == c`` and ``x ** n`` give what the
    constant from the public constructor gives, and a binarion of the other
    signature raises what that constructor raises."""
    make, constant = PUBLIC_CONSTANTS[cls]
    x = make(random.Random(seed), sigma)
    c = {"int": lambda: re.numerator, "Fraction": lambda: re,
         "Binarion": lambda: Binarion(re, im, sigma),
         "other sigma": lambda: Binarion(re, im, C if sigma is H else H)}[kind]()
    if kind == "other sigma":
        with pytest.raises(SignatureMismatchError) as expected:
            constant(x, c)
        for call in (lambda: x + c, lambda: c + x, lambda: x * c, lambda: c * x,
                     lambda: x == c):
            with pytest.raises(SignatureMismatchError) as err:
                call()
            assert str(err.value) == str(expected.value)
        return
    k = constant(x, c)
    _same(c + k - k, k)
    for got, expected in ((x + c, x + k), (c + x, x + k), (x - c, x - k), (c - x, k - x),
                          (x * c, x * k), (c * x, k * x)):
        _same(got, expected)
    assert (x == c) is (x == k) and (k == c) is True
    power = constant(x, 1)
    for _ in range(n):
        power = power * x
    _same(x**n, power)


def test_a_distribution_takes_no_scalar_operand():
    delta = _distribution(random.Random(43), H)
    for c in (1, Fraction(1, 2), Binarion(1, 1, H)):
        for call in (lambda: delta + c, lambda: c * delta):
            with pytest.raises(TypeError):
                call()
        assert delta != c


def test_a_distribution_refuses_a_factor_of_the_other_sigma():
    rng = random.Random(41)
    for sigma, other in ((H, C), (C, H)):
        dist = _distribution(rng, sigma)
        for factor in (Binarion(1, 0, other), CharSum.character(Fraction(1, 2), other)):
            with pytest.raises(SignatureMismatchError):
                dist.scale(factor)


#: The six sparse classes and every base between them and ``SparseMap``.
SPARSE_BASES = {base for cls in SPARSE_CLASSES for base in cls.__mro__
                if issubclass(base, SparseMap)}


@pytest.mark.parametrize("name, owner", [
    ("__mul__", SparseAlgebra), ("__rmul__", SparseAlgebra),
    ("_merged", SparseMap), ("__eq__", SparseMap),
])
def test_one_class_defines_each_product_and_comparison_method(name, owner):
    assert {base for base in SPARSE_BASES if name in vars(base)} == {owner}


def test_the_product_hook_gives_only_keys_and_signs():
    assert not [cls for cls in SPARSE_BASES if "_term_mul" in vars(cls)]
    assert GrassmannElement._key_mul(0b10, 0b01) == (0b11, -1)
    assert GrassmannElement._key_mul(0b11, 0b01) is None
    assert HPoly._key_mul(1, 2) == (3, 1)

