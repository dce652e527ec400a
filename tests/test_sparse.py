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
independent computation.  The public constructors keep rejecting malformed
input with the same error types.

The four classes with a size share one JSON codec in ``SizedMap``; every
element, and each wrapper around one, reads back as itself.
"""

import json
import math
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypermoyal import (
    Binarion,
    CharSum,
    DimensionMismatchError,
    ExpPoly,
    GrassmannElement,
    HPoly,
    HypermoyalError,
    Operator,
    PolySymbol,
    Sigma,
    SignatureMismatchError,
    Ultradistribution,
    ValidationError,
    WaveFunction,
    inverse_fourier_symbol,
    moyal_bracket,
    paley_wiener_growth,
    parse_grassmann,
    parse_symbol,
    scaled_bracket,
    star,
    star_distributional,
    supercommutator,
)
from hypermoyal import sparse
from hypermoyal.sparse import SparseAlgebra, SparseMap, add_parts, from_parts, stored, summed

H = Sigma.HYPERBOLIC
C = Sigma.COMPLEX
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


def _exppoly_mixed(rng, sigma):
    """Plane waves on two variables whose frequencies and characters have
    different denominators, so that sums and products change ``_den``."""
    def rational():
        return Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3, 4, 6)))

    return ExpPoly(2, sigma, {
        ((rational(), rational()), _exps(rng, 2)):
            CharSum({rational(): _coeff(rng, sigma) for _ in range(2)}, sigma)
        for _ in range(3)
    })


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
    if x._VIEW is not None:
        for _, coeff in x._grouped():
            assert type(coeff) is x._VIEW and not coeff.is_zero()
            _assert_clean(coeff)
    if isinstance(x, (ExpPoly, Ultradistribution)):
        # vector and r numerators over the least common denominator
        numerators = [n for vector, _, r in x._terms for n in (*vector, r)]
        assert all(type(n) is int for n in numerators)
        assert type(x._den) is int and x._den >= 1
        assert math.gcd(x._den, *numerators) == 1


def _unreduced_make(cls, size, sigma, terms, cden=1):
    """``SparseMap._make`` without its gcd pass: zero pairs dropped, the
    denominator kept as given."""
    out = object.__new__(cls)
    out._size, out.sigma, out._cden = size, sigma, cden
    out._terms = {key: (re, im) for key, (re, im) in terms.items() if re or im}
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
    "make", [_hpoly, _charsum, _symbol, _exppoly, _exppoly_2, _exppoly_mixed, _grassmann]
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
            phi = WaveFunction(_exppoly_mixed(rng, sigma), h)
            symbol = _symbol(rng, sigma)
            plane = ExpPoly(4, sigma, {
                (freq + freq, exps + exps): c for freq, exps, c in _exppoly_mixed(rng, sigma).terms()
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


def test_public_constructors_still_validate():
    # wrong key length
    with pytest.raises(DimensionMismatchError):
        PolySymbol(2, H, {((1,), (0, 0)): 1})
    with pytest.raises(DimensionMismatchError):
        ExpPoly(2, H, {((0,), (0, 0)): 1})
    with pytest.raises(DimensionMismatchError):
        Ultradistribution(2, H, [((0,), (0, 0), 1)])
    # negative exponent, order or h-degree
    with pytest.raises(ValueError):
        PolySymbol(1, H, {((0,), (-1,)): 1})
    with pytest.raises(ValueError):
        ExpPoly(1, H, {((0,), (-1,)): 1})
    with pytest.raises(ValueError):
        Ultradistribution(1, H, [((0,), (-1,), 1)])
    with pytest.raises(ValueError):
        HPoly({-1: 1}, H)
    # a coefficient of the other signature
    other = Binarion(1, 1, C)
    for build in (
        lambda c: HPoly({0: c}, H),
        lambda c: CharSum({0: c}, H),
        lambda c: PolySymbol(1, H, {((0,), (0,)): c}),
        lambda c: ExpPoly(1, H, {((0,), (0,)): c}),
        lambda c: Ultradistribution(1, H, [((0,), (0,), c)]),
        lambda c: GrassmannElement(1, H, {0: c}),
    ):
        with pytest.raises(SignatureMismatchError):
            build(other)
    # a Grassmann mask beyond n
    with pytest.raises(DimensionMismatchError):
        GrassmannElement(2, H, {0b100: 1})


def test_add_parts_sums_both_parts_of_colliding_keys():
    acc = {}
    for key, re, im in (("a", 1, 2), ("b", 5, 0), ("a", 3, -7), ("a", 0, 1)):
        add_parts(acc, key, re, im)
    assert acc == {"a": [4, -4], "b": [5, 0]}


def test_from_parts_drops_zero_sums_and_divides_integers_by_den():
    acc = {}
    for key, re, im in (
        ("zero", 2, -3), ("zero", -2, 3), ("real", 6, 0), ("unit", 0, -4), ("both", 3, 9),
    ):
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
        (1, Fraction(1, 3), Fraction(1, 3)), (1, Fraction(-1, 3), Fraction(-1, 3)),
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


def _assert_numerators_invert_from_parts(terms, sigma):
    """``stored`` of the pairs of ``terms`` holds ints over the least common
    denominator, in the map's order, and ``from_parts`` builds ``terms`` back
    from them."""
    stored_terms, den = stored(terms.items())
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
        for element in (_symbol(rng, sigma), _exppoly_mixed(rng, sigma),
                        _distribution(rng, sigma), _grassmann(rng, sigma)):
            _assert_numerators_invert_from_parts(_viewed_terms(element), sigma)
            # and the stored form is the numerators of the flat binarion view
            assert stored(element._binarions().items()) == (element._terms, element._cden)


def test_numerators_take_the_least_common_denominator_and_one_when_empty():
    for sigma in SIGMAS:
        assert stored([("a", Binarion(Fraction(1, 2), Fraction(1, 3), sigma))]) == (
            {"a": (3, 2)}, 6)
        terms, den = stored([(0, Binarion(Fraction(1, 2), 0, sigma)),
                             (1, Binarion(0, Fraction(-1, 3), sigma))])
        assert (den, list(terms.items())) == (6, [(0, (3, 0)), (1, (0, -2))])
        assert stored([(0, Binarion(3, -4, sigma))]) == ({0: (3, -4)}, 1)
        # repeated keys add, in the order keys first appear; a cancelling sum
        # is dropped, and the denominator is that of the sums, not the inputs
        half = Binarion(Fraction(1, 2), Fraction(1, 3), sigma)
        fifth = Binarion(0, Fraction(1, 5), sigma)
        terms, den = stored([("a", half), ("b", Binarion(1, 1, sigma)), ("a", -half),
                             ("c", Binarion(Fraction(1, 4), 0, sigma)),
                             ("b", Binarion(0, Fraction(1, 6), sigma))])
        assert (den, list(terms.items())) == (12, [("b", (12, 14)), ("c", (3, 0))])
        assert stored([(0, fifth), (1, half), (0, -fifth)]) == ({1: (3, 2)}, 6)
        assert stored([(1, fifth), (2, half), (1, -fifth), (2, -half)]) == ({}, 1)
    assert stored([]) == ({}, 1)


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


def _product_by_terms(a, b):
    """``a * b`` (or ``a.tensor(b)``) rebuilt from the public views through
    the public constructor."""
    if isinstance(a, ExpPoly):
        return ExpPoly(a.dim, a.sigma, summed(
            ((tuple(map(add, f1, f2)), tuple(map(add, e1, e2))), w1 * w2)
            for f1, e1, w1 in a.terms() for f2, e2, w2 in b.terms()
        ))
    return Ultradistribution(a.dim + b.dim, a.sigma, [
        (l1 + l2, o1 + o2, w1 * w2) for l1, o1, w1 in a.atoms() for l2, o2, w2 in b.atoms()
    ])


@given(_keyed_pairs())
def test_keys_over_one_denominator_property(pair):
    a, b = pair
    cls = type(a)
    assert cls.from_json(a.to_json()) == a
    assert (a + b) - b == a
    assert (a - a).is_zero() and (a - a)._den == 1
    product = a * b if cls is ExpPoly else a.tensor(b)
    assert product == _product_by_terms(a, b)
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


NON_INTEGER_SIZES = {
    "dof 1.5": lambda: PolySymbol.zero(1.5, H),
    "dof True": lambda: PolySymbol.zero(True, H),
    "dim 2.7": lambda: ExpPoly.zero(2.7, H),
    "atoms dim 1.5": lambda: Ultradistribution.zero(1.5, H),
    "n 3.9": lambda: GrassmannElement.zero(3.9, H),
    "h-degree True": lambda: HPoly({True: 1}, H),
    "h-degree '1'": lambda: HPoly({"1": 1}, H),
    "h-degree 1.5": lambda: HPoly({1.5: 1}, H),
}


@pytest.mark.parametrize("build", NON_INTEGER_SIZES.values(), ids=NON_INTEGER_SIZES)
def test_sizes_and_h_degrees_must_be_integers(build):
    with pytest.raises(HypermoyalError, match="is not an integer"):
        build()


#: Integers that ``int`` itself refuses, with a ``ValueError``, ``TypeError``
#: or ``OverflowError`` of its own.
NOT_NUMBERS = {
    "h-degree 'x'": lambda: HPoly({"x": 1}, H),
    "n 'two'": lambda: parse_grassmann("t1", H, "two"),
    "mask None": lambda: GrassmannElement(2, H, {None: 1}),
    "h-degree inf": lambda: HPoly({float("inf"): 1}, H),
    "dof nan": lambda: parse_symbol("q1", H, float("nan")),
}


@pytest.mark.parametrize("build", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_what_int_refuses_is_a_validation_error(build):
    with pytest.raises(HypermoyalError, match="is not an integer"):
        build()


_X = ExpPoly.coordinate(0, 1, H)
_Q = PolySymbol.coordinate("q", 0, 1, H)
_DELTA = Ultradistribution.delta((0,), H)

#: Index, order and ``n_max`` arguments are read by ``sparse.integer``: a
#: fraction is refused, not truncated, stored or passed on to ``range``.
INDEX_ARGUMENTS = {
    "coordinate 0.5": (lambda: ExpPoly.coordinate(0.5, 2, H), ValidationError,
                       "0.5 is not an integer"),
    "symbol coordinate 0.5": (lambda: PolySymbol.coordinate("q", 0.5, 2, H), ValidationError,
                              "0.5 is not an integer"),
    "generator 1.5": (lambda: GrassmannElement.generator(1.5, 3, H), ValidationError,
                      "1.5 is not an integer"),
    "differentiate 0.5": (lambda: _X.differentiate(0.5), ValidationError,
                          "0.5 is not an integer"),
    "symbol differentiate 0.5": (lambda: _Q.differentiate("q", 0.5), ValidationError,
                                 "0.5 is not an integer"),
    "derivative 0.5": (lambda: _DELTA.derivative(0.5), ValidationError, "0.5 is not an integer"),
    "order (0.5,)": (lambda: _X.differentiate_multi((0.5,)), ValidationError,
                     "0.5 is not an integer"),
    "symbol order (0.5,)": (lambda: _Q.differentiate_multi("q", (0.5,)), ValidationError,
                            "0.5 is not an integer"),
    "atom order (0.5,)": (lambda: _DELTA.derivative_multi((0.5,)), ValidationError,
                          "0.5 is not an integer"),
    "n_max 2.5": (lambda: paley_wiener_growth(_X, 2.5), ValidationError,
                  "2.5 is not an integer"),
    "variable x": (lambda: _Q.differentiate_multi("x", (0,)), ValidationError,
                   "variable must be 'q' or 'p'"),
    "coordinate 2": (lambda: ExpPoly.coordinate(2, 2, H), IndexError,
                     "index 2 out of range for dim 2"),
    "symbol coordinate -1": (lambda: PolySymbol.coordinate("p", -1, 2, H), IndexError,
                             "coordinate index -1 out of range for dof 2"),
    "generator 3": (lambda: GrassmannElement.generator(3, 3, H), IndexError,
                    "generator index 3 out of range for n=3"),
    "derivative 1": (lambda: _DELTA.derivative(1), IndexError, "axis 1 out of range for dim 1"),
    "order (0, 1)": (lambda: _X.differentiate_multi((0, 1)), IndexError,
                     "index 1 out of range for dim 1"),
    "atom order (0, 1)": (lambda: _DELTA.derivative_multi((0, 1)), IndexError,
                          "axis 1 out of range for dim 1"),
    "symbol order (0, 1)": (lambda: _Q.differentiate_multi("p", (0, 1)), IndexError,
                            "index 1 out of range for dof 1"),
}


@pytest.mark.parametrize("call, error, message", INDEX_ARGUMENTS.values(), ids=INDEX_ARGUMENTS)
def test_index_and_order_arguments_are_read_as_integers(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_integral_values_and_order_entries_below_one_still_work():
    assert _X.differentiate_multi((-1, 0, 0.0)) == _X
    assert _Q.differentiate_multi("p", (0, -2)) == _Q
    assert _DELTA.derivative_multi((-1, 0, 0.0)) == _DELTA
    assert ExpPoly.coordinate(1.0, 2, H) == ExpPoly.coordinate(1, 2, H)


def test_an_h_degree_is_read_before_its_sign_is_checked():
    with pytest.raises(ValidationError, match="h-degree must be nonnegative"):
        HPoly({-1: 1}, H)
    assert HPoly({2.0: 1}, H) == HPoly.h_power(2, H)


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


def _distribution_mixed(rng, sigma):
    """Atoms on two variables whose locations and characters have different
    denominators."""
    def rational():
        return Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3, 4, 6)))

    return Ultradistribution(2, sigma, [
        ((rational(), rational()), _exps(rng, 2),
         CharSum({rational(): _coeff(rng, sigma) for _ in range(2)}, sigma))
        for _ in range(3)
    ])


def _grassmann_wide(rng, sigma):
    """Six terms on five generators, so that most products reorder."""
    return GrassmannElement(5, sigma, {rng.randrange(32): _coeff(rng, sigma) for _ in range(6)})


@pytest.mark.parametrize(
    "make", [_hpoly, _charsum, _symbol, _exppoly_mixed, _grassmann, _grassmann_wide]
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


@pytest.mark.parametrize("make", [_distribution, _distribution_mixed])
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


@pytest.mark.parametrize("make", [_hpoly, _charsum, _symbol, _exppoly_mixed, _grassmann])
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
