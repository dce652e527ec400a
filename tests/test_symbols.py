"""Tests for the phase-space symbol algebra and its brackets."""

import math
import random
from fractions import Fraction
from itertools import islice, product as iter_product
from operator import add, sub
from types import SimpleNamespace

import pytest
import sympy as sp
from test_refusals import refusal_tests
from test_sparse import _assert_clean

from hypermoyal import (
    Binarion,
    DegreeCapError,
    HPoly,
    PhasePoint,
    PolySymbol,
    Sigma,
    moyal_bracket,
    poisson_bracket,
    scaled_bracket,
    star,
)
from hypermoyal import symbols
from hypermoyal.selftest import _random_symbol
from hypermoyal.sparse import summed
from hypermoyal.symbols import DEFAULT_DEGREE_CAP

H = Sigma.HYPERBOLIC
C = Sigma.COMPLEX
globals().update(refusal_tests(__name__))  # the tests named in ``test_refusals.HOMES``
SIGMAS = (H, C)


def qp(sigma, dof=1):
    return (
        PolySymbol.coordinate("q", 0, dof, sigma),
        PolySymbol.coordinate("p", 0, dof, sigma),
    )


def minus_sigma_uh(sigma):
    """The constant symbol -sigma*u*h (the q,p star commutator)."""
    return PolySymbol.constant(
        HPoly.h_power(1, sigma, Binarion(0, -sigma.value, sigma)), 1, sigma
    )


def _series_star(a: PolySymbol, b: PolySymbol, degree_cap: int = None) -> PolySymbol:
    """The defining kappa series of ``star``, kept as its oracle.

    Expands ``sum_kappa (sigma*u*h)^|kappa|/kappa! d_p^kappa(a) d_q^kappa(b)``
    through derivative symbols and nested coefficient arithmetic, independent
    of the pairwise integer kernel that ``star`` uses.
    """
    a._check(b)
    cap = DEFAULT_DEGREE_CAP if degree_cap is None else degree_cap
    if a.total_degree() + b.total_degree() > cap:
        raise DegreeCapError(
            f"star product degree {a.total_degree() + b.total_degree()} "
            f"exceeds cap {cap}"
        )
    sigma = a.sigma
    sigma_u = Binarion(0, sigma.value, sigma)  # sigma * u
    result = PolySymbol.zero(a.dof, sigma)
    bounds = a.p_degrees()
    for kappa in iter_product(*(range(m + 1) for m in bounds)):
        da = a.differentiate_multi("p", kappa)
        if da.is_zero():
            continue
        db = b.differentiate_multi("q", kappa)
        if db.is_zero():
            continue
        order = sum(kappa)
        kappa_factorial = 1
        for n in kappa:
            kappa_factorial *= math.factorial(n)
        scalar = (sigma_u**order) / Fraction(kappa_factorial)
        factor = HPoly({order: scalar}, sigma)
        result = result + (da * db).scale_hpoly(factor)
    return result


def _h_symbol(rng, k, sigma, max_degree):
    """A random symbol with fractional, unit-bearing coefficients of h-degree 0..2."""
    terms = {}
    for alpha, beta, coeff in _random_symbol(rng, k, sigma, max_degree, 4).terms():
        h_factor = HPoly(
            {
                rng.randint(0, 2): 1,
                rng.randint(0, 2): Binarion(Fraction(rng.randint(-3, 3), 2), 1, sigma),
            },
            sigma,
        )
        terms[(alpha, beta)] = coeff * h_factor
    return PolySymbol(k, sigma, terms)


def _oracle_pairs(seed, count):
    """Seeded operand pairs for k = 1..3 in both rings, with cancelling cases.

    Besides random pairs, each round adds a zero operand and, in the
    hyperbolic ring, a light-cone pair ``(1+j)a, (1-j)b`` whose every
    coefficient product is zero.
    """
    rng = random.Random(seed)
    for i in range(count):
        k = 1 + i % 3
        for sigma in SIGMAS:
            a = _h_symbol(rng, k, sigma, 4)
            b = _h_symbol(rng, k, sigma, 4)
            yield a, b
            yield a, PolySymbol.zero(k, sigma)
            if sigma is H:
                plus = HPoly.from_scalar(Binarion(1, 1, H))
                minus = HPoly.from_scalar(Binarion(1, -1, H))
                yield a.scale_hpoly(plus), b.scale_hpoly(minus)


def _assert_no_zero_coefficients(symbol):
    for _, _, coeff in symbol.terms():
        assert not coeff.is_zero()
        assert all(not v.is_zero() for _, v in coeff.items())


# -- star product -----------------------------------------------------------


def test_star_matches_series_oracle():
    for a, b in _oracle_pairs(73, 60):
        for x, y in ((a, b), (b, a)):
            got = star(x, y)
            assert got == _series_star(x, y)
            _assert_no_zero_coefficients(got)


def _integer_symbol(rng, k, sigma):
    """Four terms with integer real and unit parts, at h-degrees 0..1."""
    terms = {}
    for _ in range(4):
        alpha, beta = (tuple(rng.randint(0, 1) for _ in range(k)) for _ in range(2))
        value = Binarion(rng.randint(-5, 5), rng.randint(-5, 5), sigma)
        terms[(alpha, beta)] = HPoly({rng.randint(0, 1): value}, sigma)
    return PolySymbol(k, sigma, terms)


def test_star_and_brackets_build_no_fraction_on_integer_operands(monkeypatch):
    """``star``, ``scaled_bracket`` and ``*`` on integer coefficients work on
    the stored integers: ``Fraction.__new__`` is not called once."""
    rng = random.Random(53)
    pairs = [(_integer_symbol(rng, k, sigma), _integer_symbol(rng, k, sigma))
             for k in (1, 2, 3) for sigma in SIGMAS]
    expected = [(star(a, b), scaled_bracket(a, b), a * b) for a, b in pairs]
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert Fraction(1, 2) == Fraction(2, 4) and len(made) == 2  # the count sees a Fraction
    assert str(pairs[0][0]) and len(made) > 2  # and so does the text
    made.clear()
    got = [(star(a, b), scaled_bracket(a, b), a * b) for a, b in pairs]
    assert made == []
    monkeypatch.undo()
    assert got == expected
    assert all(not product.is_zero() for product, _, _ in got)


def test_light_cone_star_is_zero():
    a = PolySymbol.monomial((1,), (2,), Binarion(1, 1, H), H)
    b = PolySymbol.monomial((3,), (0,), Binarion(2, -2, H), H)
    assert star(a, b).is_zero() and _series_star(a, b).is_zero()


@pytest.mark.parametrize("sigma", SIGMAS)
def test_star_q_p_is_pointwise(sigma):
    q, p = qp(sigma)
    assert star(q, p) == q * p


@pytest.mark.parametrize("sigma", SIGMAS)
def test_star_p_q_picks_up_h_term(sigma):
    q, p = qp(sigma)
    sigma_uh = PolySymbol.constant(
        HPoly.h_power(1, sigma, Binarion(0, sigma.value, sigma)), 1, sigma
    )
    assert star(p, q) == p * q + sigma_uh


@pytest.mark.parametrize("sigma", SIGMAS)
def test_star_unit(sigma):
    rng = random.Random(5)
    one = PolySymbol.one(2, sigma)
    for _ in range(20):
        b = _random_symbol(rng, 2, sigma, 4)
        assert star(one, b) == b
        assert star(b, one) == b


def test_star_at_h_zero_is_pointwise_product():
    rng = random.Random(11)
    for sigma in SIGMAS:
        for _ in range(30):
            a = _random_symbol(rng, 1, sigma, 4)
            b = _random_symbol(rng, 1, sigma, 4)
            assert star(a, b).h_constant_part() == a * b


def test_star_degree_bound():
    rng = random.Random(13)
    for sigma in SIGMAS:
        for _ in range(30):
            a = _random_symbol(rng, 2, sigma, 4)
            b = _random_symbol(rng, 2, sigma, 4)
            assert star(a, b).total_degree() <= a.total_degree() + b.total_degree()


def _bilinear_symbol(rng, sigma):
    """This test's own draw (k = 1, degree to 3, numerators to +-6, zeros kept):
    under selftest's ``_random_symbol`` it passes with a packed field too short."""
    pairs = []
    for _ in range(rng.randint(1, 3)):
        exps = [0, 0]
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(2)] += 1
        re, im = (Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2))
        pairs.append((((exps[0],), (exps[1],)), HPoly.from_scalar(Binarion(re, im, sigma))))
    return PolySymbol(1, sigma, summed(pairs))


def test_star_bilinear():
    rng = random.Random(17)
    for sigma in SIGMAS:
        a, b, c = (_bilinear_symbol(rng, sigma) for _ in range(3))
        assert star(a + b, c) == star(a, c) + star(b, c)
        assert star(c, a + b) == star(c, a) + star(c, b)


@pytest.mark.parametrize("seed, count, dofs, degree, h_in_b", [
    (19, 40, (1, 2), 4, False),
    (23, 10, (1,), 3, True),  # b times h, so that coefficients carry h
], ids=["seeded", "h_coefficients"])
def test_star_associative(seed, count, dofs, degree, h_in_b):
    rng = random.Random(seed)
    for sigma in SIGMAS:
        for i in range(count):
            k = dofs[i % len(dofs)]
            a, b, c = (_random_symbol(rng, k, sigma, degree) for _ in range(3))
            if h_in_b:
                b = b.scale_hpoly(HPoly.h_power(1, sigma))
            assert star(star(a, b), c) == star(a, star(b, c))


def test_star_degree_cap():
    """Past the default cap of 16 the product is refused (a row of
    ``test_refusals.REFUSALS``); a higher cap lets it through."""
    q, _ = qp(H)
    assert star(q**9, q**8, degree_cap=20) == q**17


# -- the tuple-key series kernel, kept as the oracle of the packed one ----------
#
# ``_tuple_flatten``, ``_tuple_structure_constants`` and ``_tuple_accumulate``
# are verbatim copies of the series kernel as it was before its monomials
# became packed ints: every kappa term builds its ``(alpha, beta, hdeg)``
# key from exponent tuples.  The packed kernel must equal them exactly on the
# packing cases, from cold, warm and evicting memos (``tests/test_memos.py``).


def _tuple_flatten(symbol: PolySymbol):
    """Integer form of ``symbol`` over one common denominator.

    Returns ``(den, terms)`` where ``terms`` lists
    ``(alpha, beta, hdeg, re_num, im_num)`` and each coefficient equals
    ``(re_num + u*im_num) / den``.
    """
    den = 1
    for v in symbol._terms.values():
        den = math.lcm(den, v.re.denominator, v.im.denominator)
    terms = [
        (alpha, beta, d, v.re.numerator * (den // v.re.denominator),
         v.im.numerator * (den // v.im.denominator))
        for (alpha, beta, d), v in symbol._terms.items()
    ]
    return den, terms


def _tuple_structure_constants(beta1, alpha2, s: int, sign: int, start: int):
    """The kappa terms of one monomial pair ``p^beta1 ⋆ q^alpha2``.

    Lists ``(kappa, |kappa|, c)`` for ``kappa <= min(beta1, alpha2)``
    componentwise, where ``c = sign * s^(|kappa| + |kappa|//2) *
    prod C(beta1_i, kappa_i) * alpha2_i!/(alpha2_i - kappa_i)!`` is the
    integer part of ``(sigma*u)^|kappa| / kappa! * d_p^kappa(p^beta1) *
    d_q^kappa(q^alpha2)``; the remaining ``u^(|kappa| % 2)`` is applied by
    the caller.  ``start=1`` drops ``kappa = 0``, which comes first.
    """
    out = []
    ranges = (range(min(b, a) + 1) for b, a in zip(beta1, alpha2))
    for kappa in islice(iter_product(*ranges), start, None):
        n = sum(kappa)
        c = sign if s > 0 or (n + n // 2) % 2 == 0 else -sign
        for b, a, k in zip(beta1, alpha2, kappa):
            c *= math.comb(b, k) * math.perm(a, k)
        out.append((kappa, n, c))
    return out


def _tuple_accumulate(acc: dict, left, right, s: int, sign: int, start: int):
    """Add ``sign * (left ⋆ right)`` in integer form into ``acc``.

    ``left`` and ``right`` are :func:`_flatten` term lists; ``acc`` maps
    ``(alpha, beta, hdeg)`` to ``[re_num, im_num]`` over the product of
    their denominators.  The structure constants are cached for this call
    only, keyed by ``(beta1, alpha2)``.
    """
    table = {}
    for alpha1, beta1, d1, r1, i1 in left:
        for alpha2, beta2, d2, r2, i2 in right:
            kappas = table.get((beta1, alpha2))
            if kappas is None:
                kappas = table[(beta1, alpha2)] = _tuple_structure_constants(
                    beta1, alpha2, s, sign, start
                )
            if not kappas:
                continue
            alpha = tuple(map(add, alpha1, alpha2))
            beta = tuple(map(add, beta1, beta2))
            d = d1 + d2
            re = r1 * r2 + s * i1 * i2
            im = r1 * i2 + i1 * r2
            for kappa, n, c in kappas:
                key = (tuple(map(sub, alpha, kappa)), tuple(map(sub, beta, kappa)), d + n)
                if n & 1:  # times u: re + u*im -> s*im + u*re
                    x, y = c * s * im, c * re
                else:
                    x, y = c * re, c * im
                # sparse.add_parts inlined: the only loop run once per kappa
                # term, and a bare get/insert loop is ~25% slower as a call
                entry = acc.get(key)
                if entry is None:
                    acc[key] = [x, y]
                else:
                    entry[0] += x
                    entry[1] += y


def _tuple_symbol(acc, den, like):
    """The ``{(alpha, beta, hdeg): [re, im]}`` sums over ``den`` as a symbol,
    built through the public constructor."""
    sigma = like.sigma
    terms = {}
    for (alpha, beta, d), (re, im) in acc.items():
        part = HPoly({d: Binarion(Fraction(re, den), Fraction(im, den), sigma)}, sigma)
        terms[(alpha, beta)] = terms[(alpha, beta)] + part if (alpha, beta) in terms else part
    return PolySymbol(like.dof, sigma, terms)


def _binarion_form(symbol):
    """``symbol`` with its flat ``{(alpha, beta, hdeg): Binarion}`` terms, read
    from the public view, as ``_terms``: the form that ``_tuple_flatten`` read
    when symbols stored binarions."""
    terms = {(alpha, beta, d): v for alpha, beta, coeff in symbol.terms() for d, v in coeff.items()}
    return SimpleNamespace(_terms=terms)


def _tuple_star(a, b):
    (den_a, terms_a), (den_b, terms_b) = (_tuple_flatten(_binarion_form(a)),
                                          _tuple_flatten(_binarion_form(b)))
    acc = {}
    _tuple_accumulate(acc, terms_a, terms_b, a.sigma.value, 1, 0)
    return _tuple_symbol(acc, den_a * den_b, a)


def _tuple_brackets(a, b):
    """``moyal_bracket`` and ``scaled_bracket`` of ``a, b`` through the tuple-key kernel."""
    (den_a, terms_a), (den_b, terms_b) = (_tuple_flatten(_binarion_form(a)),
                                          _tuple_flatten(_binarion_form(b)))
    s = a.sigma.value
    acc = {}
    _tuple_accumulate(acc, terms_a, terms_b, s, 1, 1)
    _tuple_accumulate(acc, terms_b, terms_a, s, -1, 1)
    scaled = {(alpha, beta, d - 1): (s * im, re) for (alpha, beta, d), (re, im) in acc.items()}
    return _tuple_symbol(acc, den_a * den_b, a), _tuple_symbol(scaled, den_a * den_b, a)


def _axis(k, i, e):
    return tuple(e if j == i else 0 for j in range(k))


def _full_field_pairs():
    """Per k and ring, ``(a, b, top)`` whose star product has a field of
    exactly ``2**w - 1``: ``q1^top`` from ``q1^n * q1^(top - n)``, where
    ``top`` is the summed total degree.  The other terms overlap in p and q,
    so kappa terms and ``h``-degrees appear beside it."""
    for k in (1, 2, 3):
        for sigma in SIGMAS:
            for top in (3, 7, 15):
                n = top // 2
                none = _axis(k, 0, 0)
                a = PolySymbol.monomial(_axis(k, 0, n), none, 1, sigma) + PolySymbol.monomial(
                    _axis(k, k - 1, 1), _axis(k, 0, n - 1), Binarion(1, -2, sigma), sigma, 1
                )
                b = PolySymbol.monomial(_axis(k, 0, top - n), none, 1, sigma) + PolySymbol.monomial(
                    _axis(k, 0, 1), _axis(k, k - 1, top - n - 1), Fraction(-1, 3), sigma
                )
                yield a, b, top


def _deep_h_pairs():
    """Per k and ring, ``(a, b)`` whose products have an ``h``-degree of at
    least ``2**w``: the ``h`` field above both halves of a packed key is
    wider than a field, ``w = 3`` bits, while overlapping p and q exponents
    give kappa terms beside it."""
    for k in (1, 3):
        for sigma in SIGMAS:
            a = PolySymbol.monomial(
                _axis(k, 0, 1), _axis(k, k - 1, 2), Binarion(2, -1, sigma), sigma, 6
            ) + PolySymbol.monomial(_axis(k, 0, 0), _axis(k, 0, 1), Fraction(1, 3), sigma)
            b = PolySymbol.monomial(
                _axis(k, k - 1, 2), _axis(k, 0, 1), Binarion(1, Fraction(1, 2), sigma), sigma, 5
            ) + PolySymbol.monomial(_axis(k, 0, 1), _axis(k, 0, 0), -1, sigma, 2)
            yield a, b


def _packing_cases():
    """``(a, b, degree_cap)``: random pairs for k = 1..3 in both rings with
    h- and unit-bearing coefficients over mixed denominators, zero and
    light-cone operands (see :func:`_oracle_pairs`), constants, products
    at a raised cap whose fields need 6 bits, full-field products, pairs
    for k = 4 and k = 8, and products whose ``h``-degree outgrows a field."""
    rng = random.Random(97)
    for a, b in _oracle_pairs(97, 24):
        yield a, b, None
        sigma = a.sigma
        constant = HPoly({0: Binarion(Fraction(2, 3), -1, sigma),
                          2: Binarion(0, Fraction(1, 5), sigma)}, sigma)
        yield a, PolySymbol.constant(constant, a.dof, sigma), None
    for k in (1, 2):
        for sigma in SIGMAS:
            a = _h_symbol(rng, k, sigma, 6) + PolySymbol.monomial(
                _axis(k, 0, 9), _axis(k, k - 1, 11), Binarion(Fraction(1, 2), 3, sigma), sigma, 1
            )
            b = _h_symbol(rng, k, sigma, 6) + PolySymbol.monomial(
                _axis(k, k - 1, 12), _axis(k, 0, 8), Binarion(-1, Fraction(1, 3), sigma), sigma
            )
            yield a, b, 40
    for a, b, top in _full_field_pairs():
        yield a, b, top
    for k in (4, 8):
        for sigma in SIGMAS:
            a = _h_symbol(rng, k, sigma, 4) + PolySymbol.monomial(
                _axis(k, 0, 1), _axis(k, k - 1, 2), Binarion(Fraction(1, 3), -2, sigma), sigma, 1
            )
            b = _h_symbol(rng, k, sigma, 4) + PolySymbol.monomial(
                _axis(k, k - 1, 3), _axis(k, 1, 1), Binarion(2, Fraction(1, 2), sigma), sigma
            )
            yield a, b, None
    for a, b in _deep_h_pairs():
        yield a, b, None


def test_packed_fields_reach_their_width():
    """The packing cases fill their fields: the raised-cap
    products need 6 bits a field, and each full-field product has a
    field of ``2**w - 1``."""
    for a, b, cap in _packing_cases():
        if cap == 40:
            assert symbols._check_operands(a, b, cap) == 6
    for a, b, top in _full_field_pairs():
        w = symbols._check_operands(a, b, top)
        assert top == 2**w - 1
        fields = [e for alpha, beta, _ in star(a, b, top).terms() for e in alpha + beta]
        assert max(fields) == top
    for a, b in _deep_h_pairs():
        w = symbols._check_operands(a, b, None)
        assert w == 3
        for x, y in ((a, b), (b, a)):
            for kernel in (star, moyal_bracket, scaled_bracket):
                assert max(d for _, _, d in kernel(x, y)._terms) >= 2**w


# -- brackets ------------------------------------------------------------------


def test_brackets_match_series_oracle():
    for a, b in _oracle_pairs(79, 40):
        commutator = _series_star(a, b) - _series_star(b, a)
        u = HPoly.from_scalar(Binarion.unit(a.sigma))
        for x, y, sign in ((a, b, 1), (b, a, -1)):
            got = moyal_bracket(x, y)
            assert got == (commutator if sign > 0 else -commutator)
            _assert_no_zero_coefficients(got)
            scaled = scaled_bracket(x, y)
            assert scaled == got.scale_hpoly(u).div_h()
            _assert_no_zero_coefficients(scaled)
        assert moyal_bracket(a, a).is_zero() and scaled_bracket(a, a).is_zero()


#: ``(-i)^n`` for ``n % 4``.
_MINUS_I_POWERS = tuple(Binarion(re, im, C) for re, im in ((1, 0), (0, -1), (-1, 0), (0, 1)))


def _hyperbolic_to_complex(symbol):
    """``symbol``, a hyperbolic result on real inputs, with each ``h^n``
    coefficient ``c j^n`` mapped to ``c (-i)^n``, built by the constructor.

    A coefficient ``v`` reads as ``(a + j b) j^n`` and maps to ``(a + i b)
    (-i)^n``; ``b`` is 0 where the identity holds, and any other ``b`` lands
    on the part of the complex coefficient that is 0, so the map hides no
    fault."""
    terms = {}
    for alpha, beta, coeff in symbol.terms():
        mapped = {}
        for n, v in coeff.items():
            a, b = (v.im, v.re) if n % 2 else (v.re, v.im)
            mapped[n] = Binarion(a, b, C) * _MINUS_I_POWERS[n % 4]
        terms[alpha, beta] = HPoly(mapped, C)
    return PolySymbol(symbol.dof, C, terms)


def _real_terms(rng, k, max_degree=6):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * (2 * k)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(2 * k)] += 1
        terms[tuple(exps[:k]), tuple(exps[k:])] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return terms


def test_complex_results_are_hyperbolic_results_with_j_h_read_as_minus_i_h():
    """For real, h-free operands the two rings share one real product: the
    complex ``star`` and brackets are the hyperbolic ones with ``(j h)^n``
    read as ``(-i h)^n``.  A ring-independent check of the sign logic."""
    rng = random.Random(2404)
    compared = 0
    for k in (1, 2, 3):
        for _ in range(64):
            a_terms, b_terms = _real_terms(rng, k), _real_terms(rng, k)
            for op in (star, moyal_bracket, scaled_bracket):
                hyperbolic = op(PolySymbol(k, H, a_terms), PolySymbol(k, H, b_terms))
                complex_ = op(PolySymbol(k, C, a_terms), PolySymbol(k, C, b_terms))
                assert _hyperbolic_to_complex(hyperbolic) == complex_
                compared += 1
    assert compared == 576


def _parts(symbol, unit):
    """``symbol`` as the symbol of each coefficient's real part and that of its
    ``unit`` part, both with real coefficients."""
    sigma = symbol.sigma
    return [PolySymbol(symbol.dof, sigma, {
        (alpha, beta): HPoly({d: getattr(v, part) for d, v in coeff.items()}, sigma)
        for alpha, beta, coeff in symbol.terms()
    }) for part in ("re", unit)]


def _real_product(fa, fb, t, q_syms, p_syms):
    """``sum_kappa t^|kappa|/kappa! d_p^kappa(fa) d_q^kappa(fb)`` over real
    sympy polynomials: the normal-ordered product at ``t``, computed by sympy
    with no unit of either ring."""
    gens = (*q_syms, *p_syms, H_SYM)
    fa, fb, t = sp.Poly(fa, *gens), sp.Poly(fb, *gens), sp.Poly(t, *gens)
    out = sp.Poly(0, *gens)
    for kappa in iter_product(*(range(max(fa.degree(p), 0) + 1) for p in p_syms)):
        da, db = fa, fb
        for p, q, n in zip(p_syms, q_syms, kappa):
            da, db = da.diff((p, n)) if n else da, db.diff((q, n)) if n else db
        out += da * db * t ** sum(kappa) * sp.Rational(1, math.prod(map(math.factorial, kappa)))
    return out


def test_hyperbolic_star_splits_into_real_products_at_plus_and_minus_h():
    """The idempotent split ``x + j y -> (x + y, x - y)`` maps the hyperbolic
    ring onto two copies of the reals, and ``j h`` onto ``+h`` and ``-h``: so
    each half of ``a ⋆ b`` is the real normal-ordered product of the halves
    of ``a`` and ``b`` at ``+h`` or ``-h``.  The operands carry h and
    fractional real and unit parts."""
    rng = random.Random(2503)
    failures, compared = [], 0
    for i in range(24):
        k = 1 + i % 3
        q_syms, p_syms = sp.symbols(f"q1:{k + 1}"), sp.symbols(f"p1:{k + 1}")
        a, b = _sevenths_symbol(rng, k, H, 4), _sevenths_symbol(rng, k, H, 3)
        parts = [_to_sympy(x, q_syms, p_syms) for x in (a, b, star(a, b))]
        for e in (1, -1):
            fa, fb, got = (re + e * im for re, im in parts)
            want = _real_product(fa, fb, e * H_SYM, q_syms, p_syms)
            if not (sp.Poly(got, *q_syms, *p_syms, H_SYM) - want).is_zero:
                failures.append((i, e))
            compared += 1
    assert failures == [] and compared == 48


def test_complex_star_is_bilinear_over_real_and_imaginary_parts():
    """``(ar + i ai) ⋆ (br + i bi) = ar⋆br - ai⋆bi + i (ar⋆bi + ai⋆br)``, each
    product on the right of operands with real coefficients, where no
    coefficient product has an imaginary part."""
    rng = random.Random(2504)
    i_unit = Binarion(0, 1, C)
    failures = []
    for n in range(150):
        k = 1 + n % 3
        a, b = _sevenths_symbol(rng, k, C, 4), _sevenths_symbol(rng, k, C, 3)
        (ar, ai), (br, bi) = _parts(a, "im"), _parts(b, "im")
        want = star(ar, br) - star(ai, bi) + (star(ar, bi) + star(ai, br)) * i_unit
        if star(a, b) != want:
            failures.append(n)
    assert failures == []


def test_brackets_degree_cap():
    q, p = qp(H)
    a, b = q**9, p**8
    commutator = _series_star(a, b, 17) - _series_star(b, a, 17)
    assert moyal_bracket(a, b, degree_cap=17) == commutator


@pytest.mark.parametrize("sigma", SIGMAS)
def test_moyal_canonical_commutation(sigma):
    q, p = qp(sigma)
    assert moyal_bracket(q, p) == minus_sigma_uh(sigma)


def test_moyal_antisymmetry_and_diagonal():
    rng = random.Random(29)
    for sigma in SIGMAS:
        a = _random_symbol(rng, 2, sigma, 4)
        b = _random_symbol(rng, 2, sigma, 4)
        assert moyal_bracket(a, a).is_zero()
        assert moyal_bracket(a, b) == -moyal_bracket(b, a)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_moyal_q_squared_p(sigma):
    q, p = qp(sigma)
    expected = q.scale_hpoly(
        HPoly.h_power(1, sigma, Binarion(0, -2 * sigma.value, sigma))
    )
    assert moyal_bracket(q * q, p) == expected


def test_moyal_terms_all_carry_h():
    rng = random.Random(31)
    for sigma in SIGMAS:
        for _ in range(20):
            a = _random_symbol(rng, 1, sigma, 4)
            b = _random_symbol(rng, 1, sigma, 4)
            assert moyal_bracket(a, b).h_constant_part().is_zero()


@pytest.mark.parametrize("sigma", SIGMAS)
def test_poisson_sign_convention(sigma):
    q, p = qp(sigma)
    minus_one = PolySymbol.constant(-1, 1, sigma)
    assert poisson_bracket(q, p) == minus_one
    assert poisson_bracket(p, q) == -minus_one
    const = PolySymbol.constant(Binarion(5, 2, sigma), 1, sigma)
    a = _random_symbol(random.Random(1), 1, sigma, 3)
    assert poisson_bracket(a, const).is_zero()


def test_poisson_jacobi_and_leibniz():
    rng = random.Random(37)
    for sigma in SIGMAS:
        for i in range(25):
            k = 1 + (i % 2)
            a = _random_symbol(rng, k, sigma, 3)
            b = _random_symbol(rng, k, sigma, 3)
            c = _random_symbol(rng, k, sigma, 3)
            jacobi = (
                poisson_bracket(a, poisson_bracket(b, c))
                + poisson_bracket(b, poisson_bracket(c, a))
                + poisson_bracket(c, poisson_bracket(a, b))
            )
            assert jacobi.is_zero()
            assert poisson_bracket(a, b * c) == b * poisson_bracket(a, c) + poisson_bracket(a, b) * c


# -- sympy as an independent differentiation/bracket oracle ------------------------


H_SYM = sp.Symbol("h")


def _to_sympy(symbol, q_syms, p_syms):
    """Real and imaginary parts of a symbol as sympy expressions, with the
    formal ``h`` as the sympy symbol ``H_SYM``."""
    re_expr = sp.Integer(0)
    im_expr = sp.Integer(0)
    for alpha, beta, coeff in symbol.terms():
        mono = sp.Integer(1)
        for s, e in zip(q_syms, alpha):
            mono *= s**e
        for s, e in zip(p_syms, beta):
            mono *= s**e
        for d, value in coeff.items():
            re_expr += sp.Rational(value.re) * H_SYM**d * mono
            im_expr += sp.Rational(value.im) * H_SYM**d * mono
    return sp.expand(re_expr), sp.expand(im_expr)


def _sympy_poisson(fa, fb, q_syms, p_syms):
    out = sp.Integer(0)
    for qs, ps in zip(q_syms, p_syms):
        out += sp.diff(fa, ps) * sp.diff(fb, qs) - sp.diff(fa, qs) * sp.diff(fb, ps)
    return sp.expand(out)


def _sevenths_symbol(rng, k, sigma, max_degree):
    """A random symbol whose coefficients carry ``h`` to degree 2 and real and
    unit parts over denominators up to 7, some of them zero."""
    terms = {}
    for alpha, beta, _ in _random_symbol(rng, k, sigma, max_degree, 4).terms():
        terms[(alpha, beta)] = HPoly({
            rng.randint(0, 2): Binarion(
                Fraction(rng.choice((0, rng.randint(-7, 7))), rng.randint(1, 7)),
                Fraction(rng.choice((0, rng.randint(-7, 7))), rng.randint(1, 7)),
                sigma,
            )
            for _ in range(2)
        }, sigma)
    return PolySymbol(k, sigma, terms)


def _sympy_oracle_pairs():
    """Operand pairs in both rings: h-free ones for k = 1, 2, then ones with
    ``h``-bearing, unit-bearing coefficients over denominators up to 7 for
    k = 1..3."""
    rng = random.Random(41)
    for sigma in SIGMAS:
        for i in range(15):
            k = 1 + (i % 2)
            yield k, _random_symbol(rng, k, sigma, 4), _random_symbol(rng, k, sigma, 4)
    rng = random.Random(47)
    for sigma in SIGMAS:
        for i in range(15):
            k = 1 + (i % 3)
            yield k, _sevenths_symbol(rng, k, sigma, 4), _sevenths_symbol(rng, k, sigma, 4)


def test_poisson_matches_sympy_oracle():
    seen_h, seen_den = set(), set()
    for k, a, b in _sympy_oracle_pairs():
        q_syms = sp.symbols(f"q1:{k + 1}")
        p_syms = sp.symbols(f"p1:{k + 1}")
        got = poisson_bracket(a, b)
        g_re, g_im = _to_sympy(got, q_syms, p_syms)
        a_re, a_im = _to_sympy(a, q_syms, p_syms)
        b_re, b_im = _to_sympy(b, q_syms, p_syms)
        s = a.sigma.value
        # (a_re + u a_im, b_re + u b_im) expands with u^2 = s
        want_re = _sympy_poisson(a_re, b_re, q_syms, p_syms) + s * _sympy_poisson(
            a_im, b_im, q_syms, p_syms
        )
        want_im = _sympy_poisson(a_re, b_im, q_syms, p_syms) + _sympy_poisson(
            a_im, b_re, q_syms, p_syms
        )
        assert sp.simplify(g_re - want_re) == 0
        assert sp.simplify(g_im - want_im) == 0
        for (_, _, d), v in got._binarions().items():
            seen_h.add(d)
            seen_den.update((v.re.denominator, v.im.denominator))
    # the h-bearing cases reach every h-degree and denominators past the operands'
    assert seen_h == {0, 1, 2, 3, 4} and max(seen_den) > 7


def test_differentiate_matches_sympy_oracle():
    rng = random.Random(43)
    q_syms = sp.symbols("q1:3")
    p_syms = sp.symbols("p1:3")
    for sigma in SIGMAS:
        a = _random_symbol(rng, 2, sigma, 5)
        for var, syms in (("q", q_syms), ("p", p_syms)):
            for index in range(2):
                got_re, got_im = _to_sympy(a.differentiate(var, index), q_syms, p_syms)
                a_re, a_im = _to_sympy(a, q_syms, p_syms)
                assert sp.simplify(got_re - sp.diff(a_re, syms[index])) == 0
                assert sp.simplify(got_im - sp.diff(a_im, syms[index])) == 0


# -- scaled bracket / classical limit ------------------------------------------------


@pytest.mark.parametrize("sigma", SIGMAS)
def test_scaled_bracket_q_p(sigma):
    q, p = qp(sigma)
    assert scaled_bracket(q, p) == PolySymbol.constant(-1, 1, sigma)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_scaled_bracket_cubes(sigma):
    q, p = qp(sigma)
    got = scaled_bracket(q**3, p**3).h_constant_part()
    want = poisson_bracket(q**3, p**3)
    # frozen value from the defining formula: d_p(q^3) d_q(p^3) - 3q^2 * 3p^2
    assert want == PolySymbol.monomial((2,), (2,), -9, sigma)
    assert got == want


def test_scaled_bracket_degree_one_exact():
    rng = random.Random(47)
    for sigma in SIGMAS:
        for _ in range(20):
            a = _random_symbol(rng, 1, sigma, 1)
            b = _random_symbol(rng, 1, sigma, 1)
            assert scaled_bracket(a, b) == poisson_bracket(a, b)


def test_classical_limit_random():
    rng = random.Random(53)
    for sigma in SIGMAS:
        for i in range(50):
            k = 1 + (i % 2)
            a = _random_symbol(rng, k, sigma, 5)
            b = _random_symbol(rng, k, sigma, 5)
            assert scaled_bracket(a, b).h_constant_part() == poisson_bracket(a, b)


def test_observables_closed_under_classical_bracket():
    rng = random.Random(59)
    for sigma in SIGMAS:
        for _ in range(25):
            a = _random_symbol(rng, 1, sigma, 4)
            b = _random_symbol(rng, 1, sigma, 4)
            # averaging with the conjugate strips imaginary parts
            half = HPoly.from_scalar(Fraction(1, 2), sigma)
            a = (a + a.conjugate()).scale_hpoly(half)
            b = (b + b.conjugate()).scale_hpoly(half)
            assert a.is_observable() and b.is_observable()
            # star coefficients of observables alternate real/imaginary in h
            for _, _, coeff in star(a, b).terms():
                for d, v in coeff.items():
                    assert (v.im == 0) if d % 2 == 0 else (v.re == 0)
            assert scaled_bracket(a, b).h_constant_part().is_observable()


def test_is_observable():
    q, p = qp(H)
    assert (q * q + p * p).is_observable()
    j = Binarion.unit(H)
    assert not (q.scale_hpoly(HPoly.from_scalar(j))).is_observable()
    assert not q.scale_hpoly(HPoly.h_power(1, H)).is_observable()


# -- evaluation, differentiation, rendering, serialization ---------------------------


def test_evaluate_examples():
    for sigma in SIGMAS:
        q, p = qp(sigma)
        point = PhasePoint((2,), (3,))
        assert (q * p).evaluate(point, Fraction(7, 3)) == 6
        assert (q * p).evaluate(point, 0) == 6


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(61)
    for sigma in SIGMAS:
        for _ in range(25):
            a = _random_symbol(rng, 2, sigma, 4)
            b = _random_symbol(rng, 2, sigma, 4)
            point = PhasePoint(
                (Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(-4, 4), 2)),
                (Fraction(rng.randint(-4, 4), 5), rng.randint(-4, 4)),
            )
            h = Fraction(rng.randint(0, 5), 2)
            assert (a * b).evaluate(point, h) == a.evaluate(point, h) * b.evaluate(point, h)
            assert (a + b).evaluate(point, h) == a.evaluate(point, h) + b.evaluate(point, h)


def _substitute_via_terms(symbol, h):
    """The regrouping substitution, kept as the oracle of ``PolySymbol.substitute_h``."""
    return PolySymbol(symbol.dof, symbol.sigma, {
        (alpha, beta): coeff.substitute(h) for alpha, beta, coeff in symbol.terms()
    })


def _cancelling_symbol(k, sigma):
    """``(2 - u) q1 + (-4 + 2u) h q1 + (1 + u) h^2`` on ``k`` degrees of freedom:
    its ``q1`` coefficient vanishes at ``h = 1/2``, and its constant does not."""
    mono = ((1,) + (0,) * (k - 1), (0,) * k)
    return PolySymbol(k, sigma, {
        mono: HPoly({0: Binarion(2, -1, sigma), 1: Binarion(-4, 2, sigma)}, sigma),
        ((0,) * k, (0,) * k): HPoly({2: Binarion(1, 1, sigma)}, sigma),
    })


def test_substitute_h_matches_terms_rebuild():
    rng = random.Random(83)
    for sigma in SIGMAS:
        for k in (1, 2, 3):
            h = Fraction(1, 2)
            cancels = _cancelling_symbol(k, sigma)
            assert cancels.substitute_h(h) == PolySymbol.constant(
                Binarion(1, 1, sigma) * h**2, k, sigma
            )
            cases = [(cancels, h), (PolySymbol.zero(k, sigma), h)]
            for _ in range(8):
                cases.append((_h_symbol(rng, k, sigma, 4), Fraction(rng.randint(0, 4), 3)))
            for symbol, value in cases:
                got = symbol.substitute_h(value)
                assert got == _substitute_via_terms(symbol, value)
                _assert_clean(got)


def test_differentiate_example():
    q, p = qp(H)
    assert (q * q * p).differentiate("q", 0) == 2 * (q * p)


def test_canonical_text():
    q, p = qp(H)
    assert star(p, q).to_text() == "q1*p1 + 1j*h"
    fancy = PolySymbol.monomial(
        (2,), (1,), Binarion(Fraction(3, 2), 1, H), H, h_degree=2
    )
    assert fancy.to_text() == "(3/2 + 1j)*h^2*q1^2*p1"
    qc, pc = qp(C)
    assert star(qc, pc).to_text() == "q1*p1"


def test_text_ordering_stable():
    rng = random.Random(67)
    a = _random_symbol(rng, 2, H, 5, max_terms=6)
    assert a.to_text() == a.to_text()
    # graded ordering: leading term has the maximal total degree
    first = a.terms()[0]
    assert sum(first[0]) + sum(first[1]) == a.total_degree()


def test_json_round_trip():
    rng = random.Random(71)
    for sigma in SIGMAS:
        for _ in range(20):
            a = _random_symbol(rng, 2, sigma, 4).scale_hpoly(
                HPoly({0: Binarion(1, 0, sigma), 2: Binarion(0, 1, sigma)}, sigma)
            )
            assert PolySymbol.from_json(a.to_json()) == a

