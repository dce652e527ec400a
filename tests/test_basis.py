"""Exhaustive basis oracles for the series star kernel and the apply routes.

``star``, ``scaled_bracket`` and operator application are bilinear, so an
identity that holds on every pair of basis elements up to a degree holds on
every pair of elements of that degree.  The random oracles of
``test_symbols`` sample the kappa rows of low exponents only; these sweeps
enumerate every pair, so they reach each row the degree bound allows, the
high rows included.

* **Series against the distributional route.**  ``star(a, b)`` is a
  polynomial in ``h`` of degree at most ``D = sum_i min(beta_a_i,
  alpha_b_i)``.  It is checked to be so, and to equal
  ``star_distributional(a, b, h)`` at ``D + 1`` distinct values of ``h``: an
  identity in ``h``, not a sample of it.
* **Classical limit.**  On the same pairs, the ``h``-constant part of
  ``scaled_bracket`` equals ``poisson_bracket``.
* **Apply routes.**  ``apply_normal_ordered`` equals ``apply_shift_form``
  for every k = 1 monomial symbol up to degree 8 applied to every
  ``x^e exp(u f x)`` with ``e <= 8`` and ``f`` in ``{0, 1/2}``, at two
  values of ``h``: the derivative rows ``d^b x^e`` up to ``b = e = 8``, the
  reach of the default degree cap for one degree of freedom.
* **Composition.**  ``compose_check(a, b, phi)`` holds for every pair of
  k = 1 monomial symbols up to degree 3 and every ``x^e exp(u f x)`` with
  ``e <= 3`` and ``f`` in ``{0, 1/2}``, at two values of ``h``: the series
  product, read at ``h``, acts as the composed operators.
* **Twist rows.**  ``distributions._pair_factors``, read from its memoized
  integer rows, equals the rational closed form of ``test_distributions`` for
  every ``delta^((a, b))``, ``a, b <= 8``, at the origin, on either axis and
  off both.
* **Associativity.**  ``(a ⋆ b) ⋆ c == a ⋆ (b ⋆ c)`` on every triple of k = 1
  monomials up to degree 4.
* **Grassmann.**  On every triple of basis monomials of four generators the
  product is associative and equals the sign of the permutation that sorts
  the generators, or zero when one repeats.

The left monomials carry ``1 + 2u`` and the right ones ``3 - u`` (a triple's
third factor carries ``1 + 2u`` again): both parts of both coefficients are
nonzero, so a fault that drops or swaps a part of the product of two
binarions shows, which a coefficient of 1 cannot see.  The cases are
enumerated, never drawn, and their counts are pinned.
"""

from fractions import Fraction
from itertools import combinations, product

import pytest
from test_distributions import _pair_factors_as_fractions, _rational_pair_factors

from hypermoyal import (
    Binarion,
    ExpPoly,
    GrassmannElement,
    Operator,
    PolySymbol,
    Sigma,
    WaveFunction,
    compose_check,
    poisson_bracket,
    scaled_bracket,
    star,
    star_distributional,
)

SIGMAS = (Sigma.HYPERBOLIC, Sigma.COMPLEX)

#: ``(k, degree)``: every monomial in ``k`` degrees of freedom up to the
#: degree.  ``p1^8 ⋆ q1^8`` reaches the default degree cap, 16.
SHAPES = [(1, 8), (2, 4), (3, 3)]

#: Distinct values of ``h``, enough for the largest ``D``, 8.
H_VALUES = [Fraction(j, 2) for j in range(1, 10)]

#: Per shape: monomials per side, and comparisons of the two routes per ring,
#: ``sum over pairs of (D + 1)``.
MONOMIALS = {(1, 8): 45, (2, 4): 70, (3, 3): 84}
COMPARISONS = {(1, 8): 4917, (2, 4): 7852, (3, 3): 9558}

#: Apply routes: symbols and powers ``x^e`` up to this degree, the
#: frequencies ``f`` of ``x^e exp(u f x)``, and the values of ``h``.
APPLY_DEGREE = 8
APPLY_FREQS = (Fraction(0), Fraction(1, 2))
APPLY_H = (Fraction(1, 3), Fraction(5, 2))
#: 45 symbols times 18 wavefunctions times 2 values of ``h``, per ring.
APPLY_PAIRS = 1620
#: Composition: symbols and powers ``x^e`` up to this degree; 10 symbols per
#: side squared, times 8 wavefunctions times 2 values of ``h``, per ring.
COMPOSE_DEGREE = 3
COMPOSE_PAIRS = 1600

#: Twist rows: orders ``a, b`` up to this bound, at the four zero patterns of
#: ``(x, y)``; 81 orders times 4 locations, per ring.
TWIST_ORDER = 8
TWIST_POINTS = [(0, 0), (Fraction(1, 2), 0), (0, Fraction(-3, 5)), (Fraction(1, 2), Fraction(-3, 5))]
TWIST_PAIRS = 324

#: Associativity: every triple of the 15 k = 1 monomials up to degree 4.
TRIPLE_DEGREE = 4
TRIPLES = 15**3
#: Grassmann: every triple of the 16 basis monomials of four generators.
GENERATORS = 4
GRASSMANN_TRIPLES = 16**3


def _basis(k: int, degree: int, coeff, sigma) -> list:
    """Every monomial ``coeff * q^alpha p^beta`` with ``|alpha| + |beta| <=
    degree``, as ``(alpha, beta, symbol, the symbol as an ExpPoly)``."""
    out = []
    for exps in product(range(degree + 1), repeat=2 * k):
        if sum(exps) <= degree:
            symbol = PolySymbol.monomial(exps[:k], exps[k:], coeff, sigma)
            out.append((exps[:k], exps[k:], symbol, ExpPoly.from_poly_symbol(symbol)))
    return out


def _sides(k: int, degree: int, sigma) -> tuple:
    return (_basis(k, degree, Binarion(1, 2, sigma), sigma),
            _basis(k, degree, Binarion(3, -1, sigma), sigma))


@pytest.mark.parametrize("sigma", SIGMAS, ids=["hyperbolic", "complex"])
@pytest.mark.parametrize("shape", SHAPES, ids=[f"k{k}-degree{d}" for k, d in SHAPES])
def test_series_star_equals_the_distributional_route_on_every_basis_pair(shape, sigma):
    left, right = _sides(*shape, sigma)
    assert len(left) == len(right) == MONOMIALS[shape]
    compared, failures = 0, []
    for _, beta, a, ea in left:
        for alpha, _, b, eb in right:
            series = star(a, b)
            top = sum(map(min, beta, alpha))
            assert max((d for _, _, d in series._terms), default=0) <= top
            for h in H_VALUES[:top + 1]:
                compared += 1
                if ExpPoly.from_poly_symbol(series, h) != star_distributional(ea, eb, h):
                    failures.append((a.to_text(), b.to_text(), h))
    assert failures == []
    assert compared == COMPARISONS[shape]


@pytest.mark.parametrize("sigma", SIGMAS, ids=["hyperbolic", "complex"])
@pytest.mark.parametrize("shape", SHAPES, ids=[f"k{k}-degree{d}" for k, d in SHAPES])
def test_classical_limit_of_scaled_bracket_on_every_basis_pair(shape, sigma):
    left, right = _sides(*shape, sigma)
    failures = [(a.to_text(), b.to_text()) for _, _, a, _ in left for _, _, b, _ in right
                if scaled_bracket(a, b).h_constant_part() != poisson_bracket(a, b)]
    assert failures == []


@pytest.mark.parametrize("sigma", SIGMAS, ids=["hyperbolic", "complex"])
def test_apply_routes_agree_on_every_basis_pair(sigma):
    operands = [symbol for _, _, symbol, _ in _basis(1, APPLY_DEGREE, Binarion(1, 2, sigma), sigma)]
    funcs = [ExpPoly(1, sigma, {((f,), (e,)): Binarion(3, -1, sigma)})
             for e in range(APPLY_DEGREE + 1) for f in APPLY_FREQS]
    compared, failures = 0, []
    for h in APPLY_H:
        for symbol in operands:
            op = Operator(symbol, h)
            for func in funcs:
                phi = WaveFunction(func, h)
                compared += 1
                if op.apply_normal_ordered(phi) != op.apply_shift_form(phi):
                    failures.append((symbol.to_text(), func.to_text(), h))
    assert failures == []
    assert compared == APPLY_PAIRS


@pytest.mark.parametrize("sigma", SIGMAS, ids=["hyperbolic", "complex"])
def test_compose_check_on_every_basis_pair(sigma):
    left, right = _sides(1, COMPOSE_DEGREE, sigma)
    funcs = [ExpPoly(1, sigma, {((f,), (e,)): Binarion(3, -1, sigma)})
             for e in range(COMPOSE_DEGREE + 1) for f in APPLY_FREQS]
    compared, failures = 0, []
    for h in APPLY_H:
        for func in funcs:
            phi = WaveFunction(func, h)
            for _, _, a, _ in left:
                for _, _, b, _ in right:
                    compared += 1
                    if not compose_check(a, b, phi):
                        failures.append((a.to_text(), b.to_text(), func.to_text(), h))
    assert failures == []
    assert compared == COMPOSE_PAIRS


@pytest.mark.parametrize("sigma", SIGMAS, ids=["hyperbolic", "complex"])
def test_twist_rows_equal_the_rational_closed_form_on_every_order(sigma):
    s, h = sigma.value, Fraction(2, 3)
    compared, failures = 0, []
    for a, b in product(range(TWIST_ORDER + 1), repeat=2):
        for x, y in TWIST_POINTS:
            compared += 1
            if _pair_factors_as_fractions(x, y, a, b, h, s) != _rational_pair_factors(
                    Fraction(x), Fraction(y), a, b, h, s):
                failures.append((a, b, x, y))
    assert failures == []
    assert compared == TWIST_PAIRS


@pytest.mark.parametrize("sigma", SIGMAS, ids=["hyperbolic", "complex"])
def test_star_is_associative_on_every_basis_triple(sigma):
    left, right = (_basis(1, TRIPLE_DEGREE, c, sigma) for c in
                   (Binarion(1, 2, sigma), Binarion(3, -1, sigma)))
    firsts = [symbol for _, _, symbol, _ in left]
    seconds = [symbol for _, _, symbol, _ in right]
    pairs = {(i, j): star(a, b) for i, a in enumerate(firsts) for j, b in enumerate(seconds)}
    tails = {(j, k): star(b, c) for j, b in enumerate(seconds) for k, c in enumerate(firsts)}
    compared, failures = 0, []
    for i, j, k in product(range(len(firsts)), range(len(seconds)), range(len(firsts))):
        compared += 1
        if star(pairs[i, j], firsts[k]) != star(firsts[i], tails[j, k]):
            failures.append((firsts[i].to_text(), seconds[j].to_text(), firsts[k].to_text()))
    assert failures == []
    assert compared == TRIPLES


def _permutation_sign(word) -> int:
    """The sign of the permutation that sorts the distinct entries of ``word``."""
    return (-1) ** sum(x > y for x, y in combinations(word, 2))


@pytest.mark.parametrize("sigma", SIGMAS, ids=["hyperbolic", "complex"])
def test_grassmann_product_is_associative_and_signed_on_every_basis_triple(sigma):
    masks = range(1 << GENERATORS)
    words = {m: [i for i in range(GENERATORS) if m >> i & 1] for m in masks}
    ca, cb = Binarion(1, 2, sigma), Binarion(3, -1, sigma)
    firsts = {m: GrassmannElement(GENERATORS, sigma, {m: ca}) for m in masks}
    seconds = {m: GrassmannElement(GENERATORS, sigma, {m: cb}) for m in masks}
    compared, failures = 0, []
    for i, j, k in product(masks, repeat=3):
        compared += 1
        word = words[i] + words[j] + words[k]
        expected = (GrassmannElement.zero(GENERATORS, sigma) if len(set(word)) < len(word) else
                    GrassmannElement(GENERATORS, sigma,
                                     {i | j | k: _permutation_sign(word) * ca * cb * ca}))
        a, b, c = firsts[i], seconds[j], firsts[k]
        if not (a * b) * c == a * (b * c) == expected:
            failures.append((i, j, k))
    assert failures == []
    assert compared == GRASSMANN_TRIPLES
