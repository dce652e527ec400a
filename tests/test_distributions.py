"""Tests for point-supported distributions, the Fourier calculus, and the
distributional star product."""

import functools
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product
from operator import add

import pytest
from test_sparse import _assert_clean

from hypermoyal import (
    Binarion,
    CharSum,
    DegreeCapError,
    DimensionMismatchError,
    ExpPoly,
    HPoly,
    PolySymbol,
    Sigma,
    Ultradistribution,
    inverse_fourier_symbol,
    paley_wiener_growth,
    star,
    star_distributional,
    symbol_from_distribution,
)
from hypermoyal import distributions, operators, selftest
from hypermoyal.distributions import FACTOR_ROW_TERMS, FACTOR_ROWS
from hypermoyal.sparse import add_parts, from_parts

H = Sigma.HYPERBOLIC
C = Sigma.COMPLEX
SIGMAS = (H, C)


def _random_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _random_binarion(rng, sigma):
    return Binarion(_random_fraction(rng), _random_fraction(rng), sigma)


def _random_distribution(rng, dim, sigma, max_atoms=6, max_order=4):
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        loc = tuple(_random_fraction(rng) for _ in range(dim))
        order = tuple(rng.randint(0, max_order) for _ in range(dim))
        atoms.append((loc, order, _random_binarion(rng, sigma)))
    return Ultradistribution(dim, sigma, atoms)


def _random_exp_poly(rng, dim, sigma, max_terms=3, max_degree=3):
    out = ExpPoly.zero(dim, sigma)
    for _ in range(rng.randint(1, max_terms)):
        freq = tuple(_random_fraction(rng) for _ in range(dim))
        exps = tuple(rng.randint(0, max_degree) for _ in range(dim))
        term = ExpPoly(
            dim, sigma, {(freq, exps): CharSum.from_scalar(_random_binarion(rng, sigma))}
        )
        out = out + term
    return out


def _random_symbol(rng, k, sigma, max_degree=4, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = [0] * k
        beta = [0] * k
        for _ in range(rng.randint(0, max_degree)):
            slot = rng.randrange(2 * k)
            if slot < k:
                alpha[slot] += 1
            else:
                beta[slot - k] += 1
        key = (tuple(alpha), tuple(beta))
        coeff = _random_binarion(rng, sigma)
        existing = terms.get(key)
        terms[key] = coeff if existing is None else existing + coeff
    return PolySymbol(k, sigma, terms)


# -- CharSum (formal character ring) ------------------------------------------------


def test_charsum_group_law():
    for sigma in SIGMAS:
        a = CharSum.character(Fraction(1, 2), sigma)
        b = CharSum.character(Fraction(1, 3), sigma)
        assert a * b == CharSum.character(Fraction(5, 6), sigma)
        assert a * a.conjugate() == CharSum.one(sigma)


def test_charsum_float_evaluation():
    import math

    value = CharSum.character(Fraction(3, 4), H)
    re, im = value.to_floats()
    assert re == pytest.approx(math.cosh(0.75), abs=1e-12)
    assert im == pytest.approx(math.sinh(0.75), abs=1e-12)
    value_c = CharSum.character(Fraction(3, 4), C)
    re, im = value_c.to_floats()
    assert re == pytest.approx(math.cos(0.75), abs=1e-12)
    assert im == pytest.approx(math.sin(0.75), abs=1e-12)


# -- pairing -------------------------------------------------------------------------


def test_pair_delta_evaluates():
    rng = random.Random(3)
    for sigma in SIGMAS:
        f = _random_exp_poly(rng, 1, sigma)
        delta = Ultradistribution.delta((0,), sigma)
        assert delta.pair(f) == f.evaluate((0,))


def test_pair_derivative_sign_convention():
    for sigma in SIGMAS:
        d1 = Ultradistribution.delta((0,), sigma).derivative()
        x_sq = ExpPoly.monomial((2,), 1, sigma)
        x = ExpPoly.monomial((1,), 1, sigma)
        assert d1.pair(x_sq).is_zero()
        assert d1.pair(x) == CharSum.from_scalar(Binarion(-1, 0, sigma))


def test_pair_character_gives_unit_powers():
    for sigma in SIGMAS:
        u = Binarion.unit(sigma)
        for n in range(5):
            dn = Ultradistribution.delta((0,), sigma, order=(n,))
            for y0 in (Fraction(1), Fraction(-2, 3)):
                f = ExpPoly.character((y0,), sigma)
                expected = CharSum.from_scalar((-(u * y0)) ** n)
                assert dn.pair(f) == expected


def test_pair_is_bilinear():
    rng = random.Random(5)
    for sigma in SIGMAS:
        lam = _random_distribution(rng, 2, sigma, max_atoms=3, max_order=2)
        mu = _random_distribution(rng, 2, sigma, max_atoms=3, max_order=2)
        f = _random_exp_poly(rng, 2, sigma, max_terms=2, max_degree=2)
        g = _random_exp_poly(rng, 2, sigma, max_terms=2, max_degree=2)
        assert (lam + mu).pair(f) == lam.pair(f) + mu.pair(f)
        assert lam.pair(f + g) == lam.pair(f) + lam.pair(g)


def test_pair_dimension_mismatch():
    lam = Ultradistribution.delta((0, 0), H)
    f = ExpPoly.one(1, H)
    with pytest.raises(DimensionMismatchError):
        lam.pair(f)


# -- Fourier transform ------------------------------------------------------------


def test_fourier_of_delta_is_one():
    for sigma in SIGMAS:
        assert Ultradistribution.delta((0,), sigma).fourier() == ExpPoly.one(1, sigma)


def test_fourier_of_delta_derivatives():
    for sigma in SIGMAS:
        u = Binarion.unit(sigma)
        for n in range(7):
            lam = Ultradistribution.delta((0,), sigma, order=(n,))
            assert lam.fourier() == ExpPoly.monomial((n,), (-u) ** n, sigma)


def test_fourier_of_shifted_delta_is_character():
    for sigma in SIGMAS:
        lam = Ultradistribution.delta((1,), sigma)
        assert lam.fourier() == ExpPoly.character((1,), sigma)


def test_fourier_is_pairing_with_character():
    """F(lambda)(y0) equals the pairing with exp(u*y0*x), pointwise."""
    rng = random.Random(7)
    for sigma in SIGMAS:
        lam = _random_distribution(rng, 1, sigma, max_atoms=4, max_order=3)
        image = lam.fourier()
        for y0 in (Fraction(0), Fraction(2, 3), Fraction(-1)):
            assert image.evaluate((y0,)) == lam.pair(ExpPoly.character((y0,), sigma))


def test_transform_identities_randomized():
    rng = random.Random(11)
    for sigma in SIGMAS:
        u = Binarion.unit(sigma)
        for _ in range(40):
            lam = _random_distribution(rng, 1, sigma)
            n = rng.randint(1, 4)
            # derivative of the transform = u^n times transform of x^n * lambda
            lhs = lam.fourier().differentiate_multi((n,))
            rhs = (u**n) * lam.mul_monomial((n,)).fourier()
            assert lhs == rhs
            # transform of the derivative = (-u y)^n times the transform
            lhs2 = lam.derivative_multi((n,)).fourier()
            rhs2 = ExpPoly.monomial((n,), (-u) ** n, sigma) * lam.fourier()
            assert lhs2 == rhs2


def test_mul_monomial_examples():
    for sigma in SIGMAS:
        delta = Ultradistribution.delta((0,), sigma)
        assert delta.mul_monomial((0,)) == delta
        # x * delta' = -delta, whose transform is the constant -1
        xd = delta.derivative().mul_monomial((1,))
        assert xd == delta.scale(Binarion(-1, 0, sigma))
        assert xd.fourier() == ExpPoly.constant(Binarion(-1, 0, sigma), 1, sigma)


def test_mul_monomial_via_pairing():
    """(x^n lambda, f) must equal (lambda, x^n f)."""
    rng = random.Random(13)
    for sigma in SIGMAS:
        for _ in range(25):
            lam = _random_distribution(rng, 2, sigma, max_atoms=3, max_order=3)
            n = (rng.randint(0, 2), rng.randint(0, 2))
            f = _random_exp_poly(rng, 2, sigma, max_terms=2, max_degree=2)
            xf = f * ExpPoly.monomial(n, 1, sigma)
            assert lam.mul_monomial(n).pair(f) == lam.pair(xf)


# -- symbol <-> distribution bridge ---------------------------------------------------


def test_inverse_fourier_constant():
    for sigma in SIGMAS:
        lam = inverse_fourier_symbol(ExpPoly.one(2, sigma))
        assert lam == Ultradistribution.delta((0, 0), sigma)


def test_inverse_fourier_coordinate_weight():
    for sigma in SIGMAS:
        # symbol q: single first-slot derivative atom with weight -sigma*u,
        # pinned by the reconstruction requirement below
        q = ExpPoly.coordinate(0, 2, sigma)
        lam = inverse_fourier_symbol(q)
        atoms = lam.atoms()
        assert len(atoms) == 1
        loc, order, weight = atoms[0]
        assert loc == (0, 0) and order == (1, 0)
        minus_sigma_u = Binarion(0, -sigma.value, sigma)
        assert weight == CharSum.from_scalar(minus_sigma_u)
        assert symbol_from_distribution(lam) == q


def test_inverse_fourier_plane_wave():
    for sigma in SIGMAS:
        alpha, beta = Fraction(2), Fraction(-1, 2)
        wave = ExpPoly.character((alpha, beta), sigma)
        lam = inverse_fourier_symbol(wave)
        assert lam == Ultradistribution.delta((alpha, beta), sigma)


def test_symbol_round_trip_random():
    rng = random.Random(17)
    for sigma in SIGMAS:
        for _ in range(30):
            a = _random_exp_poly(rng, 2, sigma)
            assert symbol_from_distribution(inverse_fourier_symbol(a)) == a


# -- distributional star product -------------------------------------------------------


def test_star_distributional_unit():
    rng = random.Random(19)
    for sigma in SIGMAS:
        one = ExpPoly.one(2, sigma)
        for _ in range(10):
            b = _random_exp_poly(rng, 2, sigma)
            assert star_distributional(one, b, Fraction(1, 2)) == b
            assert star_distributional(b, one, Fraction(1, 2)) == b


def test_star_distributional_p_q():
    h = Fraction(2, 5)
    for sigma in SIGMAS:
        k = 1
        p = PolySymbol.coordinate("p", 0, k, sigma)
        q = PolySymbol.coordinate("q", 0, k, sigma)
        got = star_distributional(p, q, h)
        expected = ExpPoly.from_poly_symbol(star(p, q).substitute_h(h))
        assert got == expected


def test_star_distributional_plane_waves():
    """Plane waves compose with a character twist factor."""
    h = Fraction(1, 3)
    for sigma in SIGMAS:
        a1, b1 = Fraction(1), Fraction(2)
        a2, b2 = Fraction(-1, 2), Fraction(1, 4)
        wave1 = ExpPoly.character((a1, b1), sigma)
        wave2 = ExpPoly.character((a2, b2), sigma)
        got = star_distributional(wave1, wave2, h)
        twist = CharSum.character(h * b1 * a2, sigma)
        expected = ExpPoly.character((a1 + a2, b1 + b2), sigma, coeff=1) * ExpPoly.constant(
            twist, 2, sigma
        )
        assert got == expected


def test_character_star_twist_law_associative():
    rng = random.Random(23)
    h = Fraction(1, 2)
    for sigma in SIGMAS:
        for _ in range(25):
            waves = [
                ExpPoly.character(
                    (_random_fraction(rng), _random_fraction(rng)), sigma
                )
                for _ in range(3)
            ]
            left = star_distributional(
                star_distributional(waves[0], waves[1], h), waves[2], h
            )
            right = star_distributional(
                waves[0], star_distributional(waves[1], waves[2], h), h
            )
            assert left == right


def test_two_path_star_equality_random():
    rng = random.Random(29)
    for sigma in SIGMAS:
        for i in range(30):
            k = 1 + (i % 2)
            a = _random_symbol(rng, k, sigma)
            b = _random_symbol(rng, k, sigma)
            h = Fraction(rng.randint(1, 5), rng.randint(1, 4))
            via_series = ExpPoly.from_poly_symbol(star(a, b).substitute_h(h))
            via_atoms = star_distributional(a, b, h)
            assert via_series == via_atoms


def test_star_distributional_mixed_character_polynomial():
    """Cross-check polynomial x plane-wave products through the operator route."""
    from hypermoyal import WaveFunction, compose_check

    rng = random.Random(31)
    h = Fraction(1, 2)
    for sigma in SIGMAS:
        q = ExpPoly.coordinate(0, 2, sigma)
        wave = ExpPoly.character((Fraction(1), Fraction(1, 3)), sigma)
        a = q * wave
        b = ExpPoly.coordinate(1, 2, sigma)  # the symbol p
        phi = WaveFunction(
            (
                ExpPoly.one(1, sigma)
                + ExpPoly.coordinate(0, 1, sigma)
            )
            * WaveFunction.plane_wave(Fraction(1, 2), h, sigma).func,
            h,
        )
        assert compose_check(a, b, phi)
        assert compose_check(b, a, phi)


def _nonzero_fraction(rng):
    while True:
        value = _random_fraction(rng)
        if value:
            return value


def _plane_wave_times_polynomial(rng, dim, sigma):
    """``c * (x_i + r1) * (x_j + r2) * (x_l + r3) * exp(u*<freq, x>)`` with ``i``
    in the first half of the variables, ``j`` in the second, and no zero
    entry of ``freq`` or ``c``."""
    half = dim // 2
    coeff = Binarion(_nonzero_fraction(rng), _random_fraction(rng), sigma)
    poly = ExpPoly.constant(coeff, dim, sigma)
    for index in (rng.randrange(half), half + rng.randrange(half), rng.randrange(dim)):
        poly = poly * (ExpPoly.coordinate(index, dim, sigma) + _random_fraction(rng))
    freq = tuple(_nonzero_fraction(rng) for _ in range(dim))
    return poly * ExpPoly.character(freq, sigma)


def _nonzero_twist_cases():
    """Symbols whose p-frequencies (in ``a``) and q-frequencies (in ``b``) are
    nonzero, with a wavefunction to apply them to: ``(a, b, phi)``."""
    from hypermoyal import WaveFunction

    rng = random.Random(47)
    cases = []
    for k in (1, 2):
        for sigma in SIGMAS:
            for _ in range(3):
                h = Fraction(rng.randint(1, 3), rng.randint(1, 3))
                a = _plane_wave_times_polynomial(rng, 2 * k, sigma)
                b = _plane_wave_times_polynomial(rng, 2 * k, sigma)
                momentum = tuple(_random_fraction(rng) for _ in range(k))
                poly = ExpPoly.coordinate(rng.randrange(k), k, sigma) + _random_fraction(rng)
                wave = WaveFunction.plane_wave(momentum, h, sigma).func
                cases.append((a, b, WaveFunction(poly * wave, h)))
    return cases


def test_twist_at_nonzero_locations_matches_composition():
    """The cases put the twist's atoms at ``q1*p2 != 0``, where every term of
    its closed form contributes; the operator route checks the product."""
    from hypermoyal import compose_check

    for a, b, phi in _nonzero_twist_cases():
        assert compose_check(a, b, phi)


def test_star_distributional_degree_cap():
    for sigma in SIGMAS:
        q = PolySymbol.coordinate("q", 0, 1, sigma)
        h = Fraction(1, 2)
        for a, b in ((q**9, q**8), (ExpPoly.from_poly_symbol(q**9), ExpPoly.from_poly_symbol(q**8))):
            with pytest.raises(DegreeCapError):
                star_distributional(a, b, h)
            got = star_distributional(a, b, h, degree_cap=20)
            assert got == ExpPoly.from_poly_symbol(q**17)


def _rational_pair_factors(x, y, a, b, h, sigma: int) -> list:
    """The nonzero terms ``(a - s, b - t, re, im)`` that ``exp(c*x*y)``, ``c = u*h``,
    makes of ``delta^((a, b))`` at ``(x, y)``, with its character left out;
    the factor is ``re + u*im`` in the ring where ``u*u = sigma``.

    ``factor = (-1)^(s+t) binom(a, s) binom(b, t) sum_{j <= min(s, t)}
    binom(s, j) binom(t, j) j! c^(s+t-j) x^(t-j) y^(s-j)``, the closed form of
    ``d_x^s d_y^t exp(c*x*y) / exp(c*x*y)``.  ``c^n = h^n sigma^(n//2) u^(n%2)``.
    At ``x = 0`` only ``j = t`` survives and at ``y = 0`` only ``j = s``;
    zero factors are dropped here, before any product is formed.

    The rational form of ``distributions._pair_factors``, which works on
    integer numerators; the oracle keeps it so that it shares no kernel code
    with the route it checks.
    """
    out = []
    for s in range(a + 1):
        for t in range(b + 1):
            parts = [0, 0]
            for j in range(min(s, t) + 1):
                if (t > j and not x) or (s > j and not y):
                    continue
                n = s + t - j
                parts[n % 2] += (
                    math.comb(s, j) * math.comb(t, j) * math.factorial(j)
                    * sigma ** (n // 2) * h**n * x ** (t - j) * y ** (s - j)
                )
            if any(parts):
                scale = (-1) ** (s + t) * math.comb(a, s) * math.comb(b, t)
                out.append((a - s, b - t, scale * parts[0], scale * parts[1]))
    return out


def _flat_atoms(distribution):
    """The ``(loc, order, r, weight)`` terms of ``distribution``, read from its
    public view."""
    return [(loc, order, r, w) for loc, order, weight in distribution.atoms()
            for r, w in weight.items()]


def _distribution_of_parts(dim, sigma, acc) -> Ultradistribution:
    """The distribution of ``{(loc, order, r): [re, im]}``, built through the
    public constructor."""
    return Ultradistribution(dim, sigma, [
        (loc, order, CharSum.character(r, sigma, w))
        for (loc, order, r), w in from_parts(acc, sigma).items()
    ])


def _staged_star_distributional(a, b, h) -> ExpPoly:
    """The distributional star in stages, kept as the oracle of the one-pass
    ``star_distributional``.

    Builds the tensor of the two inverse transforms on ``(p1, q1, p2, q2)``,
    multiplies it by the twist ``exp(u*h*<q1, p2>)`` atom by atom (through
    the same per-pair closed form, in rationals), pushes the result forward
    under block addition of locations and orders, and transforms it back,
    each stage a distribution of its own.
    """
    h = Fraction(h)
    ta, tb = inverse_fourier_symbol(a, h), inverse_fourier_symbol(b, h)
    k = ta.dim // 2
    sigma = ta.sigma
    s = sigma.value
    twisted = {}
    for loc, order, r, w in _flat_atoms(ta.tensor(tb)):
        xs, ys = loc[k : 2 * k], loc[2 * k : 3 * k]
        per_pair = [
            _rational_pair_factors(*pair, h, s)
            for pair in zip(xs, ys, order[k : 2 * k], order[2 * k : 3 * k])
        ]
        phase = r + h * sum(x * y for x, y in zip(xs, ys))
        for choice in product(*per_pair):
            re, im = w.re, w.im
            for _, _, x, y in choice:
                re, im = re * x + s * im * y, re * y + im * x
            new_order = (order[:k] + tuple(c[0] for c in choice)
                         + tuple(c[1] for c in choice) + order[3 * k :])
            add_parts(twisted, (loc, new_order, phase), re, im)
    twisted = _distribution_of_parts(4 * k, sigma, twisted)
    pushed = {}
    for loc, order, r, w in _flat_atoms(twisted):
        key = (tuple(map(add, loc[: 2 * k], loc[2 * k :])),
               tuple(map(add, order[: 2 * k], order[2 * k :])), r)
        add_parts(pushed, key, w.re, w.im)
    pushed = _distribution_of_parts(2 * k, sigma, pushed)
    return symbol_from_distribution(pushed)


def _atom_symbol(rng, k, sigma):
    """A symbol on ``2k`` variables whose atoms sit away from the origin in
    about half of their coordinates and carry characters ``exp(u*r)`` and
    light-cone weights ``1 +- u``."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        freq = tuple(rng.choice((Fraction(0), _nonzero_fraction(rng))) for _ in range(2 * k))
        exps = [0] * (2 * k)
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(2 * k)] += 1
        weight = rng.choice((Binarion(1, 1, sigma), Binarion(1, -1, sigma),
                             _random_binarion(rng, sigma)))
        terms[(freq, tuple(exps))] = CharSum.character(Fraction(rng.randint(-2, 2), 2),
                                                       sigma, weight)
    return ExpPoly(2 * k, sigma, terms)


def _staged_oracle_cases():
    """``(a, b, h)`` for the staged oracle: light-cone weights, random
    polynomial symbols and atoms away from the origin, ``k = 1, 2, 3``."""
    rng = random.Random(61)
    cases = []
    for sigma in SIGMAS:
        for k in (1, 2, 3):
            h = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            wave = ExpPoly.character([_nonzero_fraction(rng) for _ in range(2 * k)], sigma)
            q, p = ExpPoly.coordinate(0, 2 * k, sigma), ExpPoly.coordinate(k, 2 * k, sigma)
            # (1+j)(1-j) = 0: in the hyperbolic ring every pair weight vanishes
            pairs = [(wave * p * Binarion(1, 1, sigma), wave * q * Binarion(1, -1, sigma)),
                     (_random_symbol(rng, k, sigma), _random_symbol(rng, k, sigma))]
            pairs += [(_atom_symbol(rng, k, sigma), _atom_symbol(rng, k, sigma))
                      for _ in range(12)]
            cases += [(a, b, h) for a, b in pairs]
    return cases


def test_star_distributional_matches_staged_oracle():
    for a, b, h in _staged_oracle_cases():
        got = star_distributional(a, b, h)
        assert got == _staged_star_distributional(a, b, h)
        _assert_clean(got)


# -- growth bound ----------------------------------------------------------------------


def test_growth_of_constant():
    for sigma in SIGMAS:
        c, r = paley_wiener_growth(ExpPoly.one(1, sigma), 8)
        assert c == 1.0 and r == 0.0


def test_growth_of_character():
    for sigma in SIGMAS:
        c, r = paley_wiener_growth(ExpPoly.character((1,), sigma), 10)
        assert c == pytest.approx(1.0, abs=1e-12)
        assert r == pytest.approx(1.0, abs=1e-12)


def test_growth_of_cubic():
    for sigma in SIGMAS:
        u = Binarion.unit(sigma)
        f = ExpPoly.monomial((3,), (-u) ** 3, sigma)
        c, r = paley_wiener_growth(f, 6)
        assert c == pytest.approx(6.0, abs=1e-12)
        assert r == pytest.approx(1.0, abs=1e-12)


def test_growth_tracks_character_frequency():
    for x0 in (Fraction(2), Fraction(5, 2)):
        c, r = paley_wiener_growth(ExpPoly.character((x0,), H), 12)
        assert c == pytest.approx(1.0, abs=1e-12)
        assert r == pytest.approx(float(x0), rel=1e-9)


# -- serialization ---------------------------------------------------------------------


def test_distribution_json_round_trip():
    rng = random.Random(37)
    for sigma in SIGMAS:
        lam = _random_distribution(rng, 2, sigma)
        assert Ultradistribution.from_json(lam.to_json()) == lam


def test_distribution_json_matches_documented_shape():
    lam = Ultradistribution.delta((Fraction(1, 2),), H, order=(1,), weight=Binarion(2, -1, H))
    data = lam.to_json_dict()
    assert data["dim"] == 1
    assert data["atoms"] == [
        {"loc": ["1/2"], "order": [1], "weight": {"re": "2", "im": "-1"}}
    ]


def test_exp_poly_json_round_trip():
    rng = random.Random(41)
    for sigma in SIGMAS:
        f = _random_exp_poly(rng, 2, sigma)
        assert ExpPoly.from_json(f.to_json()) == f
        twisted = f * ExpPoly.constant(CharSum.character(Fraction(1, 2), sigma), 2, sigma)
        assert ExpPoly.from_json(twisted.to_json()) == twisted


# -- exactness helpers -----------------------------------------------------------------


def test_shift_composition_and_leibniz():
    rng = random.Random(43)
    for sigma in SIGMAS:
        f = _random_exp_poly(rng, 2, sigma)
        g = _random_exp_poly(rng, 2, sigma)
        a = (Fraction(1, 2), Fraction(-1))
        bvec = (Fraction(2), Fraction(1, 3))
        total = tuple(x + y for x, y in zip(a, bvec))
        assert f.shift(a).shift(bvec) == f.shift(total)
        assert f.shift((0, 0)) == f
        # product rule for exact differentiation
        for index in range(2):
            lhs = (f * g).differentiate(index)
            rhs = f.differentiate(index) * g + f * g.differentiate(index)
            assert lhs == rhs
        # shifts commute with products
        assert (f * g).shift(a) == f.shift(a) * g.shift(a)

def test_derivative_multi_raises_every_order_in_one_pass():
    rng = random.Random(67)

    def iterated(lam, order):
        for axis, n in enumerate(order):
            for _ in range(n):
                lam = lam.derivative(axis)
        return lam

    for sigma in SIGMAS:
        for dim in (1, 2, 3):
            for _ in range(5):
                lam = _random_distribution(rng, dim, sigma)
                order = tuple(rng.randint(0, 3) for _ in range(dim))
                got = lam.derivative_multi(order)
                assert got == iterated(lam, order)
                _assert_clean(got)
        lam = _random_distribution(rng, 3, sigma)
        # a short order leaves the remaining axes alone
        assert lam.derivative_multi((2,)) == iterated(lam, (2, 0, 0))
        # entries below one are no-ops
        assert lam.derivative_multi((1, -2, 3)) == iterated(lam, (1, 0, 3))
        assert lam.derivative_multi(()) == lam
        # entries past dim raise only when positive
        assert lam.derivative_multi((0, 1, 0, -1, 0)) == lam.derivative(1)
        for order in ((0, 0, 0, 1), (1, 1, 1, 0, 2)):
            with pytest.raises(IndexError, match="out of range for dim 3"):
                lam.derivative_multi(order)


# -- closed-form differentiation and the polynomial embedding ---------------------------


def _iterated_differentiate(f, order):
    """``d^order f`` one single derivative at a time, kept as the oracle of
    the closed-form ``ExpPoly.differentiate_multi``."""
    for index, n in enumerate(order):
        for _ in range(n):
            f = f.differentiate(index)
    return f


def _mixed_exp_poly(rng, dim, sigma):
    """Terms ``c x^e exp(u<f, x>)`` with each frequency entry zero half of the
    time and coefficients that carry characters ``exp(u*r)``, ``r != 0``."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        freq = tuple(rng.choice((Fraction(0), _nonzero_fraction(rng))) for _ in range(dim))
        exps = tuple(rng.randint(0, 3) for _ in range(dim))
        chars = {Fraction(rng.randint(-2, 2), 2): _random_binarion(rng, sigma)
                 for _ in range(rng.randint(1, 2))}
        terms[(freq, exps)] = CharSum(chars, sigma)
    return ExpPoly(dim, sigma, terms)


def _differentiate_multi_cases():
    """``(f, order)`` for the iterated oracle, in both rings, ``dim = 1..4``."""
    rng = random.Random(53)
    cases = []
    for sigma in SIGMAS:
        for dim in (1, 2, 3, 4):
            light_cone = Binarion(1, 1, sigma)
            x = ExpPoly.coordinate(0, dim, sigma)
            cases += [
                # (1+j)*(1-j) = 0 under the unit swap: hyperbolic terms cancel
                (ExpPoly.character((Fraction(1, 2),) * dim, sigma, light_cone) * x**2,
                 (3,) + (0,) * (dim - 1)),
                # x^2 at frequency zero dies at the third derivative
                (x**2, (3,) + (1,) * (dim - 1)),
                (ExpPoly.zero(dim, sigma), (1,) * dim),
            ]
            cases += [
                (_mixed_exp_poly(rng, dim, sigma),
                 tuple(rng.randint(0, 3) for _ in range(dim)))
                for _ in range(10)
            ]
    return cases


def test_differentiate_multi_matches_iterated_oracle():
    for f, order in _differentiate_multi_cases():
        got = f.differentiate_multi(order)
        assert got == _iterated_differentiate(f, order)
        _assert_clean(got)


def test_differentiate_multi_edge_cases():
    rng = random.Random(59)
    for sigma in SIGMAS:
        f = _mixed_exp_poly(rng, 3, sigma)
        # a short order leaves the remaining axes alone
        assert f.differentiate_multi((2,)) == _iterated_differentiate(f, (2, 0, 0))
        assert f.differentiate_multi((1, 2)) == _iterated_differentiate(f, (1, 2, 0))
        # negative entries are no-ops, as an empty range of single steps
        assert f.differentiate_multi((-1, 2, -3)) == _iterated_differentiate(f, (0, 2, 0))
        # a zero order returns an equal element
        assert f.differentiate_multi((0, 0, 0)) == f
        assert f.differentiate_multi(()) == f
        # entries past dim raise only when positive
        assert f.differentiate_multi((1, 0, 0, 0, -2)) == f.differentiate(0)
        for order in ((0, 0, 0, 1), (1, 1, 1, 0, 2)):
            with pytest.raises(IndexError, match="out of range for dim 3"):
                f.differentiate_multi(order)


# -- the memos of factor rows ---------------------------------------------------------------
#
# ``_axis_row`` (``differentiate_multi``) is memoized per process by ``(n, e)``
# and ``_twist_row`` (``_pair_factors``) by ``(a, b, x == 0, y == 0, sigma)``.
# No result may depend on what the memos hold: cold, warm, or cycled through a
# bound smaller than the rows pushed through them.

MEMOS = ("_axis_row", "_twist_row")


def _clear_memos():
    for name in MEMOS:
        getattr(distributions, name).cache_clear()


def _misses() -> list:
    return [getattr(distributions, name).cache_info().misses for name in MEMOS]


def _stored(element):
    return element._terms, element._cden, element._den


def _memo_results() -> list:
    """Every result of the three oracle tests that meet the memos, each
    checked against its oracle."""
    from hypermoyal import compose_check

    out = []
    for f, order in _differentiate_multi_cases():
        out.append(f.differentiate_multi(order))
        assert out[-1] == _iterated_differentiate(f, order)
    for a, b, h in _staged_oracle_cases():
        out.append(star_distributional(a, b, h))
        assert out[-1] == _staged_star_distributional(a, b, h)
    for a, b, phi in _nonzero_twist_cases():
        check = compose_check(a, b, phi)
        assert check
        out.append(check.lhs.func)
    return out


def test_factor_memos_cold_and_warm_give_equal_results(monkeypatch):
    _memo_results()
    misses = _misses()
    warm = _memo_results()
    assert _misses() == misses  # every row memoized
    # a stand-in of bound 0 keeps nothing: every row is built cold
    for name in MEMOS:
        memo = getattr(distributions, name)
        monkeypatch.setattr(distributions, name, functools.lru_cache(maxsize=0)(memo.__wrapped__))
    cold = _memo_results()
    assert cold == warm
    assert list(map(_stored, cold)) == list(map(_stored, warm))


def test_memoized_factor_rows_are_tuples():
    _clear_memos()
    row = distributions._axis_row(2, 3)
    assert distributions._axis_row(2, 3) is row
    assert row == ((3, 1, 2), (2, 6, 1), (1, 6, 0))  # d^2 x^3: (u f)^2 x^3 + 6 (u f) x^2 + 6x
    twist = distributions._twist_row(1, 1, True, True, -1)
    assert distributions._twist_row(1, 1, True, True, -1) is twist
    # at the origin delta^((1, 1)) keeps j = s = t: the factors 1 and c = u*h
    assert twist == ((1, 1, ((0, 1, (0, 2, 0, 1, 0, 1)),)),
                     (0, 0, ((1, 1, (1, 1, 0, 1, 0, 1)),)))
    for value in (row, twist, twist[0][2]):
        assert isinstance(value, tuple) and all(isinstance(term, tuple) for term in value)


def test_full_factor_memos_evict_and_results_stay_equal(monkeypatch):
    expected = _memo_results()
    bound = 8
    stand_ins = []
    for name in MEMOS:
        stand_ins.append(functools.lru_cache(maxsize=bound)(
            getattr(distributions, name).__wrapped__))
        monkeypatch.setattr(distributions, name, stand_ins[-1])
    got = _memo_results()
    for stand_in in stand_ins:
        info = stand_in.cache_info()
        assert info.misses > 4 * bound  # far more rows built than the bound holds
        assert info.currsize <= bound
    assert got == expected
    assert list(map(_stored, got)) == list(map(_stored, expected))


def _recorded_memo(monkeypatch, name) -> list:
    """Stand in a memo of the same bound that records each value it keeps."""
    kept, build = [], getattr(distributions, name).__wrapped__

    def recording(*args):
        kept.append(build(*args))
        return kept[-1]

    monkeypatch.setattr(distributions, name,
                        functools.lru_cache(maxsize=FACTOR_ROWS)(recording))
    return kept


def _pair_factors_as_fractions(x, y, a, b, h, sigma) -> list:
    """``distributions._pair_factors`` at rational ``x``, ``y`` and ``h``, its
    integer parts divided by their denominator ``hd^(a+b) xd^b yd^a``."""
    x, y, h = Fraction(x), Fraction(y), Fraction(h)
    den = h.denominator ** (a + b) * x.denominator**b * y.denominator**a
    return [(s, t, Fraction(re, den), Fraction(im, den))
            for s, t, re, im in distributions._pair_factors(
                (x.numerator, x.denominator), (y.numerator, y.denominator), a, b,
                (h.numerator, h.denominator), sigma)]


def test_factor_memos_keep_no_row_above_the_bound(monkeypatch):
    """Rows past the bound leave their slots empty, and the rows built in their
    place give the results that memoized rows give under a raised bound."""
    top = FACTOR_ROW_TERMS
    # off the origin, (a, b) = (4, 4) has 55 terms; a = 32 or b = 32 reaches the bound
    twists = [(Fraction(1, 2), Fraction(-3, 5), 4, 4), (0, 0, top, 1), (0, Fraction(1, 3), 1, top)]
    f = ExpPoly.monomial((top + 1,), 1, H) + ExpPoly.character((Fraction(1, 3),), H)

    def results():
        twisted = [_pair_factors_as_fractions(x, y, a, b, Fraction(2, 3), sigma)
                   for sigma in (1, -1) for x, y, a, b in twists]
        return twisted, f.differentiate_multi((top,))

    twist_rows = _recorded_memo(monkeypatch, "_twist_row")
    axis_rows = _recorded_memo(monkeypatch, "_axis_row")
    twisted, derived = results()
    assert twisted == [_rational_pair_factors(Fraction(x), Fraction(y), a, b, Fraction(2, 3),
                                              sigma)
                       for sigma in (1, -1) for x, y, a, b in twists]
    assert derived == _iterated_differentiate(f, (top,))
    assert results() == (twisted, derived)
    assert twist_rows == [()] * 6 and axis_rows == [(), ()]
    assert distributions._axis_row.cache_info().hits == 2
    monkeypatch.setattr(distributions, "FACTOR_ROW_TERMS", 64)
    _clear_memos()
    assert results() == (twisted, derived)  # the same results from memoized rows
    assert max(map(len, axis_rows)) > top and all(twist_rows[6:])


def _traced_size(build) -> int:
    """The bytes that what ``build()`` returns holds, traced as it is built."""
    tracemalloc.start()
    try:
        kept = build()  # held while it is measured
        return tracemalloc.get_traced_memory()[0] if kept else 0
    finally:
        tracemalloc.stop()


def test_factor_row_bound_caps_the_memo_memory():
    """The bound admits 32 * 32 axis rows, under 2 MB together (1.2 MB when
    measured), and the largest twist row it admits, ``(a, b) = (30, 31)`` at
    the origin, takes under 4 KB, so a full memo of twist rows stays under
    4 MB."""
    assert FACTOR_ROWS == FACTOR_ROW_TERMS**2 == 1024
    axis_rows = _traced_size(lambda: [distributions._axis_factors(n, e)
                                      for n in range(32) for e in range(32)])
    assert axis_rows < 2_000_000
    largest = distributions._twist_terms(30, 31, True, True, -1)
    assert sum(len(terms) for _, _, terms in largest) == 31
    assert _traced_size(lambda: distributions._twist_terms(30, 31, True, True, -1)) < 4_000
    assert distributions._twist_row(30, 31, True, True, -1) == largest
    assert distributions._twist_row(31, 31, False, True, -1) == ()


def test_twist_rows_at_and_off_the_origin_in_one_process():
    """One ``(a, b, sigma)`` twisted at the origin and off it, at locations of
    either sign, in both rings, in one process: each zero pattern has its
    own memoized row."""
    distributions._twist_row.cache_clear()
    h = Fraction(2, 3)
    points = [(0, 0), (Fraction(1, 2), 0), (0, Fraction(-3, 5)),
              (Fraction(1, 2), Fraction(-3, 5)), (Fraction(-1, 2), Fraction(3, 5)), (0, 0)]
    for sigma in (1, -1, 1):
        for a, b in ((2, 3), (3, 1), (1, 1)):
            for x, y in points:
                assert _pair_factors_as_fractions(x, y, a, b, h, sigma) == _rational_pair_factors(
                    Fraction(x), Fraction(y), a, b, h, sigma)
    info = distributions._twist_row.cache_info()
    assert info.currsize == 2 * 3 * 4 and info.hits > 0


def test_full_selftest_is_byte_identical_from_cold_and_warm_factor_memos():
    """One pass of the full ``selftest --seed 0`` from cold memos of
    derivative, axis and twist rows fills under a quarter of each factor
    memo, and a warm pass reports the same bytes."""
    operators._derivative_row.cache_clear()
    _clear_memos()
    cold = selftest.canonical_json(selftest._payload(0, selftest._sizes(fast=False)))
    for name in MEMOS:
        assert 0 < getattr(distributions, name).cache_info().currsize < FACTOR_ROWS / 4
    warm = selftest.canonical_json(selftest._payload(0, selftest._sizes(fast=False)))
    for memo in (operators._derivative_row, distributions._axis_row, distributions._twist_row):
        assert memo.cache_info().hits > 0
    assert cold == warm


def _embed_via_terms(symbol, h=None):
    """The regrouping embedding, kept as the oracle of ``ExpPoly.from_poly_symbol``."""
    dim = 2 * symbol.dof
    terms = {}
    for alpha, beta, coeff in symbol.terms():
        if h is None and coeff.degree() > 0:
            raise ValueError("symbol carries formal h; pass a numeric h")
        value = coeff.constant_term if h is None else coeff.substitute(h)
        terms[((0,) * dim, alpha + beta)] = value
    return ExpPoly(dim, symbol.sigma, terms)


def test_from_poly_symbol_matches_terms_rebuild():
    rng = random.Random(61)
    for sigma in SIGMAS:
        for k in (1, 2, 3):
            mono = ((1,) + (0,) * (k - 1), (0,) * k)
            h = Fraction(1, 2)
            # (2 - u) + (-4 + 2u)*h vanishes at h = 1/2; (1 + u)*h^2 does not
            cancels = PolySymbol(k, sigma, {
                mono: HPoly({0: Binarion(2, -1, sigma), 1: Binarion(-4, 2, sigma)}, sigma),
                ((0,) * k, (0,) * k): HPoly({2: Binarion(1, 1, sigma)}, sigma),
            })
            embedded = ExpPoly.from_poly_symbol(cancels, h)
            assert embedded == _embed_via_terms(cancels, h)
            assert embedded == ExpPoly.constant(Binarion(1, 1, sigma) * h**2, 2 * k, sigma)
            zero = PolySymbol.zero(k, sigma)
            cases = [(cancels, h), (zero, h), (zero, None)]
            for _ in range(8):
                symbol = _random_symbol(rng, k, sigma)
                cases.append((symbol, None))
                hbar = HPoly({d: _random_binarion(rng, sigma) for d in range(rng.randint(1, 3))},
                             sigma)
                cases.append((symbol.scale_hpoly(hbar), Fraction(rng.randint(1, 4), 3)))
            for symbol, value in cases:
                got = ExpPoly.from_poly_symbol(symbol, value)
                assert got == _embed_via_terms(symbol, value)
                _assert_clean(got)


def test_from_poly_symbol_rejects_formal_h():
    for sigma in SIGMAS:
        symbol = PolySymbol.monomial((1,), (1,), 1, sigma, h_degree=1)
        with pytest.raises(ValueError, match="symbol carries formal h; pass a numeric h"):
            ExpPoly.from_poly_symbol(symbol)
        with pytest.raises(ValueError, match="symbol carries formal h; pass a numeric h"):
            _embed_via_terms(symbol)
        assert ExpPoly.from_poly_symbol(symbol, 2) == ExpPoly.monomial((1, 1), 2, sigma)
