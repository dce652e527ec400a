"""Tests for pseudo-differential operator application and composition."""

import random
from fractions import Fraction

import pytest

from hypermoyal import (
    Binarion,
    DegreeCapError,
    DimensionMismatchError,
    ExpPoly,
    Operator,
    PolySymbol,
    Sigma,
    SignatureMismatchError,
    WaveFunction,
    commutator,
    compose_check,
    moyal_bracket,
    plane_wave_eigenvalue,
    star,
)

H = Sigma.HYPERBOLIC
C = Sigma.COMPLEX
SIGMAS = (H, C)


def _random_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


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
        coeff = Binarion(_random_fraction(rng), _random_fraction(rng), sigma)
        key = (tuple(alpha), tuple(beta))
        existing = terms.get(key)
        terms[key] = coeff if existing is None else existing + coeff
    return PolySymbol(k, sigma, terms)


def _random_wavefunction(rng, k, sigma, h):
    momentum = tuple(_random_fraction(rng) for _ in range(k))
    wave = WaveFunction.plane_wave(momentum, h, sigma)
    poly = ExpPoly.constant(Binarion(1, 0, sigma), k, sigma)
    for _ in range(rng.randint(0, 2)):
        index = rng.randrange(k)
        poly = poly * (
            ExpPoly.coordinate(index, k, sigma)
            + ExpPoly.constant(_random_fraction(rng), k, sigma)
        )
    return WaveFunction(poly * wave.func, h)


def _quadratic_wavefunction(sigma, h, momentum=Fraction(1, 2)):
    """(1 + q)^2 times a plane wave."""
    base = ExpPoly.one(1, sigma) + ExpPoly.coordinate(0, 1, sigma)
    return WaveFunction(base * base * WaveFunction.plane_wave(momentum, h, sigma).func, h)


# -- representation of q and p -----------------------------------------------------


@pytest.mark.parametrize("sigma", SIGMAS)
def test_position_operator_multiplies(sigma):
    h = Fraction(1, 2)
    q = PolySymbol.coordinate("q", 0, 1, sigma)
    phi = _quadratic_wavefunction(sigma, h)
    got = Operator(q, h).apply(phi)
    assert got.func == phi.func * ExpPoly.coordinate(0, 1, sigma)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_momentum_operator_differentiates(sigma):
    h = Fraction(1, 2)
    p = PolySymbol.coordinate("p", 0, 1, sigma)
    phi = _quadratic_wavefunction(sigma, h)
    got = Operator(p, h).apply(phi)
    sigma_uh = Binarion(0, sigma.value * h, sigma)
    expected = phi.func.differentiate(0) * ExpPoly.constant(sigma_uh, 1, sigma)
    assert got.func == expected


@pytest.mark.parametrize("sigma", SIGMAS)
def test_character_symbol_shifts_argument(sigma):
    h = Fraction(1, 3)
    beta = Fraction(2)
    symbol = ExpPoly.character((Fraction(0), beta), sigma)
    phi = _quadratic_wavefunction(sigma, h)
    got = Operator(symbol, h).apply(phi)
    assert got.func == phi.func.shift((h * beta,))


# -- commutators ----------------------------------------------------------------------


@pytest.mark.parametrize("sigma", SIGMAS)
def test_canonical_commutator_on_wavefunctions(sigma):
    h = Fraction(1, 2)
    q = Operator(PolySymbol.coordinate("q", 0, 1, sigma), h)
    p = Operator(PolySymbol.coordinate("p", 0, 1, sigma), h)
    phi = _quadratic_wavefunction(sigma, h)
    got = commutator(q, p, phi)
    factor = Binarion(0, -sigma.value * h, sigma)  # -hj or +ih
    assert got.func == phi.func * ExpPoly.constant(factor, 1, sigma)
    assert commutator(q, q, phi).is_zero()


def test_commutator_matches_moyal_symbol():
    rng = random.Random(3)
    h = Fraction(1, 3)
    for sigma in SIGMAS:
        for _ in range(15):
            a = _random_symbol(rng, 1, sigma, max_degree=3, max_terms=2)
            b = _random_symbol(rng, 1, sigma, max_degree=3, max_terms=2)
            phi = _random_wavefunction(rng, 1, sigma, h)
            direct = commutator(Operator(a, h), Operator(b, h), phi)
            via_symbol = Operator(moyal_bracket(a, b).substitute_h(h), h).apply(phi)
            assert direct == via_symbol


# -- composition oracle ------------------------------------------------------------------


@pytest.mark.parametrize("sigma", SIGMAS)
def test_compose_check_p_q_on_q_squared(sigma):
    h = Fraction(1, 2)
    q = PolySymbol.coordinate("q", 0, 1, sigma)
    p = PolySymbol.coordinate("p", 0, 1, sigma)
    phi = WaveFunction(
        ExpPoly.monomial((2,), 1, sigma)
        * WaveFunction.plane_wave(Fraction(0), h, sigma).func,
        h,
    )
    result = compose_check(p, q, phi)
    assert result
    # hand expansion: both sides are sigma*u*h*(q^2 + 2q*...) applied forms;
    # the q-side multiplication operators commute trivially
    assert compose_check(q, q, phi)


def test_compose_check_randomized():
    rng = random.Random(7)
    h_values = (Fraction(1), Fraction(1, 3), Fraction(7, 2))
    for sigma in SIGMAS:
        for i in range(40):
            h = h_values[i % 3]
            k = 1 + (i % 2)
            a = _random_symbol(rng, k, sigma, max_degree=4, max_terms=2)
            b = _random_symbol(rng, k, sigma, max_degree=4, max_terms=2)
            phi = _random_wavefunction(rng, k, sigma, h)
            assert compose_check(a, b, phi)


def test_compose_check_degree_cap():
    """One cap on both routes: polynomial symbols (series) and exp-poly
    symbols (distributional star); ``None`` means the default cap."""
    h = Fraction(1, 2)
    for sigma in SIGMAS:
        q = PolySymbol.coordinate("q", 0, 1, sigma)
        p = PolySymbol.coordinate("p", 0, 1, sigma)
        phi = _quadratic_wavefunction(sigma, h)
        for embed in (lambda s: s, lambda s: ExpPoly.from_poly_symbol(s, h)):
            with pytest.raises(DegreeCapError):
                compose_check(embed(q**2), embed(p**2), phi, degree_cap=1)
            with pytest.raises(DegreeCapError):
                compose_check(embed(q**9), embed(q**8), phi)
            assert compose_check(embed(q**2), embed(p**2), phi, degree_cap=4)
            assert compose_check(embed(q**9), embed(q**8), phi, degree_cap=20)


def test_compose_check_reports_diff_on_mismatch():
    h = Fraction(1, 2)
    q = PolySymbol.coordinate("q", 0, 1, H)
    p = PolySymbol.coordinate("p", 0, 1, H)
    phi = _quadratic_wavefunction(H, h)
    # the pointwise product p*q is NOT the symbol of p-hat after q-hat;
    # the star product corrects it by sigma*u*h
    wrong = Operator((p * q).substitute_h(h), h).apply(phi)
    right = Operator(p, h).apply(Operator(q, h).apply(phi))
    assert wrong != right
    uh = Binarion(0, h, H)
    assert (right - wrong).func == phi.func * ExpPoly.constant(uh, 1, H)
    check = compose_check(p, q, phi)
    assert check and check.diff.is_zero()


# -- eigenrelation -------------------------------------------------------------------------


def test_plane_wave_eigenrelation_random():
    rng = random.Random(11)
    for sigma in SIGMAS:
        for i in range(40):
            k = 1 + (i % 2)
            h = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            a = _random_symbol(rng, k, sigma)
            momentum = tuple(_random_fraction(rng) for _ in range(k))
            wave = WaveFunction.plane_wave(momentum, h, sigma)
            got = Operator(a, h).apply(wave)
            expected = plane_wave_eigenvalue(a, momentum, h) * wave.func
            assert got.func == expected


# -- linearity and the two routes ------------------------------------------------------------


def test_apply_is_linear():
    rng = random.Random(13)
    h = Fraction(1, 2)
    for sigma in SIGMAS:
        a = _random_symbol(rng, 1, sigma)
        b = _random_symbol(rng, 1, sigma)
        phi = _random_wavefunction(rng, 1, sigma, h)
        psi = _random_wavefunction(rng, 1, sigma, h)
        op_a = Operator(a, h)
        op_b = Operator(b, h)
        op_ab = Operator(a + b, h)
        assert op_a.apply(phi + psi) == op_a.apply(phi) + op_a.apply(psi)
        assert op_ab.apply(phi) == op_a.apply(phi) + op_b.apply(phi)


def test_two_apply_routes_agree():
    rng = random.Random(17)
    for sigma in SIGMAS:
        for i in range(25):
            k = 1 + (i % 2)
            h = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            a = _random_symbol(rng, k, sigma, max_degree=3, max_terms=2)
            phi = _random_wavefunction(rng, k, sigma, h)
            op = Operator(a, h)
            assert op.apply_normal_ordered(phi) == op.apply_shift_form(phi)


# -- guards and serialization ------------------------------------------------------------------


def test_mismatches_rejected():
    h = Fraction(1, 2)
    q_h = Operator(PolySymbol.coordinate("q", 0, 1, H), h)
    phi_c = _quadratic_wavefunction(C, h)
    with pytest.raises(SignatureMismatchError):
        q_h.apply(phi_c)
    phi_other_h = _quadratic_wavefunction(H, Fraction(1, 3))
    with pytest.raises(ValueError):
        q_h.apply(phi_other_h)
    phi_2d = WaveFunction.plane_wave((Fraction(1), Fraction(1)), h, H)
    with pytest.raises(DimensionMismatchError):
        q_h.apply(phi_2d)
    with pytest.raises(ValueError):
        WaveFunction.plane_wave(Fraction(1), Fraction(-1), H)


def test_wavefunction_momenta():
    h = Fraction(1, 4)
    phi = WaveFunction.plane_wave(Fraction(3, 2), h, H)
    assert phi.momenta() == [(Fraction(3, 2),)]


def test_operator_json_round_trip():
    rng = random.Random(19)
    h = Fraction(2, 3)
    for sigma in SIGMAS:
        a = _random_symbol(rng, 1, sigma)
        op = Operator(a, h)
        back = Operator.from_json_dict(op.to_json_dict())
        assert back.symbol == a and back.h == h and back.sigma is sigma
        exp_op = Operator(ExpPoly.character((Fraction(1), Fraction(2)), sigma), h)
        back2 = Operator.from_json_dict(exp_op.to_json_dict())
        assert back2.symbol == exp_op.symbol


def test_wavefunction_json_round_trip():
    rng = random.Random(23)
    for sigma in SIGMAS:
        phi = _random_wavefunction(rng, 2, sigma, Fraction(1, 2))
        assert WaveFunction.from_json_dict(phi.to_json_dict()) == phi


def test_star_then_apply_matches_spec_example():
    """apply(star(p, q), q^2) = 3*sigma*u*h*q^2 for the zero-momentum state."""
    h = Fraction(1, 2)
    for sigma in SIGMAS:
        q = PolySymbol.coordinate("q", 0, 1, sigma)
        p = PolySymbol.coordinate("p", 0, 1, sigma)
        phi = WaveFunction(
            ExpPoly.monomial((2,), 1, sigma)
            * WaveFunction.plane_wave(Fraction(0), h, sigma).func,
            h,
        )
        lhs = Operator(star(p, q).substitute_h(h), h).apply(phi)
        rhs = Operator(p, h).apply(Operator(q, h).apply(phi))
        assert lhs == rhs
        factor = Binarion(0, 3 * sigma.value * h, sigma)  # 3*sigma*u*h
        expected = phi.func * ExpPoly.constant(factor, 1, sigma)
        assert lhs.func == expected
