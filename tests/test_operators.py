"""Tests for pseudo-differential operator application and composition."""

import random
from fractions import Fraction

import pytest
from conftest import _quadratic_wavefunction
from test_refusals import refusal_tests
from test_sparse import _assert_clean

from hypermoyal import (
    Binarion,
    CharSum,
    ComposeCheck,
    DegreeCapError,
    ExpPoly,
    HPoly,
    Operator,
    PolySymbol,
    Sigma,
    WaveFunction,
    commutator,
    compose_check,
    moyal_bracket,
    plane_wave_eigenvalue,
    inverse_fourier_symbol,
    star,
)
from hypermoyal.selftest import _random_fraction, _random_symbol, _random_wavefunction

H = Sigma.HYPERBOLIC
C = Sigma.COMPLEX
globals().update(refusal_tests(__name__))  # the tests named in ``test_refusals.HOMES``
SIGMAS = (H, C)


def _iterated_apply(op: Operator, phi: WaveFunction) -> WaveFunction:
    """The normal-ordered action applied step by step, kept as the oracle of
    ``Operator.apply_normal_ordered``.

    Per symbol term ``c q^alpha p^beta``: ``beta`` single derivatives of
    ``phi``, then ``(sigma*u*h)^|beta|``, ``q^alpha`` and ``c`` at this ``h``
    as exp-poly products, summed one term at a time; independent of the
    closed-form pair kernel that ``apply_normal_ordered`` uses.
    """
    k = op.dof
    sigma = op.sigma
    su_h = Binarion(0, sigma.value * op.h, sigma)  # sigma*u*h
    out = ExpPoly.zero(k, sigma)
    for alpha, beta, coeff in op.symbol.terms():
        value = coeff.substitute(op.h)
        part = phi.func
        for i, b in enumerate(beta):
            for _ in range(b):
                part = part.differentiate(i)
        order = sum(beta)
        if order:
            part = part * ExpPoly.constant(su_h**order, k, sigma)
        for i, a in enumerate(alpha):
            if a:
                part = part * ExpPoly.coordinate(i, k, sigma) ** a
        out = out + part * ExpPoly.constant(value, k, sigma)
    return WaveFunction(out, op.h)


def _per_atom_shift_apply(op: Operator, phi: WaveFunction) -> WaveFunction:
    """The shift-route action summed one atom at a time, kept as the oracle of
    ``Operator.apply_shift_form``.

    For the atom ``w * delta^((r, s))`` at ``(A, B)``: ``s`` single
    derivatives of ``phi``, the shift by ``h*B``, then ``w * (-1)^(|r|+|s|) *
    u^|r| * h^|s|``, ``q^r`` and ``exp(u*<A, q>)`` as exp-poly products;
    independent of the grouped kernel that ``apply_shift_form`` uses.
    """
    sym = op.symbol
    if isinstance(sym, PolySymbol):
        sym = ExpPoly.from_poly_symbol(sym, op.h)
    k = op.dof
    sigma = op.sigma
    u = Binarion.unit(sigma)
    out = ExpPoly.zero(k, sigma)
    for loc, order, w in inverse_fourier_symbol(sym).atoms():
        a_vec, b_vec = loc[:k], loc[k:]
        r, s = order[:k], order[k:]
        part = phi.func
        for i, n in enumerate(s):
            for _ in range(n):
                part = part.differentiate(i)
        part = part.shift(tuple(op.h * b for b in b_vec))
        scalar = w * (u ** sum(r)) * (op.h ** sum(s))
        if sum(order) % 2:
            scalar = -scalar
        part = part * ExpPoly(k, sigma, {((Fraction(0),) * k, (0,) * k): scalar})
        for i, e in enumerate(r):
            if e:
                part = part * ExpPoly.coordinate(i, k, sigma) ** e
        if any(a != 0 for a in a_vec):
            part = part * ExpPoly.character(a_vec, sigma)
        out = out + part
    return WaveFunction(out, op.h)


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


def _two_denominator_wavefunction(rng, k, sigma, h):
    """Plane waves of momenta 1/2 and 1/3 in every coordinate, each times a
    random linear factor: two frequency denominators in one wavefunction."""
    func = ExpPoly.zero(k, sigma)
    for momentum in (Fraction(1, 2), Fraction(1, 3)):
        factor = ExpPoly.coordinate(rng.randrange(k), k, sigma) + ExpPoly.constant(
            _random_fraction(rng), k, sigma
        )
        func = func + factor * WaveFunction.plane_wave((momentum,) * k, h, sigma).func
    return WaveFunction(func, h)


@pytest.mark.parametrize("seed, sigmas, count, wavefunction", [
    (7, SIGMAS, 40, _random_wavefunction),
    # ``apply_normal_ordered`` lifts each term from its own frequency
    # denominator onto the lcm of all of them; one frequency per wavefunction
    # (as in the row above) never exercises that lift
    (25, (H,), 20, _two_denominator_wavefunction),
    (25, (C,), 20, _two_denominator_wavefunction),
], ids=["randomized", "mixed_denominators_hyperbolic", "mixed_denominators_complex"])
def test_compose_check_randomized(seed, sigmas, count, wavefunction):
    """One generator per row, drawn through the signatures in turn."""
    rng = random.Random(seed)
    h_values = (Fraction(1), Fraction(1, 3), Fraction(7, 2))
    for sigma in sigmas:
        for i in range(count):
            h = h_values[i % 3]
            k = 1 + (i % 2)
            a = _random_symbol(rng, k, sigma, max_degree=4, max_terms=2)
            b = _random_symbol(rng, k, sigma, max_degree=4, max_terms=2)
            phi = wavefunction(rng, k, sigma, h)
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
            with pytest.raises(DegreeCapError, match="^star product degree 4 exceeds cap 1$"):
                compose_check(embed(q**2), embed(p**2), phi, degree_cap=1)
            with pytest.raises(DegreeCapError, match="^star product degree 17 exceeds cap 16$"):
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


def test_plane_wave_eigenvalue_sums_terms_that_meet_on_one_power():
    """``q*p + 2*q*p^2`` at momentum 3 is ``3*q + 18*q = 21*q``."""
    a = PolySymbol.monomial((1,), (1,), 1, H) + PolySymbol.monomial((1,), (2,), 2, H)
    assert plane_wave_eigenvalue(a, 3, 1) == ExpPoly.monomial((1,), 21, H)
    assert plane_wave_eigenvalue(a, (0,), 1).is_zero()


def test_plane_wave_eigenrelation_random():
    rng = random.Random(11)
    for sigma in SIGMAS:
        for i in range(40):
            k = 1 + (i % 2)
            h = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            a = _random_symbol(rng, k, sigma, 4)
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
        a = _random_symbol(rng, 1, sigma, 4)
        b = _random_symbol(rng, 1, sigma, 4)
        phi = _random_wavefunction(rng, 1, sigma, h)
        psi = _random_wavefunction(rng, 1, sigma, h)
        # a factor 5 in psi's frequency denominator and none in phi's, so
        # phi + psi has a common denominator that neither part has alone
        psi = WaveFunction(psi.func * ExpPoly.character((Fraction(1, 5),), sigma), h)
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


def _h_symbol(rng, k, sigma):
    """Random symbol whose coefficients carry powers of the formal ``h``."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        alpha = tuple(rng.randint(0, 2) for _ in range(k))
        beta = tuple(rng.randint(0, 3) for _ in range(k))
        coeff = HPoly(
            {d: Binarion(_random_fraction(rng), _random_fraction(rng), sigma)
             for d in rng.sample(range(3), rng.randint(1, 2))},
            sigma,
        )
        terms[(alpha, beta)] = terms[(alpha, beta)] + coeff if (alpha, beta) in terms else coeff
    return PolySymbol(k, sigma, terms)


def _mixed_wavefunction(rng, k, sigma, h):
    """A sum of ``q^e exp(u<f, q>)`` terms, some coordinates at frequency zero;
    shifted half of the time, which adds character exponents ``r`` and
    terms that collide."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        freq = tuple(rng.choice((Fraction(0), _random_fraction(rng))) for _ in range(k))
        exps = tuple(rng.randint(0, 3) for _ in range(k))
        terms[(freq, exps)] = Binarion(_random_fraction(rng), _random_fraction(rng), sigma)
    phi = WaveFunction(ExpPoly(k, sigma, terms), h)
    if rng.random() < 0.5:
        phi = phi.shift(tuple(_random_fraction(rng) for _ in range(k)))
    return phi


def _normal_ordered_cases():
    """Pairs of an operator and a wavefunction for the normal-ordered oracle,
    in both rings and for one to three degrees of freedom;
    ``tests/test_memos.py`` checks them from cold, warm and evicting memos."""
    rng = random.Random(29)
    cases = []
    for sigma in SIGMAS:
        for k in (1, 2, 3):
            h = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            one = ExpPoly.one(k, sigma)
            q = ExpPoly.coordinate(0, k, sigma)
            light_cone = Binarion(1, 1, sigma)
            fixed = [
                # (1+j)*(1-j) = 0: every product vanishes in the hyperbolic ring
                (PolySymbol.monomial((1,) + (0,) * (k - 1), (2,) + (0,) * (k - 1),
                                     light_cone, sigma),
                 WaveFunction((q**3 + one) * Binarion(1, -1, sigma), h)),
                # q*p and 1 both send q to q
                (PolySymbol.monomial((1,) * k, (1,) * k, 1, sigma) + 1,
                 WaveFunction(q + q * q, h)),
                (_h_symbol(rng, k, sigma), WaveFunction.zero(k, h, sigma)),
                (_h_symbol(rng, k, sigma), WaveFunction(q, h).shift((Fraction(1),) * k)),
            ]
            cases += [(Operator(symbol, h), phi) for symbol, phi in fixed]
            cases += [(Operator(_h_symbol(rng, k, sigma), h), _mixed_wavefunction(rng, k, sigma, h))
                      for _ in range(12)]
    return cases


def _exp_symbol(rng, k, sigma):
    """A phase-space ``ExpPoly`` whose terms ``c q^r p^s exp(u(<A, q> + <B, p>))``
    have each of ``A`` and ``B`` zero or not at random and coefficients with
    characters ``exp(u*rho)``, ``rho != 0``; repeated ``(s, B)`` pairs put
    several atoms in one group of the shift route."""
    terms = {}
    b_choices = [(Fraction(0),) * k, tuple(_random_fraction(rng) for _ in range(k))]
    for _ in range(rng.randint(1, 4)):
        a_vec = rng.choice(((Fraction(0),) * k, tuple(_random_fraction(rng) for _ in range(k))))
        freq = a_vec + rng.choice(b_choices)
        exps = tuple(rng.randint(0, 2) for _ in range(2 * k))
        chars = {Fraction(rng.randint(-2, 2), 2): Binarion(_random_fraction(rng),
                                                           _random_fraction(rng), sigma)
                 for _ in range(rng.randint(1, 2))}
        terms[(freq, exps)] = CharSum(chars, sigma)
    return ExpPoly(2 * k, sigma, terms)


def test_apply_shift_form_matches_per_atom_oracle():
    rng = random.Random(37)
    for sigma in SIGMAS:
        for k in (1, 2, 3):
            h = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            a_b = ExpPoly.character((Fraction(1),) * k + (Fraction(-1, 2),) * k, sigma,
                                    CharSum.character(Fraction(1, 2), sigma, Binarion(1, 1, sigma)))
            qp = ExpPoly.monomial((1,) * (2 * k), 1, sigma)
            q_squared = ExpPoly.coordinate(0, k, sigma) ** 2
            fixed = [
                # weights (1+j)*(1-j) = 0: every hyperbolic product vanishes
                (a_b * qp, WaveFunction(q_squared * Binarion(1, -1, sigma), h)),
                (_exp_symbol(rng, k, sigma), WaveFunction.zero(k, h, sigma)),
                (_h_symbol(rng, k, sigma), _mixed_wavefunction(rng, k, sigma, h)),
            ]
            cases = fixed + [
                (_exp_symbol(rng, k, sigma), _mixed_wavefunction(rng, k, sigma, h))
                for _ in range(6)
            ]
            for symbol, phi in cases:
                op = Operator(symbol, h)
                got = op.apply_shift_form(phi)
                assert got == _per_atom_shift_apply(op, phi)
                _assert_clean(got.func)


class _FailsOnUse:
    def __getattr__(self, name):
        raise AssertionError(f"wavefunction read before the degree cap check: {name}")


def test_apply_checks_degree_cap_first(monkeypatch):
    """Every route refuses a symbol beyond the cap before it touches ``phi``;
    ``None`` means the default cap, as for ``star``."""
    h = Fraction(1, 2)
    for sigma in SIGMAS:
        q = PolySymbol.coordinate("q", 0, 1, sigma)
        poly = Operator(q**17, h)
        exp = Operator(ExpPoly.from_poly_symbol(q**17, h), h)
        phi = _quadratic_wavefunction(sigma, h)
        assert poly.apply(phi, degree_cap=17) == _iterated_apply(poly, phi)
        assert exp.apply(phi, degree_cap=17) == poly.apply_shift_form(phi, degree_cap=17)
        monkeypatch.setattr(phi, "func", _FailsOnUse())
        for route in (poly.apply, poly.apply_normal_ordered, poly.apply_shift_form,
                      exp.apply, exp.apply_shift_form):
            with pytest.raises(DegreeCapError, match="^operator symbol degree 17 exceeds cap 16$"):
                route(phi)
            with pytest.raises(DegreeCapError, match="^operator symbol degree 17 exceeds cap 3$"):
                route(phi, degree_cap=3)


# -- guards and serialization ------------------------------------------------------------------


def test_wavefunction_momenta():
    h = Fraction(1, 4)
    phi = WaveFunction.plane_wave(Fraction(3, 2), h, H)
    assert phi.momenta() == [(Fraction(3, 2),)]


@pytest.mark.parametrize("sigma", SIGMAS)
def test_wavefunction_negation_derivative_and_value(sigma):
    """``exp(u*4*q)`` at ``h = 1/2``: its negation, its derivative ``4u`` times
    itself, and its value ``e^(u)`` at ``q = 1/4``."""
    phi = WaveFunction.plane_wave(2, Fraction(1, 2), sigma)
    assert -phi == WaveFunction(ExpPoly.character((4,), sigma, -1), Fraction(1, 2))
    assert (phi + -phi).is_zero()
    assert phi.differentiate() == phi * Binarion(0, 4, sigma)
    assert phi.differentiate().differentiate() == phi * (Binarion(0, 4, sigma) ** 2)
    assert phi.evaluate((Fraction(1, 4),)) == CharSum.character(1, sigma)


def test_compose_check_repr_shows_the_difference_only_on_failure():
    phi = WaveFunction.plane_wave(2, Fraction(1, 2), H)
    assert repr(ComposeCheck(True, phi, phi, ExpPoly.zero(1, H))) == "ComposeCheck(ok=True)"
    failed = ComposeCheck(False, phi, -phi, 2 * phi.func)
    assert repr(failed) == "ComposeCheck(ok=False, diff=2*exp(j*(4*x1)))"


def test_operator_json_round_trip():
    rng = random.Random(19)
    h = Fraction(2, 3)
    for sigma in SIGMAS:
        a = _random_symbol(rng, 1, sigma, 4)
        op = Operator(a, h)
        back = Operator.from_json_dict(op.to_json_dict())
        assert back.symbol == a and back.h == h and back.sigma is sigma
        exp_op = Operator(ExpPoly.character((Fraction(1), Fraction(2)), sigma), h)
        back2 = Operator.from_json_dict(exp_op.to_json_dict())
        assert back2.symbol == exp_op.symbol


def test_operator_equality_compares_symbol_h_and_sigma():
    rng = random.Random(29)
    h = Fraction(2, 3)
    for sigma in SIGMAS:
        a = _random_symbol(rng, 1, sigma, 4)
        op = Operator(a, h)
        assert op == Operator(a + 0, h, sigma)
        assert op != Operator(a, Fraction(1, 3))
        assert op != Operator(a + 1, h)
        assert op != Operator(ExpPoly.from_poly_symbol(a), h)
        assert op != a
    assert Operator(PolySymbol.one(1, H), h) != Operator(PolySymbol.one(1, C), h)


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

