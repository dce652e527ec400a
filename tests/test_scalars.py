"""Tests for the binarion scalar ring under both signatures."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_refusals import refusal_tests

from hypermoyal import (
    Amplitude2,
    Binarion,
    CharSum,
    GClass,
    HPolar,
    Sigma,
    ZeroDivisorError,
    character,
    parse_binarion,
    polar,
)
from hypermoyal.scalars import _as_fraction, _json_fraction

H = Sigma.HYPERBOLIC
C = Sigma.COMPLEX
globals().update(refusal_tests(__name__))  # the tests named in ``test_refusals.HOMES``
SIGMAS = (H, C)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def b(re, im, sigma):
    return Binarion(Fraction(re), Fraction(im), sigma)


# -- worked examples ---------------------------------------------------------


def test_light_cone_product_vanishes():
    z = b(1, 1, H)
    assert z * z.conjugate() == 0


def test_complex_modulus_product():
    z = b(1, 1, C)
    assert z * z.conjugate() == 2


def test_conjugation():
    assert b(3, 2, H).conjugate() == b(3, -2, H)


def test_modulus_sq_values():
    assert b(2, 1, H).modulus_sq() == 3
    assert b(1, 1, H).modulus_sq() == 0
    assert b(1, 1, H).pos_norm_sq() == 2


def test_invert_multiplies_back():
    z = b(2, 1, H)
    inv = z.invert()
    assert inv == Binarion(Fraction(2, 3), Fraction(-1, 3), H)
    assert z * inv == 1


def test_invert_unit():
    j = Binarion.unit(H)
    assert j.invert() == j
    i = Binarion.unit(C)
    assert i.invert() == -i


def test_negative_modulus_still_invertible():
    z = b(1, 2, H)
    assert z.classify() is GClass.NEGATIVE_MODULUS
    assert z * z.invert() == 1


# -- character (floating, tolerance 1e-12) -------------------------------------


def _series_cosh_sinh(x: Fraction, terms: int = 30):
    """Independent Taylor evaluation of cosh/sinh with exact rationals."""
    cosh = Fraction(0)
    sinh = Fraction(0)
    power = Fraction(1)
    factorial = 1
    for n in range(terms):
        term = power / factorial
        if n % 2 == 0:
            cosh += term
        else:
            sinh += term
        power *= x
        factorial *= n + 1
    return cosh, sinh


def test_character_identity():
    assert character(0.0, H) == Binarion(1, 0, H)
    assert character(0.0, C) == Binarion(1, 0, C)


def test_character_against_series_oracle():
    expected_cosh, expected_sinh = _series_cosh_sinh(Fraction(1))
    got = character(1.0, H)
    assert abs(got.re - expected_cosh) < 1e-12
    assert abs(got.im - expected_sinh) < 1e-12
    # frozen reference values from the series
    assert math.isclose(float(got.re), 1.5430806348152437, abs_tol=1e-12)
    assert math.isclose(float(got.im), 1.1752011936438014, abs_tol=1e-12)


def test_character_group_law():
    rng = random.Random(20240811)
    for sigma in SIGMAS:
        for _ in range(50):
            t1 = rng.uniform(-2, 2)
            t2 = rng.uniform(-2, 2)
            lhs = character(t1, sigma) * character(t2, sigma)
            rhs = character(t1 + t2, sigma)
            assert abs(lhs.re - rhs.re) < 1e-12
            assert abs(lhs.im - rhs.im) < 1e-12
            inv = character(t1, sigma) * character(-t1, sigma)
            assert abs(inv.re - 1) < 1e-12
            assert abs(inv.im) < 1e-12
            assert abs(character(t1, sigma).modulus_sq() - 1) < 1e-12


# -- polar decomposition ------------------------------------------------------------


def test_polar_of_one():
    hp = polar(Binarion(1, 0, H))
    assert hp.sign == 1
    assert hp.modulus == pytest.approx(1.0)
    assert hp.theta == pytest.approx(0.0)


def test_polar_of_negated_character():
    theta0 = 0.75
    z = -character(theta0, H)
    hp = polar(z)
    assert hp.sign == -1
    assert hp.modulus == pytest.approx(1.0, abs=1e-12)
    assert hp.theta == pytest.approx(theta0, abs=1e-12)


def test_polar_two_plus_j():
    hp = polar(b(2, 1, H))
    assert hp.sign == 1
    assert hp.modulus == pytest.approx(math.sqrt(3), abs=1e-12)
    # artanh(1/2) = log(3)/2
    assert hp.theta == pytest.approx(0.5 * math.log(3), abs=1e-12)
    back = hp.reconstruct()
    assert abs(back.re - 2) < 1e-12
    assert abs(back.im - 1) < 1e-12


def test_polar_round_trip_random():
    rng = random.Random(7)
    count = 0
    while count < 200:
        z = b(
            Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
            H,
        )
        if z.modulus_sq() <= 0:
            continue
        count += 1
        back = polar(z).reconstruct()
        scale = max(1.0, z.pos_norm())
        assert abs(back.re - z.re) / scale < 1e-12
        assert abs(back.im - z.im) / scale < 1e-12


# -- difference, quotient, negative power and hash, by value -------------------------


#: ``x = 3 + 2u`` and ``y = 1 + u/2`` give, per ring, ``x / y``, ``2 / y`` and
#: ``y^-2``, worked by hand from ``1/y = conj(y) / (1 - sigma/4)``.
QUOTIENTS = {
    H: (b(Fraction(8, 3), Fraction(2, 3), H), b(Fraction(8, 3), Fraction(-4, 3), H),
        b(Fraction(20, 9), Fraction(-16, 9), H)),
    C: (b(Fraction(16, 5), Fraction(2, 5), C), b(Fraction(8, 5), Fraction(-4, 5), C),
        b(Fraction(12, 25), Fraction(-16, 25), C)),
}


@pytest.mark.parametrize("sigma", SIGMAS)
def test_difference_quotient_and_negative_power_by_value(sigma):
    x, y = b(3, 2, sigma), b(1, Fraction(1, 2), sigma)
    assert x - y == b(2, Fraction(3, 2), sigma)
    assert 5 - y == b(4, Fraction(-1, 2), sigma)
    assert y - Fraction(1, 2) == b(Fraction(1, 2), Fraction(1, 2), sigma)
    assert (x / y, 2 / y, y**-2) == QUOTIENTS[sigma]
    assert y**-2 * y**2 == 1


def test_hash_agrees_with_equality_across_rings_and_with_rationals():
    assert hash(b(3, 0, H)) == hash(3) == hash(b(3, 0, C))
    assert hash(b(Fraction(1, 2), 0, C)) == hash(Fraction(1, 2))
    assert len({b(1, 2, H), b(1, 2, H), b(1, 2, C), b(1, 0, H), b(1, 0, C), 1}) == 3


# -- ring axioms, involution, classification ------------------------------------------


def _random_binarion(rng, sigma):
    return b(
        Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
        Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
        sigma,
    )


@pytest.mark.parametrize("sigma", SIGMAS)
def test_ring_axioms_exact(sigma):
    rng = random.Random(int(sigma.value) + 100)
    one = Binarion.one(sigma)
    for _ in range(500):
        x = _random_binarion(rng, sigma)
        y = _random_binarion(rng, sigma)
        z = _random_binarion(rng, sigma)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x * one == x
        assert x + (-x) == 0
        # involution laws
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        # norms
        assert (x * y).modulus_sq() == x.modulus_sq() * y.modulus_sq()
        assert x.pos_norm_sq() >= 0
        assert x.modulus_sq() == (x * x.conjugate()).re
        # classification partition
        tag = x.classify()
        if sigma is C:
            assert tag in (GClass.INVERTIBLE, GClass.ZERO)
        if tag in (GClass.INVERTIBLE, GClass.NEGATIVE_MODULUS):
            assert x * x.invert() == 1
        elif tag is GClass.LIGHT_CONE:
            assert x.modulus_sq() == 0 and not x.is_zero()
        else:
            assert x.is_zero()


@given(re1=fractions, im1=fractions, re2=fractions, im2=fractions)
def test_modulus_multiplicative_hypothesis(re1, im1, re2, im2):
    for sigma in SIGMAS:
        x = Binarion(re1, im1, sigma)
        y = Binarion(re2, im2, sigma)
        assert (x * y).modulus_sq() == x.modulus_sq() * y.modulus_sq()


@given(re=fractions, im=fractions)
def test_conjugation_is_involution_hypothesis(re, im):
    for sigma in SIGMAS:
        z = Binarion(re, im, sigma)
        assert z.conjugate().conjugate() == z
        assert z.modulus_sq() == z.re**2 - sigma.value * z.im**2


# -- the integer arithmetic by value ------------------------------------------------------

#: Parts with mixed denominators, zero among them.
parts = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def binarion_parts(draw):
    """The ``(re, im)`` of a binarion: general, zero, or on the light cone
    ``x = +-y``, where the hyperbolic ring has zero divisors."""
    re = draw(parts)
    shape = draw(st.sampled_from(("general", "zero", "light cone")))
    if shape == "zero":
        return Fraction(0), Fraction(0)
    if shape == "light cone":
        return re, draw(st.sampled_from((re, -re)))
    return re, draw(parts)


def _ref_mul(x, y, s):
    """``(a + u b)(c + u d)`` by the Fraction formula, ``u*u = s``."""
    return x[0] * y[0] + s * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ref_inverse(x, s):
    m = x[0] ** 2 - s * x[1] ** 2
    return (x[0] / m, -x[1] / m) if m else None


def _ref_power(x, n, s):
    if n < 0:
        x, n = _ref_inverse(x, s), -n
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = _ref_mul(out, x, s)
    return out


def _assert_value(z, expected, sigma):
    """``z`` has ``sigma`` and exactly the parts ``expected``, as reduced Fractions."""
    assert z.sigma is sigma and (z.re, z.im) == expected
    for part in (z.re, z.im):
        assert type(part) is Fraction and part.denominator > 0
        assert math.gcd(part.numerator, part.denominator) == 1


def _refusal(z) -> str:
    return ("cannot invert 0" if z.is_zero()
            else f"{z} lies on the light cone (z*conj(z) = 0) and is a zero divisor")


@given(x=binarion_parts(), y=binarion_parts(), r=parts)
def test_ring_operations_equal_the_fraction_formulas(x, y, r):
    for sigma in SIGMAS:
        s = sigma.value
        a, c = Binarion(*x, sigma), Binarion(*y, sigma)
        _assert_value(a + c, (x[0] + y[0], x[1] + y[1]), sigma)
        _assert_value(a - c, (x[0] - y[0], x[1] - y[1]), sigma)
        _assert_value(r - a, (r - x[0], -x[1]), sigma)
        _assert_value(-a, (-x[0], -x[1]), sigma)
        _assert_value(a.conjugate(), (x[0], -x[1]), sigma)
        _assert_value(a * c, _ref_mul(x, y, s), sigma)
        _assert_value(a * r, (x[0] * r, x[1] * r), sigma)
        if r:
            _assert_value(a / r, (x[0] / r, x[1] / r), sigma)
        else:
            with pytest.raises(ZeroDivisorError, match="^division by zero$"):
                a / r
        inverse = _ref_inverse(y, s)
        if inverse is None:
            for call in (c.invert, lambda: a / c, lambda: r / c):
                with pytest.raises(ZeroDivisorError) as err:
                    call()
                assert str(err.value) == _refusal(c)
        else:
            _assert_value(c.invert(), inverse, sigma)
            _assert_value(a / c, _ref_mul(x, inverse, s), sigma)
            _assert_value(r / c, (r * inverse[0], r * inverse[1]), sigma)


@given(x=binarion_parts(), n=st.integers(-6, 40))
def test_power_equals_repeated_fraction_products(x, n):
    for sigma in SIGMAS:
        z = Binarion(*x, sigma)
        if n < 0 and _ref_inverse(x, sigma.value) is None:
            with pytest.raises(ZeroDivisorError) as err:
                z**n
            assert str(err.value) == _refusal(z)
        else:
            _assert_value(z**n, _ref_power(x, n, sigma.value), sigma)


def test_power_of_the_unit_and_of_zero():
    for sigma in SIGMAS:
        u = Binarion.unit(sigma)
        assert [u**n for n in range(4)] == [1, u, sigma.value, sigma.value * u]
        assert Binarion.zero(sigma) ** 0 == 1 and Binarion.zero(sigma) ** 5 == 0
        half = Binarion(Fraction(1, 2), Fraction(1, 3), sigma)
        _assert_value(half**1, (Fraction(1, 2), Fraction(1, 3)), sigma)


# -- signature discipline and text form -----------------------------------------------


def test_parts_are_fractions_whatever_exact_type_they_come_in():
    class Third(Fraction):
        pass

    for sigma in SIGMAS:
        z = Binarion(3, True, sigma)
        assert type(z.re) is Fraction and type(z.im) is Fraction
        assert (z.re, z.im) == (3, 1)
        assert Binarion("2/6", Fraction(4), sigma) == Binarion(Fraction(1, 3), 4, sigma)
        assert type(Binarion(Third(1, 3), 0, sigma).re) is Third
        with pytest.raises(TypeError, match="^expected an exact rational, got float$"):
            Binarion(0.5, 0, sigma)
        with pytest.raises(TypeError, match="^expected an exact rational, got float$"):
            Binarion(1, 0.5, sigma)


def test_text_rendering():
    assert str(b(3, 2, H)) == "3 + 2j"
    assert str(b(3, -2, H)) == "3 - 2j"
    assert str(b(Fraction(3, 2), 1, C)) == "3/2 + 1i"
    assert str(b(0, -1, H)) == "-1j"
    assert str(b(5, 0, H)) == "5"


def test_text_parse_round_trip():
    rng = random.Random(3)
    for sigma in SIGMAS:
        for _ in range(100):
            z = _random_binarion(rng, sigma)
            assert parse_binarion(str(z), sigma) == z


# -- the text-to-rational reader -----------------------------------------------------


def test_as_fraction_reads_text():
    """Its refusals are rows of ``test_refusals.REFUSALS``; an exponent at the
    digit limit still reads."""
    assert _as_fraction(" -3/6 ") == Fraction(-1, 2)
    assert _as_fraction("0.25") == Fraction(1, 4)
    assert _json_fraction(0.5) == Fraction(1, 2)
    assert _as_fraction("1e4300") == 10**4300
    assert _as_fraction("-2.5E-4300") == Fraction(-25, 10**4301)
    assert _as_fraction("1e+4300") == _as_fraction("1E4300")


# -- the one choice of cos or cosh ----------------------------------------------
#
# The references below are the explicit formulas each caller used before the
# choice moved into one helper; the results must agree bit for bit.


def _reference_character(theta, sigma):
    if sigma is H:
        return Binarion(Fraction(math.cosh(theta)), Fraction(math.sinh(theta)), sigma)
    return Binarion(Fraction(math.cos(theta)), Fraction(math.sin(theta)), sigma)


def _reference_to_floats(value):
    re = im = 0.0
    for r, c in value._binarions().items():
        x, y = c.to_floats()
        if value.sigma is H:
            cr, sr = math.cosh(r), math.sinh(r)
            re += x * cr + y * sr
        else:
            cr, sr = math.cos(r), math.sin(r)
            re += x * cr - y * sr
        im += x * sr + y * cr
    return re, im


def _reference_born_value(amp):
    m1, m2 = amp.magnitudes
    delta = amp.phases[0] - amp.phases[1]
    cross = math.cosh(delta) if amp.sigma is H else math.cos(delta)
    return m1 * m1 + m2 * m2 + 2 * amp.signs[0] * amp.signs[1] * m1 * m2 * cross


def _hex(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("sigma", [H, C])
def test_cos_or_cosh_is_bit_identical_to_the_explicit_formulas(sigma):
    rng = random.Random(f"cos-or-cosh:{sigma.value}")
    for _ in range(200):
        theta = rng.uniform(-8, 8)
        assert character(theta, sigma) == _reference_character(theta, sigma)
        terms = {Fraction(rng.randint(-40, 40), rng.randint(1, 9)):
                 Binarion(Fraction(rng.randint(-99, 99), rng.randint(1, 7)),
                          Fraction(rng.randint(-99, 99), rng.randint(1, 7)), sigma)
                 for _ in range(rng.randint(1, 6))}
        value = CharSum(terms, sigma)
        assert _hex(value.to_floats()) == _hex(_reference_to_floats(value))
        signs = (1, rng.choice((1, -1))) if sigma is H else (1, 1)
        amp = Amplitude2((rng.random(), rng.random()), (theta, rng.uniform(-8, 8)), sigma, signs)
        assert _hex([amp.born_value()]) == _hex([_reference_born_value(amp)])
    for _ in range(200):
        decomposition = HPolar(rng.choice((1, -1)), rng.uniform(0, 50), rng.uniform(-8, 8))
        scale = Fraction(decomposition.sign * decomposition.modulus)
        expected = _reference_character(decomposition.theta, H)
        assert decomposition.reconstruct() == Binarion(
            scale * expected.re, scale * expected.im, H
        )

