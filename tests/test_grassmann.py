"""Tests for the Grassmann algebra over binarion coefficients."""

import random
from fractions import Fraction

import pytest
from test_refusals import refusal_tests

from hypermoyal import grassmann
from hypermoyal import (
    Binarion,
    GrassmannElement,
    Parity,
    Sigma,
    ValidationError,
    annihilator_witness,
    generators,
    parity,
    supercommutator,
)
from hypermoyal.selftest import _random_grassmann
from hypermoyal.sparse import MAX_WITNESS_GENERATORS

H = Sigma.HYPERBOLIC
C = Sigma.COMPLEX
globals().update(refusal_tests(__name__))  # the tests named in ``test_refusals.HOMES``
SIGMAS = (H, C)


# -- generator relations ---------------------------------------------------------


@pytest.mark.parametrize("sigma", SIGMAS)
def test_anticommutation(sigma):
    t1, t2 = generators(2, sigma)
    assert t1 * t2 == GrassmannElement.monomial((0, 1), 2, sigma)
    assert t2 * t1 == -(t1 * t2)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_nilpotency(sigma):
    (t1,) = generators(1, sigma)
    assert (t1 * t1).is_zero()


def test_unit_conjugate_pair_collapses():
    j = Binarion.unit(H)
    one = GrassmannElement.scalar(1, 1, H)
    (t1,) = generators(1, H)
    lhs = (one + j * t1) * (one - j * t1)
    assert lhs == one  # cross terms cancel, t1^2 = 0, j^2 = 1


def test_product_of_disjoint_monomials_signs():
    a = GrassmannElement.monomial((0, 2), 4, H)  # θ1θ3
    b = GrassmannElement.monomial((1, 3), 4, H)  # θ2θ4
    # θ1θ3θ2θ4 -> one transposition (θ3 <-> θ2): sign -1
    assert a * b == -GrassmannElement.monomial((0, 1, 2, 3), 4, H)


# -- grading --------------------------------------------------------------------------


def test_parity_examples():
    t1, t2 = generators(2, H)
    assert parity(t1 * t2) is Parity.EVEN
    assert parity(t1) is Parity.ODD
    assert parity(t1 + t1 * t2) is Parity.MIXED
    assert parity(GrassmannElement.zero(2, H)) is Parity.EVEN


def test_even_part_is_closed():
    rng = random.Random(3)
    for sigma in SIGMAS:
        for _ in range(30):
            n = rng.randint(1, 6)
            a = _random_grassmann(rng, n, sigma).even_part()
            b = _random_grassmann(rng, n, sigma).even_part()
            assert parity(a * b) in (Parity.EVEN,)


def test_supercommutator_examples():
    t1, t2, t3 = generators(3, H)
    assert supercommutator(t1, t2).is_zero()
    assert supercommutator(t1, t1 * t2 * t3).is_zero()


def test_supercommutativity_randomized():
    rng = random.Random(5)
    for sigma in SIGMAS:
        for _ in range(60):
            n = rng.randint(1, 6)
            pa = rng.choice((0, 1))
            pb = rng.choice((0, 1))
            a = _random_grassmann(rng, n, sigma)
            a = a.odd_part() if pa else a.even_part()
            b = _random_grassmann(rng, n, sigma)
            b = b.odd_part() if pb else b.even_part()
            sign = -1 if (pa and pb) else 1
            assert a * b == sign * (b * a)
            assert supercommutator(a, b).is_zero()


def test_supercommutator_vanishes_for_mixed_elements():
    rng = random.Random(7)
    for sigma in SIGMAS:
        for _ in range(40):
            n = rng.randint(1, 6)
            a = _random_grassmann(rng, n, sigma)
            b = _random_grassmann(rng, n, sigma)
            assert supercommutator(a, b).is_zero()


def test_associativity_randomized():
    rng = random.Random(11)
    for sigma in SIGMAS:
        for _ in range(60):
            n = rng.randint(1, 6)
            a = _random_grassmann(rng, n, sigma)
            b = _random_grassmann(rng, n, sigma)
            c = _random_grassmann(rng, n, sigma)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


# -- annihilator witness --------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_annihilator_witness_all_sizes(n):
    for sigma in SIGMAS:
        witness = annihilator_witness(n, sigma)
        assert not witness.is_zero()
        # exhaustive re-check against every odd basis monomial
        for mask in range(1, 1 << n):
            if mask.bit_count() % 2 == 1:
                probe = GrassmannElement(n, sigma, {mask: 1})
                assert (witness * probe).is_zero()
                assert (probe * witness).is_zero()


def test_witness_small_cases():
    (t1,) = generators(1, H)
    assert annihilator_witness(1) == t1
    t1, t2 = generators(2, H)
    assert annihilator_witness(2) == t1 * t2


# -- misc ---------------------------------------------------------------------------------


def test_witness_refuses_too_many_generators_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("annihilator_witness started work")

    monkeypatch.setattr(grassmann, "GrassmannElement", no_work)
    for n in (MAX_WITNESS_GENERATORS + 1, 10**9):
        with pytest.raises(ValidationError) as err:
            annihilator_witness(n)
        assert str(err.value) == (
            f"witness needs at most {MAX_WITNESS_GENERATORS} generators, got {n}")


def test_text_and_json():
    t1, t2, t3 = generators(3, H)
    j = Binarion.unit(H)
    element = GrassmannElement.scalar(Fraction(3, 2), 3, H) + j * (t1 * t3)
    assert str(element) == "3/2 + (1j)·θ1θ3"
    back = GrassmannElement.from_json_dict(element.to_json_dict())
    assert back == element

