"""Tests for the Grassmann algebra over binarion coefficients."""

import random
from fractions import Fraction

import pytest

from hypermoyal import grassmann
from hypermoyal import (
    Binarion,
    DimensionMismatchError,
    GrassmannElement,
    Parity,
    Sigma,
    SignatureMismatchError,
    ValidationError,
    annihilator_witness,
    generators,
    parity,
    supercommutator,
)
from hypermoyal.selftest import _random_grassmann

H = Sigma.HYPERBOLIC
C = Sigma.COMPLEX
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
    for n in (grassmann.MAX_WITNESS_GENERATORS + 1, 10**9):
        with pytest.raises(ValidationError, match="at most"):
            annihilator_witness(n)


def test_mismatches_rejected():
    (a,) = generators(1, H)
    (b,) = generators(1, C)
    with pytest.raises(SignatureMismatchError):
        a * b
    c = generators(2, H)[0]
    with pytest.raises(DimensionMismatchError):
        a * c


def test_text_and_json():
    t1, t2, t3 = generators(3, H)
    j = Binarion.unit(H)
    element = GrassmannElement.scalar(Fraction(3, 2), 3, H) + j * (t1 * t3)
    assert str(element) == "3/2 + (1j)·θ1θ3"
    back = GrassmannElement.from_json_dict(element.to_json_dict())
    assert back == element


@pytest.mark.parametrize("indices", [(1, 0), (0, 0), (0, 2, 1), (-1,)])
def test_monomial_refuses_a_word_that_is_not_strictly_ascending(indices):
    """Such a word is not its own canonical monomial: a repeat is zero and a
    reordering carries a sign, so it is refused rather than read as one."""
    with pytest.raises(ValidationError, match="strictly ascending"):
        GrassmannElement.monomial(indices, 3, H)


@pytest.mark.parametrize("mask", [2.7, "3", True])
def test_masks_must_be_integers(mask):
    """A mask that ``int`` would change is refused, not truncated."""
    with pytest.raises(ValidationError, match="is not an integer"):
        GrassmannElement(2, H, {mask: 1})
    assert GrassmannElement(2, H, {2.0: 1}).terms() == [(2, Binarion(1, 0, H))]


@pytest.mark.parametrize("gens", [[1, 1], [2, 1]])
def test_json_gens_must_strictly_ascend(gens):
    data = {"n": 2, "sigma": 1, "terms": [{"gens": gens, "re": "1"}]}
    with pytest.raises(ValidationError, match="^terms: gens: .*strictly ascending"):
        GrassmannElement.from_json_dict(data)


@pytest.mark.parametrize("index", [10**7, 10**8, 10**30])
def test_monomial_refuses_an_index_past_n_before_building_its_bit(index):
    """``1 << 10**30`` cannot be built at all, so only a check made before
    the mask gets to raise; the message stays short at any index."""
    with pytest.raises(DimensionMismatchError, match="beyond n=2") as info:
        GrassmannElement.monomial((index,), 2, H)
    assert len(str(info.value)) < 200


def test_mask_past_n_is_named_by_its_highest_generator():
    with pytest.raises(DimensionMismatchError) as info:
        GrassmannElement(2, H, {1 << 10**6 | 1: 1})
    assert str(info.value) == "monomial uses generators up to θ1000001, beyond n=2"
