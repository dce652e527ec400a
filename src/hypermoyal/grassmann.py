"""Finite-generator Grassmann algebra with binarion coefficients.

Elements are sums ``sum_S c_S * theta^S`` over subsets ``S`` of the ``n``
generators, encoded as bitmasks; ``theta_i theta_j = -theta_j theta_i``
forces ``theta_i^2 = 0`` and the sign bookkeeping of the canonical
(ascending) ordering.  The algebra is supercommutative for the grading by
``|S| mod 2``, and the top monomial ``theta_1 ... theta_n`` is a nonzero
annihilator of the whole odd part -- the witness returned by
:func:`annihilator_witness`.

:class:`GrassmannElement` is a sparse term map over the shared base of
:mod:`hypermoyal.sparse`; it contributes only its mask checks and the
product of two monomials, which vanishes on a repeated generator and
otherwise carries the reordering sign.
"""

from __future__ import annotations

import enum

from .errors import DimensionMismatchError, ValidationError, json_field
from .scalars import Sigma, _num_str, as_sigma, binarion_from_json, binarion_to_json
from .sparse import (MAX_WITNESS_GENERATORS, SizedMap, SparseAlgebra, coefficient_parts,
                     in_range, integer, stored)


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"

    def __str__(self) -> str:
        return self.value


def _merge_sign(mask_a: int, mask_b: int) -> int:
    """Sign of reordering ``theta^a * theta^b`` into ascending order.

    Counts, for each generator in ``b``, the generators of ``a`` above it;
    each such pair is one transposition.
    """
    sign = 1
    b = mask_b
    while b:
        low = b & -b
        above = mask_a >> (low.bit_length())
        if above.bit_count() % 2:
            sign = -sign
        b ^= low
    return sign


def _word_mask(indices, n: int) -> int:
    """The mask of the word ``theta_{i1} ... theta_{ik}`` of 0-based indices,
    which must be nonnegative and strictly ascending: such a word is its
    own canonical monomial, with no sign.  An index ``>= n`` is refused
    before its bit is built."""
    mask = 0
    for i in map(integer, indices):
        if i < 0 or mask >> i:
            raise ValidationError("generators must be nonnegative and strictly ascending")
        if i >= n:
            raise DimensionMismatchError(f"generator θ{_num_str(i + 1)} is beyond n={_num_str(n)}")
        mask |= 1 << i
    return mask


def _generator_numbers(mask: int) -> list:
    """The 1-based numbers of the generators in ``mask``, ascending."""
    numbers = []
    while mask:
        low = mask & -mask
        numbers.append(low.bit_length())
        mask ^= low
    return numbers


class GrassmannElement(SizedMap, SparseAlgebra):
    """Element of the Grassmann algebra on ``n`` generators over binarions."""

    __slots__ = ()
    _JSON_FIELDS = ("n", "terms")
    _OWNER = "algebra"
    n = property(lambda self: self._size, doc="Number of generators.")

    def __init__(self, n: int, sigma: Sigma, terms: dict = None):
        self._size = integer(n)
        if self._size < 0:
            raise ValidationError("generator count must be nonnegative")
        self.sigma = as_sigma(sigma)
        pairs = []
        for mask, coeff in (terms or {}).items():
            mask = integer(mask)
            if mask < 0:
                raise ValidationError("monomial mask is negative")
            if mask.bit_length() > self.n:
                raise DimensionMismatchError(
                    f"monomial uses generators up to θ{mask.bit_length()}, "
                    f"beyond n={_num_str(self.n)}"
                )
            pairs.append((mask, coefficient_parts(coeff, self.sigma, self._OWNER)))
        self._terms, self._cden = stored(pairs)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n: int, sigma: Sigma) -> "GrassmannElement":
        return cls(n, sigma, {})

    @classmethod
    def scalar(cls, value, n: int, sigma: Sigma) -> "GrassmannElement":
        return cls(n, sigma, {0: value})

    @classmethod
    def generator(cls, index: int, n: int, sigma: Sigma) -> "GrassmannElement":
        """``theta_index`` (0-based)."""
        return cls(n, sigma, {1 << in_range(index, n, "generator index", "n={}"): 1})

    @classmethod
    def monomial(cls, indices, n: int, sigma: Sigma, coeff=1) -> "GrassmannElement":
        """``coeff * theta_{i1} ... theta_{ik}`` for strictly ascending 0-based
        indices."""
        return cls(n, sigma, {_word_mask(indices, integer(n)): coeff})

    # -- queries --------------------------------------------------------------

    def terms(self):
        return self._grouped()

    def parity(self) -> Parity:
        degrees = {mask.bit_count() % 2 for mask in self._terms}
        if len(degrees) > 1:
            return Parity.MIXED
        if degrees == {1}:
            return Parity.ODD
        return Parity.EVEN

    def even_part(self) -> "GrassmannElement":
        return self._new(((m, c) for m, c in self._terms.items() if not m.bit_count() % 2),
                         self._cden)

    def odd_part(self) -> "GrassmannElement":
        return self._new(((m, c) for m, c in self._terms.items() if m.bit_count() % 2), self._cden)

    # -- algebra -----------------------------------------------------------------

    @staticmethod
    def _key_mul(m1, m2):
        if m1 & m2:
            return None  # repeated generator: square is zero
        return m1 | m2, _merge_sign(m1, m2)

    # -- rendering ------------------------------------------------------------------

    @staticmethod
    def _term_text(mask, coeff) -> str:
        gens = "".join(f"θ{i}" for i in _generator_numbers(mask))
        if not gens:
            return f"({coeff})" if not coeff.is_real() else str(coeff)
        if coeff == 1:
            return gens
        if coeff == -1:
            return f"-{gens}"
        return f"({coeff})·{gens}"

    @staticmethod
    def _term_to_json(mask, c) -> dict:
        return {"gens": _generator_numbers(mask), **binarion_to_json(c)}

    @staticmethod
    def _term_from_json(entry, sigma, n):
        def read_mask(gens) -> int:
            gens = list(map(integer, gens))
            for g in gens:
                if not 1 <= g <= n:
                    raise ValidationError(f"generator {_num_str(g)} is outside 1..{_num_str(n)}")
            return _word_mask((g - 1 for g in gens), n)

        return json_field(entry, "gens", read_mask), binarion_from_json(entry, sigma)


def generators(n: int, sigma: Sigma) -> tuple:
    """The ``n`` anticommuting generators as elements of the algebra."""
    return tuple(GrassmannElement.generator(i, n, sigma) for i in range(integer(n)))


def parity(a: GrassmannElement) -> Parity:
    return a.parity()


def supercommutator(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """``a*b - (-1)^(|a||b|) b*a``, extended bilinearly to mixed elements.

    Summed over the even and odd parts, only the odd-odd term has the sign
    ``+``, so the sum is ``a*b - b*a + 2*b_odd*a_odd``.  Vanishes
    identically: the algebra is supercommutative.
    """
    return a * b - b * a + 2 * (b.odd_part() * a.odd_part())


def annihilator_witness(n: int, sigma: Sigma = Sigma.HYPERBOLIC) -> GrassmannElement:
    """The top monomial ``theta_1 ... theta_n``, verified to kill the odd part.

    Every product with an odd basis monomial repeats a generator and
    vanishes, so the witness is a nonzero member of the odd-part
    annihilator; finite-generator Grassmann algebras never have a trivial
    one.
    """
    n = integer(n)
    if n < 1:
        raise ValidationError("witness needs at least one generator")
    if n > MAX_WITNESS_GENERATORS:
        raise ValidationError(
            f"witness needs at most {MAX_WITNESS_GENERATORS} generators, got {_num_str(n)}"
        )
    top = GrassmannElement(n, sigma, {(1 << n) - 1: 1})
    for mask in range(1, 1 << n):
        if mask.bit_count() % 2 == 1:
            probe = GrassmannElement(n, sigma, {mask: 1})
            if not (top * probe).is_zero():
                raise AssertionError("witness failed to annihilate an odd monomial")
    return top
