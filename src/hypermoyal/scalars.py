"""Exact arithmetic for two-unit scalar rings ("binarions").

A binarion is ``z = x + u*y`` with exact rational components and an
imaginary unit whose square is the ring signature: ``u*u = -1`` gives the
complex numbers, ``u*u = +1`` the split-complex (hyperbolic) numbers.  One
code path serves both signatures, so every identity exercised elsewhere in
the package is tested under each.

All algebraic operations are exact over :class:`fractions.Fraction`; only
the transcendental helpers (:func:`character`, :func:`polar`) go through
floating point, with a documented tolerance of ``1e-12``.  One function,
:func:`_cos_sin`, picks ``cos`` or ``cosh`` for a ring.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NotRepresentableError,
    SignatureMismatchError,
    ValidationError,
    ZeroDivisorError,
    json_field,
)

#: Exact coefficient field used throughout the package.
Rational = Fraction

#: Tolerance used by floating-point checks on transcendental values.
FLOAT_TOLERANCE = 1e-12


class Sigma(enum.Enum):
    """Signature of the squared imaginary unit.

    ``COMPLEX`` realizes ``u = i`` (``i*i = -1``), ``HYPERBOLIC`` realizes
    ``u = j`` (``j*j = +1``).  Every composite object in the package carries
    exactly one :class:`Sigma`; mixing signatures raises
    :class:`~hypermoyal.errors.SignatureMismatchError`.
    """

    COMPLEX = -1
    HYPERBOLIC = +1

    @property
    def unit_symbol(self) -> str:
        """Letter used for the imaginary unit in text renderings."""
        return "j" if self is Sigma.HYPERBOLIC else "i"

    def __str__(self) -> str:
        return f"{self.value:+d}"


def as_sigma(value) -> Sigma:
    """Coerce ``value`` (Sigma, +/-1 or '+1'/'-1' text) to a :class:`Sigma`."""
    if isinstance(value, Sigma):
        return value
    if isinstance(value, str):
        value = value.strip()
        if value in ("+1", "1", "+"):
            return Sigma.HYPERBOLIC
        if value in ("-1", "-"):
            return Sigma.COMPLEX
        raise ValidationError(f"not a signature: {value!r}")
    if value == 1:
        return Sigma.HYPERBOLIC
    if value == -1:
        return Sigma.COMPLEX
    raise ValidationError(f"not a signature: {value!r}")


class GClass(enum.Enum):
    """Multiplicative classification of a binarion.

    ``INVERTIBLE`` covers every element with nonzero modulus-squared and
    positive modulus-squared in the hyperbolic ring (the group of units of
    the positive cone) as well as every nonzero complex number.
    ``NEGATIVE_MODULUS`` elements are also invertible (``1/z = conj(z)/|z|^2``)
    but fall outside the positive cone.  ``LIGHT_CONE`` elements are the
    zero divisors ``x = +/-y != 0`` of the hyperbolic ring.
    """

    INVERTIBLE = "invertible"
    LIGHT_CONE = "light-cone"
    NEGATIVE_MODULUS = "negative-modulus"
    ZERO = "zero"


def _as_fraction(value) -> Fraction:
    """An ``int``, ``Fraction`` or rational text as a ``Fraction``; the one
    reader of rational text, which refuses bad text with ValidationError."""
    # exact type tests first: for an int, ``isinstance(value, Fraction)`` goes
    # through the ``numbers.Rational`` ABC check, which costs more than the
    # conversion
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise TypeError(f"expected an exact rational, got {type(value).__name__}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValidationError(f"zero denominator in {value!r}") from None
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _num_str(value) -> str:
    """An exact number as itself, any other as a float to 12 significant digits."""
    if isinstance(value, (Fraction, int)):
        return str(value)
    return f"{float(value):.12g}"


def _part_text(value: Fraction) -> str:
    """A binarion part as text.  A part past Python's int-to-text digit limit
    raises :class:`ValidationError`; the limit is left alone, because it is
    set for the whole process."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValidationError(f"coefficient too long to write: more than {limit} digits") from None


def _json_fraction(value) -> Fraction:
    """A rational written in JSON as text or as a number."""
    return _as_fraction(str(value))


class Binarion:
    """``x + u*y`` with exact rational parts and ``u*u = sigma``.

    Values are immutable after construction and safe to share between
    threads.  Arithmetic with plain ``int``/``Fraction`` operands embeds
    them as real binarions of the same signature; arithmetic between
    binarions of different signatures is rejected.
    """

    __slots__ = ("re", "im", "sigma")

    def __init__(self, re=0, im=0, sigma: Sigma = None):
        if sigma is None:
            raise TypeError("Binarion requires an explicit sigma")
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)
        self.sigma = as_sigma(sigma)

    # -- constructors -------------------------------------------------

    @classmethod
    def _exact(cls, re: Fraction, im: Fraction, sigma: Sigma) -> "Binarion":
        """Unchecked builder for results whose parts are known to be
        ``Fraction``s and whose ``sigma`` is a :class:`Sigma`; stores them
        as they are."""
        out = object.__new__(cls)
        out.re, out.im, out.sigma = re, im, sigma
        return out

    @classmethod
    def zero(cls, sigma: Sigma) -> "Binarion":
        return cls(0, 0, sigma)

    @classmethod
    def one(cls, sigma: Sigma) -> "Binarion":
        return cls(1, 0, sigma)

    @classmethod
    def unit(cls, sigma: Sigma) -> "Binarion":
        """The imaginary unit ``u`` (``j`` or ``i``) of the ring."""
        return cls(0, 1, sigma)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def to_floats(self) -> tuple[float, float]:
        try:
            return float(self.re), float(self.im)
        except OverflowError:
            raise ValidationError("value too large for a float") from None

    # -- ring operations -----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Binarion):
            if other.sigma is not self.sigma:
                raise SignatureMismatchError(
                    f"cannot combine sigma={self.sigma} with sigma={other.sigma}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Binarion(other, 0, self.sigma)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Binarion(self.re + o.re, self.im + o.im, self.sigma)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Binarion(self.re - o.re, self.im - o.im, self.sigma)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Binarion(-self.re, -self.im, self.sigma)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s = self.sigma.value
        return Binarion(
            self.re * o.re + s * self.im * o.im,
            self.re * o.im + self.im * o.re,
            self.sigma,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisorError("division by zero")
            return Binarion(self.re / other, self.im / other, self.sigma)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.invert() ** (-exponent)
        result = Binarion.one(self.sigma)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- involution and norms -------------------------------------------

    def conjugate(self) -> "Binarion":
        """Ring involution ``x + u*y -> x - u*y``."""
        return Binarion(self.re, -self.im, self.sigma)

    def modulus_sq(self) -> Fraction:
        """``z * conj(z) = x^2 - sigma*y^2``; multiplicative and exact.

        Negative values occur only for the hyperbolic signature; they mark
        elements outside the positive cone.
        """
        return self.re * self.re - self.sigma.value * self.im * self.im

    def pos_norm_sq(self) -> Fraction:
        """Square of the positive (Euclidean) norm ``x^2 + y^2``."""
        return self.re * self.re + self.im * self.im

    def pos_norm(self) -> float:
        return math.sqrt(self.pos_norm_sq())

    # -- multiplicative structure ----------------------------------------

    def classify(self) -> GClass:
        if self.is_zero():
            return GClass.ZERO
        ms = self.modulus_sq()
        if ms > 0:
            return GClass.INVERTIBLE
        if ms == 0:
            return GClass.LIGHT_CONE
        return GClass.NEGATIVE_MODULUS

    def invert(self) -> "Binarion":
        """Exact inverse ``conj(z)/|z|^2``.

        Raises :class:`ZeroDivisorError` for zero and for light-cone
        elements, which have no inverse.
        """
        ms = self.modulus_sq()
        if ms == 0:
            if self.is_zero():
                raise ZeroDivisorError("cannot invert 0")
            raise ZeroDivisorError(
                f"{self} lies on the light cone (z*conj(z) = 0) and is a zero divisor"
            )
        return Binarion(self.re / ms, -self.im / ms, self.sigma)

    # -- comparison and hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Binarion):
            if self.sigma is not other.sigma and not (self.im == 0 and other.im == 0):
                return False
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im, self.sigma.value))

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        u = self.sigma.unit_symbol
        if self.im == 0:
            return _part_text(self.re)
        if self.re == 0:
            return f"{_part_text(self.im)}{u}"
        sign = "-" if self.im < 0 else "+"
        return f"{_part_text(self.re)} {sign} {_part_text(abs(self.im))}{u}"

    __repr__ = __str__


def binarion_to_json(value: Binarion) -> dict:
    """The JSON object ``{"re": x, "im": y}`` of a binarion."""
    return {"re": _part_text(value.re), "im": _part_text(value.im)}


def binarion_from_json(data, sigma: Sigma) -> Binarion:
    """The binarion of a JSON object ``{"re": x, "im": y}``; ``im`` defaults to 0."""
    re = json_field(data, "re", _json_fraction)
    im = json_field(data, "im", _json_fraction) if "im" in data else 0
    return Binarion(re, im, sigma)


@dataclass(frozen=True)
class HPolar:
    """Hyperbolic polar decomposition ``z = sign * modulus * e^(u*theta)``."""

    sign: int
    modulus: float
    theta: float

    def reconstruct(self) -> Binarion:
        """Approximate binarion the decomposition stands for."""
        scale = Fraction(self.sign * self.modulus)
        c, s = _cos_sin(self.theta, Sigma.HYPERBOLIC)
        return Binarion(scale * Fraction(c), scale * Fraction(s), Sigma.HYPERBOLIC)


def _cos_sin(theta, sigma: Sigma) -> tuple[float, float]:
    """``(cosh, sinh)`` of ``theta`` for ``u = j``, ``(cos, sin)`` for ``u = i``:
    the float parts of ``e^(u*theta)``, with no finiteness check."""
    if sigma is Sigma.HYPERBOLIC:
        return math.cosh(theta), math.sinh(theta)
    return math.cos(theta), math.sin(theta)


def character(theta: float, sigma: Sigma) -> Binarion:
    """Unit-modulus element ``e^(u*theta)`` as an approximate binarion.

    Hyperbolic signature yields ``cosh(theta) + u*sinh(theta)``, complex
    signature ``cos(theta) + u*sin(theta)``.  The float values are embedded
    exactly as rationals, so subsequent algebra stays exact and identities
    such as the group law hold within :data:`FLOAT_TOLERANCE`.
    """
    sigma = as_sigma(sigma)
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValidationError(f"character requires finite theta, got {theta!r}")
    c, s = _cos_sin(theta, sigma)
    return Binarion(Fraction(c), Fraction(s), sigma)


def polar(z: Binarion) -> HPolar:
    """Decompose an element of the hyperbolic positive cone.

    Requires ``sigma = +1`` and ``modulus_sq(z) > 0``; other inputs have no
    representation of this shape and raise :class:`NotRepresentableError`.
    """
    if z.sigma is not Sigma.HYPERBOLIC:
        raise NotRepresentableError(
            "polar decomposition of this form exists only for the hyperbolic signature"
        )
    ms = z.modulus_sq()
    if ms <= 0:
        raise NotRepresentableError(
            f"modulus_sq = {ms} <= 0: {z} lies outside the positive cone"
        )
    sign = 1 if z.re > 0 else -1
    modulus = math.sqrt(ms)
    theta = math.atanh(float(z.im / z.re))
    return HPolar(sign=sign, modulus=modulus, theta=theta)
