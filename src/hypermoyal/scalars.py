"""Exact arithmetic for two-unit scalar rings ("binarions").

A binarion is ``z = x + u*y`` with exact rational components and an
imaginary unit whose square is the ring signature: ``u*u = -1`` gives the
complex numbers, ``u*u = +1`` the split-complex (hyperbolic) numbers.  One
code path serves both signatures, so every identity exercised elsewhere in
the package is tested under each.

The parts are reduced :class:`fractions.Fraction` values, and all
algebraic operations are exact: the ring operations compute on integers,
reading a binarion as ``(x, y, d)`` through :func:`_integers`, the one
reader of the numerators of its parts, and build each result once through
the unchecked :meth:`Binarion._exact`.  Only the transcendental helpers
(:func:`character`, :func:`polar`) go through floating point, with a
documented tolerance of ``1e-12``.  One function, :func:`_cos_sin`, picks
``cos`` or ``cosh`` for a ring.

The module also holds the package's number edge: :func:`_as_fraction` is
the one reader of rational text, :func:`_num_str` the one writer of a
number (through :func:`_num_msg` in a message), and :func:`_float` with
:func:`_cos_sin` the way to floats; each refuses what it cannot represent
with :class:`ValidationError`.
"""

from __future__ import annotations

import enum
import math
import sys
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
    reader of rational text, which refuses bad text with ValidationError, and
    text whose exponent is past the int-to-text digit limit with the refusal
    of :func:`_too_long`, before building its power of ten."""
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
    if "e" in value or "E" in value:
        # ``Fraction`` builds ``10**exponent`` before any digit bound sees it
        try:
            exponent = abs(int(value.lower().partition("e")[2]))
        except ValueError:  # not an exponent: ``Fraction`` refuses the text
            exponent = 0
        limit = sys.get_int_max_str_digits()
        if limit and exponent > limit:
            raise _too_long()
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValidationError(f"zero denominator in {value!r}") from None
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _num_str(value) -> str:
    """The one writer of a number: an exact one as itself, any other as a
    float to 12 significant digits.  An exact number past Python's int-to-text
    digit limit, left alone as it is set for the whole process, raises
    :class:`ValidationError`."""
    kind = type(value)  # exact type tests first, as in ``_as_fraction``
    if kind is Fraction or kind is int or isinstance(value, (Fraction, int)):
        try:
            return str(value)
        except ValueError:
            raise _too_long() from None
    return f"{float(value):.12g}"


def _too_long() -> ValidationError:
    """The refusal to write a number past the int-to-text digit limit."""
    return ValidationError(
        f"number too long to write: more than {sys.get_int_max_str_digits()} digits")


def _json_int(value: int) -> int:
    """``value`` for an integer field of a JSON document, checked by
    :func:`_num_str` as its text would be."""
    _num_str(value)
    return value


def _num_msg(value) -> str:
    """``value`` in a message: an exact number by :func:`_num_str`, any other
    by ``str``, as an f-string writes it."""
    return _num_str(value) if isinstance(value, (int, Fraction)) else str(value)


def _json_fraction(value) -> Fraction:
    """A rational written in JSON as text or as a number."""
    return _as_fraction(str(value))


class Binarion:
    """``x + u*y`` with exact rational parts and ``u*u = sigma``.

    Values are immutable after construction and safe to share between
    threads.  Arithmetic with plain ``int``/``Fraction`` operands embeds
    them as real binarions of the same signature; arithmetic between
    binarions of different signatures is rejected.  The ring methods work
    on the integers of :func:`_integers` and build their results with
    :meth:`_exact`, never through the validating constructor.
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
        """Unchecked builder for results whose parts are known to be reduced
        ``Fraction``s and whose ``sigma`` is a :class:`Sigma`; stores them
        as they are.  The only builder of the ring methods."""
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
        return _float(self.re), _float(self.im)

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
        x1, y1, d1 = _integers(self)
        x2, y2, d2 = _integers(o)
        d = d1 * d2
        return Binarion._exact(Fraction(x1 * d2 + x2 * d1, d), Fraction(y1 * d2 + y2 * d1, d),
                               self.sigma)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        x1, y1, d1 = _integers(self)
        x2, y2, d2 = _integers(o)
        d = d1 * d2
        return Binarion._exact(Fraction(x1 * d2 - x2 * d1, d), Fraction(y1 * d2 - y2 * d1, d),
                               self.sigma)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        # negating a reduced part leaves it reduced: no integer reading needed
        return Binarion._exact(-self.re, -self.im, self.sigma)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        x1, y1, d1 = _integers(self)
        x2, y2, d2 = _integers(o)
        d = d1 * d2
        return Binarion._exact(Fraction(x1 * x2 + self.sigma.value * y1 * y2, d),
                               Fraction(x1 * y2 + y1 * x2, d), self.sigma)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisorError("division by zero")
            x, y, d = _integers(self)
            d *= other.numerator
            q = other.denominator
            return Binarion._exact(Fraction(x * q, d), Fraction(y * q, d), self.sigma)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._divided(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._divided(self)

    def _divided(self, other: "Binarion") -> "Binarion":
        """``self / other``, as ``self * conj(other) / |other|^2`` on integers."""
        x2, y2, d2 = _integers(other)
        s = self.sigma.value
        m = x2 * x2 - s * y2 * y2
        if m == 0:
            raise other._no_inverse()
        x1, y1, d1 = _integers(self)
        d = d1 * m
        return Binarion._exact(Fraction((x1 * x2 - s * y1 * y2) * d2, d),
                               Fraction((y1 * x2 - x1 * y2) * d2, d), self.sigma)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.invert() ** (-exponent)
        s = self.sigma.value
        x, y, d = _integers(self)
        rx, ry = 1, 0
        n = exponent
        while n:
            if n & 1:
                rx, ry = rx * x + s * ry * y, rx * y + ry * x
            n >>= 1
            if n:  # the square after the last bit would go unused
                x, y = x * x + s * y * y, 2 * x * y
        d **= exponent
        return Binarion._exact(Fraction(rx, d), Fraction(ry, d), self.sigma)

    # -- involution and norms -------------------------------------------

    def conjugate(self) -> "Binarion":
        """Ring involution ``x + u*y -> x - u*y``."""
        return Binarion._exact(self.re, -self.im, self.sigma)

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
        x, y, d = _integers(self)
        m = x * x - self.sigma.value * y * y  # |z|^2 = m / d^2
        if m == 0:
            raise self._no_inverse()
        return Binarion._exact(Fraction(x * d, m), Fraction(-y * d, m), self.sigma)

    def _no_inverse(self) -> ZeroDivisorError:
        """The refusal to invert zero or a light-cone element."""
        if self.is_zero():
            return ZeroDivisorError("cannot invert 0")
        return ZeroDivisorError(
            f"{self} lies on the light cone (z*conj(z) = 0) and is a zero divisor"
        )

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
            return _num_str(self.re)
        if self.re == 0:
            return f"{_num_str(self.im)}{u}"
        sign = "-" if self.im < 0 else "+"
        return f"{_num_str(self.re)} {sign} {_num_str(abs(self.im))}{u}"

    __repr__ = __str__


def _integers(value: Binarion) -> tuple:
    """``value`` as integers ``(x, y, d)`` with ``re = x/d`` and ``im = y/d``,
    ``d`` the lcm of the two denominators: the one reader of the numerators
    of a binarion's parts.  ``gcd(x, y, d) == 1``, as both parts are reduced."""
    re, im = value.re, value.im
    a, b = re.denominator, im.denominator
    if a == b:
        return re.numerator, im.numerator, a
    d = a * b // math.gcd(a, b)
    return re.numerator * (d // a), im.numerator * (d // b), d


def binarion_to_json(value: Binarion) -> dict:
    """The JSON object ``{"re": x, "im": y}`` of a binarion."""
    return {"re": _num_str(value.re), "im": _num_str(value.im)}


def binarion_from_json(data, sigma: Sigma) -> Binarion:
    """The binarion of a JSON object ``{"re": x, "im": y}``; ``im`` defaults to 0."""
    re = json_field(data, "re", _json_fraction)
    im = json_field(data, "im", _json_fraction) if "im" in data else 0
    return Binarion(re, im, sigma)


class Record:
    """Base of the package's immutable records.

    A record's fields are the parameters of its ``__init__``, in order,
    which checks them and sets them through :meth:`_set`.
    ``__match_args__``, equality between records of one class, the hash and
    the ``Name(field=value, ...)`` repr follow from the field names;
    assigning or deleting an attribute raises :class:`AttributeError`.
    Copies and pickles restore the fields as set.
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1:code.co_argcount]

    def _set(self, *values):
        self.__dict__.update(zip(self.__match_args__, values))

    def _fields(self) -> tuple:
        return tuple(self.__dict__[name] for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class HPolar(Record):
    """Hyperbolic polar decomposition ``z = sign * modulus * e^(u*theta)``."""

    def __init__(self, sign: int, modulus: float, theta: float):
        self._set(sign, modulus, theta)

    def reconstruct(self) -> Binarion:
        """Approximate binarion the decomposition stands for."""
        scale = Fraction(self.sign * self.modulus)
        c, s = _cos_sin(self.theta, Sigma.HYPERBOLIC)
        return Binarion(scale * Fraction(c), scale * Fraction(s), Sigma.HYPERBOLIC)


def _float(value) -> float:
    """``float(value)``; a value past the float range raises
    :class:`ValidationError`, where ``float`` raises ``OverflowError``."""
    try:
        return float(value)
    except OverflowError:
        raise ValidationError("value too large for a float") from None


def _cos_sin(theta, sigma: Sigma) -> tuple[float, float]:
    """``(cosh, sinh)`` of ``theta`` for ``u = j``, ``(cos, sin)`` for ``u = i``:
    the float parts of ``e^(u*theta)``.  A ``theta`` or a part past the float
    range raises :class:`ValidationError`, as in :func:`_float`."""
    try:
        if sigma is Sigma.HYPERBOLIC:
            return math.cosh(theta), math.sinh(theta)
        return math.cos(theta), math.sin(theta)
    except OverflowError:
        raise ValidationError("value too large for a float") from None


def character(theta: float, sigma: Sigma) -> Binarion:
    """Unit-modulus element ``e^(u*theta)`` as an approximate binarion.

    Hyperbolic signature yields ``cosh(theta) + u*sinh(theta)``, complex
    signature ``cos(theta) + u*sin(theta)``.  The float values are embedded
    exactly as rationals, so subsequent algebra stays exact and identities
    such as the group law hold within :data:`FLOAT_TOLERANCE`.
    """
    sigma = as_sigma(sigma)
    theta = _float(theta)
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
            f"modulus_sq = {_num_str(ms)} <= 0: {z} lies outside the positive cone"
        )
    sign = 1 if z.re > 0 else -1
    modulus = math.sqrt(_float(ms))
    theta = math.atanh(_float(z.im / z.re))
    return HPolar(sign=sign, modulus=modulus, theta=theta)
