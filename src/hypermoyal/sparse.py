"""One sparse term map behind every algebra class of the package.

Symbols, ``h``-polynomials, character sums, exponential polynomials, point
distributions and Grassmann elements are all finite maps from a key (a
monomial, a degree, an exponent, an atom or a generator mask) to a nonzero
coefficient.  :class:`SparseMap` owns that storage and what does not depend
on the meaning of a key: dropping zeros, merging, ``+``, ``-``, negation,
scalar coercion and equality, each on operands brought to comparable keys
by one hook, ``_aligned``.  :class:`SparseAlgebra` adds ``*`` and ``**``:
every product is formed by one loop, :func:`multiply`, which takes from
each class only the key of the product of two terms and, for Grassmann
elements, its reordering sign.

Coefficients are stored as integers: ``_terms`` maps each key to ints
``(re, im)``, the coefficient ``(re + u*im) / _cden``, over the least
positive ``_cden`` (``gcd(_cden, every part) == 1``, no ``(0, 0)`` pair,
``_cden == 1`` when empty), so equal elements store equal terms.  Binarions
exist only at two edges: a public constructor validates its input (key
shapes, signs, the coefficients' signature) and sums and stores its terms
with :func:`stored`, and the views build binarions with :func:`from_parts`.
Arithmetic and the route kernels sum integers, with :func:`add_parts`, over
one denominator, and :meth:`SparseMap._make` (or ``_new``, which keeps the
operand's size and signature) stores the sums with the zero pairs dropped,
reduced by one gcd pass.  It checks nothing else: keys are canonical by
construction, which the test suite checks by passing every result back
through the public constructor.  Structure constants, derivative factors,
unit-power folds and the padding of denominators stay in each route; no
route kernel calls :func:`multiply`.

Views, text and JSON all come from one ``_grouped`` per class, the sorted
terms, with the last key part grouped into a coefficient ring where a class
declares one.  The four maps with a size (symbols, exponential polynomials,
distributions and Grassmann elements) derive from :class:`SizedMap` and
share one JSON shape: the size, ``sigma`` and a list of entries, whose
repeated keys add through :func:`summed`.  Each class writes and reads only
a single term.  :class:`ScalarRing` builds the two maps without a size,
which have no JSON form.  Every power ``x^e`` in the text is written by
:func:`power_factors`.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import DimensionMismatchError, SignatureMismatchError, ValidationError, json_field
from .scalars import Binarion, Sigma, as_sigma


def summed(pairs) -> dict:
    """Sum ``(key, value)`` pairs per key, in the order keys first appear."""
    out = {}
    for key, value in pairs:
        out[key] = out[key] + value if key in out else value
    return out


def add_parts(acc: dict, key, re, im):
    """Add ``re + u*im`` to the ``[re, im]`` entry of ``key`` in ``acc``."""
    entry = acc.get(key)
    if entry is None:
        acc[key] = [re, im]
    else:
        entry[0] += re
        entry[1] += im


def from_parts(acc: dict, sigma, den: int = 1) -> dict:
    """The nonzero ``(re + u*im) / den`` of the ``[re, im]`` entries of ``acc``
    as binarions of the :class:`Sigma` ``sigma``, each built once, without
    re-validation.  ``den`` is the common denominator of the numerators.  The
    view edge."""
    return {
        key: Binarion._exact(Fraction(re, den), Fraction(im, den), sigma)
        for key, (re, im) in acc.items()
        if re or im
    }


def multiply(left: dict, right: dict, s: int, key_mul) -> dict:
    """The product of two stored ``{key: (re, im)}`` term maps of a ring where
    ``u*u = s``, as integer parts over the product of their denominators: each
    pair of terms under the key and sign that ``key_mul(k1, k2)`` gives as
    ``(key, +-1)``, or dropped for ``None``."""
    acc = {}
    for k1, (x1, y1) in left.items():
        for k2, (x2, y2) in right.items():
            term = key_mul(k1, k2)
            if term is not None:
                key, sign = term
                add_parts(acc, key, sign * (x1 * x2 + s * y1 * y2), sign * (x1 * y2 + y1 * x2))
    return acc


def stored(pairs) -> tuple:
    """``(key, binarion)`` pairs summed per key, the zero sums dropped, as
    ``({key: (re, im)}, den)`` over the least common denominator (``({}, 1)``
    for none).  The constructor edge, and the twin of :func:`from_parts`."""
    terms = {key: c for key, c in summed(pairs).items() if not c.is_zero()}
    den = math.lcm(*(v.denominator for c in terms.values() for v in (c.re, c.im)))
    return {key: (c.re.numerator * (den // c.re.denominator),
                  c.im.numerator * (den // c.im.denominator))
            for key, c in terms.items()}, den


def integer(value) -> int:
    """``value`` as an int; a value that ``int`` would change or refuse, such
    as ``1.9``, ``"3"`` or ``None``, and a boolean raise
    :class:`ValidationError` instead of being truncated or read as 0 or 1."""
    try:
        out = int(value)
    except (ValueError, TypeError, OverflowError):
        raise ValidationError(f"{value!r} is not an integer") from None
    if out != value or isinstance(value, bool):
        raise ValidationError(f"{value!r} is not an integer")
    return out


def in_range(value, size: int, name: str, space: str) -> int:
    """``value`` read by :func:`integer`; outside ``range(size)`` it raises
    :class:`IndexError` saying ``{name} {value} out of range for {space}``."""
    value = integer(value)
    if not 0 <= value < size:
        raise IndexError(f"{name} {value} out of range for {space}")
    return value


def nonnegative(values, message: str) -> tuple:
    """``values`` as a tuple of :func:`integer` entries; a negative entry
    raises ``message``."""
    out = tuple(map(integer, values))
    if any(v < 0 for v in out):
        raise ValidationError(message)
    return out


def power_factors(names, exps) -> list:
    """``name`` or ``name^e`` for each positive exponent ``e``: the one writer
    of a power in the package's text."""
    return [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]


def binarion_coefficient(value, sigma, owner: str) -> Binarion:
    """``value`` as a binarion of signature ``sigma``; rationals embed as reals."""
    if not isinstance(value, Binarion):
        value = Binarion(value, 0, sigma)
    if value.sigma is not sigma:
        raise SignatureMismatchError(f"coefficient sigma differs from {owner} sigma")
    return value


class SparseMap:
    """Finite map from keys to nonzero coefficients, with its linear structure.

    ``sigma`` is the signature of every coefficient.  ``_size`` is the
    dimension of the space the keys live on (``dof``, ``dim`` or ``n`` of a
    :class:`SizedMap`; ``None`` for the scalar rings).  ``_terms`` maps each
    key to the integer pair ``(re, im)`` of the coefficient ``(re + u*im) /
    _cden`` (see the module docstring).

    Views, text and JSON all read :meth:`_grouped`, the terms as sorted
    ``(head, coefficient)`` pairs.  A class whose last key part is the key
    of a coefficient ring declares that ring as ``_VIEW``, and the sort key
    of the heads as ``_ORDER``; the others view their stored terms.  Text
    joins one ``_term_text(head, coefficient)`` per term with ``" + "``.
    """

    __slots__ = ("sigma", "_size", "_terms", "_cden")

    _VIEW = None
    _ORDER = None
    #: Operand types that enter arithmetic and comparison as constants.
    _SCALARS = (Binarion, int, Fraction)

    @classmethod
    def _make(cls, size, sigma, terms: dict, cden: int = 1):
        """The element of ``{key: (re, im)}`` (or ``[re, im]``) integer parts
        over ``cden``, with the zero pairs dropped and reduced to the least
        denominator; nothing else is checked."""
        terms = {key: (re, im) for key, (re, im) in terms.items() if re or im}
        g = cden
        for re, im in terms.values():
            if g == 1:
                break
            g = math.gcd(g, re, im)
        if g > 1:
            cden //= g
            terms = {key: (re // g, im // g) for key, (re, im) in terms.items()}
        out = object.__new__(cls)
        out._size, out.sigma, out._terms, out._cden = size, sigma, terms, cden
        return out

    def _new(self, terms: dict, cden: int):
        return self._make(self._size, self.sigma, terms, cden)

    def _binarions(self) -> dict:
        """The stored terms as ``{key: Binarion}``, in stored order."""
        return from_parts(self._terms, self.sigma, self._cden)

    def _constant(self, value):
        """``value`` (one of ``_SCALARS``) as an element like ``self``."""
        raise NotImplementedError

    def _check_sigma(self, other):
        if other.sigma is not self.sigma:
            raise SignatureMismatchError(
                f"cannot combine sigma={self.sigma} with sigma={other.sigma}"
            )

    def _check(self, other):
        """Raise unless ``other``, of this class, can combine with this element."""
        self._check_sigma(other)

    def _coerce(self, other):
        if isinstance(other, type(self)):
            self._check(other)
            return other
        if isinstance(other, self._SCALARS):  # a constant keeps a binarion's sigma
            return self._coerce(self._constant(other))
        return None

    def _aligned(self, other):
        """This element and ``other`` with keys that compare as their values
        do: as they are, unless a class stores keys over a denominator."""
        return self, other

    def _merged(self, other, sign: int):
        """``self + sign * other``, summed over the lcm of the denominators."""
        a, b = self._aligned(other)
        den = math.lcm(a._cden, b._cden)
        fa, fb = den // a._cden, sign * (den // b._cden)
        out = {key: (fa * re, fa * im) for key, (re, im) in a._terms.items()}
        for key, (re, im) in b._terms.items():
            x, y = out.get(key, (0, 0))
            out[key] = (x + fb * re, y + fb * im)
        return a._new(out, den)

    def is_zero(self) -> bool:
        return not self._terms

    # -- views and text -----------------------------------------------------------

    def _grouped(self) -> list:
        """The terms as ``(head, coefficient)`` pairs sorted by head: the stored
        terms, or with a ``_VIEW`` ring the ``{last key part: value}`` part of
        each head as an element of ``_VIEW``, the heads sorted by ``_ORDER``."""
        if self._VIEW is None:
            return sorted(self._binarions().items())
        groups = {}
        for key, value in self._terms.items():
            groups.setdefault(key[:-1], {})[key[-1]] = value
        make, sigma, cden = self._VIEW._make, self.sigma, self._cden
        heads = sorted(groups, key=self._ORDER)
        return [(head, make(None, sigma, groups[head], cden)) for head in heads]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(self._term_text(head, coeff) for head, coeff in self._grouped())

    def __repr__(self) -> str:
        return str(self)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._merged(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._merged(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return self._new({key: (-re, -im) for key, (re, im) in self._terms.items()}, self._cden)

    def __eq__(self, other):
        if isinstance(other, self._SCALARS):
            other = self._constant(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        if self._size != other._size or self.sigma is not other.sigma:
            return False
        a, b = self._aligned(other)
        return a._cden == b._cden and a._terms == b._terms


class SizedMap(SparseMap):
    """A :class:`SparseMap` whose keys live on a space of a given size, with
    its JSON form.

    Two elements combine only when their sizes agree.  An element is written
    to JSON as ``{size: int, "sigma": int, list: [entry, ...]}``, named by
    ``_JSON_FIELDS = (size, list)``.  Each class supplies one converter per
    direction for a single entry: ``_term_to_json(head, coeff)`` and
    ``_term_from_json(entry, sigma, size)``, which returns the pair.
    Reading sums repeated keys and builds the element through its public
    constructor.
    """

    __slots__ = ()

    def _check(self, other):
        self._check_sigma(other)
        if other._size != self._size:
            name = self._JSON_FIELDS[0]
            raise DimensionMismatchError(
                f"cannot combine {name}={self._size} with {name}={other._size}"
            )

    @classmethod
    def _from_json_terms(cls, size, sigma, terms: dict):
        """The element of summed ``{key: coefficient}`` terms, through the
        public constructor."""
        return cls(size, sigma, terms)

    def to_json_dict(self) -> dict:
        size_name, list_name = self._JSON_FIELDS
        return {
            size_name: self._size,
            "sigma": self.sigma.value,
            list_name: [self._term_to_json(head, coeff) for head, coeff in self._grouped()],
        }

    @classmethod
    def from_json_dict(cls, data: dict):
        size_name, list_name = cls._JSON_FIELDS
        sigma = json_field(data, "sigma", as_sigma)
        size = json_field(data, size_name, integer)
        terms = json_field(data, list_name, lambda entries: summed(
            cls._term_from_json(entry, sigma, size) for entry in entries
        ))
        return cls._from_json_terms(size, sigma, terms)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_json_dict(json.loads(text))


class SparseAlgebra(SparseMap):
    """A :class:`SparseMap` that is also a ring, with ``*`` and ``**``."""

    __slots__ = ()

    @staticmethod
    def _key_mul(k1, k2):
        """The key of the product of two terms and its sign, as ``(key, +-1)``,
        or ``None`` when the product vanishes.  Keys that add, such as
        degrees, are the default."""
        return k1 + k2, 1

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._aligned(o)
        return a._new(multiply(a._terms, b._terms, a.sigma.value, a._key_mul), a._cden * b._cden)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = self._constant(1)
        for _ in range(exponent):
            result = result * self
        return result


class ScalarRing(SparseAlgebra):
    """A :class:`SparseAlgebra` without a size: a ring of scalars over the
    binarions, whose constant part is the term of key 0.  Each class reads
    a key of its input through ``_read_key`` and writes the generator power
    of a nonzero key through ``_power_text``."""

    __slots__ = ()

    def _term_text(self, key, c) -> str:
        """``(c)*power``; a compound constant is bracketed beside other terms."""
        if key:
            return f"({c})*{self._power_text(key)}"
        return f"({c})" if c.re and c.im and len(self._terms) > 1 else str(c)

    def _fill(self, terms: dict, sigma: Sigma):
        """Validate ``{key: coefficient}`` terms and store their sums."""
        self._size = None
        self.sigma = as_sigma(sigma)
        owner = type(self).__name__
        self._terms, self._cden = stored(
            (self._read_key(key), binarion_coefficient(value, self.sigma, owner))
            for key, value in terms.items()
        )

    @classmethod
    def zero(cls, sigma: Sigma):
        return cls({}, sigma)

    @classmethod
    def from_scalar(cls, value, sigma: Sigma = None):
        if isinstance(value, cls):
            return value
        if isinstance(value, Binarion):
            sigma = value.sigma
        elif sigma is None:
            raise TypeError("sigma required for rational scalars")
        return cls({0: value}, sigma)

    def _constant(self, value):
        return self.from_scalar(value, self.sigma)

    @classmethod
    def _coefficient_terms(cls, value, sigma: Sigma, owner: str):
        """The ``(key, binarion)`` terms of ``value`` as a coefficient in an
        element of ``sigma``: an element's of this ring, or a scalar's at key 0."""
        if not isinstance(value, cls):
            return ((0, binarion_coefficient(value, sigma, owner)),)
        if value.sigma is not sigma:
            raise SignatureMismatchError(f"coefficient sigma differs from {owner} sigma")
        return value._binarions().items()

    def items(self):
        """The ``(key, coefficient)`` terms in ascending key order."""
        return self._grouped()
