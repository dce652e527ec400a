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
exist only at two edges.  A public constructor validates its input (key
shapes, signs, the coefficients' signature) and reads it into integers in
one pass: :func:`coefficient_parts` reads a scalar coefficient as ``(x, y,
d)``, a binarion through :func:`scalars._integers`; a coefficient that is
an element of a ring (an ``HPoly`` in a symbol, a ``CharSum`` weight) is
read as it stores its terms, by :meth:`ScalarRing._coefficient_parts`; and
:func:`stored` sums the triples per key over the least common denominator.
The one-term constructors check their arguments with the same helpers and
build their term by ``_make``, as :meth:`SparseMap._constant` builds a
scalar operand.  The views build binarions with :func:`from_parts`.
Arithmetic and the route kernels sum integers, with :func:`add_parts`, over
one denominator, and :meth:`SparseMap._make` (or ``_new``, which keeps the
operand's size and signature) stores the ``(key, (re, im))`` pairs of the sums
in one pass, with the zero pairs dropped, reduced by one gcd pass.  It checks
nothing else: keys are canonical by
construction, which the test suite checks by passing every result back
through the public constructor.  Structure constants, derivative factors,
unit-power folds and the padding of denominators stay in each route; no
route kernel calls :func:`multiply`.

Views, text and JSON all come from one ``_grouped`` per class, the sorted
terms; symbols, exponential polynomials and distributions override it to
group the last key part into a coefficient ring.  The four maps with a size
(symbols, exponential polynomials, distributions and Grassmann elements)
derive from :class:`SizedMap` and share one JSON shape: the size, ``sigma``
and a list of entries, whose repeated keys add through :func:`summed`.
Each class writes and reads only a single term, and JSON text is parsed by
the package's one reader, :func:`errors.json_document`.
:class:`ScalarRing` builds the two maps without a size, which have no JSON
form.  Every power ``x^e`` in the text is written by :func:`power_factors`.

The module is also the one home of every input bound, each with its
reason: the default degree cap with :func:`check_degree_cap`, which all
three star-product routes run, and the index, digit, depth, step and
witness bounds, which the parser, ``limit`` and ``annihilator_witness``
check where their estimates are known.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import (DegreeCapError, DimensionMismatchError, SignatureMismatchError,
                     ValidationError, json_document, json_field)
from .scalars import (Binarion, Sigma, _integers, _json_int, _num_msg, _num_str, _too_long,
                      as_sigma)

#: Default bound on the total degree of any star-product result.  The
#: kappa-series always terminates on polynomials, but its width grows with
#: the p-degree, so products beyond the cap are refused rather than left to
#: run long.
DEFAULT_DEGREE_CAP = 16
#: Largest variable or generator index, and largest ``dof``, an expression
#: may use.
MAX_INDEX = 1024
#: Longest digit run read as one literal or index; Python converts at most
#: 4,300 digits between integers and text.
MAX_DIGITS = 1000
#: Deepest parenthesis nesting an expression may use.  The parser recurses
#: four frames per level, so this leaves room under Python's default
#: recursion limit of 1000 for a deep caller.
MAX_DEPTH = 100
#: Most rows ``limit --steps`` tabulates.  Row ``n`` prints ``h = 1/2^n`` in
#: full, so the table grows as ``steps^2``; past 1,074 halvings ``h`` is below
#: the smallest float.
MAX_STEPS = 1000
#: Largest generator count :func:`annihilator_witness` accepts.  Its check
#: visits all ``2^n`` basis monomials, so its time doubles with each
#: generator; larger counts are refused before any work starts.
MAX_WITNESS_GENERATORS = 16


def check_degree_cap(degree: int, degree_cap, what: str):
    """Refuse ``degree`` above ``degree_cap`` as ``what`` degree; ``None``
    means :data:`DEFAULT_DEGREE_CAP`."""
    cap = DEFAULT_DEGREE_CAP if degree_cap is None else degree_cap
    if degree > cap:
        raise DegreeCapError(f"{what} degree {_num_str(degree)} exceeds cap {_num_msg(cap)}")


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
    """The ``(re + u*im) / den`` of the stored ``[re, im]`` terms of ``acc``,
    which hold no zero pair, as binarions of the :class:`Sigma` ``sigma``, each
    built once, without re-validation.  ``den`` is the common denominator of
    the numerators.  The view edge."""
    return {
        key: Binarion._exact(Fraction(re, den), Fraction(im, den), sigma)
        for key, (re, im) in acc.items()
    }


def multiply(left: dict, right: dict, s: int, key_mul):
    """The product of two stored ``{key: (re, im)}`` term maps of a ring where
    ``u*u = s``, as ``(key, [re, im])`` pairs of integer parts over the product
    of their denominators, for ``_make``: each pair of terms under the key and
    sign that ``key_mul(k1, k2)`` gives as ``(key, +-1)``, or dropped for ``None``."""
    acc = {}
    for k1, (x1, y1) in left.items():
        for k2, (x2, y2) in right.items():
            term = key_mul(k1, k2)
            if term is not None:
                key, sign = term
                add_parts(acc, key, sign * (x1 * x2 + s * y1 * y2), sign * (x1 * y2 + y1 * x2))
    return acc.items()


def stored(pairs) -> tuple:
    """``(key, (x, y, d))`` pairs, each the coefficient ``(x + u*y) / d`` in
    integers, summed per key, the zero sums dropped, as ``({key: (re, im)},
    den)`` over the least common denominator (``({}, 1)`` for none).  The
    constructor edge, and the twin of :func:`from_parts`: a binarion
    coefficient is read by :func:`scalars._integers`, an element of a
    coefficient ring as it is stored (see :meth:`ScalarRing._coefficient_parts`)."""
    acc = {}
    for key, (x, y, d) in pairs:
        entry = acc.get(key)
        if entry is not None:  # a repeated key: add the two fractions
            x0, y0, d0 = entry
            if d0 == d:
                x, y = x0 + x, y0 + y
            else:
                x, y, d = x0 * d + x * d0, y0 * d + y * d0, d0 * d
        acc[key] = x, y, d
    den = math.lcm(*(d for x, y, d in acc.values() if x or y))
    # a sum, or a ring element's term over its _cden, may share a factor with den
    return _least({key: (x * (den // d), y * (den // d))
                   for key, (x, y, d) in acc.items() if x or y}, den)


def _least(terms: dict, den: int) -> tuple:
    """``{key: (re, im)}`` over ``den``, and ``den``, divided by their greatest
    common divisor: the same values over the least common denominator."""
    g = den
    for re, im in terms.values():
        if g == 1:
            break
        g = math.gcd(g, re, im)
    if g > 1:
        den //= g
        terms = {key: (re // g, im // g) for key, (re, im) in terms.items()}
    return terms, den


def integer(value) -> int:
    """``value`` as an int; a value that ``int`` would change or refuse, such
    as ``1.9``, ``"3"`` or ``None``, and a boolean raise
    :class:`ValidationError` instead of being truncated or read as 0 or 1.
    The message writes ``value`` by ``repr``, or is the refusal of
    :func:`scalars._num_str` for a value whose ``repr`` passes the digit
    limit."""
    try:
        out = int(value)
    except (ValueError, TypeError, OverflowError):
        out = None
    if out is None or out != value or isinstance(value, bool):
        try:
            text = repr(value)
        except ValueError:
            raise _too_long() from None
        raise ValidationError(f"{text} is not an integer")
    return out


def in_range(value, size: int, name: str, space: str) -> int:
    """``value`` read by :func:`integer`; outside ``range(size)`` it raises
    :class:`IndexError` saying ``{name} {value} out of range for {space}``,
    where ``space`` is a template such as ``"dim {}"`` that gets ``size``,
    written only then."""
    value = integer(value)
    if not 0 <= value < size:
        raise IndexError(
            f"{name} {_num_str(value)} out of range for {space.format(_num_str(size))}")
    return value


def zeros(size: int) -> tuple:
    """``size`` zeros, the exponent vector of a constant; a size past what a
    tuple can hold raises :class:`ValidationError`."""
    try:
        return (0,) * size
    except OverflowError:
        raise ValidationError(f"size {_num_str(size)} is too large to build") from None


def nonnegative(values, message: str) -> tuple:
    """``values`` as a tuple of ints: exact ``int`` entries as they are, any
    other read by :func:`integer`; a negative entry raises ``message``."""
    out = tuple(values)
    for v in out:
        if type(v) is not int:
            out = tuple(map(integer, out))
            break
    if out and min(out) < 0:
        raise ValidationError(message)
    return out


def power_factors(names, exps) -> list:
    """``name`` or ``name^e`` for each positive exponent ``e``: the one writer
    of a power in the package's text."""
    return [name if e == 1 else f"{name}^{_num_str(e)}" for name, e in zip(names, exps) if e]


def coefficient_parts(value, sigma, owner: str) -> tuple:
    """``value``, a coefficient of an element of signature ``sigma``, as
    integers ``(x, y, d)``, the value ``(x + u*y) / d``: an exact int or
    ``Fraction`` as its numerator and denominator, any other rational as a
    real binarion, and a binarion by :func:`scalars._integers`, once its
    signature is checked against ``sigma``."""
    kind = type(value)
    if kind is int:
        return value, 0, 1
    if kind is Fraction:
        return value.numerator, 0, value.denominator
    if not isinstance(value, Binarion):
        value = Binarion(value, 0, sigma)
    if value.sigma is not sigma:
        raise SignatureMismatchError(f"coefficient sigma differs from {owner} sigma")
    return _integers(value)


class SparseMap:
    """Finite map from keys to nonzero coefficients, with its linear structure.

    ``sigma`` is the signature of every coefficient.  ``_size`` is the
    dimension of the space the keys live on (``dof``, ``dim`` or ``n`` of a
    :class:`SizedMap`; ``None`` for the scalar rings).  ``_terms`` maps each
    key to the integer pair ``(re, im)`` of the coefficient ``(re + u*im) /
    _cden`` (see the module docstring).

    Views, text and JSON all read :meth:`_grouped`, the terms as sorted
    ``(head, coefficient)`` pairs.  Text joins one ``_term_text(head,
    coefficient)`` per term with ``" + "``.
    """

    __slots__ = ("sigma", "_size", "_terms", "_cden")

    #: Operand types that enter arithmetic and comparison as constants.
    _SCALARS = (Binarion, int, Fraction)
    #: The class's name in the refusal of a coefficient of another signature.
    _OWNER = None

    @classmethod
    def _make(cls, size, sigma, pairs, cden: int = 1):
        """The element of ``(key, (re, im))`` (or ``[re, im]``) pairs of integer
        parts over ``cden``, a dict's ``items()`` or a generator of distinct
        keys, read once, in order, with the zero pairs dropped and reduced to
        the least denominator; nothing else is checked."""
        terms, cden = _least({key: (re, im) for key, (re, im) in pairs if re or im}, cden)
        out = object.__new__(cls)
        out._size, out.sigma, out._terms, out._cden = size, sigma, terms, cden
        return out

    def _new(self, pairs, cden: int):
        return self._make(self._size, self.sigma, pairs, cden)

    def _binarions(self) -> dict:
        """The stored terms as ``{key: Binarion}``, in stored order."""
        return from_parts(self._terms, self.sigma, self._cden)

    def _constant(self, value):
        """``value`` (one of ``_SCALARS``) as an element like ``self``: a
        rational or binarion as the one term at ``_constant_key()``, built by
        :meth:`_make`; an element of a coefficient ring (an ``HPoly`` in a
        symbol, a ``CharSum`` in an exponential polynomial) by the class's
        public ``constant``.  A binarion of another signature raises as a
        coefficient of the public constructor does."""
        if isinstance(value, SparseMap):
            return self.constant(value, self._size, self.sigma)
        x, y, d = coefficient_parts(value, self.sigma, self._OWNER)
        return self._make(self._size, self.sigma, ((self._constant_key(), (x, y)),), d)

    def _constant_key(self):
        """The key of the constant term."""
        return 0

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
        if isinstance(other, self._SCALARS):  # built at this size and signature
            return self._constant(other)
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
        return a._new(out.items(), den)

    def is_zero(self) -> bool:
        return not self._terms

    # -- views and text -----------------------------------------------------------

    def _grouped(self) -> list:
        """The stored terms as ``(key, Binarion)`` pairs sorted by key.  A class
        whose last key part is the key of a coefficient ring overrides it to
        gather that part into an element of the ring."""
        return sorted(self._binarions().items())

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
        return self._new(((key, (-re, -im)) for key, (re, im) in self._terms.items()), self._cden)

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
                f"cannot combine {name}={_num_str(self._size)} with {name}={_num_str(other._size)}"
            )

    @classmethod
    def _from_json_terms(cls, size, sigma, terms: dict):
        """The element of summed ``{key: coefficient}`` terms, through the
        public constructor."""
        return cls(size, sigma, terms)

    def to_json_dict(self) -> dict:
        size_name, list_name = self._JSON_FIELDS
        return {  # the size bounds a Grassmann element's generator numbers too
            size_name: _json_int(self._size),
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
        return cls.from_json_dict(json_document(text))


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
        self._terms, self._cden = stored(
            (self._read_key(key), coefficient_parts(value, self.sigma, self._OWNER))
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

    @classmethod
    def _coefficient_parts(cls, value, sigma: Sigma, owner: str):
        """The ``(key, (x, y, d))`` terms of ``value`` as a coefficient in an
        element of ``sigma``, each ``(x + u*y) / d``: an element's of this ring
        as it stores them, over its ``_cden``, or a scalar's at key 0, read by
        :func:`scalars._integers`."""
        if not isinstance(value, cls):
            return ((0, coefficient_parts(value, sigma, owner)),)
        if value.sigma is not sigma:
            raise SignatureMismatchError(f"coefficient sigma differs from {owner} sigma")
        d = value._cden
        return [(key, (x, y, d)) for key, (x, y) in value._terms.items()]

    def items(self):
        """The ``(key, coefficient)`` terms in ascending key order."""
        return self._grouped()
