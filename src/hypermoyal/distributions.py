"""Point-supported distributions, their Fourier calculus, and the
distributional route to the star product.

The two representations:

* :class:`Ultradistribution` -- a finite sum of weighted derivatives of
  point masses ``w * delta^(n)`` at rational locations of ``R^m``.
* :class:`ExpPoly` -- a finite sum of ``polynomial * exp(u*<freq, x>)``
  terms, the closed class the Fourier transform of such distributions
  lands in.

Exactness is preserved by keeping scalar character values ``exp(u*r)`` at
rational ``r`` as *formal* generators of a group ring (:class:`CharSum`),
multiplied by adding exponents and only mapped to ``cosh/sinh`` (or
``cos/sin``) floats on demand.  Every structural identity in this module is
therefore checked with exact arithmetic.

All three classes are sparse term maps over the shared base of
:mod:`hypermoyal.sparse`, whose values are binarions stored as integer
pairs over one least denominator per element (``_cden``), under flat keys:
:class:`CharSum` maps exponents ``r``, :class:`ExpPoly` maps
``(freq, exps, r)`` and :class:`Ultradistribution` maps ``(loc, order, r)``.
A character factor ``exp(u*s)`` is therefore a shift ``r -> r + s`` of the
keys; :meth:`ExpPoly.terms` and :meth:`Ultradistribution.atoms` regroup the
``r`` parts into :class:`CharSum` coefficients.  Their public constructors
validate; the results of the calculus below are built from terms that are
clean by construction.

The rational parts of an :class:`ExpPoly` or :class:`Ultradistribution` key,
the vector and ``r``, are stored as integer numerators over a second positive
denominator per element, the least one (``_den``).  The kernels below add
and scale keys in integers; ``_aligned`` brings two operands to the lcm of
their denominators for ``+``, ``-``, ``==``, ``*`` and the tensor product.
Products, the tensor product and :meth:`Ultradistribution.scale` are formed
by :func:`hypermoyal.sparse.multiply`, each with its own rule for the key
of two terms' product.  ``Fraction`` values and binarions appear only at the
edges: the views (and through them text and JSON), the validating
constructor, and the :class:`CharSum` values of :meth:`ExpPoly.evaluate` and
:meth:`Ultradistribution.pair`.

The module also carries the symbol <-> distribution bridge used by the
pseudo-differential calculus: a phase-space symbol ``a(q, p)`` corresponds
to a distribution in transposed variables via
``a(q, p) = integral exp(u*(<q, p1> + <p, q1>)) a~(dp1 dq1)``.
On that side the star product is a twisted convolution, which
:func:`star_distributional` forms in one pass over the pairs of atoms of
the two distributions: each pair adds its locations and orders, gains the
character ``exp(u*h*<q1, p2>)``, takes the twist's derivatives from a
closed form per coordinate pair ``(q1_i, p2_i)`` and is transformed back
under its output key.  :meth:`ExpPoly.differentiate_multi` has a closed
form per coordinate.  The integer rows of both closed forms are built once
per shape and memoized under keys that hold no coefficient, frequency,
location or ``h``, up to :data:`FACTOR_ROWS` rows each.  These kernels read
each operand's stored integer coefficients and its ``_cden``, add them with
:func:`hypermoyal.sparse.add_parts` and hand the sums and their one
denominator to the reducing ``_make``.  On polynomial symbols this
agrees exactly with :func:`hypermoyal.symbols.star`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from operator import add, mul

from .errors import DimensionMismatchError, ValidationError, json_field
from .scalars import (
    Binarion,
    Sigma,
    _as_fraction,
    _cos_sin,
    _json_fraction,
    _json_int,
    _num_str,
    as_sigma,
    binarion_from_json,
    binarion_to_json,
)
from .sparse import (ScalarRing, SizedMap, SparseAlgebra, add_parts, check_degree_cap, in_range,
                     integer, multiply, nonnegative, power_factors, stored, summed, zeros)
from .symbols import PolySymbol


class CharSum(ScalarRing):
    """Formal sum ``sum_r c_r * exp(u*r)`` over rational exponents ``r``.

    The characters multiply by adding exponents, so the class is an exact
    commutative ring extending the binarions (a binarion is the ``r = 0``
    part).  :meth:`to_floats` maps a value to floats through ``cosh/sinh``
    or ``cos/sin`` depending on the signature.
    """

    __slots__ = ()
    _OWNER = "CharSum"
    _read_key = staticmethod(_as_fraction)

    def __init__(self, terms: dict, sigma: Sigma):
        self._fill(terms, sigma)

    @staticmethod
    def _constant_key():
        return Fraction(0)  # as ``_read_key`` reads the exponent 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, sigma: Sigma) -> "CharSum":
        return cls({Fraction(0): Binarion.one(sigma)}, sigma)

    @classmethod
    def character(cls, exponent, sigma: Sigma, coeff=1) -> "CharSum":
        """The formal character ``coeff * exp(u*exponent)``."""
        return cls({exponent: coeff}, sigma)

    # -- queries -------------------------------------------------------------

    def is_scalar(self) -> bool:
        """True when no genuine character is present (only ``r = 0``)."""
        return all(r == 0 for r in self._terms)

    def as_binarion(self) -> Binarion:
        if not self.is_scalar():
            raise ValidationError(f"{self} carries formal characters; not a plain scalar")
        return self._binarions().get(Fraction(0), Binarion.zero(self.sigma))

    def conjugate(self) -> "CharSum":
        return self._new({-r: (re, -im) for r, (re, im) in self._terms.items()}, self._cden)

    # -- evaluation -----------------------------------------------------------------

    def to_floats(self) -> tuple[float, float]:
        """Numeric value as a ``(re, im)`` float pair; a value past the float
        range raises :class:`ValidationError`."""
        re = 0.0
        im = 0.0
        s = self.sigma.value
        for r, c in self._binarions().items():
            x, y = c.to_floats()
            cr, sr = _cos_sin(r, self.sigma)
            re += x * cr + s * y * sr
            im += x * sr + y * cr
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValidationError("value too large for a float")
        return re, im

    def pos_norm(self) -> float:
        re, im = self.to_floats()
        return math.hypot(re, im)

    def _power_text(self, r) -> str:
        return f"e^({_num_str(r)}{self.sigma.unit_symbol})"


def _times_unit_power(parts: tuple, n: int, sign: int, s: int) -> tuple:
    """The integer parts ``(re, im)`` times ``(sign*u)^n`` for ``sign = +-1``,
    in the ring where ``u*u = s``.

    ``u^n = s^(n//2) u^(n%2)``, so the power is a sign, and for odd ``n`` a
    factor ``u``, which maps ``x + u*y`` to ``s*y + u*x``.
    """
    re, im = parts
    scale = sign**n * s ** (n // 2)
    if n % 2:
        return scale * s * im, scale * re
    return scale * re, scale * im


def _weight_to_json(w: CharSum) -> dict:
    if w.is_scalar():
        return binarion_to_json(w.as_binarion())
    return {"chars": [{"exp": _num_str(r), **binarion_to_json(c)} for r, c in w.items()]}


def _weight_from_json(data: dict, sigma: Sigma) -> CharSum:
    if "chars" in data:
        return CharSum(json_field(data, "chars", lambda entries: summed(
            (json_field(e, "exp", _json_fraction), binarion_from_json(e, sigma)) for e in entries
        )), sigma)
    return CharSum.from_scalar(binarion_from_json(data, sigma))


class _CharSumTerms(SizedMap):
    """The key storage, constructor and JSON entry of :class:`ExpPoly` and
    :class:`Ultradistribution`.

    Both map ``(vector, orders, r)`` to a coefficient, so the ``r`` parts of
    one head ``(vector, orders)`` are its :class:`CharSum` weight.  The
    vector and ``r`` are stored as integer numerators over ``_den``, the
    least common denominator: ``gcd(_den, every numerator) == 1``, and
    ``_den == 1`` for the empty element.  So equal elements store equal
    terms, and numerators sort as their values do.  ``_den`` is apart from
    ``_cden``, the denominator of the coefficients.  Each class declares the
    JSON names of an entry's vector, orders and weight as ``_ENTRY``, and as
    ``_ERRORS`` the messages for a negative order and a vector whose length
    is not ``dim`` (a template).
    """

    __slots__ = ("_den",)
    _VIEW = CharSum

    def _fill(self, dim: int, sigma: Sigma, entries):
        """Validate ``((vector, orders), weight)`` entries and store their flat terms."""
        negative, length = self._ERRORS
        self._size = integer(dim)
        if self._size < 1:
            raise DimensionMismatchError("dim must be >= 1")
        self.sigma = as_sigma(sigma)
        pairs = []
        for (vector, orders), weight in entries:
            vector = tuple(_as_fraction(x) for x in vector)
            orders = nonnegative(orders, negative)
            if len(vector) != self._size or len(orders) != self._size:
                raise DimensionMismatchError(length.format(self._size))
            pairs += [((vector, orders, r), c)
                      for r, c in CharSum._coefficient_terms(weight, self.sigma, self._OWNER)]
        terms, self._cden = stored(pairs)
        den = math.lcm(*(x.denominator for vector, _, r in terms for x in (*vector, r)))
        self._den = den
        self._terms = {
            (tuple(x.numerator * (den // x.denominator) for x in vector), orders,
             r.numerator * (den // r.denominator)): c
            for (vector, orders, r), c in terms.items()
        }

    @classmethod
    def _make(cls, size, sigma, terms: dict, cden: int = 1, den: int = 1):
        """:meth:`SparseMap._make`, then with the vector and ``r`` parts of the
        keys, numerators over ``den``, reduced to the least common
        denominator."""
        out = super()._make(size, sigma, terms, cden)
        g = den
        for vector, _, r in out._terms:
            if g == 1:
                break
            g = math.gcd(g, r, *vector)
        if g > 1:
            den //= g
            out._terms = {
                (tuple(n // g for n in vector), orders, r // g): c
                for (vector, orders, r), c in out._terms.items()
            }
        out._den = den
        return out

    def _new(self, terms: dict, cden: int, den: int = None):
        return self._make(self._size, self.sigma, terms, cden, self._den if den is None else den)

    def _at(self, den: int):
        """This element with its vector and ``r`` parts over ``den``, a multiple
        of ``_den``.  Not reduced, so only an operand of a kernel that adds
        keys."""
        if den == self._den:
            return self
        f = den // self._den
        out = object.__new__(type(self))
        out._size, out.sigma, out._cden, out._den = self._size, self.sigma, self._cden, den
        out._terms = {
            (tuple(n * f for n in vector), orders, r * f): c
            for (vector, orders, r), c in self._terms.items()
        }
        return out

    def _aligned(self, other):
        """Both elements with their keys over the lcm of their denominators."""
        den = math.lcm(self._den, other._den)
        return self._at(den), other._at(den)

    def _grouped(self) -> list:
        """The ``((vector, orders), weight)`` terms sorted on the numerators, the
        vector divided by ``_den``; each head's :class:`CharSum` weight, keyed by
        its ``r`` parts over ``_den``, is built and reduced once."""
        den, sigma, cden = self._den, self.sigma, self._cden
        groups = {}
        for (vector, orders, r), value in self._terms.items():
            groups.setdefault((vector, orders), {})[Fraction(r, den)] = value
        return [
            ((tuple(Fraction(n, den) for n in head[0]), head[1]),
             CharSum._make(None, sigma, groups[head], cden))
            for head in sorted(groups)
        ]

    def _term_to_json(self, head, weight) -> dict:
        vector_name, orders_name, weight_name = self._ENTRY
        return {vector_name: list(map(_num_str, head[0])),
                orders_name: list(map(_json_int, head[1])), weight_name: _weight_to_json(weight)}

    @classmethod
    def _term_from_json(cls, entry, sigma, dim):
        vector_name, orders_name, weight_name = cls._ENTRY
        key = (
            json_field(entry, vector_name, lambda v: tuple(map(_json_fraction, v))),
            json_field(entry, orders_name, lambda v: nonnegative(v, cls._ERRORS[0])),
        )
        return key, json_field(entry, weight_name, lambda w: _weight_from_json(w, sigma))


class ExpPoly(_CharSumTerms, SparseAlgebra):
    """Finite sum of ``poly(x) * exp(u*<freq, x>)`` terms on ``R^m``.

    Closed under multiplication, differentiation and argument shifts, and
    exactly evaluable at rational points (values land in :class:`CharSum`).
    Coefficients are :class:`CharSum` values, so the closure survives the
    twist and shift operations of the operator calculus; they are stored
    flat, a binarion per ``(freq, exps, r)``, with ``freq`` and ``r`` as
    numerators over ``_den``.
    """

    __slots__ = ()
    _JSON_FIELDS = ("dim", "terms")
    _ENTRY = ("freq", "exp", "coeff")
    _ERRORS = ("negative exponents are not allowed", "term vectors must have length {}")
    _SCALARS = (CharSum, Binarion, int, Fraction)
    _OWNER = "ExpPoly"
    dim = property(lambda self: self._size, doc="Dimension ``m`` of the domain.")

    def __init__(self, dim: int, sigma: Sigma, terms: dict = None):
        self._fill(dim, sigma, (terms or {}).items())

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, sigma: Sigma) -> "ExpPoly":
        return cls(dim, sigma, {})

    @classmethod
    def constant(cls, value, dim: int, sigma: Sigma) -> "ExpPoly":
        return cls.character(zeros(integer(dim)), sigma, value)

    @classmethod
    def one(cls, dim: int, sigma: Sigma) -> "ExpPoly":
        return cls.constant(1, dim, sigma)

    @classmethod
    def coordinate(cls, index: int, dim: int, sigma: Sigma) -> "ExpPoly":
        dim = integer(dim)
        index = in_range(index, dim, "index", "dim {}")
        exps = list(zeros(dim))
        exps[index] = 1
        return cls.monomial(tuple(exps), 1, sigma)

    @classmethod
    def monomial(cls, exps, coeff, sigma: Sigma) -> "ExpPoly":
        return cls(len(exps), sigma, {((0,) * len(exps), tuple(exps)): coeff})

    @classmethod
    def character(cls, freq, sigma: Sigma, coeff=1) -> "ExpPoly":
        """Plane wave ``exp(u*<freq, x>)`` with an optional scalar factor."""
        freq = tuple(freq)
        return cls(len(freq), sigma, {(freq, (0,) * len(freq)): coeff})

    @classmethod
    def from_poly_symbol(cls, symbol: PolySymbol, h=None) -> "ExpPoly":
        """Embed a phase-space polynomial as a frequency-zero ExpPoly.

        Variables are ordered ``q1..qk, p1..pk`` (dimension ``2k``).  The
        formal ``h`` must be substituted by a rational value unless the
        symbol is ``h``-free.  Reads the symbol's flat ``(alpha, beta,
        hdeg)`` map and sums each ``h^hdeg`` part into the key of
        ``alpha + beta``.
        """
        dim = 2 * symbol.dof
        if h is None:
            if any(d for _, _, d in symbol._terms):
                raise ValidationError("symbol carries formal h; pass a numeric h")
            h = 1
        h = _as_fraction(h)
        hn, hd = h.numerator, h.denominator
        top = max((d for _, _, d in symbol._terms), default=0)
        freq = (0,) * dim
        acc = {}
        for (alpha, beta, d), (re, im) in symbol._terms.items():
            c = hn**d * hd ** (top - d)  # h^d over hd^top
            add_parts(acc, (freq, alpha + beta, 0), c * re, c * im)
        return cls._make(dim, symbol.sigma, acc, symbol._cden * hd**top)

    _constant_key = PolySymbol._constant_key

    # -- queries -------------------------------------------------------------------

    def terms(self):
        """Term triples ``(freq, exps, coeff)`` in canonical order."""
        return [(*head, coeff) for head, coeff in self._grouped()]

    def degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(e) for _, e, _ in self._terms)

    # -- ring operations ---------------------------------------------------------------

    #: ``(freq, exps, r)`` keys multiply as ``(alpha, beta, hdeg)`` keys do.
    _key_mul = staticmethod(PolySymbol._key_mul)

    # -- calculus --------------------------------------------------------------------

    def differentiate(self, index: int = 0) -> "ExpPoly":
        """Exact partial derivative along coordinate ``index``."""
        index = in_range(index, self.dim, "index", "dim {}")
        s, den = self.sigma.value, self._den
        acc = {}
        for (freq, exps, r), (re, im) in self._terms.items():
            e = exps[index]
            if e > 0:  # e x^(e-1), over den like the term below
                lowered = list(exps)
                lowered[index] -= 1
                add_parts(acc, (freq, tuple(lowered), r), e * den * re, e * den * im)
            f = freq[index]
            if f:  # times u f / den: x + u*y -> f (s*y + u*x)
                add_parts(acc, (freq, exps, r), f * s * im, f * re)
        return self._new(acc, self._cden * den)

    def differentiate_multi(self, order) -> "ExpPoly":
        """Exact mixed partial derivative ``d^order``, in closed form.

        Per coordinate ``d^n (x^e exp(u f x)) = sum_{j <= min(n, e)} C(n, j)
        e!/(e - j)! (u f)^(n - j) x^(e - j) exp(u f x)``; at ``f = 0`` only
        ``j = n`` survives, and none when ``n > e``.  The ``m`` factors of
        ``u`` are ``sigma^(m//2) u^(m%2)``: a sign, and a re/im swap when
        ``m`` is odd.  Per axis the integers ``C(n, j) e!/(e - j)!`` come
        from the row of :func:`_axis_factors`, memoized under ``(n, e)``;
        ``f^(n - j)`` is applied here, and the axes are combined one at a
        time into one list.  ``order`` may be shorter than ``dim``; entries
        below one are no-ops, and a positive entry past ``dim`` raises
        :class:`IndexError`.

        The sums stay in integers: ``f`` is a numerator over ``_den``, so
        ``f^m`` is padded by ``_den^(M - m)``, ``M = |order|``, and the
        coefficients are numerators over one denominator ``d``; the result
        is divided by ``d _den^M`` once.
        """
        axes = [(in_range(i, self.dim, "index", "dim {}"), n)
                for i, n in enumerate(map(integer, order)) if n > 0]
        if not axes:
            return self
        s = self.sigma.value
        top = sum(n for _, n in axes)
        pads = [self._den ** (top - m) for m in range(top + 1)]
        acc = {}
        for (freq, exps, r), (c_re, c_im) in self._terms.items():
            out = [(exps, 1, 0)]
            for i, n in axes:
                e, f = exps[i], freq[i]
                row = _axis_row(n, e) or _axis_factors(n, e)
                if not f:
                    if n > e:
                        break
                    row = row[-1:]
                out = [(exps_out[:i] + (lowered,) + exps_out[i + 1:], c * cj * f**mj, m + mj)
                       for exps_out, c, m in out for lowered, cj, mj in row]
            else:
                for lowered, factor, m in out:
                    factor *= pads[m]
                    re, im = _times_unit_power((factor * c_re, factor * c_im), m, 1, s)
                    add_parts(acc, (freq, lowered, r), re, im)
        return self._new(acc, self._cden * self._den**top)

    def shift(self, offset) -> "ExpPoly":
        """Exact substitution ``x -> x + offset`` for a rational offset vector.

        ``exp(u*<freq, x>)`` gains the character ``exp(u*<freq, offset>)``
        and each ``x_i^e`` expands by the binomial theorem.
        """
        offset = tuple(_as_fraction(c) for c in offset)
        if len(offset) != self.dim:
            raise DimensionMismatchError("offset length must match dim")
        # keys move from _den onto _den * q, q the offset's denominator; the
        # power (n/q)^m of an offset part is padded to q^top, top the largest degree
        q = math.lcm(*(c.denominator for c in offset))
        nums = [c.numerator * (q // c.denominator) for c in offset]
        top = max((sum(exps) for _, exps, _ in self._terms), default=0)
        pads = [q ** (top - m) for m in range(top + 1)]
        acc = {}
        for (freq, exps, r), (re, im) in self._terms.items():
            phase = r * q + sum(map(mul, freq, nums))
            freq = tuple(f * q for f in freq)
            expansions = [
                [(j, math.comb(e, j) * n ** (e - j), e - j) for j in range(e + 1)] if n
                else [(e, 1, 0)]
                for e, n in zip(exps, nums)
            ]
            for choice in iter_product(*expansions):
                c = math.prod(x for _, x, _ in choice) * pads[sum(m for _, _, m in choice)]
                add_parts(acc, (freq, tuple(j for j, _, _ in choice), phase), c * re, c * im)
        return self._new(acc, self._cden * q**top, self._den * q)

    def evaluate(self, point) -> CharSum:
        """Exact evaluation at a rational point; characters stay formal."""
        point = tuple(_as_fraction(x) for x in point)
        if len(point) != self.dim:
            raise DimensionMismatchError("point length must match dim")
        values = []
        for (freq, exps, r), coeff in self._binarions().items():
            mono = math.prod(x**e for x, e in zip(point, exps))
            if mono:
                phase = Fraction(r + sum(map(mul, freq, point)), self._den)
                values.append((phase, coeff * mono))
        return CharSum._make(None, self.sigma, *stored(values))

    # -- rendering ----------------------------------------------------------------------

    def to_text(self, names=None) -> str:
        if self.is_zero():
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.dim)]
        elif len(names) < self.dim:
            raise DimensionMismatchError(f"{self.dim} variable names needed, got {len(names)}")
        u = self.sigma.unit_symbol
        parts = []
        for freq, exps, coeff in self.terms():
            factors = []
            trivial = any(exps) or any(f != 0 for f in freq)
            if not (trivial and coeff == 1):
                cs = str(coeff)
                if not (coeff.is_scalar() and coeff.as_binarion().im == 0):
                    cs = f"({cs})"
                factors.append(cs)
            factors += power_factors(names, exps)
            phase = [
                f"{_num_str(f)}*{names[i]}" if f != 1 else names[i]
                for i, f in enumerate(freq)
                if f != 0
            ]
            if phase:
                factors.append(f"exp({u}*({' + '.join(phase)}))")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __str__ = to_text


class Ultradistribution(_CharSumTerms):
    """Finite sum of weighted derivatives of point masses on ``R^m``.

    An atom ``(loc, order, weight)`` stands for ``weight * delta^(order)``
    at ``loc``; the pairing with a test function ``f`` is
    ``weight * (-1)^|order| * (d^order f)(loc)``.  The class is closed under
    derivatives, multiplication by monomials and tensor products.  Weights are
    :class:`CharSum` values, stored flat as a binarion per
    ``(loc, order, r)``, with ``loc`` and ``r`` as numerators over ``_den``.
    """

    __slots__ = ()
    _JSON_FIELDS = ("dim", "atoms")
    _ENTRY = ("loc", "order", "weight")
    _ERRORS = ("derivative orders must be nonnegative", "atom vectors must have length {}")
    _SCALARS = ()
    _OWNER = "distribution"
    dim = property(lambda self: self._size, doc="Dimension ``m`` of the space.")

    def __init__(self, dim: int, sigma: Sigma, atoms=None):
        self._fill(dim, sigma, (((loc, order), weight) for loc, order, weight in atoms or []))

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, sigma: Sigma) -> "Ultradistribution":
        return cls(dim, sigma, [])

    @classmethod
    def delta(cls, loc, sigma: Sigma, order=None, weight=1) -> "Ultradistribution":
        """``weight * delta^(order)`` at ``loc`` (order defaults to zero)."""
        loc = tuple(_as_fraction(x) for x in loc)
        dim = len(loc)
        if order is None:
            order = (0,) * dim
        return cls(dim, sigma, [(loc, tuple(order), weight)])

    # -- queries ------------------------------------------------------------------

    def atoms(self):
        """Atom triples ``(loc, order, weight)`` in canonical order."""
        return [(*head, weight) for head, weight in self._grouped()]

    def scale(self, factor) -> "Ultradistribution":
        factor = CharSum.from_scalar(factor, self.sigma)
        self._check_sigma(factor)
        den = math.lcm(self._den, *(s.denominator for s in factor._terms))
        shifts = {s.numerator * (den // s.denominator): c for s, c in factor._terms.items()}
        # the character exp(u*s) shifts the r of each atom by s
        terms = multiply(self._at(den)._terms, shifts, self.sigma.value,
                         lambda k, s: ((k[0], k[1], k[2] + s), 1))
        return self._new(terms, self._cden * factor._cden, den)

    # -- distribution calculus ----------------------------------------------------------

    def derivative(self, axis: int = 0) -> "Ultradistribution":
        """Distributional derivative: ``(d lambda, f) = -(lambda, d f)``.

        On atoms this just raises the derivative order along ``axis``.
        """
        axis = in_range(axis, self.dim, "axis", "dim {}")
        out = {}
        for (loc, order, r), w in self._terms.items():
            raised = list(order)
            raised[axis] += 1
            out[(loc, tuple(raised), r)] = w
        return self._new(out, self._cden)

    def derivative_multi(self, order) -> "Ultradistribution":
        """Raise every atom's derivative order by ``order`` in one pass.

        ``order`` may be shorter than ``dim``; entries below one are no-ops,
        and a positive entry past ``dim`` raises :class:`IndexError`.
        """
        raised = [0] * self.dim
        for axis, n in enumerate(map(integer, order)):
            if n > 0:
                raised[in_range(axis, self.dim, "axis", "dim {}")] = n
        return self._new({
            (loc, tuple(map(add, o, raised)), r): w for (loc, o, r), w in self._terms.items()
        }, self._cden)

    def mul_monomial(self, exponents) -> "Ultradistribution":
        """Multiply by ``x^exponents``, expanded on atoms via the Leibniz rule.

        ``x^n * delta^(m)_x0 = sum over kappa <= min(n, m) of
        binom(m, kappa) * n!/(n-kappa)! * x0^(n-kappa) * (-1)^|kappa|
        * delta^(m-kappa)_x0``.

        The sums stay in integers: ``x0`` is a numerator over ``_den``, so
        ``x0^(n - kappa)`` is padded by ``_den^kappa``, and the weights are
        numerators over one denominator ``d``; the result is divided by
        ``d _den^|n|`` once.
        """
        if isinstance(exponents, int):
            exponents = (exponents,)
        exponents = nonnegative(exponents, "monomial exponents must be nonnegative")
        if len(exponents) != self.dim:
            raise DimensionMismatchError("exponent vector length must match dim")
        acc = {}
        for (loc, order, r), (w_re, w_im) in self._terms.items():
            # per axis the nonzero (m - kappa, binom(m, kappa) n!/(n-kappa)! x0^(n-kappa), kappa)
            per_axis = [
                [(m - j, math.comb(m, j) * math.perm(n, j) * x0 ** (n - j) * self._den**j, j)
                 for j in range(min(n, m) + 1) if x0 or j == n]
                for n, m, x0 in zip(exponents, order, loc)
            ]
            for choice in iter_product(*per_axis):
                new_order, scalars, kappa = zip(*choice)
                scalar = math.prod(scalars)
                if sum(kappa) % 2:
                    scalar = -scalar
                add_parts(acc, (loc, new_order, r), scalar * w_re, scalar * w_im)
        return self._new(acc, self._cden * self._den ** sum(exponents))

    def pair(self, f: ExpPoly) -> CharSum:
        """Exact pairing with a test function: ``(delta^(n)_x0, f) = (-1)^|n| (d^n f)(x0)``."""
        if not isinstance(f, ExpPoly):
            raise TypeError("pairing requires an ExpPoly test function")
        self._check_sigma(f)
        if f.dim != self.dim:
            raise DimensionMismatchError(
                f"distribution dim {_num_str(self.dim)} differs from test function dim "
                f"{_num_str(f.dim)}"
            )
        total = CharSum.zero(self.sigma)
        for loc, order, w in self.atoms():
            value = f.differentiate_multi(order).evaluate(loc)
            if sum(order) % 2:
                value = -value
            total = total + w * value
        return total

    def fourier(self) -> ExpPoly:
        """Closed-form transform ``y -> (lambda(x), exp(u*<y, x>))``.

        Each atom ``(x0, n, w)`` contributes ``w * (-u*y)^n * exp(u*<y, x0>)``.
        """
        s = self.sigma.value
        return ExpPoly._make(self.dim, self.sigma, {
            key: _times_unit_power(w, sum(key[1]), -1, s) for key, w in self._terms.items()
        }, self._cden, self._den)

    def tensor(self, other: "Ultradistribution") -> "Ultradistribution":
        self._check_sigma(other)
        a, b = self._aligned(other)
        # locations and orders concatenate, characters add
        terms = multiply(a._terms, b._terms, self.sigma.value,
                         lambda k1, k2: ((k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2]), 1))
        return Ultradistribution._make(self.dim + other.dim, self.sigma, terms,
                                       a._cden * b._cden, a._den)

    # -- rendering / serialization -----------------------------------------------------

    @staticmethod
    def _term_text(head, w) -> str:
        loc, order = head
        loc_s = ",".join(map(_num_str, loc))
        if any(order):
            return f"({w})*d^({','.join(map(_num_str, order))})delta[{loc_s}]"
        return f"({w})*delta[{loc_s}]"

    @classmethod
    def _from_json_terms(cls, dim, sigma, terms: dict):
        return cls(dim, sigma, [(loc, order, w) for (loc, order), w in terms.items()])


def _coerce_symbol(a, h=None) -> ExpPoly:
    if isinstance(a, PolySymbol):
        return ExpPoly.from_poly_symbol(a, h)
    if isinstance(a, ExpPoly):
        return a
    raise TypeError(f"expected a symbol, got {type(a).__name__}")


def inverse_fourier_symbol(a, h=None) -> Ultradistribution:
    """The unique distribution whose transposed-variable transform is ``a``.

    ``a`` is a phase-space symbol over ``(q1..qk, p1..pk)`` (an
    :class:`ExpPoly` of even dimension, or a :class:`PolySymbol`).  The
    result lives on ``(P, Q)`` coordinates, ``P`` paired with ``q`` and
    ``Q`` paired with ``p``; a monomial ``c * q^r p^s * exp(u(<A,q>+<B,p>))``
    maps to the atom ``c * (-sigma*u)^(|r|+|s|) * delta^((r,s))`` at
    ``(A, B)``, which :meth:`Ultradistribution.fourier` maps back exactly.
    """
    a = _coerce_symbol(a, h)
    if a.dim % 2:
        raise DimensionMismatchError("phase-space symbols need even dimension")
    s = a.sigma.value  # -1/u = -s*u
    return Ultradistribution._make(a.dim, a.sigma, {
        key: _times_unit_power(coeff, sum(key[1]), -s, s) for key, coeff in a._terms.items()
    }, a._cden, a._den)


def symbol_from_distribution(distribution: Ultradistribution) -> ExpPoly:
    """Inverse of :func:`inverse_fourier_symbol`: reconstruct the symbol."""
    if distribution.dim % 2:
        raise DimensionMismatchError("phase-space distributions need even dimension")
    return distribution.fourier()


#: Bound on each of this module's two memos of factor rows, whose keys hold
#: no coefficient, frequency, location or ``h``: the axis rows of
#: :meth:`ExpPoly.differentiate_multi` under ``(n, e)`` and the twist rows of
#: :func:`_pair_factors` under ``(a, b, x == 0, y == 0, sigma)``.  A process
#: meets few shapes: 15-17 axis and 48-55 twist rows in an operator-route
#: batch (seeds 1, 2, 3, 11, 601, 931), 16 and 23 in ``selftest --fast``, 20
#: and 37 in a full selftest.
FACTOR_ROWS = 1024
#: A row is memoized only when the orders and exponents of its key are below
#: this bound and it has at most this many terms; any other row is built each
#: time.  So at most 32 * 32 = 1,024 axis rows exist, 1.2 MB in all, and of
#: the 3,288 twist rows that qualify the largest takes 3.1 KB (``(a, b) =
#: (30, 31)`` at the origin), so a full memo of twist rows holds at most
#: 3.2 MB (measured with ``tracemalloc``).
FACTOR_ROW_TERMS = 32


@lru_cache(maxsize=FACTOR_ROWS)
def _axis_row(n: int, e: int) -> tuple:
    """:func:`_axis_factors`, memoized; ``()`` in place of a row whose ``n`` or
    ``e`` reaches :data:`FACTOR_ROW_TERMS`, which the caller builds each time."""
    if n >= FACTOR_ROW_TERMS or e >= FACTOR_ROW_TERMS:
        return ()
    return _axis_factors(n, e)


def _axis_factors(n: int, e: int) -> tuple:
    """The terms ``(e - j, C(n, j) e!/(e - j)!, n - j)``, ``j <= min(n, e)``, of
    ``d^n (x^e exp(u f x)) / exp(u f x)`` with ``(u f)^(n - j)`` left out, for
    :meth:`ExpPoly.differentiate_multi`; ``j = n``, the one term free of
    ``f``, comes last when ``n <= e``.  A tuple that holds no coefficient or
    frequency, memoized by :func:`_axis_row`."""
    return tuple((e - j, math.comb(n, j) * math.perm(e, j), n - j) for j in range(min(n, e) + 1))


@lru_cache(maxsize=FACTOR_ROWS)
def _twist_row(a: int, b: int, x_zero: bool, y_zero: bool, sigma: int) -> tuple:
    """:func:`_twist_terms`, memoized; ``()`` in place of a row whose ``a`` or
    ``b`` reaches :data:`FACTOR_ROW_TERMS` or that has more terms than that,
    which the caller builds each time."""
    if a >= FACTOR_ROW_TERMS or b >= FACTOR_ROW_TERMS:
        return ()
    row = _twist_terms(a, b, x_zero, y_zero, sigma)
    return row if sum(len(terms) for _, _, terms in row) <= FACTOR_ROW_TERMS else ()


def _twist_terms(a: int, b: int, x_zero: bool, y_zero: bool, sigma: int) -> tuple:
    """The integer skeleton of :func:`_pair_factors`: per ``(s, t)`` that keeps
    a term, ``(a - s, b - t, terms)``, where ``terms`` lists each surviving
    ``j`` as ``(n % 2, c, powers)``, ``n = s + t - j``,
    ``c = (-1)^(s+t) C(a, s) C(b, t) C(s, j) C(t, j) j! sigma^(n//2)`` and
    ``powers`` the exponents of ``(hn, hd, xn, xd, yn, yd)``.  At ``x = 0``
    only ``j = t`` survives and at ``y = 0`` only ``j = s``.  The row holds no
    coefficient, location or ``h``, so :func:`_twist_row` memoizes it under
    its arguments; it is a tuple of tuples, which no caller can change.
    """
    out = []
    for s in range(a + 1):
        for t in range(b + 1):
            scale = (-1) ** (s + t) * math.comb(a, s) * math.comb(b, t)
            terms = []
            for j in range(min(s, t) + 1):
                if (t > j and x_zero) or (s > j and y_zero):
                    continue
                n = s + t - j
                c = scale * math.comb(s, j) * math.comb(t, j) * math.factorial(j)
                terms.append((n % 2, c * sigma ** (n // 2),
                              (n, a + b - n, t - j, b - t + j, s - j, a - s + j)))
            if terms:
                out.append((a - s, b - t, tuple(terms)))
    return tuple(out)


def _pair_factors(x, y, a, b, h, sigma: int) -> list:
    """The nonzero terms ``(a - s, b - t, re, im)`` that ``exp(c*x*y)``, ``c = u*h``,
    makes of ``delta^((a, b))`` at ``(x, y)``, with its character left out;
    the factor is ``re + u*im`` in the ring where ``u*u = sigma``.

    ``factor = (-1)^(s+t) binom(a, s) binom(b, t) sum_{j <= min(s, t)}
    binom(s, j) binom(t, j) j! c^(s+t-j) x^(t-j) y^(s-j)``, the closed form of
    ``d_x^s d_y^t exp(c*x*y) / exp(c*x*y)``.  ``c^n = h^n sigma^(n//2) u^(n%2)``.
    At ``x = 0`` only ``j = t`` survives and at ``y = 0`` only ``j = s``.
    The integer part of each surviving term comes from the row of
    :func:`_twist_terms`, memoized under ``(a, b, x == 0, y == 0, sigma)``;
    the powers of ``h``, ``x`` and ``y`` are applied here, and zero factors
    are dropped before any product is formed.

    ``x``, ``y`` and ``h`` are ``(numerator, denominator)`` pairs, and ``re``
    and ``im`` integer numerators over ``hd^(a+b) xd^b yd^a``: each term
    ``h^n x^(t-j) y^(s-j)``, ``n = s + t - j``, is padded by
    ``hd^(a+b-n) xd^(b-t+j) yd^(a-s+j)``.
    """
    (xn, xd), (yn, yd), (hn, hd) = x, y, h
    key = (a, b, not xn, not yn, sigma)
    out = []
    for da, db, terms in _twist_row(*key) or _twist_terms(*key):
        parts = [0, 0]
        for odd, c, (e_hn, e_hd, e_xn, e_xd, e_yn, e_yd) in terms:
            parts[odd] += c * hn**e_hn * hd**e_hd * xn**e_xn * xd**e_xd * yn**e_yn * yd**e_yd
        if any(parts):
            out.append((da, db, parts[0], parts[1]))
    return out


def star_distributional(a, b, h, degree_cap: int = None) -> ExpPoly:
    """Star product computed along the distributional route.

    Forms the twisted convolution of the two symbols' distributions in one
    pass over pairs of atoms: per pair, the twist ``exp(u*h*<q1, p2>)`` in
    closed form, the pushforward under addition of locations and orders,
    and the transform back.  Exact, and on polynomial symbols equal to
    :func:`hypermoyal.symbols.star` evaluated at the same rational ``h``.
    ``degree_cap`` bounds the sum of the operands' polynomial degrees;
    ``None`` means ``DEFAULT_DEGREE_CAP``, as for ``star``.

    The sums stay in integers.  ``h = hn/hd``, the atoms of ``a`` sit over
    ``da`` and those of ``b`` over ``db``, and each side's weights are
    numerators over one denominator, ``wa`` and ``wb``.  A pair's twist
    factors lie over ``hd^(alpha+beta) da^beta db^alpha``, with ``alpha`` the
    twisted orders of its ``a`` atom and ``beta`` those of its ``b`` atom, so
    each weight is padded to the largest of these, ``A`` and ``B``: every
    output coefficient lies over ``wa wb hd^(A+B) da^B db^A``, and every key
    over ``hd da db``.
    """
    h = _as_fraction(h)
    ea = _coerce_symbol(a, h)
    eb = _coerce_symbol(b, h)
    ea._check_sigma(eb)
    if ea.dim != eb.dim:
        raise DimensionMismatchError("symbols live on different phase spaces")
    if ea.dim % 2:
        raise DimensionMismatchError("phase-space symbols need even dimension")
    k = ea.dim // 2
    check_degree_cap(ea.degree() + eb.degree(), degree_cap, "star product")
    sigma = ea.sigma
    s = sigma.value
    hn, hd = h.numerator, h.denominator
    dist_a, dist_b = inverse_fourier_symbol(ea), inverse_fourier_symbol(eb)
    da, db = dist_a._den, dist_b._den
    wa, wb = dist_a._cden, dist_b._cden
    big_a = max((sum(o[k:]) for _, o, _ in dist_a._terms), default=0)
    big_b = max((sum(o[:k]) for _, o, _ in dist_b._terms), default=0)
    # keys move onto hd da db; weights are padded to the twist's denominator
    fa, fb = hd * db, hd * da
    atoms_a = [
        (tuple(v * fa for v in la), ra * fa, la[k:], oa, fa ** (big_a - sum(oa[k:])), re, im)
        for (la, oa, ra), (re, im) in dist_a._terms.items()
    ]
    atoms_b = [
        (tuple(v * fb for v in lb), rb * fb, lb[:k], ob, fb ** (big_b - sum(ob[:k])), re, im)
        for (lb, ob, rb), (re, im) in dist_b._terms.items()
    ]
    acc = {}
    for la, ra, xs, oa, pad_a, xa, ya in atoms_a:
        for lb, rb, ys, ob, pad_b, xb, yb in atoms_b:
            pad = pad_a * pad_b
            x = pad * (xa * xb + s * ya * yb)
            y = pad * (xa * yb + ya * xb)
            loc = tuple(map(add, la, lb))
            phase = ra + rb + hn * sum(map(mul, xs, ys))
            per_pair = [
                _pair_factors((xi, da), (yi, db), ai, bi, (hn, hd), s)
                for xi, yi, ai, bi in zip(xs, ys, oa[k:], ob[:k])
            ]
            for choice in iter_product(*per_pair):
                re, im = x, y
                for _, _, fx, fy in choice:
                    re, im = re * fx + s * im * fy, re * fy + im * fx
                order = tuple(map(add, oa[:k] + tuple(t for t, _, _, _ in choice),
                                  tuple(t for _, t, _, _ in choice) + ob[k:]))
                re, im = _times_unit_power((re, im), sum(order), -1, s)  # times (-u)^n
                add_parts(acc, (loc, order, phase), re, im)
    den = wa * wb * hd ** (big_a + big_b) * da**big_b * db**big_a
    return ExpPoly._make(2 * k, sigma, acc, den, hd * da * db)


def paley_wiener_growth(f: ExpPoly, n_max: int) -> tuple[float, float]:
    """Empirical growth bound ``||d^n f(0)|| <= C * R^n`` over ``n = 0..n_max``.

    ``C`` is pinned to the order-0 norm (or to the largest table entry when
    that is zero) and ``R`` is the smallest geometric rate covering the
    whole table.  For a single character ``exp(u*y*x0)`` the fitted ``R``
    approaches ``|x0|``.
    """
    if f.dim != 1:
        raise DimensionMismatchError("growth check is defined for dim-1 functions")
    n_max = integer(n_max)
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    norms = []
    current = f
    for _ in range(n_max + 1):
        norms.append(current.evaluate((Fraction(0),)).pos_norm())
        current = current.differentiate(0)
    c = norms[0] if norms[0] > 0 else max(norms)
    if c == 0:
        return 0.0, 0.0
    r = 0.0
    for n, v in enumerate(norms[1:], start=1):
        if v > 0:
            r = max(r, (v / c) ** (1.0 / n))
    return c, r
