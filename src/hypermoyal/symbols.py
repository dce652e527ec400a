"""Sparse polynomial symbols on a 2k-dimensional phase space.

A :class:`PolySymbol` is a finite sum ``c(h) * q^alpha * p^beta`` whose
coefficients are polynomials in a *formal* deformation parameter ``h`` over
binarion scalars.  Keeping ``h`` formal makes the classical limit exact:
extracting the ``h``-constant term of :func:`scaled_bracket` reproduces the
Poisson bracket on the nose, with no numerical extrapolation.

Both :class:`HPoly` and :class:`PolySymbol` are sparse term maps over the
shared base of :mod:`hypermoyal.sparse`, which stores every coefficient as
a pair of integers over one least denominator per element, ``_cden``.  A
symbol is stored flat, as one map from ``(alpha, beta, hdeg)`` to the
integer parts of the coefficient of ``h^hdeg q^alpha p^beta``;
:meth:`PolySymbol.terms` and :meth:`PolySymbol.coeff` regroup it into
``(alpha, beta, HPoly)`` views, whose binarions are built on reading.

The noncommutative :func:`star` product implements the symbol-level
composition of normal-ordered (q-left, d/dq-right) operators:

    a ⋆ b = sum over multi-indices kappa of
            (sigma*u*h)^|kappa| / kappa! * d_p^kappa(a) * d_q^kappa(b)

For polynomial symbols the series terminates, so the product is exact.  It
is the product's definition; the computation works one pair of terms at a
time in closed form.  Each coefficient is stored as ``(re + u*im) / den``
with integer ``re``, ``im`` and one denominator per operand, and the monomials
``q^alpha1 p^beta1`` and ``q^alpha2 p^beta2`` meet through the integer
structure constant ``prod C(beta1, kappa) * alpha2!/(alpha2 - kappa)!`` for
each ``kappa <= min(beta1, alpha2)``.  ``(sigma*u)^|kappa|`` is a sign, times
``u`` when ``|kappa|`` is odd, so the sums stay in integers over the product
of the denominators and the result is reduced once; the kernel reads the
operands' stored integers and writes the result's, builds no ``Fraction``
and re-validates nothing.
:func:`moyal_bracket` and :func:`scaled_bracket` add ``a ⋆ b`` and ``-(b ⋆ a)`` into one such sum,
leaving out ``kappa = 0``, whose pointwise terms cancel.  The same product
is derived independently through the distributional route in
:mod:`hypermoyal.distributions`, and through operator application in
:mod:`hypermoyal.operators`; the test suite checks all three against each
other.

Inside the kernel each monomial ``(alpha, beta, hdeg)`` is one packed int,
with fields whose width is the bit length of the operands' summed total
degree, which bounds every exponent of the result (see :func:`star`).  So a
pair's pointwise product, ``kappa = 0``, is one int addition and a kappa term
one more, by a precomputed shift; the keys are decoded once, at the end, each
distinct q or p half once, into the pairs that ``_make`` stores in one pass.  Only
exponents that overlap somewhere have a row of ``kappa >= 1`` terms, memoized by
pair, width and ring within the bounds :data:`KAPPA_ROWS` and :data:`KAPPA_ROW_TERMS`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache
from operator import add, neg

from .errors import DimensionMismatchError, ValidationError, json_field
from .scalars import (Binarion, Record, Sigma, _as_fraction, _json_int, _num_str, as_sigma,
                      binarion_from_json, binarion_to_json)
from .sparse import (DEFAULT_DEGREE_CAP, ScalarRing, SizedMap, SparseAlgebra, add_parts,
                     check_degree_cap, in_range, integer, nonnegative, power_factors, stored,
                     summed, zeros)


class HPoly(ScalarRing):
    """Polynomial in the formal deformation parameter ``h`` over binarions.

    A sparse map from ``h``-degree to coefficient; explicit zero coefficients
    are never stored.
    """

    __slots__ = ()
    _OWNER = "HPoly"

    def __init__(self, coeffs: dict, sigma: Sigma):
        self._fill(coeffs, sigma)

    @staticmethod
    def _read_key(degree) -> int:
        degree = integer(degree)
        if degree < 0:
            raise ValidationError("h-degree must be nonnegative")
        return degree

    # -- constructors ---------------------------------------------------

    @classmethod
    def h_power(cls, degree: int, sigma: Sigma, coeff=1) -> "HPoly":
        return cls({degree: coeff}, sigma)

    # -- queries ----------------------------------------------------------

    def coeff(self, degree: int) -> Binarion:
        return self._binarions().get(degree, Binarion.zero(self.sigma))

    def degree(self) -> int:
        return max(self._terms) if self._terms else 0

    @property
    def constant_term(self) -> Binarion:
        return self.coeff(0)

    # -- arithmetic ---------------------------------------------------------

    def conjugate(self):
        """Coefficientwise involution ``x + u*y -> x - u*y``."""
        return self._new(((key, (re, -im)) for key, (re, im) in self._terms.items()), self._cden)

    def times_h(self, power: int = 1) -> "HPoly":
        return HPoly({d + power: v for d, v in self._binarions().items()}, self.sigma)

    def div_h(self) -> "HPoly":
        """Exact division by ``h``; every term must have degree >= 1."""
        if 0 in self._terms:
            raise ArithmeticError("not divisible by h: constant term present")
        return self._new(((d - 1, v) for d, v in self._terms.items()), self._cden)

    def substitute(self, h) -> Binarion:
        """Evaluate at a numeric (rational) value of ``h``."""
        h = _as_fraction(h)
        total = Binarion.zero(self.sigma)
        for d, v in self._binarions().items():
            total = total + v * (h**d)
        return total

    @staticmethod
    def _power_text(d) -> str:
        return power_factors(("h",), (d,))[0]


class PhasePoint(Record):
    """A rational point ``(q, p)`` of the k-dimensional phase space."""

    def __init__(self, q: tuple, p: tuple):
        q = tuple(_as_fraction(x) for x in q)
        p = tuple(_as_fraction(x) for x in p)
        if len(q) != len(p):
            raise DimensionMismatchError("q and p must have the same length")
        self._set(q, p)

    @property
    def dof(self) -> int:
        return len(self.q)


def _bump(exps: tuple, index: int, amount: int = 1) -> tuple:
    out = list(exps)
    out[index] += amount
    return tuple(out)


def _term_order_key(key):
    """Sort key of a monomial ``(alpha, beta)`` or a flat ``(alpha, beta, hdeg)``:
    total degree descending, then q and p exponents descending, then ``h``."""
    alpha, beta = key[0], key[1]
    return -sum(alpha) - sum(beta), tuple(map(neg, alpha)), tuple(map(neg, beta)), key[2:]


class PolySymbol(SizedMap, SparseAlgebra):
    """Sparse polynomial in ``q1..qk, p1..pk`` with :class:`HPoly` coefficients.

    Stored flat, as one map from ``(alpha, beta, hdeg)`` to the integer
    parts of the coefficient of ``h^hdeg q^alpha p^beta``; :meth:`terms` and
    :meth:`coeff` regroup it by monomial.  A symbol is an *observable* when
    every coefficient is a plain real scalar: imaginary part zero and no
    ``h``-dependence.
    """

    __slots__ = ()
    _JSON_FIELDS = ("dof", "terms")
    _SCALARS = (Binarion, HPoly, int, Fraction)
    _OWNER = "symbol"
    dof = property(lambda self: self._size, doc="Number of degrees of freedom ``k``.")

    def __init__(self, dof: int, sigma: Sigma, terms: dict = None):
        self._size = integer(dof)
        if self._size < 1:
            raise DimensionMismatchError("dof must be >= 1")
        self.sigma = as_sigma(sigma)
        pairs = []
        for (alpha, beta), coeff in (terms or {}).items():
            alpha = nonnegative(alpha, "negative exponents are not allowed")
            beta = nonnegative(beta, "negative exponents are not allowed")
            if len(alpha) != self.dof or len(beta) != self.dof:
                raise DimensionMismatchError(
                    f"exponent vectors must have length {_num_str(self.dof)}"
                )
            pairs += [((alpha, beta, d), c)
                      for d, c in HPoly._coefficient_parts(coeff, self.sigma, self._OWNER)]
        self._terms, self._cden = stored(pairs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, dof: int, sigma: Sigma) -> "PolySymbol":
        return cls(dof, sigma, {})

    @classmethod
    def constant(cls, value, dof: int, sigma: Sigma) -> "PolySymbol":
        zero = zeros(integer(dof))
        return cls(dof, sigma, {(zero, zero): value})

    @classmethod
    def one(cls, dof: int, sigma: Sigma) -> "PolySymbol":
        return cls.constant(1, dof, sigma)

    @classmethod
    def coordinate(cls, kind: str, index: int, dof: int, sigma: Sigma) -> "PolySymbol":
        """The coordinate symbol ``q_index`` or ``p_index`` (0-based index)."""
        if kind not in ("q", "p"):
            raise ValidationError("kind must be 'q' or 'p'")
        dof = integer(dof)
        index = in_range(index, dof, "coordinate index", "dof {}")
        zero = zeros(dof)
        unit = _bump(zero, index)
        return cls(dof, sigma, {(unit, zero) if kind == "q" else (zero, unit): 1})

    @classmethod
    def monomial(cls, alpha, beta, coeff, sigma: Sigma, h_degree: int = 0) -> "PolySymbol":
        dof = len(alpha)
        c = HPoly.from_scalar(coeff, sigma)
        if h_degree:
            c = c.times_h(h_degree)
        return cls(dof, sigma, {(tuple(alpha), tuple(beta)): c})

    def _constant_key(self):
        zero = zeros(self._size)
        return zero, zero, 0

    # -- queries -----------------------------------------------------------

    def _grouped(self) -> list:
        """The ``((alpha, beta), HPoly)`` terms, the ``h``-degrees of each
        monomial gathered into its coefficient, sorted by monomial."""
        groups = {}
        for (alpha, beta, d), value in self._terms.items():
            head = alpha, beta
            group = groups.get(head)
            if group is None:
                groups[head] = {d: value}
            else:
                group[d] = value
        sigma, cden = self.sigma, self._cden
        return [(head, HPoly._make(None, sigma, groups[head].items(), cden))
                for head in sorted(groups, key=_term_order_key)]

    def terms(self):
        """Term triples ``(alpha, beta, coeff)`` in canonical order."""
        return [(*head, coeff) for head, coeff in self._grouped()]

    def coeff(self, alpha, beta) -> HPoly:
        monomial = (tuple(alpha), tuple(beta))
        return HPoly._make(None, self.sigma, (
            (d, v) for (a, b, d), v in self._terms.items() if (a, b) == monomial
        ), self._cden)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(a) + sum(b) for a, b, _ in self._terms)

    def p_degrees(self) -> tuple:
        """Componentwise maximum p-exponent; bounds the star-product series."""
        bounds = [0] * self.dof
        for _, beta, _ in self._terms:
            for i, b in enumerate(beta):
                bounds[i] = max(bounds[i], b)
        return tuple(bounds)

    def is_observable(self) -> bool:
        """True when every coefficient is real and free of ``h``."""
        return all(d == 0 and not im for (_, _, d), (_, im) in self._terms.items())

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _key_mul(k1, k2):
        """Commutative pointwise product (the h -> 0 limit of ``star``)."""
        (a1, b1, d1), (a2, b2, d2) = k1, k2
        return (tuple(map(add, a1, a2)), tuple(map(add, b1, b2)), d1 + d2), 1

    # -- calculus -------------------------------------------------------------

    def differentiate(self, variable: str, index: int = 0) -> "PolySymbol":
        """Exact partial derivative with respect to ``q_index`` or ``p_index``."""
        if variable not in ("q", "p"):
            raise ValidationError("variable must be 'q' or 'p'")
        index = in_range(index, self.dof, "index", "dof {}")
        out = {}
        for (alpha, beta, d), (re, im) in self._terms.items():
            exps = alpha if variable == "q" else beta
            e = exps[index]
            if e:  # lowering one exponent maps distinct keys to distinct keys
                lowered = _bump(exps, index, -1)
                key = (lowered, beta, d) if variable == "q" else (alpha, lowered, d)
                out[key] = (re * e, im * e)
        return self._new(out.items(), self._cden)

    def differentiate_multi(self, variable: str, kappa) -> "PolySymbol":
        if variable not in ("q", "p"):
            raise ValidationError("variable must be 'q' or 'p'")
        out = self
        for i, n in enumerate(map(integer, kappa)):
            for _ in range(n):
                out = out.differentiate(variable, i)
                if out.is_zero():
                    return out
        return out

    def evaluate(self, point: PhasePoint, h) -> Binarion:
        """Exact evaluation at a rational phase point and rational ``h >= 0``."""
        h = _as_fraction(h)
        if h < 0:
            raise ValidationError("h must be >= 0")
        if point.dof != self.dof:
            raise DimensionMismatchError(
                f"point has dof {_num_str(point.dof)}, symbol has dof {_num_str(self.dof)}"
            )
        total = Binarion.zero(self.sigma)
        for (alpha, beta, d), v in self._binarions().items():
            mono = h**d
            for x, e in zip(point.q, alpha):
                mono *= x**e
            for x, e in zip(point.p, beta):
                mono *= x**e
            total = total + v * mono
        return total

    def substitute_h(self, h) -> "PolySymbol":
        """Replace the formal ``h`` by a numeric rational value.

        One integer pass over the flat map: with ``h = hn/hd`` and every
        coefficient over the symbol's common denominator, ``h^d`` becomes
        ``hn^d * hd^(D - d)`` over ``hd^D``, where ``D`` is the largest
        ``h``-degree, and the sums are divided once.
        """
        h = _as_fraction(h)
        hn, hd = h.numerator, h.denominator
        top = max((d for _, _, d in self._terms), default=0)
        powers = {}
        acc = {}
        for (alpha, beta, d), (re, im) in self._terms.items():
            c = powers.get(d)
            if c is None:
                c = powers[d] = hn**d * hd ** (top - d)
            add_parts(acc, (alpha, beta, 0), c * re, c * im)
        return self._new(acc.items(), self._cden * hd**top)

    def h_constant_part(self) -> "PolySymbol":
        """The ``h``-degree-0 part; this is the classical limit h -> 0."""
        return self._new(((key, v) for key, v in self._terms.items() if key[2] == 0), self._cden)

    def scale_hpoly(self, factor: HPoly) -> "PolySymbol":
        return self * factor

    #: Coefficientwise involution; observables are the fixed points.
    conjugate = HPoly.conjugate

    def div_h(self) -> "PolySymbol":
        if any(d == 0 for _, _, d in self._terms):
            raise ArithmeticError("not divisible by h: constant term present")
        return self._new((((a, b, d - 1), v) for (a, b, d), v in self._terms.items()), self._cden)

    # -- rendering ----------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form with graded-lexicographic term order (q before p)."""
        if self.is_zero():
            return "0"
        names = ["h", *(f"{x}{i + 1}" for x in "qp" for i in range(self.dof))]
        values = self._binarions()
        rendered = [_render_monomial(names, (d, *alpha, *beta), values[alpha, beta, d])
                    for alpha, beta, d in sorted(values, key=_term_order_key)]
        text = rendered[0]
        for part in rendered[1:]:
            if part.startswith("-"):
                text += " - " + part[1:]
            else:
                text += " + " + part
        return text

    __str__ = to_text

    # -- serialization ----------------------------------------------------------------

    @staticmethod
    def _term_to_json(key, coeff) -> dict:
        coeff = [{"h": _json_int(d), **binarion_to_json(v)} for d, v in coeff.items()]
        return {"q": list(map(_json_int, key[0])), "p": list(map(_json_int, key[1])),
                "coeff": coeff}

    @staticmethod
    def _term_from_json(entry, sigma, dof):
        def exponents(values) -> tuple:
            return nonnegative(values, "negative exponents are not allowed")

        def read_coeff(entries) -> HPoly:
            return HPoly(summed(
                (json_field(c, "h", integer), binarion_from_json(c, sigma)) for c in entries
            ), sigma)

        key = (json_field(entry, "q", exponents), json_field(entry, "p", exponents))
        return key, json_field(entry, "coeff", read_coeff)


def _render_monomial(names, exps, value: Binarion) -> str:
    """One term of :meth:`PolySymbol.to_text`, ``exps`` over ``h, q1..qk, p1..pk``."""
    factors = power_factors(names, exps)
    text = str(value)
    if factors and text in ("1", "-1"):
        return text[:-1] + "*".join(factors)
    return "*".join([f"({text})" if value.re and value.im else text, *factors])


def _flatten(symbol: PolySymbol, w: int):
    """The stored integer form of ``symbol``, with packed keys.

    Returns ``(den, terms, betas, alphas)``.  ``terms`` lists
    ``(key, beta_id, alpha_id, re_num, im_num)``: ``key`` packs the monomial
    ``(alpha, beta, hdeg)`` in fields of ``w`` bits (see :func:`star`), the
    coefficient equals ``(re_num + u*im_num) / den``, and the ids index the
    distinct p- and q-exponent vectors listed in ``betas`` and ``alphas``.
    """
    den = symbol._cden
    betas, alphas, terms = {}, {}, []
    for (alpha, beta, d), (re, im) in symbol._terms.items():
        key = d
        for e in beta[::-1]:
            key = key << w | e
        for e in alpha[::-1]:
            key = key << w | e
        terms.append((key, betas.setdefault(beta, len(betas)),
                      alphas.setdefault(alpha, len(alphas)), re, im))
    return den, terms, list(betas), list(alphas)


#: Bound on the memo of kappa rows, whose key holds no coefficient: a
#: process meets its shapes only, 1,254 rows in a star-wide batch, 233-262
#: in operator-route, 176 in ``selftest --fast`` and 525 in a full selftest.
KAPPA_ROWS = 4096
#: Most multi-indices of a memoized row's pair, ``prod(min(beta1_i, alpha2_i)
#: + 1)``; its row holds all but ``kappa = 0``: at most 11 terms in star-wide,
#: 7 in a full selftest and 8 for one degree of freedom under the default cap,
#: but 255 for ``beta1 = alpha2 = (1,)*8`` (27.7 KB).  By ``sys.getsizeof``
#: summed over a row's tuples and ints, each object once, a term of the rows
#: with ``k <= 3`` under the default cap takes at most 196 bytes (a one-term
#: row), so a full memo holds about 4,096 * 31 * 196 B, 25 MB; the 31-term
#: row of ``(1,)*5`` holds 3,348 B.
KAPPA_ROW_TERMS = 32
#: Bit ``i`` of ``_support(v)`` is set where ``v[i] > 0``; memoized, as rows are.
_support = lru_cache(maxsize=KAPPA_ROWS)(lambda v: sum(1 << i for i, e in enumerate(v) if e))


@lru_cache(maxsize=KAPPA_ROWS)
def _structure_constants(beta1, alpha2, units, s: int) -> tuple:
    """:func:`_kappa_row` of a pair that overlaps in some coordinate, memoized;
    ``()`` in place of a row whose pair has more than :data:`KAPPA_ROW_TERMS`
    multi-indices, counted before it is built, which the caller builds."""
    if math.prod(min(b, a) + 1 for b, a in zip(beta1, alpha2)) > KAPPA_ROW_TERMS:
        return ()
    return _kappa_row(beta1, alpha2, units, s)


def _kappa_row(beta1, alpha2, units, s: int) -> tuple:
    """The kappa terms of one monomial pair ``p^beta1 ⋆ q^alpha2``, packed.

    Lists ``(delta, |kappa| odd, c)`` for ``0 < kappa <= min(beta1, alpha2)``
    componentwise; the caller adds ``kappa = 0``.  ``delta = sum kappa_i * units[i]``
    moves a packed key by ``-kappa`` on the q and p fields and by
    ``+|kappa|`` on the ``h`` field.  ``c = s^(|kappa| + |kappa|//2) * prod
    C(beta1_i, kappa_i) * alpha2_i!/(alpha2_i - kappa_i)!`` is the integer
    part of ``(sigma*u)^|kappa| / kappa! * d_p^kappa(p^beta1) *
    d_q^kappa(q^alpha2)``; the remaining ``u`` of an odd ``|kappa|`` is
    applied by the caller.  The row holds no coefficient, so
    :func:`_structure_constants` memoizes it under ``(beta1, alpha2, units,
    s)``; it is a tuple, which no caller can change.
    """
    out = [(0, 0, 1)]
    for b, a, unit in zip(beta1, alpha2, units):
        if b and a:  # otherwise kappa_i = 0 only, with factor 1
            factors = [
                (j * unit, j, math.comb(b, j) * math.perm(a, j)) for j in range(min(b, a) + 1)
            ]
            out = [(delta + dj, n + j, c * cj) for delta, n, c in out for dj, j, cj in factors]
    return tuple(  # out[0] is kappa = 0
        (delta, n & 1, c if s > 0 or (n + n // 2) % 2 == 0 else -c) for delta, n, c in out[1:]
    )


@cache  # a few (k, w) pairs per process; small products would pay ~1.5% to rebuild it
def _kappa_units(k: int, w: int) -> tuple:
    """Per coordinate ``i``, the packed shift of ``kappa_i = 1``: ``+1`` on the
    ``h`` field, ``-1`` on the fields of ``q_i`` and ``p_i``."""
    return tuple((1 << 2 * k * w) - (1 << i * w) - (1 << (k + i) * w) for i in range(k))


def _accumulate(acc: dict, left, right, units, s: int, sign: int, start: int):
    """Add ``sign * (left ⋆ right)`` in integer form into ``acc``.

    ``left`` and ``right`` are :func:`_flatten` results with fields of one
    width ``w`` and ``units`` is :func:`_kappa_units` of that width; ``acc``
    maps packed keys to ``[re_num, im_num]`` over the product of their
    denominators.  A term pair's monomial is ``key1 + key2`` and each of its
    kappa terms lands on ``key1 + key2 + delta``: no exponent tuple is built
    in the loop.  A pair adds its pointwise product, ``kappa = 0``, unless
    ``start=1``, then its row of ``kappa >= 1`` terms, tabled by beta and alpha
    id, ``()`` where they overlap nowhere; ``sign`` negates left coefficients.
    """
    _, left_terms, betas, _ = left
    _, right_terms, _, alphas = right
    alpha_masks = list(map(_support, alphas))
    table = [
        [_structure_constants(beta1, alpha2, units, s) or _kappa_row(beta1, alpha2, units, s)
         if mask1 & mask2 else () for alpha2, mask2 in zip(alphas, alpha_masks)]
        for beta1, mask1 in zip(betas, map(_support, betas))
    ]
    for key1, b1, _, r1, i1 in left_terms:
        if sign < 0:
            r1, i1 = -r1, -i1
        si1 = s * i1
        row = table[b1]
        for key2, _, a2, r2, i2 in right_terms:
            kappas = row[a2]
            if start and not kappas:
                continue
            key = key1 + key2
            re = r1 * r2 + si1 * i2
            im = r1 * i2 + i1 * r2
            if not start:  # kappa = 0, with factor 1: the pointwise product
                entry = acc.get(key)
                if entry is None:
                    acc[key] = [re, im]
                else:
                    entry[0] += re
                    entry[1] += im
            if not kappas:
                continue
            sim = s * im
            for delta, odd, c in kappas:
                if odd:  # times u: re + u*im -> s*im + u*re
                    x, y = c * sim, c * re
                else:
                    x, y = c * re, c * im
                # sparse.add_parts inlined: the only loop run once per kappa
                # term, and a bare get/insert loop is ~25% slower as a call
                at = key + delta
                entry = acc.get(at)
                if entry is None:
                    acc[at] = [x, y]
                else:
                    entry[0] += x
                    entry[1] += y


def _unpacked(acc: dict, k: int, w: int):
    """The entries of the packed ``acc`` as ``((alpha, beta, hdeg), [re, im])``
    pairs, in its order.  A key splits into its q half and its p half, ``k*w``
    bits each, and the unbounded ``h`` field above them; each distinct half is
    decoded once, so the terms share their exponent tuples."""
    size = k * w
    half, mask, shifts, vectors = (1 << size) - 1, (1 << w) - 1, range(0, size, w), {}
    for key, entry in acc.items():
        q = key & half
        alpha = vectors.get(q)
        if alpha is None:
            alpha = vectors[q] = tuple([q >> i & mask for i in shifts])
        p = key >> size & half
        beta = vectors.get(p)
        if beta is None:
            beta = vectors[p] = tuple([p >> i & mask for i in shifts])
        yield (alpha, beta, key >> 2 * size), entry


def _check_operands(a: PolySymbol, b: PolySymbol, degree_cap) -> int:
    """Check that ``a`` and ``b`` may be multiplied; returns the field width
    of their packed keys: the bit length of the product's total degree, at
    least 1."""
    a._check(b)
    top = a.total_degree() + b.total_degree()
    check_degree_cap(top, degree_cap, "star product")
    return max(top.bit_length(), 1)


def star(a: PolySymbol, b: PolySymbol, degree_cap: int = None) -> PolySymbol:
    """Noncommutative product realizing operator composition on symbols.

    Defined by ``sum_kappa (sigma*u*h)^|kappa|/kappa! d_p^kappa(a) d_q^kappa(b)``;
    the series terminates at the componentwise p-degree of ``a``.  Associative,
    bilinear, and equal to the pointwise product at ``h = 0``.

    Computed one pair of terms at a time in closed form: the monomials
    ``c1 q^alpha1 p^beta1`` and ``c2 q^alpha2 p^beta2`` contribute, for each
    ``kappa <= min(beta1, alpha2)``,
    ``c1 c2 (sigma*u*h)^|kappa| prod C(beta1, kappa) alpha2!/(alpha2 - kappa)!
    q^(alpha1 + alpha2 - kappa) p^(beta1 + beta2 - kappa)``, summed in
    integers over the product of the operands' common denominators.

    Each monomial ``(alpha, beta, hdeg)`` is one int with fields of ``w``
    bits: ``alpha_i`` at bit ``i*w``, ``beta_i`` at ``(k + i)*w``, and
    ``hdeg`` above them, unbounded.  No exponent of the product exceeds the
    operands' summed total degree ``top``, so ``w = max(top.bit_length(),
    1)`` keeps the fields of every key apart.  A product of two monomials is
    one int addition and a kappa term one more; the keys are decoded once,
    at the end, into the pairs of :func:`_unpacked`, which the reducing
    ``_make`` stores in one pass.
    """
    w = _check_operands(a, b, degree_cap)
    left, right = _flatten(a, w), _flatten(b, w)
    acc = {}
    _accumulate(acc, left, right, _kappa_units(a.dof, w), a.sigma.value, 1, 0)
    return a._new(_unpacked(acc, a.dof, w), left[0] * right[0])


def _commutator_integers(a: PolySymbol, b: PolySymbol, degree_cap):
    """``a ⋆ b - b ⋆ a`` in integer form: ``(pairs, den)``, with the
    :func:`_unpacked` pairs keyed by ``(alpha, beta, hdeg)``.

    The ``kappa = 0`` terms are the pointwise products, which cancel
    exactly, so both passes skip them and every key has ``hdeg >= 1``.
    """
    w = _check_operands(a, b, degree_cap)
    left, right = _flatten(a, w), _flatten(b, w)
    units, s = _kappa_units(a.dof, w), a.sigma.value
    acc = {}
    _accumulate(acc, left, right, units, s, 1, 1)
    _accumulate(acc, right, left, units, s, -1, 1)
    return _unpacked(acc, a.dof, w), left[0] * right[0]


def moyal_bracket(a: PolySymbol, b: PolySymbol, degree_cap: int = None) -> PolySymbol:
    """Star commutator ``a ⋆ b - b ⋆ a``; every term carries ``h``-degree >= 1."""
    return a._new(*_commutator_integers(a, b, degree_cap))


def poisson_bracket(a: PolySymbol, b: PolySymbol) -> PolySymbol:
    """``sum_i d_p_i(a) d_q_i(b) - d_q_i(a) d_p_i(b)`` (so ``{q, p} = -1``).

    Both products of a term pair land on one monomial per ``i``: ``c1
    q^alpha1 p^beta1`` and ``c2 q^alpha2 p^beta2`` give ``(beta1_i alpha2_i -
    alpha1_i beta2_i) c1 c2 q^(alpha1 + alpha2 - e_i) p^(beta1 + beta2 - e_i)``.
    Kept apart from the star kernel, as the oracle of :func:`scaled_bracket`; it
    shares only the stored integer form and the reducing ``_make``, and sums
    integers over the product of the operands' denominators.
    """
    a._check(b)
    s = a.sigma.value
    acc = {}
    for (alpha1, beta1, d1), (r1, i1) in a._terms.items():
        for (alpha2, beta2, d2), (r2, i2) in b._terms.items():
            weights = [p1 * q2 - q1 * p2 for q1, p1, q2, p2 in zip(alpha1, beta1, alpha2, beta2)]
            if not any(weights):
                continue
            re = r1 * r2 + s * i1 * i2
            im = r1 * i2 + i1 * r2
            alpha = tuple(map(add, alpha1, alpha2))
            beta = tuple(map(add, beta1, beta2))
            for i, weight in enumerate(weights):
                if weight:
                    key = (_bump(alpha, i, -1), _bump(beta, i, -1), d1 + d2)
                    add_parts(acc, key, weight * re, weight * im)
    return a._new(acc.items(), a._cden * b._cden)


def scaled_bracket(a: PolySymbol, b: PolySymbol, degree_cap: int = None) -> PolySymbol:
    """``(u/h)`` times the Moyal bracket, as an exact polynomial in ``h``.

    The division by ``h`` is exact because every Moyal-bracket term has
    ``h``-degree >= 1.  The ``h``-constant part of the result equals
    :func:`poisson_bracket` exactly for ``h``-free inputs, which is the
    package's central correspondence check.
    """
    pairs, den = _commutator_integers(a, b, degree_cap)
    s = a.sigma.value
    # times u: re + u*im -> s*im + u*re; divided by h: one degree less
    return a._new((((alpha, beta, d - 1), (s * im, re))
                   for (alpha, beta, d), (re, im) in pairs), den)
