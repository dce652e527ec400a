"""Pseudo-differential operators on exponential-polynomial wavefunctions.

An :class:`Operator` carries a phase-space symbol, a fixed positive rational
``h`` and a signature.  Application to a :class:`WaveFunction` follows two
equivalent routes, both exact:

* *normal-ordered route* (polynomial symbols): the monomial
  ``q^alpha p^beta`` acts as ``q^alpha (sigma*u*h * d/dq)^beta``, position
  factors to the left of the derivatives.  It is computed in closed form,
  one pair of a symbol term and a wavefunction term ``w x^e exp(u<f, x>)``
  at a time: per coordinate ``d^b (x^e exp(u f x)) = sum_{j <= min(b, e)}
  C(b, j) e!/(e - j)! (u f)^(b - j) x^(e - j) exp(u f x)``, whose integer
  row is memoized once per ``(b, e)``, and the powers of ``u`` fold into a
  sign and a re/im swap.  The sums stay in integers:
  symbol and wavefunction coefficients are numerators over one
  denominator each, ``D_s`` and ``D_w``, and the frequencies are the
  wavefunction's stored integer numerators over its one denominator ``F``;
  every output coefficient lies over the one denominator ``D_s D_w F^M``,
  where ``M = max|beta|``;
* *shift route* (any exponential-polynomial symbol): through the symbol's
  point-supported distribution, a plane-wave factor ``exp(u*<B, p>)`` in the
  symbol becomes the argument shift ``q -> q + h*B``.  Atoms that share
  their derivative order ``s`` and location ``B`` share one
  ``(d^s phi)(q + h*B)``; the rest of each atom's action is a shift of
  integer keys, a sign and a re/im swap, and its sums also stay in
  integers, over one denominator.

The two routes agree on their common domain, and
:func:`compose_check` verifies operator composition against the star
product -- the operator-side oracle of the symbol calculus.  The
normal-ordered kernel therefore shares no kernel math with the star
kernels or with the shift route's closed-form
:meth:`ExpPoly.differentiate_multi`, and the shift route uses none of the
normal-ordered kernel; all of them read the integer parts that
:mod:`hypermoyal.sparse` stores, add them and reduce the sums once.  The
defining eigenrelation is ``apply(a, e) = a(q, p0) * e`` on the plane wave
``e = exp(u*<p0, q>/h)``.  Every route refuses a symbol whose degree
exceeds ``degree_cap`` (``None`` means ``DEFAULT_DEGREE_CAP``, as for
``star``) before it reads the wavefunction.

``h`` is numeric here (unlike the formal ``h`` of
:mod:`hypermoyal.symbols`) because wavefunction frequencies ``p0/h`` must
combine arithmetically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add

from .distributions import (
    CharSum,
    ExpPoly,
    _times_unit_power,
    inverse_fourier_symbol,
    star_distributional,
)
from .errors import DimensionMismatchError, SignatureMismatchError, ValidationError, json_field
from .scalars import Binarion, Sigma, _as_fraction, _json_fraction, _num_str, as_sigma
from .sparse import add_parts, check_degree_cap, summed
from .parsing import parse_symbol
from .symbols import PolySymbol, star


def _positive_h(h) -> Fraction:
    h = _as_fraction(h)
    if h <= 0:
        raise ValidationError("h must be a positive rational")
    return h


#: Bound on the memo of derivative rows, whose key ``(b, e)`` holds no
#: coefficient, frequency or ``h``: a process meets few exponent pairs, 42-50
#: rows in an operator-route batch (seeds 1, 2, 3, 11, 601, 931), 23 in
#: ``selftest --fast`` and 36 in a full selftest.
DERIVATIVE_ROWS = 1024
#: A row is memoized only when its ``b`` and ``e`` are below this bound, so it
#: has at most this many terms and at most 32 * 32 = 1,024 keys exist: the
#: memo never evicts, and all 1,024 rows take 1.1 MB (measured with
#: ``tracemalloc``).  A row of a larger ``b`` or ``e`` is built each time.
DERIVATIVE_ROW_TERMS = 32


@lru_cache(maxsize=DERIVATIVE_ROWS)
def _derivative_row(b: int, e: int) -> tuple:
    """:func:`_derivative_factors`, memoized; ``()`` in place of a row whose
    ``b`` or ``e`` reaches :data:`DERIVATIVE_ROW_TERMS`, which the caller
    builds each time."""
    if b >= DERIVATIVE_ROW_TERMS or e >= DERIVATIVE_ROW_TERMS:
        return ()
    return _derivative_factors(b, e)


def _derivative_factors(b: int, e: int) -> tuple:
    """The terms ``(e - j, C(b, j) e!/(e - j)!, b - j)``, ``j <= min(b, e)``, of
    ``d^b (x^e exp(u f x))`` divided by ``exp(u f x)``, with ``(u f)^(b - j)``
    left out.  ``j = b``, the one term free of ``f``, comes last when
    ``b <= e``.  The row holds no coefficient or frequency, so
    :func:`_derivative_row` memoizes it under ``(b, e)``; it is a tuple, which
    no caller can change."""
    return tuple((e - j, math.comb(b, j) * math.perm(e, j), b - j) for j in range(min(b, e) + 1))


def _derivative_terms(beta, exps, nums) -> list:
    """The terms ``(e - j, factor, sum(b - j))`` of ``d^beta (x^e exp(u<f, x>))``
    divided by ``exp(u<f, x>)``, with the powers of ``u`` left out and each
    frequency ``f`` given by its integer numerator ``n = f * F`` over the
    wavefunction's key denominator ``F``.

    Per coordinate ``factor`` has ``C(b, j) e!/(e - j)! n^(b - j)`` for
    ``j <= min(b, e)``: the memoized row of ``(b, e)`` times ``n^(b - j)``,
    applied here.  At ``f = 0`` only ``j = b`` survives, and none when
    ``b > e``.  The coordinates are combined one at a time into one list, so
    ``factor`` is ``F^sum(b - j)`` times the exact one.
    """
    out = [((), 1, 0)]
    for b, e, n in zip(beta, exps, nums):
        row = _derivative_row(b, e) or _derivative_factors(b, e)
        if not n:
            if b > e:
                return []
            row = row[-1:]
        out = [(exps_out + (lowered,), c * cj * n**mj, m + mj)
               for exps_out, c, m in out for lowered, cj, mj in row]
    return out


class WaveFunction:
    """Exponential-polynomial function of ``q`` with momenta quantized by ``h``.

    Wraps an :class:`ExpPoly` whose frequency vectors are interpreted as
    ``p0/h`` for rational momenta ``p0``; the positive rational ``h`` is
    shared by every term.  Closed under multiplication by ``q``,
    differentiation, and argument shifts, which is exactly what operator
    application needs.
    """

    __slots__ = ("h", "func")

    def __init__(self, func: ExpPoly, h):
        self.h = _positive_h(h)
        if not isinstance(func, ExpPoly):
            raise TypeError("func must be an ExpPoly")
        self.func = func

    # -- constructors --------------------------------------------------

    @classmethod
    def plane_wave(cls, momentum, h, sigma: Sigma) -> "WaveFunction":
        """``exp(u*<p0, q>/h)`` for a rational momentum vector ``p0``."""
        h = _positive_h(h)
        if isinstance(momentum, (int, Fraction, str)):
            momentum = (momentum,)
        freq = tuple(_as_fraction(p) / h for p in momentum)
        return cls(ExpPoly.character(freq, sigma), h)

    @classmethod
    def zero(cls, dof: int, h, sigma: Sigma) -> "WaveFunction":
        return cls(ExpPoly.zero(dof, sigma), h)

    # -- queries -----------------------------------------------------------

    @property
    def dof(self) -> int:
        return self.func.dim

    @property
    def sigma(self) -> Sigma:
        return self.func.sigma

    def is_zero(self) -> bool:
        return self.func.is_zero()

    def momenta(self):
        """Rational momentum vectors ``p0 = h * freq`` present in the function."""
        den = self.func._den
        return sorted({tuple(self.h * n / den for n in freq) for freq, _, _ in self.func._terms})

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: "WaveFunction"):
        if self.sigma is not other.sigma:
            raise SignatureMismatchError("wavefunction signatures differ")
        if self.h != other.h:
            raise ValidationError(
                f"wavefunction h values differ: {_num_str(self.h)} vs {_num_str(other.h)}")
        if self.dof != other.dof:
            raise DimensionMismatchError("wavefunction dimensions differ")

    def __add__(self, other):
        if not isinstance(other, WaveFunction):
            return NotImplemented
        self._check(other)
        return WaveFunction(self.func + other.func, self.h)

    def __sub__(self, other):
        if not isinstance(other, WaveFunction):
            return NotImplemented
        self._check(other)
        return WaveFunction(self.func - other.func, self.h)

    def __neg__(self):
        return WaveFunction(-self.func, self.h)

    def scale(self, factor) -> "WaveFunction":
        return WaveFunction(self.func * ExpPoly.constant(factor, self.dof, self.sigma), self.h)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Binarion, CharSum)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def differentiate(self, index: int = 0) -> "WaveFunction":
        return WaveFunction(self.func.differentiate(index), self.h)

    def shift(self, offset) -> "WaveFunction":
        return WaveFunction(self.func.shift(offset), self.h)

    def evaluate(self, point) -> CharSum:
        return self.func.evaluate(point)

    def __eq__(self, other):
        if not isinstance(other, WaveFunction):
            return NotImplemented
        return self.h == other.h and self.func == other.func

    def to_text(self) -> str:
        names = [f"q{i + 1}" for i in range(self.dof)]
        return self.func.to_text(names)

    __str__ = to_text
    __repr__ = to_text

    def to_json_dict(self) -> dict:
        return {"h": _num_str(self.h), "func": self.func.to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "WaveFunction":
        return cls(
            json_field(data, "func", ExpPoly.from_json_dict),
            json_field(data, "h", _json_fraction),
        )


class Operator:
    """Pseudo-differential operator with a polynomial or exp-poly symbol."""

    __slots__ = ("symbol", "h", "sigma")

    def __init__(self, symbol, h, sigma: Sigma = None):
        if not isinstance(symbol, (PolySymbol, ExpPoly)):
            raise TypeError("symbol must be a PolySymbol or an ExpPoly")
        if isinstance(symbol, ExpPoly) and symbol.dim % 2:
            raise DimensionMismatchError(
                "phase-space symbols need even dimension (q variables then p)"
            )
        self.symbol = symbol
        self.h = _positive_h(h)
        self.sigma = symbol.sigma if sigma is None else as_sigma(sigma)
        if self.sigma is not symbol.sigma:
            raise SignatureMismatchError("operator sigma differs from symbol sigma")

    @property
    def dof(self) -> int:
        if isinstance(self.symbol, PolySymbol):
            return self.symbol.dof
        return self.symbol.dim // 2

    def _check(self, phi: WaveFunction):
        if phi.sigma is not self.sigma:
            raise SignatureMismatchError("operator and wavefunction signatures differ")
        if phi.h != self.h:
            raise ValidationError(
                f"operator h {_num_str(self.h)} differs from wavefunction h {_num_str(phi.h)}")
        if phi.dof != self.dof:
            raise DimensionMismatchError(f"operator dof {_num_str(self.dof)} differs from "
                                         f"wavefunction dof {_num_str(phi.dof)}")

    # -- application routes ----------------------------------------------------

    def _check_cap(self, degree_cap):
        symbol = self.symbol
        degree = symbol.total_degree() if isinstance(symbol, PolySymbol) else symbol.degree()
        check_degree_cap(degree, degree_cap, "operator symbol")

    def apply(self, phi: WaveFunction, degree_cap: int = None) -> WaveFunction:
        """Apply along the natural route for the symbol type.

        ``degree_cap`` bounds the symbol's polynomial degree, checked before
        any work; ``None`` means ``DEFAULT_DEGREE_CAP``, as for ``star``.
        """
        if isinstance(self.symbol, PolySymbol):
            return self.apply_normal_ordered(phi, degree_cap)
        return self.apply_shift_form(phi, degree_cap)

    def apply_normal_ordered(self, phi: WaveFunction, degree_cap: int = None) -> WaveFunction:
        """``q^alpha p^beta`` acts as ``q^alpha (sigma*u*h d/dq)^beta``.

        Computed one pair of a symbol term ``c q^alpha p^beta`` and a
        wavefunction term ``w x^e exp(u<f, x>) exp(u*r)`` at a time, per
        coordinate by ``d^b (x^e exp(u f x)) = sum_{j <= min(b, e)} C(b, j)
        e!/(e - j)! (u f)^(b - j) x^(e - j) exp(u f x)``; at ``f = 0`` only
        ``j = b`` survives.  The ``|beta| + sum(b - j)`` factors of ``u`` are
        ``sigma^(n//2) u^(n%2)``: a sign, and a re/im swap when ``n`` is odd.

        The sums are kept in integers.  The symbol coefficients are
        numerators over one denominator ``D_s``, the wavefunction's over
        ``D_w``, and the frequencies are read from the wavefunction's keys,
        integers over its one denominator ``F``; ``f^(b - j)`` is padded by
        ``F^(M - m)``, ``M = max|beta|`` and ``m = sum(b - j)``, which puts
        every output key over the one denominator ``D_s D_w F^M``, reduced
        once when the result is built.
        """
        if not isinstance(self.symbol, PolySymbol):
            raise TypeError("normal-ordered route needs a polynomial symbol")
        self._check_cap(degree_cap)
        self._check(phi)
        sigma = self.sigma
        s = sigma.value
        h = self.h
        h_n, h_d = h.numerator, h.denominator
        # symbol coefficients at this h, times (sigma*h)^|beta|, grouped by beta:
        # numerators over D_s = D_v h_d^T, D_v the coefficients' denominator
        # and T the largest hdeg + |beta|
        d_v = self.symbol._cden
        top = max((d + sum(beta) for _, beta, d in self.symbol._terms), default=0)
        by_beta = {}
        for (alpha, beta, d), (re, im) in self.symbol._terms.items():
            order = sum(beta)
            c = h_n ** (d + order) * h_d ** (top - d - order) * (s if order % 2 else 1)
            add_parts(by_beta.setdefault(beta, {}), alpha, c * re, c * im)
        d_s = d_v * h_d**top
        groups = [
            (beta, sum(beta), [(alpha, re, im) for alpha, (re, im) in by_alpha.items() if re or im])
            for beta, by_alpha in by_beta.items()
        ]
        big_m = max((order for _, order, _ in groups), default=0)
        f_den = phi.func._den
        pads = [f_den ** (big_m - m) for m in range(big_m + 1)]
        d_w = phi.func._cden
        acc = {}
        for (freq, exps, r), (w_re, w_im) in phi.func._terms.items():
            for beta, order, coeffs in groups:
                derivatives = []
                for lowered, c, m in _derivative_terms(beta, exps, freq):
                    n = order + m
                    c *= pads[m]
                    if s < 0 and (n // 2) % 2:
                        c = -c
                    derivatives.append((lowered, c, n % 2))
                for alpha, re, im in coeffs:
                    # (re + u*im) * w; a factor u maps x + u*y to s*y + u*x
                    x = re * w_re + s * im * w_im
                    y = re * w_im + im * w_re
                    for lowered, c, odd in derivatives:
                        key = (freq, tuple(map(add, lowered, alpha)), r)
                        dx, dy = (c * s * y, c * x) if odd else (c * x, c * y)
                        add_parts(acc, key, dx, dy)
        return WaveFunction(ExpPoly._make(self.dof, sigma, acc, d_s * d_w * f_den**big_m, f_den), h)

    def apply_shift_form(self, phi: WaveFunction, degree_cap: int = None) -> WaveFunction:
        """Route through the symbol's distribution.

        For the atom ``w * exp(u*rho) * delta^((r, s))`` at ``(A, B)`` the
        action is ``w * (-1)^(|r|+|s|) * u^|r| * h^|s| * q^r * exp(u*<A, q>)
        * exp(u*rho) * (d^s phi)(q + h*B)``.  Atoms are grouped by ``(s, B)``,
        so ``(d^s phi)(q + h*B)`` is formed once per group; per atom the
        scalar is folded into ``re + u*im`` (``u^|r| = sigma^(|r|//2)
        u^(|r|%2)``, a sign and a re/im swap), and ``q^r``, ``exp(u*<A, q>)``
        and ``exp(u*rho)`` add ``r``, ``A`` and ``rho`` to the keys of each
        term.  ``degree_cap`` as for :meth:`apply`.

        The sums are kept in integers.  ``h = h_n/h_d``; the atoms' weights
        are numerators over one denominator ``D_a`` and ``h^|s|`` is padded
        to ``h_d^T``, ``T`` the largest ``|s|``; the coefficients of the
        ``(d^s phi)(q + h*B)`` are numerators over one denominator ``D_p``, the
        lcm of the parts' own.
        Every output coefficient lies over ``D_a h_d^T D_p``, and every key
        over the lcm of the key denominators of the symbol's distribution
        and of the parts.
        """
        self._check_cap(degree_cap)
        self._check(phi)
        k = self.dof
        sigma = self.sigma
        s = sigma.value
        h = self.h
        h_n, h_d = h.numerator, h.denominator
        dist = inverse_fourier_symbol(self.symbol, h)
        d_a = dist._cden
        top = max((sum(order[k:]) for _, order, _ in dist._terms), default=0)
        groups = {}
        for (loc, order, rho), (re, im) in dist._terms.items():
            r, t = order[:k], order[k:]
            n, order_t = sum(r), sum(t)
            c = (-h_n) ** order_t * h_d ** (top - order_t)  # (-h)^|s| over h_d^T
            re, im = _times_unit_power((c * re, c * im), n, -1, s)  # times (-u)^|r|
            a_vec = loc[:k]
            groups.setdefault((t, loc[k:]), []).append(
                (a_vec if any(a_vec) else None, r if n else None, rho, re, im)
            )
        parts = []
        for (t, b_vec), atoms in groups.items():
            part = phi.func.differentiate_multi(t)
            if any(b_vec):
                part = part.shift(tuple(h * b / dist._den for b in b_vec))
            parts.append((part, atoms))
        key_den = math.lcm(dist._den, *(part._den for part, _ in parts))
        d_p = math.lcm(*(part._cden for part, _ in parts))
        acc = {}
        for part, atoms in parts:
            f_part, f_atom, f_coeff = key_den // part._den, key_den // dist._den, d_p // part._cden
            atoms = [
                (None if a_vec is None else tuple(f_atom * a for a in a_vec), r, f_atom * rho,
                 re, im)
                for a_vec, r, rho, re, im in atoms
            ]
            for (freq, exps, phase), (c_re, c_im) in part._terms.items():
                c_re, c_im = f_coeff * c_re, f_coeff * c_im
                freq = tuple(f_part * f for f in freq)
                phase *= f_part
                for a_vec, r, rho, re, im in atoms:
                    key = (
                        freq if a_vec is None else tuple(map(add, freq, a_vec)),
                        exps if r is None else tuple(map(add, exps, r)),
                        phase + rho,
                    )
                    add_parts(acc, key, c_re * re + s * c_im * im, c_re * im + c_im * re)
        return WaveFunction(ExpPoly._make(k, sigma, acc, d_a * h_d**top * d_p, key_den), h)

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        kind = "poly" if isinstance(self.symbol, PolySymbol) else "exp"
        return {
            "h": _num_str(self.h),
            "sigma": self.sigma.value,
            "kind": kind,
            "symbol": self.symbol.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Operator":
        """The operator of ``{"symbol", "h", "sigma", "kind"}``.  ``kind`` is
        ``"poly"`` (the default) or ``"exp"``; a ``poly`` symbol is a term map
        or an expression, parsed at ``sigma`` and at the degrees of freedom of
        its highest variable index."""
        return cls._from_json(data, None)

    @classmethod
    def _from_json(cls, data, dof) -> "Operator":
        """:meth:`from_json_dict`, with an expression parsed at ``dof`` degrees
        of freedom unless ``dof`` is ``None``; a term map keeps its own."""
        kind = data.get("kind", "poly") if isinstance(data, dict) else "poly"
        if kind not in ("poly", "exp"):
            raise ValidationError(f"kind: expected 'poly' or 'exp', got {kind!r}")
        expression = isinstance(data, dict) and isinstance(data.get("symbol"), str)
        # an expression is parsed at the file's sigma, so that is read first
        sigma = json_field(data, "sigma", as_sigma) if expression else None

        def read_symbol(value):
            if not isinstance(value, str):
                return (PolySymbol if kind == "poly" else ExpPoly).from_json_dict(value)
            if kind != "poly":
                raise ValidationError(f"an expression is a 'poly' symbol, not {kind!r}")
            return parse_symbol(value, sigma, dof)

        return cls(json_field(data, "symbol", read_symbol), json_field(data, "h", _json_fraction),
                   sigma or json_field(data, "sigma", as_sigma))

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return (self.symbol, self.h, self.sigma) == (other.symbol, other.h, other.sigma)

    def __repr__(self) -> str:
        return f"Operator({self.symbol!r}, h={_num_str(self.h)})"


def commutator(a: Operator, b: Operator, phi: WaveFunction) -> WaveFunction:
    """``(a b - b a) phi``; equals applying the Moyal-bracket symbol."""
    return a.apply(b.apply(phi)) - b.apply(a.apply(phi))


class ComposeCheck:
    """Outcome of the operator-side oracle for the composition formula.

    Truthy when ``apply(star(a, b), phi)`` equals ``apply(a, apply(b, phi))``
    exactly; otherwise carries both sides and their difference.
    """

    __slots__ = ("ok", "lhs", "rhs", "diff")

    def __init__(self, ok: bool, lhs: WaveFunction, rhs: WaveFunction, diff: ExpPoly):
        self.ok = ok
        self.lhs = lhs
        self.rhs = rhs
        self.diff = diff

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        if self.ok:
            return "ComposeCheck(ok=True)"
        return f"ComposeCheck(ok=False, diff={self.diff!r})"


def compose_check(a, b, phi: WaveFunction, *, degree_cap: int = None) -> ComposeCheck:
    """Check ``star(a, b)`` against actual operator composition on ``phi``.

    ``a`` and ``b`` may be :class:`PolySymbol` (star computed with the
    formal-``h`` series) or :class:`ExpPoly` symbols (star computed along
    the distributional route).  Both are taken at the wavefunction's ``h``.
    ``degree_cap`` bounds the star product on either route; ``None`` means
    ``DEFAULT_DEGREE_CAP``.
    """
    h = phi.h
    if isinstance(a, PolySymbol) and isinstance(b, PolySymbol):
        composed = star(a, b, degree_cap).substitute_h(h)
        op_ab = Operator(composed, h)
    else:
        op_ab = Operator(star_distributional(a, b, h, degree_cap), h)
    lhs = op_ab.apply(phi, degree_cap)
    rhs = Operator(a, h).apply(Operator(b, h).apply(phi, degree_cap), degree_cap)
    diff = lhs.func - rhs.func
    return ComposeCheck(diff.is_zero(), lhs, rhs, diff)


def plane_wave_eigenvalue(symbol: PolySymbol, momentum, h) -> ExpPoly:
    """The symbol ``a(q, p0)`` as an ExpPoly in ``q`` (exact partial evaluation).

    This is the expected eigenvalue factor in
    ``apply(a, exp(u*<p0, q>/h)) = a(q, p0) * exp(u*<p0, q>/h)``.
    """
    h = _as_fraction(h)
    if isinstance(momentum, (int, Fraction, str)):
        momentum = (momentum,)
    momentum = tuple(_as_fraction(p) for p in momentum)
    k = symbol.dof
    if len(momentum) != k:
        raise DimensionMismatchError("momentum length must match symbol dof")
    zero = (0,) * k
    return ExpPoly(k, symbol.sigma, summed(
        ((zero, alpha), coeff.substitute(h) * math.prod(map(pow, momentum, beta)))
        for alpha, beta, coeff in symbol.terms()
    ))
