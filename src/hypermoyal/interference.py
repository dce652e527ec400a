"""Two deformations of the law of total probability for dichotomous variables.

Given priors ``P(a_i)``, conditionals ``P(b_j | a_i)`` and an observed
marginal ``P(b_j)``, the deviation from the classical mixture is measured by

    lambda_j = (P(b_j) - sum_i P(b_j|a_i) P(a_i)) / (2 * D_j),
    D_j = sqrt(prod_i P(b_j|a_i) P(a_i)).

``|lambda| <= 1`` is the trigonometric regime (``lambda = cos(theta)``,
realizable with complex amplitudes), ``|lambda| > 1`` the hyperbolic regime
(``lambda = +/- cosh(theta)``, realizable with split-complex amplitudes).
The forward direction squares a two-term amplitude superposition with the
ring involution; hyperbolic "probabilities" outside ``[0, 1]`` are rejected
as invalid states rather than clamped, which is what makes the admissible
theta range a real constraint (:func:`theta_range`).

Probabilities may be exact rationals (decimal text in CSV files is parsed
exactly) or floats; regime decisions are exact in rational mode and use a
``1e-12`` tolerance in float mode.  :func:`_outcome` reads an outcome's
classical mixture, ``D_j^2`` and ``D_j`` once, and :func:`_cosh_range` builds
its admissible theta range from those three.  The ``cos`` or ``cosh`` of a
Born value comes from :func:`hypermoyal.scalars._cos_sin`, the one place that
picks it.

:func:`_table_rows` is the one reader of CSV tables.  The ``interfere``
command reports each row it reads through :func:`_row_report`, which puts
the row's four values over one denominator and computes the classification
and theta ranges in ints, with each ``D_j`` from :func:`_sqrt`; the public
:func:`classify`, :func:`theta_range` and records are its reference, and
the tests compare the two byte for byte.
"""

from __future__ import annotations

import csv
import enum
import math
from fractions import Fraction

from .errors import InvalidStateError, ValidationError
from .scalars import (FLOAT_TOLERANCE, Record, Sigma, _as_fraction, _cos_sin, _float, _num_msg,
                      _num_str, _too_long, as_sigma)
from .sparse import integer


class Regime(enum.Enum):
    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"
    DEGENERATE = "degenerate"

    def __str__(self) -> str:
        return self.value


def _is_exact(*values) -> bool:
    return all(isinstance(v, (Fraction, int)) for v in values)


def _sqrt(value):
    """Exact square root for perfect rational squares, float otherwise; a
    positive value whose float root is 0.0 raises :class:`ValidationError`."""
    if isinstance(value, (Fraction, int)):
        num, den = value.numerator, value.denominator
        if num < 0:
            raise ValidationError("square root of a negative value")
        root_num, root_den = math.isqrt(num), math.isqrt(den)
        if root_num * root_num == num and root_den * root_den == den:
            return Fraction(root_num, root_den)
    elif value < 0:
        raise ValidationError("square root of a negative value")
    root = math.sqrt(value)
    if root == 0 and value > 0:
        raise ValidationError("value too small for a float")
    return root


def _close(a, b, exact: bool) -> bool:
    if exact:
        return a == b
    return abs(a - b) <= FLOAT_TOLERANCE


#: A context's entries in the order ``DichotomousContext`` flattens them.
_NAMES = ("P(a1)", "P(a2)", "P(b1|a1)", "P(b1|a2)", "P(b2|a1)", "P(b2|a2)", "P(b1)", "P(b2)")


def _check_probabilities(names, values, where=""):
    for name, value in zip(names, values):
        if not (0 <= value <= 1):
            raise ValidationError(f"{name} = {_num_msg(value)} outside [0, 1]{where}")


def _outcome(p_a, cond, j: int) -> tuple:
    """Outcome ``b_j``'s classical mixture ``sum_i P(b_j|a_i) P(a_i)``,
    ``D_j^2 = prod_i P(b_j|a_i) P(a_i)`` and ``D_j``."""
    first = cond[j][0] * p_a[0]
    d_squared = first * cond[j][1] * p_a[1]
    return first + cond[j][1] * p_a[1], d_squared, _sqrt(d_squared)


class DichotomousContext:
    """Probability table for two dichotomous variables ``a`` and ``b``.

    ``cond[j][i]`` is ``P(b = b_j | a = a_i)``; the columns (fixed ``i``)
    sum to one, as do ``p_a`` and ``observed``.
    """

    __slots__ = ("p_a", "cond", "observed", "exact")

    def __init__(self, p_a, cond, observed, row: int | None = None):
        self.p_a = tuple(p_a)
        self.cond = tuple(tuple(r) for r in cond)
        self.observed = tuple(observed)
        if len(self.p_a) != 2 or len(self.observed) != 2 or len(self.cond) != 2:
            raise ValidationError("context requires dichotomous (2-outcome) tables")
        if any(len(r) != 2 for r in self.cond):
            raise ValidationError("conditional matrix must be 2x2")
        flat = list(self.p_a) + [x for r in self.cond for x in r] + list(self.observed)
        self.exact = _is_exact(*flat)
        where = f" (row {row})" if row is not None else ""
        _check_probabilities(_NAMES, flat, where)
        a1, a2 = zip(*self.cond)
        for pair, message in ((self.p_a, "P(a) does not sum to 1"),
                              (a1, "conditionals for a1 do not sum to 1"),
                              (a2, "conditionals for a2 do not sum to 1"),
                              (self.observed, "observed P(b) does not sum to 1")):
            if not _close(pair[0] + pair[1], 1, self.exact):
                raise ValidationError(message + where)

    @classmethod
    def from_b1_row(cls, p_a1, cond_b1_a1, cond_b1_a2, observed_b1, row=None):
        """Build the full table from the four independent entries."""
        return cls(
            (p_a1, 1 - p_a1),
            ((cond_b1_a1, cond_b1_a2), (1 - cond_b1_a1, 1 - cond_b1_a2)),
            (observed_b1, 1 - observed_b1),
            row=row,
        )


class OutcomeReport(Record):
    """Classification of one outcome ``b_j``; ``interference`` is
    ``lambda_j * D_j = (observed - classical) / 2``."""

    def __init__(self, observed, classical, d_squared, d, interference, regime: Regime,
                 lam: float | None, sign: int | None, theta: float | None):
        self._set(observed, classical, d_squared, d, interference, regime, lam, sign, theta)

    def to_json_dict(self) -> dict:
        return {
            "observed": _num_str(self.observed),
            "classical": _num_str(self.classical),
            "d": _num_str(self.d),
            "interference": _num_str(self.interference),
            "regime": str(self.regime),
            "lambda": None if self.lam is None else _num_str(self.lam),
            "sign": self.sign,
            "theta": None if self.theta is None else _num_str(self.theta),
        }


class InterferenceReport(Record):
    """Joint classification of both outcomes plus the normalization check.

    ``normalization_residual`` is ``sum_j lambda_j D_j``; it vanishes
    exactly whenever the observed marginal is normalized.
    """

    def __init__(self, outcomes: tuple, normalization_residual):
        self._set(outcomes, normalization_residual)

    def to_json_dict(self) -> dict:
        return {
            "outcomes": [o.to_json_dict() for o in self.outcomes],
            "normalization_residual": _num_str(self.normalization_residual),
        }


def classify(ctx: DichotomousContext) -> InterferenceReport:
    """Solve the perturbed total-probability formula for each outcome.

    Regime decisions compare ``(observed - classical)^2`` against
    ``4 * D^2``, which is exact in rational mode even when ``D`` itself is
    irrational.
    """
    outcomes = []
    residual = Fraction(0) if ctx.exact else 0.0
    for j in range(2):
        classical, d_squared, d = _outcome(ctx.p_a, ctx.cond, j)
        deviation = ctx.observed[j] - classical
        interference = deviation / 2
        residual = residual + interference
        lam = sign = theta = None
        if d_squared == 0:
            regime = Regime.DEGENERATE
        else:
            lam = deviation / (2 * d)
            if ctx.exact:
                hyperbolic = deviation * deviation > 4 * d_squared
            else:
                hyperbolic = abs(lam) > 1 + FLOAT_TOLERANCE
            if hyperbolic:
                sign = 1 if lam > 0 else -1
                theta = math.acosh(max(abs(_float(lam)), 1.0))
                regime = Regime.HYPERBOLIC
            else:
                theta = math.acos(min(1.0, max(-1.0, _float(lam))))
                regime = Regime.TRIGONOMETRIC
        outcomes.append(
            OutcomeReport(
                observed=ctx.observed[j],
                classical=classical,
                d_squared=d_squared,
                d=d,
                interference=interference,
                regime=regime,
                lam=lam,
                sign=sign,
                theta=theta,
            )
        )
    return InterferenceReport(tuple(outcomes), residual)


class Amplitude2(Record):
    """Two-term amplitude ``sum_i signs_i * magnitudes_i * e^(u * phases_i)``.

    Magnitudes are ``sqrt(P(a_i) * P(b_j | a_i))``; signs are meaningful for
    the hyperbolic signature only (the complex phase absorbs them).
    """

    def __init__(self, magnitudes: tuple, phases: tuple, sigma: Sigma, signs: tuple = (1, 1)):
        magnitudes = tuple(magnitudes)
        phases = tuple(map(_float, phases))
        sigma = as_sigma(sigma)
        signs = tuple(map(integer, signs))
        if len(magnitudes) != 2 or len(phases) != 2 or len(signs) != 2:
            raise ValidationError("amplitudes are two-term superpositions")
        if any(m < 0 for m in magnitudes):
            raise ValidationError("magnitudes must be nonnegative")
        if not all(map(math.isfinite, phases)):
            raise ValidationError(f"amplitude phases must be finite, got {phases!r}")
        if any(s not in (-1, 1) for s in signs):
            raise ValidationError("signs must be +1 or -1")
        if sigma is Sigma.COMPLEX and signs != (1, 1):
            raise ValidationError(
                "explicit signs are hyperbolic-only; fold them into the phases"
            )
        self._set(magnitudes, phases, sigma, signs)

    def born_value(self):
        """``|z|^2 = z * conj(z)`` of the superposition (may be negative for sigma=+1)."""
        m1, m2 = self.magnitudes
        s = self.signs[0] * self.signs[1]
        cross, _ = _cos_sin(self.phases[0] - self.phases[1], self.sigma)
        return m1 * m1 + m2 * m2 + 2 * s * m1 * m2 * cross

    @classmethod
    def from_probabilities(cls, p_a, cond_row, phases, sigma, signs=(1, 1)):
        """Magnitudes ``sqrt(P(a_i) * P(b_j|a_i))`` for the outcome row given."""
        _check_probabilities(("P(a1)", "P(a2)", "P(b|a1)", "P(b|a2)"), (*p_a, *cond_row))
        mags = tuple(_sqrt(p * c) for p, c in zip(p_a, cond_row))
        return cls(mags, phases, sigma, signs)


def forward(amp_b1: Amplitude2, amp_b2: Amplitude2):
    """Born-rule computation of the observed table from amplitudes.

    The amplitude pairs must describe the two outcomes of one experiment:
    ``sum_j magnitude_j[i]^2`` recovers ``P(a_i)`` and the ratios recover the
    conditionals.  Returns the reconstructed context and its classification.

    Raises :class:`InvalidStateError` when a hyperbolic Born value falls
    outside ``[0, 1]`` (carrying the violated bound) and
    :class:`ValidationError` when the amplitudes are mutually inconsistent.
    """
    if amp_b1.sigma is not amp_b2.sigma:
        raise ValidationError("amplitude signatures differ")
    exact = _is_exact(*amp_b1.magnitudes, *amp_b2.magnitudes)
    weights = [[m**2 for m in amp.magnitudes] for amp in (amp_b1, amp_b2)]
    p_a = tuple(x + y for x, y in zip(*weights))
    total = p_a[0] + p_a[1]
    if not _close(total, 1, exact):
        raise ValidationError(f"amplitude magnitudes give sum P(a) = {_num_msg(total)} != 1")
    if any(p == 0 for p in p_a):
        raise ValidationError("degenerate prior: some P(a_i) = 0")
    cond = tuple(tuple(w / p for w, p in zip(row, p_a)) for row in weights)
    observed = []
    for amp in (amp_b1, amp_b2):
        value = amp.born_value()
        if value < -FLOAT_TOLERANCE or value > 1 + FLOAT_TOLERANCE:
            bound = "0" if value < 0 else "1"
            raise InvalidStateError(
                f"Born value {value} outside [0, 1] (violates bound {bound}); "
                f"the phase difference is inadmissible for this table",
                value=value,
                bound=bound,
            )
        observed.append(min(1.0, max(0.0, value)))
    total = observed[0] + observed[1]
    if not _close(total, 1, False):
        raise ValidationError(f"amplitudes are inconsistent: observed sums to {total}")
    # round away the it-must-sum-to-1 float dust so the context validates
    ctx = DichotomousContext(p_a, cond, (observed[0], 1 - observed[0]))
    return ctx, classify(ctx)


class ThetaRange(Record):
    """Admissible hyperbolic interference strength for one outcome.

    ``cosh(theta)`` may range over ``[1, cosh_max]``; ``admissible`` is
    false when even ``cosh(theta) = 1`` would push the observed probability
    outside ``[0, 1]`` (then the hyperbolic regime cannot occur at all).
    """

    def __init__(self, cosh_max, theta_max: float | None, admissible: bool,
                 degenerate: bool = False):
        self._set(cosh_max, theta_max, admissible, degenerate)

    def to_json_dict(self) -> dict:
        return {
            "cosh_max": None if self.cosh_max is None else _num_str(self.cosh_max),
            "theta_max": None if self.theta_max is None else _num_str(self.theta_max),
            "admissible": self.admissible,
            "degenerate": self.degenerate,
        }


def theta_range(p_a, cond) -> tuple:
    """Per-outcome bound on ``cosh(theta)`` in the hyperbolic regime.

    Both box constraints ``observed_j in [0, 1]`` produce, under the
    normalization coupling ``lambda_2 D_2 = -lambda_1 D_1`` (which makes
    ``observed_2 = 1 - observed_1`` automatic), the sign-independent bound

        cosh(theta_j) <= min(classical_j, 1 - classical_j) / (2 * D_j).

    Degenerate outcomes (``D_j = 0``) yield an empty range.
    """
    p_a = tuple(p_a)
    cond = tuple(tuple(r) for r in cond)
    _check_probabilities(_NAMES, p_a + cond[0] + cond[1])
    return tuple(_cosh_range(*_outcome(p_a, cond, j)) for j in range(2))


def _cosh_range(classical, d_squared, d) -> ThetaRange:
    """:func:`theta_range` of one outcome from the mixture, ``D^2`` and ``D``
    that :func:`_outcome` reads and :class:`OutcomeReport` keeps."""
    if d_squared == 0:
        return ThetaRange(cosh_max=None, theta_max=None, admissible=False, degenerate=True)
    headroom = min(classical, 1 - classical)
    cosh_max = headroom / (2 * d)
    admissible = headroom * headroom >= 4 * d_squared  # exact, as in classify
    theta_max = math.acosh(max(_float(cosh_max), 1.0)) if admissible else None
    return ThetaRange(cosh_max, theta_max, admissible)


def _parse_csv_value(text: str, row: int):
    text = text.strip()
    try:
        return _as_fraction(text)
    except ValidationError as exc:
        reason = exc.args[0] if exc.args == _too_long().args else f"not a number: {text!r}"
        raise ValidationError(f"{reason} (row {row})") from None


def _table_rows(path):
    """Each row of the CSV file at ``path`` as ``(row_number, values)``,
    read as it is reached: the one CSV reader, which
    :func:`contexts_from_csv` and the ``interfere`` command share."""
    with open(path, newline="", encoding="utf-8") as fh:
        for row_number, row in enumerate(csv.reader(fh), start=1):
            cells = [c for c in row if c.strip() != ""]
            if not cells:
                continue
            if row_number == 1:
                try:
                    _as_fraction(cells[0])
                except ValidationError as exc:
                    if exc.args != _too_long().args:  # a number past the bound is no header
                        continue  # header
            if len(cells) != 4:
                raise ValidationError(
                    f"expected 4 columns, got {len(cells)} (row {row_number})"
                )
            yield row_number, [_parse_csv_value(c, row_number) for c in cells]


def contexts_from_csv(path) -> list:
    """Read rows ``P(a1), P(b1|a1), P(b1|a2), P(b1)_observed`` as contexts.

    Values are parsed as exact rationals (decimal literals included).  Blank
    rows are skipped, and so is a header row, whose first cell is not
    numeric.  Errors carry the 1-based row number.  Returns
    ``(row_number, context)`` pairs.
    """
    return [(row, DichotomousContext.from_b1_row(*values, row=row))
            for row, values in _table_rows(path)]


def _ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for ``den > 0``, each part written by
    :func:`_num_str`."""
    g = math.gcd(num, den)
    if g == den:
        return _num_str(num // g)
    return f"{_num_str(num // g)}/{_num_str(den // g)}"


def _over_2d(num: int, den: int, d) -> tuple:
    """``num / den / (2 * d)`` as ``(exact, value)``: for a float ``d`` both
    are the float that a ``Fraction`` over a float gives; else ``exact`` is
    the quotient's ``(numerator, denominator)`` and ``value`` its float."""
    if type(d) is float:
        value = _float(num, den) / (2 * d)
        return value, value
    num, den = num * d.denominator, 2 * den * d.numerator
    return (num, den), _float(num, den)


def _text(exact):
    """The text of an ``exact`` of :func:`_over_2d`, or of a float; ``None``
    stays ``None``."""
    if exact is None:
        return None
    return _num_str(exact) if type(exact) is float else _ratio(*exact)


def _row_report(row: int, values) -> tuple:
    """:func:`classify` and :func:`_cosh_range` of the context of one row
    that :func:`_table_rows` reads, computed in ints over the common
    denominator of its four values and written as the ``to_json_dict`` texts
    of the records: the residual, each outcome's ``(classical, d,
    interference, lambda, observed, regime, sign, theta)`` and each range's
    ``(admissible, cosh_max, degenerate, theta_max)``, in key order.  It
    refuses what the records refuse, in their order: a value outside [0, 1],
    then each outcome's ``D`` and lambda, each range's float, and last a
    number too long to write."""
    den = math.lcm(*[v.denominator for v in values])
    a, c1, c2, seen = [v.numerator * (den // v.denominator) for v in values]
    if not (0 <= a <= den and 0 <= c1 <= den and 0 <= c2 <= den and 0 <= seen <= den):
        DichotomousContext.from_b1_row(*values, row=row)  # names the first value outside [0, 1]
    den2 = den * den  # of each mixture and deviation below; den2**2 is that of D^2
    found = []
    for first, second, observed in ((c1 * a, c2 * (den - a), seen * den),
                                    ((den - c1) * a, (den - c2) * (den - a), (den - seen) * den)):
        classical, d_squared = first + second, first * second
        deviation = observed - classical
        d = _sqrt(Fraction(d_squared, den2 * den2))
        lam = sign = theta = None
        if not d_squared:
            regime = Regime.DEGENERATE
        else:  # as in classify
            lam, x = _over_2d(deviation, den2, d)
            if deviation * deviation > 4 * d_squared:
                regime, sign = Regime.HYPERBOLIC, 1 if deviation > 0 else -1
                theta = math.acosh(max(abs(x), 1.0))
            else:
                regime, theta = Regime.TRIGONOMETRIC, math.acos(min(1.0, max(-1.0, x)))
        found.append((observed, classical, d_squared, deviation, d, lam, regime, sign, theta))
    ranges = []
    for _, classical, d_squared, _, d, *_ in found:
        if not d_squared:
            ranges.append((False, None, True, None))
            continue
        headroom = min(classical, den2 - classical)  # as in _cosh_range
        cosh_max, x = _over_2d(headroom, den2, d)
        admissible = headroom * headroom >= 4 * d_squared
        ranges.append((admissible, cosh_max, False,
                       math.acosh(max(x, 1.0)) if admissible else None))
    outcomes = [(_ratio(classical, den2), _num_str(d), _ratio(deviation, 2 * den2), _text(lam),
                 _ratio(observed, den2), regime.value, sign, _text(theta))
                for observed, classical, _, deviation, d, lam, regime, sign, theta in found]
    return (_ratio(found[0][3] + found[1][3], 2 * den2), outcomes,
            [(admissible, _text(cosh_max), degenerate, _text(theta_max))
             for admissible, cosh_max, degenerate, theta_max in ranges])
