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
``1e-12`` tolerance in float mode.  An outcome's classical mixture and
``D_j^2`` come from :func:`_mixture`; the ``cos`` or ``cosh`` of a Born
value from :func:`hypermoyal.scalars._cos_sin`, the one place that picks it.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidStateError, ValidationError
from .scalars import FLOAT_TOLERANCE, Sigma, _as_fraction, _cos_sin, _num_str, as_sigma


class Regime(enum.Enum):
    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"
    DEGENERATE = "degenerate"

    def __str__(self) -> str:
        return self.value


def _is_exact(*values) -> bool:
    return all(isinstance(v, (Fraction, int)) for v in values)


def _sqrt(value):
    """Exact square root for perfect rational squares, float otherwise."""
    if value < 0:
        raise ValidationError("square root of a negative value")
    if isinstance(value, (Fraction, int)):
        value = Fraction(value)
        num = math.isqrt(value.numerator)
        den = math.isqrt(value.denominator)
        if num * num == value.numerator and den * den == value.denominator:
            return Fraction(num, den)
    return math.sqrt(value)


def _close(a, b, exact: bool) -> bool:
    if exact:
        return a == b
    return abs(a - b) <= FLOAT_TOLERANCE


#: A context's entries in the order ``DichotomousContext`` flattens them.
_NAMES = ("P(a1)", "P(a2)", "P(b1|a1)", "P(b1|a2)", "P(b2|a1)", "P(b2|a2)", "P(b1)", "P(b2)")


def _check_probabilities(names, values, where=""):
    for name, value in zip(names, values):
        if not (0 <= value <= 1):
            raise ValidationError(f"{name} = {value} outside [0, 1]{where}")


def _mixture(p_a, cond, j: int) -> tuple:
    """Outcome ``b_j``'s classical mixture ``sum_i P(b_j|a_i) P(a_i)`` and
    ``D_j^2 = prod_i P(b_j|a_i) P(a_i)``."""
    first = cond[j][0] * p_a[0]
    return first + cond[j][1] * p_a[1], first * cond[j][1] * p_a[1]


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


@dataclass(frozen=True)
class OutcomeReport:
    """Classification of one outcome ``b_j``."""

    observed: object
    classical: object
    d_squared: object
    d: object
    interference: object  # lambda_j * D_j = (observed - classical) / 2
    regime: Regime
    lam: float | None
    sign: int | None
    theta: float | None

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


@dataclass(frozen=True)
class InterferenceReport:
    """Joint classification of both outcomes plus the normalization check.

    ``normalization_residual`` is ``sum_j lambda_j D_j``; it vanishes
    exactly whenever the observed marginal is normalized.
    """

    outcomes: tuple
    normalization_residual: object

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
        classical, d_squared = _mixture(ctx.p_a, ctx.cond, j)
        d = _sqrt(d_squared)
        deviation = ctx.observed[j] - classical
        interference = deviation / 2
        residual = residual + interference
        lam = sign = theta = None
        if d == 0:
            regime = Regime.DEGENERATE
        else:
            lam = deviation / (2 * d)
            if ctx.exact:
                hyperbolic = deviation * deviation > 4 * d_squared
            else:
                hyperbolic = abs(lam) > 1 + FLOAT_TOLERANCE
            if hyperbolic:
                sign = 1 if lam > 0 else -1
                theta = math.acosh(max(abs(float(lam)), 1.0))
                regime = Regime.HYPERBOLIC
            else:
                theta = math.acos(min(1.0, max(-1.0, float(lam))))
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


@dataclass(frozen=True)
class Amplitude2:
    """Two-term amplitude ``sum_i signs_i * magnitudes_i * e^(u * phases_i)``.

    Magnitudes are ``sqrt(P(a_i) * P(b_j | a_i))``; signs are meaningful for
    the hyperbolic signature only (the complex phase absorbs them).
    """

    magnitudes: tuple
    phases: tuple
    sigma: Sigma
    signs: tuple = (1, 1)

    def __post_init__(self):
        object.__setattr__(self, "magnitudes", tuple(self.magnitudes))
        object.__setattr__(self, "phases", tuple(float(x) for x in self.phases))
        object.__setattr__(self, "sigma", as_sigma(self.sigma))
        object.__setattr__(self, "signs", tuple(int(s) for s in self.signs))
        if len(self.magnitudes) != 2 or len(self.phases) != 2 or len(self.signs) != 2:
            raise ValidationError("amplitudes are two-term superpositions")
        if any(m < 0 for m in self.magnitudes):
            raise ValidationError("magnitudes must be nonnegative")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValidationError("signs must be +1 or -1")
        if self.sigma is Sigma.COMPLEX and self.signs != (1, 1):
            raise ValidationError(
                "explicit signs are hyperbolic-only; fold them into the phases"
            )

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
        raise ValidationError(f"amplitude magnitudes give sum P(a) = {total} != 1")
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


@dataclass(frozen=True)
class ThetaRange:
    """Admissible hyperbolic interference strength for one outcome.

    ``cosh(theta)`` may range over ``[1, cosh_max]``; ``admissible`` is
    false when even ``cosh(theta) = 1`` would push the observed probability
    outside ``[0, 1]`` (then the hyperbolic regime cannot occur at all).
    """

    cosh_max: object
    theta_max: float | None
    admissible: bool
    degenerate: bool = False

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
    out = []
    for j in range(2):
        classical, d_squared = _mixture(p_a, cond, j)
        if d_squared == 0:
            out.append(
                ThetaRange(cosh_max=None, theta_max=None, admissible=False, degenerate=True)
            )
            continue
        d = _sqrt(d_squared)
        headroom = min(classical, 1 - classical)
        cosh_max = headroom / (2 * d)
        admissible = cosh_max >= 1
        theta_max = math.acosh(float(cosh_max)) if admissible else None
        out.append(ThetaRange(cosh_max, theta_max, admissible))
    return tuple(out)


def _parse_csv_value(text: str, row: int):
    text = text.strip()
    try:
        return _as_fraction(text)
    except ValidationError:
        raise ValidationError(f"not a number: {text!r} (row {row})") from None


def contexts_from_csv(path) -> list:
    """Read rows ``P(a1), P(b1|a1), P(b1|a2), P(b1)_observed`` as contexts.

    Values are parsed as exact rationals (decimal literals included).  A
    header row is skipped when its first cell is not numeric.  Errors carry
    the 1-based row number.  Returns ``(row_number, context)`` pairs.
    """
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row_number, row in enumerate(reader, start=1):
            cells = [c for c in row if c.strip() != ""]
            if not cells:
                continue
            if row_number == 1:
                try:
                    _as_fraction(cells[0])
                except ValidationError:
                    continue  # header
            if len(cells) != 4:
                raise ValidationError(
                    f"expected 4 columns, got {len(cells)} (row {row_number})"
                )
            values = [_parse_csv_value(c, row_number) for c in cells]
            ctx = DichotomousContext.from_b1_row(*values, row=row_number)
            out.append((row_number, ctx))
    return out
