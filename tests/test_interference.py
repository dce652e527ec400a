"""Tests for the trigonometric/hyperbolic interference analysis."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from conftest import fresh_modules
from test_refusals import refusal_tests

from hypermoyal import (
    Amplitude2,
    DichotomousContext,
    InvalidStateError,
    Regime,
    Sigma,
    classify,
    contexts_from_csv,
    forward,
    theta_range,
)

H = Sigma.HYPERBOLIC
C = Sigma.COMPLEX
globals().update(refusal_tests(__name__))  # the tests named in ``test_refusals.HOMES``

HALF = Fraction(1, 2)


def flat_context(observed_b1):
    """Uniform prior, uninformative conditionals."""
    return DichotomousContext.from_b1_row(HALF, HALF, HALF, observed_b1)


# -- inverse classification ------------------------------------------------------


def test_classify_no_interference():
    report = classify(flat_context(HALF))
    for outcome in report.outcomes:
        assert outcome.lam == 0
        assert outcome.regime is Regime.TRIGONOMETRIC
        assert outcome.theta == pytest.approx(math.pi / 2, abs=1e-12)
    assert report.normalization_residual == 0


@pytest.mark.parametrize("row, first, theta", [
    ((HALF, HALF, HALF, Fraction(9, 10)),
     (HALF, Fraction(1, 4), Fraction(4, 5), Regime.TRIGONOMETRIC, None), math.acos(0.8)),
    ((HALF, Fraction(9, 10), Fraction(1, 10), Fraction(19, 20)),
     (HALF, Fraction(3, 20), Fraction(3, 2), Regime.HYPERBOLIC, 1), math.acosh(1.5)),
], ids=["trigonometric", "hyperbolic"])
def test_classify_example(row, first, theta):
    report = classify(DichotomousContext.from_b1_row(*row))
    outcome = report.outcomes[0]
    assert (outcome.classical, outcome.d, outcome.lam, outcome.regime, outcome.sign) == first
    assert outcome.theta == pytest.approx(theta, abs=1e-12)
    # the two outcomes balance exactly in rational arithmetic
    assert report.normalization_residual == 0
    assert report.outcomes[1].lam == -outcome.lam


def test_classify_degenerate():
    ctx = DichotomousContext.from_b1_row(HALF, Fraction(0), Fraction(0), Fraction(0))
    report = classify(ctx)
    assert report.outcomes[0].regime is Regime.DEGENERATE
    assert report.outcomes[0].theta is None
    assert report.outcomes[0].lam is None


def test_classify_reconstructs_observed():
    rng = random.Random(5)
    for _ in range(100):
        ctx = DichotomousContext.from_b1_row(
            Fraction(rng.randint(1, 9), 10),
            Fraction(rng.randint(1, 9), 10),
            Fraction(rng.randint(1, 9), 10),
            Fraction(rng.randint(0, 10), 10),
        )
        report = classify(ctx)
        for j, outcome in enumerate(report.outcomes):
            assert outcome.classical + 2 * outcome.interference == ctx.observed[j]
        # exact normalization identity in rational mode
        assert report.normalization_residual == 0


# -- forward (Born rule) ------------------------------------------------------------


def test_forward_constructive_interference():
    amp1 = Amplitude2.from_probabilities((HALF, HALF), (HALF, HALF), (0.7, 0.7), C)
    amp2 = Amplitude2.from_probabilities(
        (HALF, HALF), (HALF, HALF), (0.7, 0.7 + math.pi), C
    )
    ctx, report = forward(amp1, amp2)
    assert report.outcomes[0].lam == pytest.approx(1.0, abs=1e-12)
    assert report.outcomes[0].theta == pytest.approx(0.0, abs=1e-6)
    assert ctx.observed[0] == pytest.approx(1.0, abs=1e-12)


def test_forward_orthogonal_phases():
    amp1 = Amplitude2((HALF, HALF), (math.pi / 2, 0.0), C)
    amp2 = Amplitude2((HALF, HALF), (-math.pi / 2, 0.0), C)
    ctx, report = forward(amp1, amp2)
    assert ctx.observed[0] == pytest.approx(0.5, abs=1e-12)
    assert report.outcomes[0].lam == pytest.approx(0.0, abs=1e-12)


def test_forward_hyperbolic_round_trip():
    # skewed conditionals leave room for cosh(theta) = cosh(1) < 5/3
    p_a = (HALF, HALF)
    cond = ((Fraction(1, 10), Fraction(9, 10)), (Fraction(9, 10), Fraction(1, 10)))
    amp1 = Amplitude2.from_probabilities(p_a, cond[0], (1.0, 0.0), H)
    amp2 = Amplitude2.from_probabilities(p_a, cond[1], (1.0, 0.0), H, signs=(1, -1))
    ctx, report = forward(amp1, amp2)
    top = report.outcomes[0]
    bottom = report.outcomes[1]
    assert top.regime is Regime.HYPERBOLIC
    assert top.lam == pytest.approx(math.cosh(1.0), abs=1e-12)
    assert bottom.lam == pytest.approx(-math.cosh(1.0), abs=1e-12)
    assert top.theta == pytest.approx(1.0, abs=1e-12)
    assert top.sign == 1 and bottom.sign == -1


def test_hyperbolic_born_expansion_identity():
    """|A e^{j xi1} +/- B e^{j xi2}|^2 = A^2 + B^2 +/- 2AB cosh(xi1 - xi2)."""
    rng = random.Random(7)
    for _ in range(50):
        a, b = rng.uniform(0, 1), rng.uniform(0, 1)
        x1, x2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        sign = rng.choice((1, -1))
        amp = Amplitude2((a, b), (x1, x2), H, signs=(1, sign))
        expected = a * a + b * b + 2 * sign * a * b * math.cosh(x1 - x2)
        assert amp.born_value() == pytest.approx(expected, rel=1e-12)


def test_probabilities_zero_and_one_are_accepted():
    amp = Amplitude2.from_probabilities((1, 0), (1, 1), (0.0, 0.0), C)
    assert amp.magnitudes == (1, 0)
    ranges = theta_range((1, 0), ((1, HALF), (0, HALF)))
    assert all(r.degenerate for r in ranges)


def test_forward_rejects_out_of_range_probability():
    # equal weights allow no hyperbolic interference at all: cosh bound is 1
    p_a = (HALF, HALF)
    cond = ((HALF, HALF), (HALF, HALF))
    amp1 = Amplitude2.from_probabilities(p_a, cond[0], (1.0, 0.0), H)
    amp2 = Amplitude2.from_probabilities(p_a, cond[1], (1.0, 0.0), H, signs=(1, -1))
    with pytest.raises(InvalidStateError) as err:
        forward(amp1, amp2)
    assert err.value.bound == "1"
    assert err.value.value > 1


def test_complex_lambda_always_bounded():
    rng = random.Random(11)
    for _ in range(100):
        c = Fraction(rng.randint(1, 9), 10)
        delta = rng.uniform(0.05, math.pi - 0.05)
        base = rng.uniform(-3, 3)
        amp1 = Amplitude2.from_probabilities(
            (HALF, HALF), (c, 1 - c), (base + delta, base), C
        )
        amp2 = Amplitude2.from_probabilities(
            (HALF, HALF), (1 - c, c), (base + math.pi - delta, base), C
        )
        _, report = forward(amp1, amp2)
        for outcome in report.outcomes:
            assert abs(outcome.lam) <= 1 + 1e-12
        assert report.outcomes[0].theta == pytest.approx(delta, abs=1e-12)


# -- admissible theta range ------------------------------------------------------------


def test_theta_range_doubly_stochastic():
    c = Fraction(1, 10)
    ranges = theta_range((HALF, HALF), ((c, 1 - c), (1 - c, c)))
    for r in ranges:
        assert r.cosh_max == Fraction(5, 3)
        assert r.admissible
        assert r.theta_max == pytest.approx(math.acosh(5 / 3), abs=1e-12)


def test_theta_range_example_exact():
    ranges = theta_range(
        (HALF, HALF), ((Fraction(9, 10), Fraction(1, 10)), (Fraction(1, 10), Fraction(9, 10)))
    )
    assert ranges[0].cosh_max == Fraction(5, 3)


def test_theta_range_flat_table_boundary():
    ranges = theta_range((HALF, HALF), ((HALF, HALF), (HALF, HALF)))
    for r in ranges:
        assert r.cosh_max == 1
        assert r.admissible
        assert r.theta_max == pytest.approx(0.0)


def test_theta_range_degenerate_empty():
    ranges = theta_range((HALF, HALF), ((Fraction(0), HALF), (Fraction(1), HALF)))
    assert ranges[0].degenerate and not ranges[0].admissible
    assert ranges[0].cosh_max is None


def _near_boundary_tables(seed: int, count: int) -> list:
    """Exact tables with an irrational ``D`` whose ``cosh_max`` lies within
    about 1e-17 of 1.  Half put ``P(b1|a) = (c + e, c - e)`` under a uniform
    prior, which is admissible by ``e^2`` for the outcome of mixture ``c <
    1/2``; half put ``sqrt(u) + sqrt(v)`` a few units of ``1e-18`` either side
    of 1, for ``u = P(b1|a1) P(a1)`` and ``v = P(b1|a2) P(a2)``."""
    rng = random.Random(seed)
    tables = []
    for n in range(count):
        if n % 2 == 0:
            c = Fraction(rng.randint(1, 199), 400)
            e = Fraction(1, rng.randint(10**8, 10**12))
            b1 = (c + e, c - e)
        else:
            k = rng.randint(101, 199)
            u = Fraction(k, 400)
            with localcontext() as ctx:
                ctx.prec = 60
                edge = (1 - Decimal(k).sqrt() / 20) ** 2  # (1 - sqrt(u))^2
            v = Fraction(int(edge * 10**18) + rng.choice((-1, 1)) * rng.randint(1, 50), 10**18)
            b1 = (2 * u, 2 * v)
        tables.append(((HALF, HALF), (b1, (1 - b1[0], 1 - b1[1]))))
    return tables


def _admissible_by_decimal(p_a, cond, j) -> bool:
    """``min(m, 1 - m) / (2 D) >= 1`` for the mixture ``m`` and ``D^2`` of
    outcome ``j``, with the root taken by :mod:`decimal` to 60 digits."""
    mixture = cond[j][0] * p_a[0] + cond[j][1] * p_a[1]
    d_squared = cond[j][0] * p_a[0] * cond[j][1] * p_a[1]
    headroom = min(mixture, 1 - mixture)
    with localcontext() as ctx:
        ctx.prec = 60
        d = (Decimal(d_squared.numerator) / Decimal(d_squared.denominator)).sqrt()
        return Decimal(headroom.numerator) / Decimal(headroom.denominator) / (2 * d) >= 1


def test_theta_range_decides_admissible_exactly_at_the_boundary():
    """The float ``cosh_max >= 1`` gets some of these wrong; the decision
    must follow the exact ``headroom^2 >= 4 D^2``, as ``classify`` does."""
    wrong = []
    for p_a, cond in _near_boundary_tables(2026, 200):
        for j, r in enumerate(theta_range(p_a, cond)):
            if r.admissible != _admissible_by_decimal(p_a, cond, j):
                wrong.append((cond[0], j, r))
            elif r.admissible:
                assert r.theta_max >= 0.0
    assert wrong == []


def test_theta_range_keeps_a_float_cosh_max_below_1_when_admissible():
    e = Fraction(1, 988381540383)
    c = Fraction(47, 400)
    r = theta_range((HALF, HALF), ((c + e, c - e), (1 - c - e, 1 - c + e)))[0]
    assert (r.cosh_max, r.theta_max, r.admissible) == (0.9999999999999999, 0.0, True)


def test_zero_interference_always_admissible():
    """The trig boundary (lambda = 0) is consistent with any valid table."""
    rng = random.Random(13)
    for _ in range(50):
        p1 = Fraction(rng.randint(1, 9), 10)
        c1 = Fraction(rng.randint(1, 9), 10)
        c2 = Fraction(rng.randint(1, 9), 10)
        classical = c1 * p1 + c2 * (1 - p1)
        ctx = DichotomousContext.from_b1_row(p1, c1, c2, classical)
        report = classify(ctx)
        assert report.outcomes[0].lam == 0
        assert report.outcomes[0].regime is Regime.TRIGONOMETRIC


def test_observed_bounds_follow_from_theta_range():
    """Inside the admissible range the reconstructed table is valid."""
    p_a = (HALF, HALF)
    cond = ((Fraction(2, 10), Fraction(8, 10)), (Fraction(8, 10), Fraction(2, 10)))
    ranges = theta_range(p_a, cond)
    assert ranges[0].admissible
    classical = Fraction(1, 2)
    d = Fraction(1, 5)  # sqrt(0.2*0.5*0.8*0.5) = sqrt(0.04)
    assert ranges[0].cosh_max == classical / (2 * d)
    for lam_scale in (1, Fraction(3, 4)):
        lam = ranges[0].cosh_max * lam_scale
        observed = classical + 2 * lam * d
        if lam_scale == 1:
            assert observed == 1  # saturates the box constraint exactly
        else:
            DichotomousContext.from_b1_row(HALF, cond[0][0], cond[0][1], observed)


# -- CSV ingestion -------------------------------------------------------------------------


def test_csv_three_worked_rows(tmp_path):
    path = tmp_path / "tables.csv"
    path.write_text(
        "p_a1,cond_b1_a1,cond_b1_a2,observed_b1\n"
        "0.5,0.5,0.5,0.5\n"
        "0.5,0.5,0.5,0.9\n"
        "0.5,0.9,0.1,0.95\n",
        encoding="utf-8",
    )
    rows = contexts_from_csv(path)
    assert [r[0] for r in rows] == [2, 3, 4]
    regimes = [classify(ctx).outcomes[0].regime for _, ctx in rows]
    lams = [classify(ctx).outcomes[0].lam for _, ctx in rows]
    assert regimes == [Regime.TRIGONOMETRIC, Regime.TRIGONOMETRIC, Regime.HYPERBOLIC]
    assert lams == [0, Fraction(4, 5), Fraction(3, 2)]


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    assert contexts_from_csv(path) == []


def test_report_json_shape():
    report = classify(flat_context(Fraction(9, 10)))
    data = report.to_json_dict()
    assert data["outcomes"][0]["lambda"] == "4/5"
    assert data["outcomes"][0]["regime"] == "trigonometric"
    assert data["normalization_residual"] == "0"


def test_import_leaves_typing_unloaded():
    # -S keeps site (and anything it imports) out, so only the package counts
    assert "typing" not in fresh_modules("import hypermoyal.interference", "-S")

