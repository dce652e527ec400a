"""Tests for the trigonometric/hyperbolic interference analysis."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import hypermoyal
from hypermoyal import (
    Amplitude2,
    DichotomousContext,
    InvalidStateError,
    Regime,
    Sigma,
    ValidationError,
    classify,
    contexts_from_csv,
    forward,
    theta_range,
)

H = Sigma.HYPERBOLIC
C = Sigma.COMPLEX

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


def test_classify_trigonometric_example():
    report = classify(flat_context(Fraction(9, 10)))
    outcome = report.outcomes[0]
    assert outcome.classical == HALF
    assert outcome.d == Fraction(1, 4)
    assert outcome.lam == Fraction(4, 5)
    assert outcome.regime is Regime.TRIGONOMETRIC
    assert outcome.theta == pytest.approx(math.acos(0.8), abs=1e-12)
    # the two outcomes balance exactly in rational arithmetic
    assert report.normalization_residual == 0
    assert report.outcomes[1].lam == -Fraction(4, 5)


def test_classify_hyperbolic_example():
    ctx = DichotomousContext.from_b1_row(
        HALF, Fraction(9, 10), Fraction(1, 10), Fraction(19, 20)
    )
    report = classify(ctx)
    outcome = report.outcomes[0]
    assert outcome.classical == HALF
    assert outcome.d == Fraction(3, 20)
    assert outcome.lam == Fraction(3, 2)
    assert outcome.regime is Regime.HYPERBOLIC
    assert outcome.sign == 1
    assert outcome.theta == pytest.approx(math.acosh(1.5), abs=1e-12)


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


def test_invalid_tables_rejected():
    with pytest.raises(ValidationError):
        DichotomousContext.from_b1_row(HALF, HALF, HALF, Fraction(12, 10))
    with pytest.raises(ValidationError):
        DichotomousContext((HALF, HALF), ((HALF, HALF), (HALF, HALF)), (HALF, Fraction(1, 4)))
    with pytest.raises(ValidationError):
        DichotomousContext((HALF, Fraction(1, 4)), ((HALF, HALF), (HALF, HALF)), (HALF, HALF))


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


Q = Fraction(1, 4)


@pytest.mark.parametrize("p_a, cond, observed, row, message", [
    ((HALF, HALF), ((HALF, 2), (HALF, -1)), (HALF, Q), 3, "P(b1|a2) = 2 outside [0, 1] (row 3)"),
    ((HALF, Q), ((HALF, HALF), (HALF, HALF)), (HALF, Q), None, "P(a) does not sum to 1"),
    ((HALF, HALF), ((HALF, HALF), (Q, Q)), (HALF, HALF), 2,
     "conditionals for a1 do not sum to 1 (row 2)"),
    ((HALF, HALF), ((HALF, HALF), (HALF, Q)), (HALF, HALF), None,
     "conditionals for a2 do not sum to 1"),
    ((HALF, HALF), ((HALF, HALF), (HALF, HALF)), (HALF, Q), 7,
     "observed P(b) does not sum to 1 (row 7)"),
    ((0.5, 0.5 + 1e-9), ((0.5, 0.5), (0.5, 0.5)), (0.5, 0.5), None, "P(a) does not sum to 1"),
], ids=["range-first", "p-a", "a1", "a2", "observed", "float-sum"])
def test_context_checks_name_the_first_failure(p_a, cond, observed, row, message):
    with pytest.raises(ValidationError) as err:
        DichotomousContext(p_a, cond, observed, row=row)
    assert str(err.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: Amplitude2.from_probabilities((-1 / 2, 3 / 2), (1 / 2, 1 / 2), (0.0, 0.0), C),
     "P(a1) = -0.5 outside [0, 1]"),
    (lambda: Amplitude2.from_probabilities((HALF, HALF), (HALF, 2), (0.0, 0.0), H),
     "P(b|a2) = 2 outside [0, 1]"),
    (lambda: theta_range((-1 / 2, 3 / 2), ((1 / 2, 1 / 2), (1 / 2, 1 / 2))),
     "P(a1) = -0.5 outside [0, 1]"),
    (lambda: theta_range((HALF, HALF), ((HALF, HALF), (HALF, -1))),
     "P(b2|a2) = -1 outside [0, 1]"),
    (lambda: hypermoyal.interference._sqrt(-1), "square root of a negative value"),
], ids=["amplitude-prior", "amplitude-conditional", "theta-prior", "theta-conditional", "sqrt"])
def test_probabilities_outside_the_unit_interval_are_refused(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


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


def test_forward_rejects_negative_born_value():
    # destructive hyperbolic pairing drives the value below zero
    amp1 = Amplitude2((0.6, 0.6), (1.0, 0.0), H, signs=(1, -1))
    amp2 = Amplitude2((math.sqrt(1 - 2 * 0.36), 0.0), (0.0, 0.0), H)
    with pytest.raises((InvalidStateError, ValidationError)):
        forward(amp1, amp2)


def test_forward_validates_magnitude_consistency():
    amp1 = Amplitude2((0.9, 0.9), (0.0, 0.0), C)
    amp2 = Amplitude2((0.9, 0.9), (0.0, 0.0), C)
    with pytest.raises(ValidationError):
        forward(amp1, amp2)


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


def test_csv_malformed_probability(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,0.5,0.5,1.2\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="row 1"):
        contexts_from_csv(path)


def test_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("0.5,0.5,0.5,0.5\n0.5,oops,0.5,0.5\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="row 2"):
        contexts_from_csv(path)


def test_report_json_shape():
    report = classify(flat_context(Fraction(9, 10)))
    data = report.to_json_dict()
    assert data["outcomes"][0]["lambda"] == "4/5"
    assert data["outcomes"][0]["regime"] == "trigonometric"
    assert data["normalization_residual"] == "0"


def test_import_leaves_typing_unloaded():
    # -S keeps site (and anything it imports) out, so only the package counts
    src = os.path.dirname(os.path.dirname(hypermoyal.__file__))
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, hypermoyal.interference; print('typing' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")
