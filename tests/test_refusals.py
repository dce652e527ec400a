"""Each refusal of malformed input that a one-line call reaches raises its
exception class with its message.  Most rows of the table are refusals that
no other test triggers."""

import os
import tempfile
from fractions import Fraction

import pytest

from hypermoyal import (
    Amplitude2,
    Binarion,
    DichotomousContext,
    DimensionMismatchError,
    ExpPoly,
    GrassmannElement,
    HPoly,
    Operator,
    ParseError,
    PhasePoint,
    PolySymbol,
    Sigma,
    SignatureMismatchError,
    Ultradistribution,
    ValidationError,
    WaveFunction,
    ZeroDivisorError,
    annihilator_witness,
    as_sigma,
    contexts_from_csv,
    forward,
    generators,
    inverse_fourier_symbol,
    paley_wiener_growth,
    parse_grassmann,
    parse_symbol,
    plane_wave_eigenvalue,
    star_distributional,
    symbol_from_distribution,
)
from hypermoyal.errors import json_field

H = Sigma.HYPERBOLIC
C = Sigma.COMPLEX
HALF = Fraction(1, 2)
_Q = PolySymbol.coordinate("q", 0, 1, H)
_DELTA = Ultradistribution.delta((0,), H)


def _wave(momentum, h=1, sigma=H):
    return WaveFunction.plane_wave(momentum, h, sigma)


def _csv(text):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "table.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return contexts_from_csv(path)


#: name -> (call, exception class, message)
REFUSALS = {
    # distributions
    "exppoly dim 0": (lambda: ExpPoly.zero(0, H), DimensionMismatchError, "dim must be >= 1"),
    "exppoly coordinate dim 2.5": (lambda: ExpPoly.coordinate(0, 2.5, H), ValidationError,
                                   "2.5 is not an integer"),
    "exppoly constant dim 2.5": (lambda: ExpPoly.constant(1, 2.5, H), ValidationError,
                                 "2.5 is not an integer"),
    "text names": (lambda: ExpPoly.monomial((1, 2), 1, H).to_text(["a"]), DimensionMismatchError,
                   "2 variable names needed, got 1"),
    "shift length": (lambda: ExpPoly.one(1, H).shift((1, 2)), DimensionMismatchError,
                     "offset length must match dim"),
    "evaluate length": (lambda: ExpPoly.one(1, H).evaluate((0, 0)), DimensionMismatchError,
                        "point length must match dim"),
    "mul_monomial length": (lambda: _DELTA.mul_monomial((1, 1)), DimensionMismatchError,
                            "exponent vector length must match dim"),
    "pair 3": (lambda: _DELTA.pair(3), TypeError, "pairing requires an ExpPoly test function"),
    "inverse fourier of 3": (lambda: inverse_fourier_symbol(3), TypeError,
                             "expected a symbol, got int"),
    "inverse fourier odd": (lambda: inverse_fourier_symbol(ExpPoly.one(1, H)),
                            DimensionMismatchError, "phase-space symbols need even dimension"),
    "symbol from odd": (lambda: symbol_from_distribution(_DELTA), DimensionMismatchError,
                        "phase-space distributions need even dimension"),
    "star unequal dims": (lambda: star_distributional(ExpPoly.one(2, H), ExpPoly.one(4, H), 1),
                          DimensionMismatchError, "symbols live on different phase spaces"),
    "star odd": (lambda: star_distributional(ExpPoly.one(1, H), ExpPoly.one(1, H), 1),
                 DimensionMismatchError, "phase-space symbols need even dimension"),
    "growth dim 2": (lambda: paley_wiener_growth(ExpPoly.one(2, H), 1), DimensionMismatchError,
                     "growth check is defined for dim-1 functions"),
    # errors
    "json nested key": (lambda: json_field({"a": {}}, "a", lambda d: d["x"]), ValidationError,
                        "a: missing field 'x'"),
    # grassmann
    "grassmann n -1": (lambda: GrassmannElement.zero(-1, H), ValidationError,
                       "generator count must be nonnegative"),
    "generators n 2.5": (lambda: generators(2.5, H), ValidationError, "2.5 is not an integer"),
    "witness n 2.5": (lambda: annihilator_witness(2.5, H), ValidationError,
                      "2.5 is not an integer"),
    # interference
    "context sizes": (lambda: DichotomousContext((1,), ((1, 1), (0, 0)), (1, 0)),
                      ValidationError, "context requires dichotomous (2-outcome) tables"),
    "context rows": (lambda: DichotomousContext((HALF, HALF), ((1,), (0,)), (HALF, HALF)),
                     ValidationError, "conditional matrix must be 2x2"),
    "amplitude terms": (lambda: Amplitude2((1,), (0.0, 0.0), C), ValidationError,
                        "amplitudes are two-term superpositions"),
    "amplitude magnitude": (lambda: Amplitude2((-1, 1), (0.0, 0.0), C), ValidationError,
                            "magnitudes must be nonnegative"),
    "amplitude sign": (lambda: Amplitude2((1, 1), (0.0, 0.0), H, signs=(1, 2)),
                       ValidationError, "signs must be +1 or -1"),
    "amplitude complex signs": (lambda: Amplitude2((1, 1), (0.0, 0.0), C, signs=(1, -1)),
                                ValidationError,
                                "explicit signs are hyperbolic-only; fold them into the phases"),
    "forward signatures": (
        lambda: forward(Amplitude2((1, 0), (0.0, 0.0), C), Amplitude2((0, 1), (0.0, 0.0), H)),
        ValidationError, "amplitude signatures differ"),
    "forward zero prior": (
        lambda: forward(Amplitude2((1, 0), (0.0, 0.0), C), Amplitude2((0, 0), (0.0, 0.0), C)),
        ValidationError, "degenerate prior: some P(a_i) = 0"),
    "forward observed sum": (
        lambda: forward(Amplitude2((HALF, HALF), (0.0, 0.0), C),
                        Amplitude2((HALF, HALF), (0.0, 0.0), C)),
        ValidationError, "amplitudes are inconsistent: observed sums to 2.0"),
    "csv columns": (lambda: _csv("\n1/2,1/2,1/2\n"), ValidationError,
                    "expected 4 columns, got 3 (row 2)"),
    # operators
    "wavefunction of 3": (lambda: WaveFunction(3, 1), TypeError, "func must be an ExpPoly"),
    "wavefunction sigmas": (lambda: _wave((1,)) + _wave((1,), sigma=C), SignatureMismatchError,
                            "wavefunction signatures differ"),
    "wavefunction h": (lambda: _wave((1,)) + _wave((1,), h=2), ValidationError,
                       "wavefunction h values differ: 1 vs 2"),
    "wavefunction dofs": (lambda: _wave((1,)) + _wave((1, 1)), DimensionMismatchError,
                          "wavefunction dimensions differ"),
    "operator of 3": (lambda: Operator(3, 1), TypeError,
                      "symbol must be a PolySymbol or an ExpPoly"),
    "operator odd": (lambda: Operator(ExpPoly.one(1, H), 1), DimensionMismatchError,
                     "phase-space symbols need even dimension (q variables then p)"),
    "operator sigma": (lambda: Operator(_Q, 1, C), SignatureMismatchError,
                       "operator sigma differs from symbol sigma"),
    "normal order of exppoly": (
        lambda: Operator(ExpPoly.one(2, H), 1).apply_normal_ordered(_wave((1,))), TypeError,
        "normal-ordered route needs a polynomial symbol"),
    "eigenvalue momentum": (lambda: plane_wave_eigenvalue(_Q, (1, 2), 1), DimensionMismatchError,
                            "momentum length must match symbol dof"),
    # parsing
    "symbol name t1": (lambda: parse_symbol("t1", H), ParseError,
                       "unknown name 't1' in a symbol expression (at position 0)"),
    "grassmann unit i": (lambda: parse_grassmann("i", H), ParseError,
                         "unit 'i' does not match sigma=+1 (at position 0)"),
    # scalars
    "sigma '2'": (lambda: as_sigma("2"), ValidationError, "not a signature: '2'"),
    "sigma 2": (lambda: as_sigma(2), ValidationError, "not a signature: 2"),
    "binarion without sigma": (lambda: Binarion(1, 0), TypeError,
                               "Binarion requires an explicit sigma"),
    "binarion over 0": (lambda: Binarion(1, 0, H) / 0, ZeroDivisorError, "division by zero"),
    # sparse
    "scalar without sigma": (lambda: HPoly.from_scalar(1), TypeError,
                             "sigma required for rational scalars"),
    "coefficient sigma": (lambda: PolySymbol(1, H, {((0,), (0,)): HPoly.from_scalar(1, C)}),
                          SignatureMismatchError, "coefficient sigma differs from symbol sigma"),
    # symbols
    "hpoly div_h": (lambda: HPoly.from_scalar(1, H).div_h(), ArithmeticError,
                    "not divisible by h: constant term present"),
    "symbol div_h": (lambda: _Q.div_h(), ArithmeticError,
                     "not divisible by h: constant term present"),
    "phase point lengths": (lambda: PhasePoint((0,), (0, 0)), DimensionMismatchError,
                            "q and p must have the same length"),
    "symbol dof 0": (lambda: PolySymbol.zero(0, H), DimensionMismatchError, "dof must be >= 1"),
    "symbol one dof 1.5": (lambda: PolySymbol.one(1.5, H), ValidationError,
                           "1.5 is not an integer"),
    "symbol coordinate dof 2.5": (lambda: PolySymbol.coordinate("q", 0, 2.5, H), ValidationError,
                                  "2.5 is not an integer"),
    "symbol evaluate dof": (lambda: _Q.evaluate(PhasePoint((0, 0), (0, 0)), 1),
                            DimensionMismatchError, "point has dof 2, symbol has dof 1"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_a_refusal_raises_its_class_and_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
