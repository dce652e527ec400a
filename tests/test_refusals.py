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
    CharSum,
    DegreeCapError,
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
    character,
    classify,
    contexts_from_csv,
    forward,
    generators,
    inverse_fourier_symbol,
    paley_wiener_growth,
    parse_grassmann,
    parse_symbol,
    plane_wave_eigenvalue,
    polar,
    star,
    star_distributional,
    symbol_from_distribution,
    theta_range,
)
from hypermoyal.cli import _cmd_limit, build_parser
from hypermoyal.scalars import HPolar
from hypermoyal.errors import json_field
from hypermoyal.sparse import (DEFAULT_DEGREE_CAP, MAX_DEPTH, MAX_DIGITS, MAX_INDEX, MAX_STEPS,
                               MAX_WITNESS_GENERATORS)

H = Sigma.HYPERBOLIC
C = Sigma.COMPLEX
HALF = Fraction(1, 2)
_Q = PolySymbol.coordinate("q", 0, 1, H)
_DELTA = Ultradistribution.delta((0,), H)
#: Rationals whose denominators have 4,301 and 4,300 digits: just past and at
#: the int-to-text digit limit that ``tests/conftest.py`` pins.
_PAST = Fraction(1, 10**4300)
_EDGE = Fraction(1, 10**4299)
_TOO_LONG = "number too long to write: more than 4300 digits"
#: Tables whose ``D`` is positive but below the smallest float, and whose
#: ``lambda`` (about 10^2000) is above the largest.
_TINY_D = DichotomousContext.from_b1_row(Fraction(1, 10**2999 + 1), Fraction(1, 10**2999 + 3),
                                         HALF, HALF)
_HUGE_LAMBDA = DichotomousContext.from_b1_row(Fraction(1, 10**4000), 1,
                                              Fraction(10**4000 - 1, 10**4000), HALF)
#: An integer past the digit limit.
_LONG = 10**5000
_ONE = PolySymbol.one(1, H)


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
    # the input bounds, all defined in ``sparse``
    "degree cap": (lambda: star(_Q**DEFAULT_DEGREE_CAP, _Q), DegreeCapError,
                   f"star product degree {DEFAULT_DEGREE_CAP + 1} exceeds cap "
                   f"{DEFAULT_DEGREE_CAP}"),
    "index bound": (lambda: parse_symbol(f"q{MAX_INDEX + 1}", H), ParseError,
                    f"index of 'q' above {MAX_INDEX} (at position 0)"),
    "dof bound": (lambda: parse_symbol("q", H, dof=MAX_INDEX + 1), ValidationError,
                  f"dof must be <= {MAX_INDEX}, got {MAX_INDEX + 1}"),
    "digit bound": (lambda: parse_symbol("1" * (MAX_DIGITS + 1), H), ParseError,
                    f"more than {MAX_DIGITS} digits in a row (at position 0)"),
    "depth bound": (lambda: parse_symbol("(" * (MAX_DEPTH + 1) + "q" + ")" * (MAX_DEPTH + 1), H),
                    ParseError, f"parentheses nested deeper than {MAX_DEPTH} (at position "
                                f"{MAX_DEPTH})"),
    "steps bound": (
        lambda: _cmd_limit(build_parser().parse_args(["limit", "q", "p", "--steps",
                                                       str(MAX_STEPS + 1)])),
        ValidationError, f"--steps must be <= {MAX_STEPS}, got {MAX_STEPS + 1}"),
    "witness bound": (lambda: annihilator_witness(MAX_WITNESS_GENERATORS + 1, H), ValidationError,
                      f"witness needs at most {MAX_WITNESS_GENERATORS} generators, got "
                      f"{MAX_WITNESS_GENERATORS + 1}"),
    # a refusal whose message would hold a number past the digit limit
    "long dof": (lambda: parse_symbol("q", H, dof=_LONG), ValidationError, _TOO_LONG),
    "long witness n": (lambda: annihilator_witness(_LONG, H), ValidationError, _TOO_LONG),
    "long generator": (lambda: GrassmannElement.monomial([_LONG], 3, H), ValidationError,
                       _TOO_LONG),
    "long cap": (lambda: star(_ONE, _ONE, degree_cap=-_LONG), ValidationError, _TOO_LONG),
    "long wavefunction h": (lambda: WaveFunction(ExpPoly.one(1, H), _PAST) + _wave((0,)),
                            ValidationError, _TOO_LONG),
    "long operator h": (lambda: Operator(_Q, _PAST).apply(_wave((1,))), ValidationError,
                        _TOO_LONG),
    "long table entry": (lambda: DichotomousContext.from_b1_row(Fraction(10**4400), 1, 1, 1),
                         ValidationError, _TOO_LONG),
    "long amplitude sum": (
        lambda: forward(Amplitude2((Fraction(10**4400), 1), (0.0, 0.0), C),
                        Amplitude2((1, 1), (0.0, 0.0), C)), ValidationError, _TOO_LONG),
    "long symbol dof": (lambda: PolySymbol.zero(_LONG, H) + _ONE, ValidationError, _TOO_LONG),
    # an integer field of a JSON document past the digit limit
    "symbol exponent json": (lambda: PolySymbol(1, H, {((10**4300,), (0,)): 1}).to_json(),
                             ValidationError, _TOO_LONG),
    "symbol h-degree json": (
        lambda: PolySymbol(1, H, {((0,), (0,)): HPoly({10**4300: 1}, H)}).to_json(),
        ValidationError, _TOO_LONG),
    "exppoly exponent json": (lambda: ExpPoly.monomial((10**4300,), 1, H).to_json(),
                              ValidationError, _TOO_LONG),
    "delta order json": (lambda: Ultradistribution.delta((0,), H, order=(10**4300,)).to_json(),
                         ValidationError, _TOO_LONG),
    "grassmann n json": (lambda: GrassmannElement.zero(_LONG, H).to_json(), ValidationError,
                         _TOO_LONG),
    # a size or value past the digit limit, in range or not
    "long coordinate dof": (lambda: PolySymbol.coordinate("q", 0, _LONG, H), ValidationError,
                            _TOO_LONG),
    "long exppoly coordinate dim": (lambda: ExpPoly.coordinate(0, _LONG, H), ValidationError,
                                    _TOO_LONG),
    "long symbol constant dof": (lambda: PolySymbol.zero(_LONG, H) + 1, ValidationError,
                                 _TOO_LONG),
    "long generator n": (lambda: GrassmannElement.generator(-1, _LONG, H), ValidationError,
                         _TOO_LONG),
    "long generator n json": (lambda: GrassmannElement.generator(0, _LONG, H).to_json(),
                              ValidationError, _TOO_LONG),
    "long grassmann parse n": (lambda: parse_grassmann("t0", H, n=_LONG), ValidationError,
                               _TOO_LONG),
    "long grassmann parse n json": (lambda: parse_grassmann("t1", H, n=_LONG).to_json(),
                                    ValidationError, _TOO_LONG),
    "long grassmann mask n": (lambda: GrassmannElement(_LONG, H, {-1: 1}), ValidationError,
                              "monomial mask is negative"),
    "long witness half": (lambda: annihilator_witness(Fraction(_LONG + 1, 2), H),
                          ValidationError, _TOO_LONG),
    "symbol one dof past a tuple": (lambda: PolySymbol.one(10**30, H), ValidationError,
                                    f"size {10**30} is too large to build"),
    "exppoly coordinate index 5/2": (lambda: ExpPoly.coordinate(Fraction(5, 2), 3, H),
                                     ValidationError, "Fraction(5, 2) is not an integer"),
    "exppoly index out of range": (lambda: ExpPoly.coordinate(3, 3, H), IndexError,
                                   "index 3 out of range for dim 3"),
    "generator out of range": (lambda: GrassmannElement.generator(2, 2, H), IndexError,
                               "generator index 2 out of range for n=2"),

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
    "exppoly key str": (lambda: str(ExpPoly.character((_PAST,), H)), ValidationError, _TOO_LONG),
    "exppoly key json": (lambda: ExpPoly.character((_PAST,), H).to_json(), ValidationError,
                         _TOO_LONG),
    "exppoly r text": (lambda: ExpPoly.constant(CharSum.character(_PAST, H), 1, H).to_text(),
                       ValidationError, _TOO_LONG),
    "exppoly r json": (lambda: ExpPoly.constant(CharSum.character(_PAST, H), 1, H).to_json(),
                       ValidationError, _TOO_LONG),
    "charsum r str": (lambda: str(CharSum.character(_PAST, H)), ValidationError, _TOO_LONG),
    "delta location str": (lambda: str(Ultradistribution.delta((_PAST,), H)), ValidationError,
                           _TOO_LONG),
    "delta location json": (lambda: Ultradistribution.delta((_PAST,), H).to_json(),
                            ValidationError, _TOO_LONG),
    "delta order str": (lambda: str(Ultradistribution.delta((0,), H, order=(10**4300,))),
                        ValidationError, _TOO_LONG),
    "delta r json": (lambda: Ultradistribution.delta((0,), H, weight=CharSum.character(_PAST, H))
                     .to_json(), ValidationError, _TOO_LONG),
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
    "classify D below floats": (lambda: classify(_TINY_D), ValidationError,
                                "value too small for a float"),
    "theta range D below floats": (lambda: theta_range(_TINY_D.p_a, _TINY_D.cond),
                                   ValidationError, "value too small for a float"),
    "classify lambda above floats": (lambda: classify(_HUGE_LAMBDA), ValidationError,
                                     "value too large for a float"),
    "born value above floats": (
        lambda: Amplitude2((HALF, HALF), (1000.0, 0.0), H).born_value(), ValidationError,
        "value too large for a float"),
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
    "wavefunction key str": (lambda: str(WaveFunction(ExpPoly.character((_PAST,), H), 1)),
                             ValidationError, _TOO_LONG),
    "wavefunction h json": (lambda: WaveFunction(ExpPoly.one(1, H), _PAST).to_json_dict(),
                            ValidationError, _TOO_LONG),
    "operator h repr": (lambda: repr(Operator(_Q, _PAST)), ValidationError, _TOO_LONG),
    "operator h json": (lambda: Operator(_Q, _PAST).to_json_dict(), ValidationError, _TOO_LONG),
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
    "eigenvalue momentum float": (lambda: plane_wave_eigenvalue(_Q, 0.5, 1), TypeError,
                                  "expected an exact rational, got float"),
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
    "polar above floats": (lambda: polar(Binarion(10**400, 1, H)), ValidationError,
                           "value too large for a float"),
    "character of 10^400": (lambda: character(Fraction(10**400), H), ValidationError,
                            "value too large for a float"),
    "character of 800": (lambda: character(800, H), ValidationError,
                         "value too large for a float"),
    "reconstruct above floats": (lambda: HPolar(1, 1.0, 1000.0).reconstruct(), ValidationError,
                                 "value too large for a float"),
    "binarion over 0": (lambda: Binarion(1, 0, H) / 0, ZeroDivisorError, "division by zero"),
    # sparse
    "scalar without sigma": (lambda: HPoly.from_scalar(1), TypeError,
                             "sigma required for rational scalars"),
    "coefficient sigma": (lambda: PolySymbol(1, H, {((0,), (0,)): HPoly.from_scalar(1, C)}),
                          SignatureMismatchError, "coefficient sigma differs from symbol sigma"),
    "json truncated": (
        lambda: PolySymbol.from_json("{"), ValidationError,
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "json nested past the recursion limit": (
        lambda: PolySymbol.from_json("[" * 100000), ValidationError,
        "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
    "json integer past the digit limit": (
        lambda: GrassmannElement.from_json('{"n": ' + "9" * 4400 + "}"), ValidationError,
        "Exceeds the limit (4300 digits) for integer string conversion: value has 4400 digits; "
        "use sys.set_int_max_str_digits() to increase the limit"),
    # symbols
    "hpoly div_h": (lambda: HPoly.from_scalar(1, H).div_h(), ArithmeticError,
                    "not divisible by h: constant term present"),
    "symbol div_h": (lambda: _Q.div_h(), ArithmeticError,
                     "not divisible by h: constant term present"),
    "phase point lengths": (lambda: PhasePoint((0,), (0, 0)), DimensionMismatchError,
                            "q and p must have the same length"),
    "symbol exponent str": (lambda: str(PolySymbol(1, H, {((10**4300,), (0,)): 1})),
                            ValidationError, _TOO_LONG),
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


def test_an_index_in_range_of_a_size_past_the_digit_limit_builds_its_element():
    """The size is written only into the refusal of an index out of range, so
    a Grassmann algebra of 10^5000 generators still has its first generator."""
    theta = GrassmannElement.generator(0, _LONG, H)
    assert theta.n == _LONG and str(theta) == "θ1"
    assert parse_grassmann("t1", H, n=_LONG) == theta


def test_a_number_at_the_digit_limit_is_written_in_full():
    d = "1" + "0" * 4299
    key = ExpPoly.character((_EDGE,), H)
    r = ExpPoly.constant(CharSum.character(_EDGE, H), 1, H)
    delta = Ultradistribution.delta((_EDGE,), H)
    written = [
        (str(key), f"exp(j*(1/{d}*x1))"),
        (key.to_json(), '{"dim": 1, "sigma": 1, "terms": [{"coeff": {"im": "0", "re": "1"}, '
                        f'"exp": [0], "freq": ["1/{d}"]}}]}}'),
        (r.to_text(), f"((1)*e^(1/{d}j))"),
        (r.to_json(), '{"dim": 1, "sigma": 1, "terms": [{"coeff": {"chars": [{"exp": '
                      f'"1/{d}", "im": "0", "re": "1"}}]}}, "exp": [0], "freq": ["0"]}}]}}'),
        (str(CharSum.character(_EDGE, H)), f"(1)*e^(1/{d}j)"),
        (str(delta), f"(1)*delta[1/{d}]"),
        (delta.to_json(), '{"atoms": [{"loc": ' f'["1/{d}"], "order": [0], "weight": '
                          '{"im": "0", "re": "1"}}], "dim": 1, "sigma": 1}'),
        (str(WaveFunction(key, 1)), f"exp(j*(1/{d}*q1))"),
        (WaveFunction(ExpPoly.one(1, H), _EDGE).to_json_dict()["h"], f"1/{d}"),
        (repr(Operator(_Q, _EDGE)), f"Operator(q1, h=1/{d})"),
        (Operator(_Q, _EDGE).to_json_dict()["h"], f"1/{d}"),
    ]
    for got, expected in written:
        assert got == expected
