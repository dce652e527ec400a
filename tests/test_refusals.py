"""Every refusal of malformed input that one call reaches raises its exception
class, the class itself and not a subclass, with its exact message.  Each
refusal is one row of ``REFUSALS``, grouped by the module that refuses it or
by the kind of input; a ``ParseError``'s message also ends with the position
it carries.  ``check_refusal`` checks every row, under the name of the test
that checked it before it was a row (``HOMES``) or else here.  The refusals
of the command line are the rows of ``test_cli.CLI_REFUSALS``, checked there
by one check of their own in the same way."""

import ast
import copy
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import _quadratic_wavefunction

import hypermoyal
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
    InvalidStateError,
    NotRepresentableError,
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
    compose_check,
    contexts_from_csv,
    forward,
    generators,
    inverse_fourier_symbol,
    interference,
    moyal_bracket,
    paley_wiener_growth,
    parse_binarion,
    parse_grassmann,
    parse_symbol,
    plane_wave_eigenvalue,
    polar,
    scaled_bracket,
    star,
    star_distributional,
    symbol_from_distribution,
    theta_range,
)
from hypermoyal.cli import _cmd_limit, build_parser
from hypermoyal.errors import json_field
from hypermoyal.scalars import HPolar, _as_fraction, _json_fraction
from hypermoyal.sparse import (DEFAULT_DEGREE_CAP, MAX_DEPTH, MAX_DIGITS, MAX_INDEX, MAX_STEPS,
                               MAX_WITNESS_GENERATORS)

H = Sigma.HYPERBOLIC
C = Sigma.COMPLEX
HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)
_Q = PolySymbol.coordinate("q", 0, 1, H)
_P = PolySymbol.coordinate("p", 0, 1, H)
_X = ExpPoly.coordinate(0, 1, H)
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
_OTHER = Binarion(1, 1, C)  # a coefficient of the other signature
_OTHER_WEIGHT = CharSum({HALF: 1}, C)  # and a weight
_FLOAT = "expected an exact rational, got float"
_NONE = "expected an exact rational, got NoneType"
_TEXT = "Invalid literal for Fraction: 'x'"
# well-formed documents, which rows of both tables break one field of
GRASSMANN = {"n": 2, "sigma": 1, "terms": [{"gens": [1, 2], "re": "1"}]}
ATOMS = {"dim": 1, "sigma": 1, "atoms": [{"loc": ["1/2"], "order": [2], "weight": {"re": "1"}}]}
OPERATOR = {
    "h": "1/2",
    "sigma": 1,
    "kind": "poly",
    "symbol": {"dof": 1, "sigma": 1, "terms": [{"q": [0], "p": [1], "coeff": [{"h": 0, "re": "1"}]}]},
}
WAVE = {"h": "1/2", "func": {"dim": 1, "sigma": 1, "terms": [{"freq": ["2"], "exp": [0], "coeff": {"re": "1"}}]}}


def _with(document, path, value):
    data = copy.deepcopy(document)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


def _wave(momentum, h=1, sigma=H):
    return WaveFunction.plane_wave(momentum, h, sigma)


def _csv(text):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "table.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return contexts_from_csv(path)


#: Malformed input to each public constructor, and to each one-term
#: constructor of exponential polynomials and wavefunctions: the error class
#: and the exact message, read before anything is stored.  Rows of
#: ``REFUSALS``, checked under ``test_sparse``'s name for them.
CONSTRUCTOR_REFUSALS = {
    "HPoly degree True": (lambda: HPoly({True: 1}, H), ValidationError, "True is not an integer"),
    "HPoly degree 1.5": (lambda: HPoly({1.5: 1}, H), ValidationError, "1.5 is not an integer"),
    "HPoly degree '1'": (lambda: HPoly({"1": 1}, H), ValidationError, "'1' is not an integer"),
    "HPoly degree None": (lambda: HPoly({None: 1}, H), ValidationError, "None is not an integer"),
    "HPoly degree -1": (lambda: HPoly({-1: 1}, H), ValidationError,
                        "h-degree must be nonnegative"),
    "HPoly coefficient 1.5": (lambda: HPoly({0: 1.5}, H), TypeError, _FLOAT),
    "HPoly coefficient 'x'": (lambda: HPoly({0: "x"}, H), ValidationError, _TEXT),
    "HPoly coefficient None": (lambda: HPoly({0: None}, H), TypeError, _NONE),
    "HPoly coefficient sigma": (lambda: HPoly({0: _OTHER}, H), SignatureMismatchError,
                                "coefficient sigma differs from HPoly sigma"),
    "HPoly sigma 0": (lambda: HPoly({0: 1}, 0), ValidationError, "not a signature: 0"),
    "CharSum r 0.5": (lambda: CharSum({0.5: 1}, H), TypeError, _FLOAT),
    "CharSum r 'x'": (lambda: CharSum({"x": 1}, H), ValidationError, _TEXT),
    "CharSum r None": (lambda: CharSum({None: 1}, H), TypeError, _NONE),
    "CharSum coefficient 0.5": (lambda: CharSum({0: 0.5}, H), TypeError, _FLOAT),
    "CharSum coefficient None": (lambda: CharSum({0: None}, H), TypeError, _NONE),
    "CharSum coefficient sigma": (lambda: CharSum({0: _OTHER}, H), SignatureMismatchError,
                                  "coefficient sigma differs from CharSum sigma"),
    "PolySymbol dof 0": (lambda: PolySymbol(0, H, {}), DimensionMismatchError,
                         "dof must be >= 1"),
    "PolySymbol dof True": (lambda: PolySymbol(True, H, {}), ValidationError,
                            "True is not an integer"),
    "PolySymbol dof 1.5": (lambda: PolySymbol(1.5, H, {}), ValidationError,
                           "1.5 is not an integer"),
    "PolySymbol dof '1'": (lambda: PolySymbol("1", H, {}), ValidationError,
                           "'1' is not an integer"),
    "PolySymbol dof None": (lambda: PolySymbol(None, H, {}), ValidationError,
                            "None is not an integer"),
    "PolySymbol exponent True": (lambda: PolySymbol(1, H, {((True,), (0,)): 1}),
                                 ValidationError, "True is not an integer"),
    "PolySymbol exponent 1.5": (lambda: PolySymbol(1, H, {((1.5,), (0,)): 1}), ValidationError,
                                "1.5 is not an integer"),
    "PolySymbol exponent '1'": (lambda: PolySymbol(1, H, {((0,), ("1",)): 1}), ValidationError,
                                "'1' is not an integer"),
    "PolySymbol exponent None": (lambda: PolySymbol(1, H, {((None,), (0,)): 1}),
                                 ValidationError, "None is not an integer"),
    "PolySymbol exponent -1": (lambda: PolySymbol(1, H, {((0,), (-1,)): 1}), ValidationError,
                               "negative exponents are not allowed"),
    "PolySymbol length": (lambda: PolySymbol(2, H, {((1,), (0, 0)): 1}), DimensionMismatchError,
                          "exponent vectors must have length 2"),
    "PolySymbol coefficient 0.5": (lambda: PolySymbol(1, H, {((0,), (0,)): 0.5}), TypeError,
                                   _FLOAT),
    "PolySymbol coefficient None": (lambda: PolySymbol(1, H, {((0,), (0,)): None}), TypeError,
                                    _NONE),
    "PolySymbol coefficient sigma": (lambda: PolySymbol(1, H, {((0,), (0,)): _OTHER}),
                                     SignatureMismatchError,
                                     "coefficient sigma differs from symbol sigma"),
    "PolySymbol HPoly sigma": (lambda: PolySymbol(1, H, {((0,), (0,)): HPoly({1: 1}, C)}),
                               SignatureMismatchError,
                               "coefficient sigma differs from symbol sigma"),
    "PolySymbol CharSum coefficient": (
        lambda: PolySymbol(1, H, {((0,), (0,)): CharSum({0: 1}, H)}), TypeError,
        "expected an exact rational, got CharSum"),
    "ExpPoly dim 0": (lambda: ExpPoly(0, H, {}), DimensionMismatchError, "dim must be >= 1"),
    "ExpPoly dim True": (lambda: ExpPoly(True, H, {}), ValidationError,
                         "True is not an integer"),
    "ExpPoly dim 1.5": (lambda: ExpPoly(1.5, H, {}), ValidationError, "1.5 is not an integer"),
    "ExpPoly dim None": (lambda: ExpPoly(None, H, {}), ValidationError,
                         "None is not an integer"),
    "ExpPoly frequency 0.5": (lambda: ExpPoly(1, H, {((0.5,), (0,)): 1}), TypeError, _FLOAT),
    "ExpPoly frequency 'x'": (lambda: ExpPoly(1, H, {(("x",), (0,)): 1}), ValidationError,
                              _TEXT),
    "ExpPoly frequency None": (lambda: ExpPoly(1, H, {((None,), (0,)): 1}), TypeError, _NONE),
    "ExpPoly exponent True": (lambda: ExpPoly(1, H, {((0,), (True,)): 1}), ValidationError,
                              "True is not an integer"),
    "ExpPoly exponent 1.5": (lambda: ExpPoly(1, H, {((0,), (1.5,)): 1}), ValidationError,
                             "1.5 is not an integer"),
    "ExpPoly exponent -1": (lambda: ExpPoly(1, H, {((0,), (-1,)): 1}), ValidationError,
                            "negative exponents are not allowed"),
    "ExpPoly frequency length": (lambda: ExpPoly(2, H, {((0,), (0, 0)): 1}),
                                 DimensionMismatchError, "term vectors must have length 2"),
    "ExpPoly exponent length": (lambda: ExpPoly(2, H, {((0, 0), (0,)): 1}),
                                DimensionMismatchError, "term vectors must have length 2"),
    "ExpPoly coefficient 0.5": (lambda: ExpPoly(1, H, {((0,), (0,)): 0.5}), TypeError, _FLOAT),
    "ExpPoly coefficient None": (lambda: ExpPoly(1, H, {((0,), (0,)): None}), TypeError, _NONE),
    "ExpPoly coefficient sigma": (lambda: ExpPoly(1, H, {((0,), (0,)): _OTHER}),
                                  SignatureMismatchError,
                                  "coefficient sigma differs from ExpPoly sigma"),
    "ExpPoly weight sigma": (lambda: ExpPoly(1, H, {((0,), (0,)): _OTHER_WEIGHT}),
                             SignatureMismatchError,
                             "coefficient sigma differs from ExpPoly sigma"),
    "ExpPoly HPoly weight": (lambda: ExpPoly(1, H, {((0,), (0,)): HPoly({0: 1}, H)}), TypeError,
                             "expected an exact rational, got HPoly"),
    "Ultradistribution dim 0": (lambda: Ultradistribution(0, H, []), DimensionMismatchError,
                                "dim must be >= 1"),
    "Ultradistribution dim True": (lambda: Ultradistribution(True, H, []), ValidationError,
                                   "True is not an integer"),
    "Ultradistribution location 0.5": (lambda: Ultradistribution(1, H, [((0.5,), (0,), 1)]),
                                       TypeError, _FLOAT),
    "Ultradistribution location None": (lambda: Ultradistribution(1, H, [((None,), (0,), 1)]),
                                        TypeError, _NONE),
    "Ultradistribution location 'x'": (lambda: Ultradistribution(1, H, [(("x",), (0,), 1)]),
                                       ValidationError, _TEXT),
    "Ultradistribution order -1": (lambda: Ultradistribution(1, H, [((0,), (-1,), 1)]),
                                   ValidationError, "derivative orders must be nonnegative"),
    "Ultradistribution order True": (lambda: Ultradistribution(1, H, [((0,), (True,), 1)]),
                                     ValidationError, "True is not an integer"),
    "Ultradistribution order 1.5": (lambda: Ultradistribution(1, H, [((0,), (1.5,), 1)]),
                                    ValidationError, "1.5 is not an integer"),
    "Ultradistribution order None": (lambda: Ultradistribution(1, H, [((0,), (None,), 1)]),
                                     ValidationError, "None is not an integer"),
    "Ultradistribution length": (lambda: Ultradistribution(2, H, [((0,), (0, 0), 1)]),
                                 DimensionMismatchError, "atom vectors must have length 2"),
    "Ultradistribution weight 0.5": (lambda: Ultradistribution(1, H, [((0,), (0,), 0.5)]),
                                     TypeError, _FLOAT),
    "Ultradistribution weight None": (lambda: Ultradistribution(1, H, [((0,), (0,), None)]),
                                      TypeError, _NONE),
    "Ultradistribution coefficient sigma": (
        lambda: Ultradistribution(1, H, [((0,), (0,), _OTHER)]), SignatureMismatchError,
        "coefficient sigma differs from distribution sigma"),
    "Ultradistribution weight sigma": (
        lambda: Ultradistribution(1, H, [((0,), (0,), _OTHER_WEIGHT)]), SignatureMismatchError,
        "coefficient sigma differs from distribution sigma"),
    "Grassmann n -1": (lambda: GrassmannElement(-1, H, {}), ValidationError,
                       "generator count must be nonnegative"),
    "Grassmann n True": (lambda: GrassmannElement(True, H, {}), ValidationError,
                         "True is not an integer"),
    "Grassmann n 1.5": (lambda: GrassmannElement(1.5, H, {}), ValidationError,
                        "1.5 is not an integer"),
    "Grassmann mask True": (lambda: GrassmannElement(1, H, {True: 1}), ValidationError,
                            "True is not an integer"),
    "Grassmann mask 1.5": (lambda: GrassmannElement(1, H, {1.5: 1}), ValidationError,
                           "1.5 is not an integer"),
    "Grassmann mask None": (lambda: GrassmannElement(1, H, {None: 1}), ValidationError,
                            "None is not an integer"),
    "Grassmann mask -1": (lambda: GrassmannElement(1, H, {-1: 1}), ValidationError,
                          "monomial mask is negative"),
    "Grassmann mask beyond n": (lambda: GrassmannElement(2, H, {0b100: 1}),
                                DimensionMismatchError,
                                "monomial uses generators up to θ3, beyond n=2"),
    "Grassmann coefficient 0.5": (lambda: GrassmannElement(1, H, {0: 0.5}), TypeError, _FLOAT),
    "Grassmann coefficient sigma": (lambda: GrassmannElement(1, H, {0: _OTHER}),
                                    SignatureMismatchError,
                                    "coefficient sigma differs from algebra sigma"),
    # the one-term constructors
    "character frequency 0.5": (lambda: ExpPoly.character((0.5,), H), TypeError, _FLOAT),
    "character frequency None": (lambda: ExpPoly.character((None,), H), TypeError, _NONE),
    "character frequency 'x'": (lambda: ExpPoly.character(("x",), H), ValidationError, _TEXT),
    "character no frequency": (lambda: ExpPoly.character((), H), DimensionMismatchError,
                               "dim must be >= 1"),
    "character frequency 1": (lambda: ExpPoly.character(1, H), TypeError,
                              "'int' object is not iterable"),
    "character sigma 2": (lambda: ExpPoly.character((1,), 2), ValidationError,
                          "not a signature: 2"),
    "character coefficient 0.5": (lambda: ExpPoly.character((1,), H, 0.5), TypeError, _FLOAT),
    "character coefficient None": (lambda: ExpPoly.character((1,), H, None), TypeError, _NONE),
    "character coefficient sigma": (lambda: ExpPoly.character((1,), H, _OTHER),
                                    SignatureMismatchError,
                                    "coefficient sigma differs from ExpPoly sigma"),
    "character weight sigma": (lambda: ExpPoly.character((1,), H, _OTHER_WEIGHT),
                               SignatureMismatchError,
                               "coefficient sigma differs from ExpPoly sigma"),
    "constant dim 0": (lambda: ExpPoly.constant(1, 0, H), DimensionMismatchError,
                       "dim must be >= 1"),
    "constant dim -1": (lambda: ExpPoly.constant(1, -1, H), DimensionMismatchError,
                        "dim must be >= 1"),
    "constant dim True": (lambda: ExpPoly.constant(1, True, H), ValidationError,
                          "True is not an integer"),
    "constant dim 1.5": (lambda: ExpPoly.constant(1, 1.5, H), ValidationError,
                         "1.5 is not an integer"),
    "constant dim '1'": (lambda: ExpPoly.constant(1, "1", H), ValidationError,
                         "'1' is not an integer"),
    "constant dim None": (lambda: ExpPoly.constant(1, None, H), ValidationError,
                          "None is not an integer"),
    "constant sigma 0": (lambda: ExpPoly.constant(1, 1, 0), ValidationError,
                         "not a signature: 0"),
    "constant value 0.5": (lambda: ExpPoly.constant(0.5, 1, H), TypeError, _FLOAT),
    "constant value None": (lambda: ExpPoly.constant(None, 1, H), TypeError, _NONE),
    "constant value 'x'": (lambda: ExpPoly.constant("x", 1, H), ValidationError, _TEXT),
    "constant value sigma": (lambda: ExpPoly.constant(_OTHER, 1, H), SignatureMismatchError,
                             "coefficient sigma differs from ExpPoly sigma"),
    "constant weight sigma": (lambda: ExpPoly.constant(_OTHER_WEIGHT, 1, H),
                              SignatureMismatchError,
                              "coefficient sigma differs from ExpPoly sigma"),
    "monomial exponent -1": (lambda: ExpPoly.monomial((-1,), 1, H), ValidationError,
                             "negative exponents are not allowed"),
    "monomial exponent True": (lambda: ExpPoly.monomial((True,), 1, H), ValidationError,
                               "True is not an integer"),
    "monomial exponent 1.5": (lambda: ExpPoly.monomial((1.5,), 1, H), ValidationError,
                              "1.5 is not an integer"),
    "monomial exponent None": (lambda: ExpPoly.monomial((None,), 1, H), ValidationError,
                               "None is not an integer"),
    "monomial exponent '1'": (lambda: ExpPoly.monomial(("1",), 1, H), ValidationError,
                              "'1' is not an integer"),
    "monomial no exponent": (lambda: ExpPoly.monomial((), 1, H), DimensionMismatchError,
                             "dim must be >= 1"),
    "monomial iterator": (lambda: ExpPoly.monomial(iter((1,)), 1, H), TypeError,
                          "object of type 'tuple_iterator' has no len()"),
    "monomial sigma 0": (lambda: ExpPoly.monomial((1,), 1, 0), ValidationError,
                         "not a signature: 0"),
    "monomial coefficient 0.5": (lambda: ExpPoly.monomial((1,), 0.5, H), TypeError, _FLOAT),
    "monomial coefficient sigma": (lambda: ExpPoly.monomial((1,), _OTHER, H),
                                   SignatureMismatchError,
                                   "coefficient sigma differs from ExpPoly sigma"),
    "monomial weight sigma": (lambda: ExpPoly.monomial((1,), _OTHER_WEIGHT, H),
                              SignatureMismatchError,
                              "coefficient sigma differs from ExpPoly sigma"),
    "coordinate index True": (lambda: ExpPoly.coordinate(True, 2, H), ValidationError,
                              "True is not an integer"),
    "coordinate index None": (lambda: ExpPoly.coordinate(None, 2, H), ValidationError,
                              "None is not an integer"),
    "coordinate index -1": (lambda: ExpPoly.coordinate(-1, 2, H), IndexError,
                            "index -1 out of range for dim 2"),
    "coordinate dim 0": (lambda: ExpPoly.coordinate(0, 0, H), IndexError,
                         "index 0 out of range for dim 0"),
    "coordinate dim True": (lambda: ExpPoly.coordinate(0, True, H), ValidationError,
                            "True is not an integer"),
    "coordinate dim 1.5": (lambda: ExpPoly.coordinate(0, 1.5, H), ValidationError,
                           "1.5 is not an integer"),
    "coordinate sigma 'x'": (lambda: ExpPoly.coordinate(0, 1, "x"), ValidationError,
                             "not a signature: 'x'"),
    "plane_wave h 0": (lambda: WaveFunction.plane_wave((1,), 0, H), ValidationError,
                       "h must be a positive rational"),
    "plane_wave h -1": (lambda: WaveFunction.plane_wave((1,), -1, H), ValidationError,
                        "h must be a positive rational"),
    "plane_wave h 0.5": (lambda: WaveFunction.plane_wave((1,), 0.5, H), TypeError, _FLOAT),
    "plane_wave h None": (lambda: WaveFunction.plane_wave((1,), None, H), TypeError, _NONE),
    "plane_wave h 'x'": (lambda: WaveFunction.plane_wave((1,), "x", H), ValidationError, _TEXT),
    "plane_wave h '1/0'": (lambda: WaveFunction.plane_wave((1,), "1/0", H), ValidationError,
                           "zero denominator in '1/0'"),
    "plane_wave momentum 0.5": (lambda: WaveFunction.plane_wave((0.5,), 1, H), TypeError,
                                _FLOAT),
    "plane_wave momentum None": (lambda: WaveFunction.plane_wave((None,), 1, H), TypeError,
                                 _NONE),
    "plane_wave momentum 'x'": (lambda: WaveFunction.plane_wave(("x",), 1, H), ValidationError,
                                _TEXT),
    "plane_wave no momentum": (lambda: WaveFunction.plane_wave((), 1, H),
                               DimensionMismatchError, "dim must be >= 1"),
    "plane_wave momentum float": (lambda: WaveFunction.plane_wave(0.5, 1, H), TypeError,
                                  _FLOAT),
    "plane_wave sigma 0": (lambda: WaveFunction.plane_wave((1,), 1, 0), ValidationError,
                           "not a signature: 0"),
    # two faults at once: the check that comes first in the constructor wins
    "character frequency and sigma": (
        lambda: ExpPoly.character((0.5,), 2, _OTHER), ValidationError,
        "not a signature: 2"),
    "character frequency and coefficient": (
        lambda: ExpPoly.character((0.5,), H, _OTHER), TypeError,
        "expected an exact rational, got float"),
    "monomial exponent and coefficient": (
        lambda: ExpPoly.monomial((-1,), _OTHER, H), ValidationError,
        "negative exponents are not allowed"),
    "monomial exponent and sigma": (
        lambda: ExpPoly.monomial((-1,), 1, "x"), ValidationError,
        "not a signature: 'x'"),
    "constant dim and sigma": (
        lambda: ExpPoly.constant(_OTHER, 0, "x"), DimensionMismatchError,
        "dim must be >= 1"),
    "ExpPoly dim and sigma": (
        lambda: ExpPoly(0, "x", {}), DimensionMismatchError,
        "dim must be >= 1"),
    "ExpPoly sigma and frequency": (
        lambda: ExpPoly(1, "x", {((0.5,), (0,)): 1}), ValidationError,
        "not a signature: 'x'"),
    "ExpPoly frequency and exponent": (
        lambda: ExpPoly(1, H, {((0.5,), (-1,)): 1}), TypeError,
        "expected an exact rational, got float"),
    "ExpPoly exponent and length": (
        lambda: ExpPoly(2, H, {((0,), (-1, 0)): 1}), ValidationError,
        "negative exponents are not allowed"),
    "ExpPoly length and weight": (
        lambda: ExpPoly(2, H, {((0,), (0, 0)): _OTHER_WEIGHT}), DimensionMismatchError,
        "term vectors must have length 2"),
    "PolySymbol exponent and length": (
        lambda: PolySymbol(1, H, {((-1,), (0, 0)): _OTHER}), ValidationError,
        "negative exponents are not allowed"),
    "PolySymbol length and coefficient": (
        lambda: PolySymbol(1, H, {((0,), (0, 0)): _OTHER}), DimensionMismatchError,
        "exponent vectors must have length 1"),
    "PolySymbol dof and sigma": (
        lambda: PolySymbol(0, "x", {}), DimensionMismatchError,
        "dof must be >= 1"),
    "Ultradistribution location and order": (
        lambda: Ultradistribution(2, H, [((0.5,), (-1,), _OTHER)]), TypeError,
        "expected an exact rational, got float"),
    "Ultradistribution order and weight": (
        lambda: Ultradistribution(1, H, [((0,), (-1,), _OTHER_WEIGHT)]), ValidationError,
        "derivative orders must be nonnegative"),
    "plane_wave h and momentum": (
        lambda: WaveFunction.plane_wave((0.5,), 0, 0), ValidationError,
        "h must be a positive rational"),
    "plane_wave momentum and sigma": (
        lambda: WaveFunction.plane_wave((0.5,), 1, 0), TypeError,
        "expected an exact rational, got float"),
    "delta location and sigma": (
        lambda: Ultradistribution.delta((0.5,), 0), TypeError,
        "expected an exact rational, got float"),
    "delta order and weight": (
        lambda: Ultradistribution.delta((0,), H, (-1,), _OTHER), ValidationError,
        "derivative orders must be nonnegative"),
    "delta order length": (
        lambda: Ultradistribution.delta((0,), H, (0, 0)), DimensionMismatchError,
        "atom vectors must have length 1"),
    "delta weight sigma": (
        lambda: Ultradistribution.delta((0,), H, None, _OTHER_WEIGHT), SignatureMismatchError,
        "coefficient sigma differs from distribution sigma"),
    "delta no location": (
        lambda: Ultradistribution.delta((), H), DimensionMismatchError,
        "dim must be >= 1"),
    "Grassmann mask and coefficient": (
        lambda: GrassmannElement(1, H, {4: _OTHER}), DimensionMismatchError,
        "monomial uses generators up to θ3, beyond n=1"),
    "HPoly degree and coefficient": (
        lambda: HPoly({-1: _OTHER}, H), ValidationError,
        "h-degree must be nonnegative"),
}


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
    "pair dims": (lambda: Ultradistribution.delta((0, 0), H).pair(ExpPoly.one(1, H)),
                  DimensionMismatchError, "distribution dim 2 differs from test function dim 1"),
    "from_poly_symbol formal h": (lambda: ExpPoly.from_poly_symbol(parse_symbol("h*q", H)),
                                  ValidationError, "symbol carries formal h; pass a numeric h"),
    "growth n_max 0": (lambda: paley_wiener_growth(ExpPoly.one(1, H), 0), ValidationError,
                       "n_max must be >= 1"),
    # errors
    "json nested key": (lambda: json_field({"a": {}}, "a", lambda d: d["x"]), ValidationError,
                        "a: missing field 'x'"),
    # grassmann
    "grassmann n -1": (lambda: GrassmannElement.zero(-1, H), ValidationError,
                       "generator count must be nonnegative"),
    "generators n 2.5": (lambda: generators(2.5, H), ValidationError, "2.5 is not an integer"),
    "witness n 2.5": (lambda: annihilator_witness(2.5, H), ValidationError,
                      "2.5 is not an integer"),
    "grassmann sigmas": (lambda: generators(1, H)[0] * generators(1, C)[0], SignatureMismatchError,
                         "cannot combine sigma=+1 with sigma=-1"),
    "grassmann sizes": (lambda: generators(1, H)[0] * generators(2, H)[0], DimensionMismatchError,
                        "cannot combine n=1 with n=2"),
    "monomial word (1, 0)": (lambda: GrassmannElement.monomial((1, 0), 3, H), ValidationError,
                             "generators must be nonnegative and strictly ascending"),
    "monomial word (0, 0)": (lambda: GrassmannElement.monomial((0, 0), 3, H), ValidationError,
                             "generators must be nonnegative and strictly ascending"),
    "monomial word (0, 2, 1)": (lambda: GrassmannElement.monomial((0, 2, 1), 3, H), ValidationError,
                                "generators must be nonnegative and strictly ascending"),
    "monomial word (-1,)": (lambda: GrassmannElement.monomial((-1,), 3, H), ValidationError,
                            "generators must be nonnegative and strictly ascending"),
    # ``1 << 10**30`` cannot be built, so only a check made before the mask
    # gets to raise
    "monomial index 10^7": (lambda: GrassmannElement.monomial((10**7,), 2, H),
                            DimensionMismatchError, "generator θ10000001 is beyond n=2"),
    "monomial index 10^8": (lambda: GrassmannElement.monomial((10**8,), 2, H),
                            DimensionMismatchError, "generator θ100000001 is beyond n=2"),
    "monomial index 10^30": (
        lambda: GrassmannElement.monomial((10**30,), 2, H), DimensionMismatchError,
        "generator θ1000000000000000000000000000001 is beyond n=2"),
    "mask past n": (lambda: GrassmannElement(2, H, {1 << 10**6 | 1: 1}), DimensionMismatchError,
                    "monomial uses generators up to θ1000001, beyond n=2"),
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
    "b1 row observed 6/5": (
        lambda: DichotomousContext.from_b1_row(HALF, HALF, HALF, Fraction(12, 10)), ValidationError,
        "P(b1) = 6/5 outside [0, 1]"),
    "context observed sum": (lambda: DichotomousContext(
        (HALF, HALF), ((HALF, HALF), (HALF, HALF)), (HALF, Fraction(1, 4))),
        ValidationError, "observed P(b) does not sum to 1"),
    "context prior sum": (lambda: DichotomousContext(
        (HALF, Fraction(1, 4)), ((HALF, HALF), (HALF, HALF)), (HALF, HALF)),
        ValidationError, "P(a) does not sum to 1"),
    "context range first": (
        lambda: DichotomousContext((HALF, HALF), ((HALF, 2), (HALF, -1)), (HALF, _QUARTER), row=3),
        ValidationError, "P(b1|a2) = 2 outside [0, 1] (row 3)"),
    "context p-a": (lambda: DichotomousContext(
        (HALF, _QUARTER), ((HALF, HALF), (HALF, HALF)), (HALF, _QUARTER), row=None),
        ValidationError, "P(a) does not sum to 1"),
    "context a1": (lambda: DichotomousContext(
        (HALF, HALF), ((HALF, HALF), (_QUARTER, _QUARTER)), (HALF, HALF), row=2),
        ValidationError, "conditionals for a1 do not sum to 1 (row 2)"),
    "context a2": (lambda: DichotomousContext(
        (HALF, HALF), ((HALF, HALF), (HALF, _QUARTER)), (HALF, HALF), row=None),
        ValidationError, "conditionals for a2 do not sum to 1"),
    "context observed": (lambda: DichotomousContext(
        (HALF, HALF), ((HALF, HALF), (HALF, HALF)), (HALF, _QUARTER), row=7),
        ValidationError, "observed P(b) does not sum to 1 (row 7)"),
    "context float sum": (lambda: DichotomousContext(
        (0.5, 0.5 + 1e-9), ((0.5, 0.5), (0.5, 0.5)), (0.5, 0.5), row=None),
        ValidationError, "P(a) does not sum to 1"),
    "amplitude prior": (
        lambda: Amplitude2.from_probabilities((-1 / 2, 3 / 2), (1 / 2, 1 / 2), (0.0, 0.0), C),
        ValidationError, "P(a1) = -0.5 outside [0, 1]"),
    "amplitude conditional": (lambda: Amplitude2.from_probabilities(
        (HALF, HALF), (HALF, 2), (0.0, 0.0), H), ValidationError, "P(b|a2) = 2 outside [0, 1]"),
    "theta prior": (lambda: theta_range((-1 / 2, 3 / 2), ((1 / 2, 1 / 2), (1 / 2, 1 / 2))),
                    ValidationError, "P(a1) = -0.5 outside [0, 1]"),
    "theta conditional": (lambda: theta_range((HALF, HALF), ((HALF, HALF), (HALF, -1))),
                          ValidationError, "P(b2|a2) = -1 outside [0, 1]"),
    "sqrt -1": (lambda: interference._sqrt(-1), ValidationError, "square root of a negative value"),
    # signs are read by ``sparse.integer``; phases must be finite
    "amplitude signs (1.9, -1.2)": (lambda: Amplitude2((1, 1), (0.0, 0.0), H, signs=(1.9, -1.2)),
                                    ValidationError, "1.9 is not an integer"),
    "amplitude signs (True, -1)": (lambda: Amplitude2((1, 1), (0.0, 0.0), H, signs=(True, -1)),
                                   ValidationError, "True is not an integer"),
    "amplitude signs ('x', 1)": (lambda: Amplitude2((1, 1), (0.0, 0.0), H, signs=("x", 1)),
                                 ValidationError, "'x' is not an integer"),
    "amplitude phase nan": (lambda: Amplitude2((HALF, HALF), (math.nan, 0.0), C), ValidationError,
                            "amplitude phases must be finite, got (nan, 0.0)"),
    "amplitude phase inf": (lambda: Amplitude2((HALF, HALF), (math.inf, 0.0), C), ValidationError,
                            "amplitude phases must be finite, got (inf, 0.0)"),
    "amplitude phase -inf": (lambda: Amplitude2((HALF, HALF), (0.0, -math.inf), H), ValidationError,
                             "amplitude phases must be finite, got (0.0, -inf)"),
    # destructive hyperbolic pairing drives the Born value below zero
    "forward below zero": (lambda: forward(Amplitude2((0.6, 0.6), (1.0, 0.0), H, signs=(1, -1)),
                                           Amplitude2((math.sqrt(1 - 2 * 0.36), 0.0), (0.0, 0.0),
                                                      H)),
        InvalidStateError, "Born value -0.39101805706697546 outside [0, 1] (violates bound 0); "
                           "the phase difference is inadmissible for this table"),
    "forward magnitudes": (lambda: forward(Amplitude2((0.9, 0.9), (0.0, 0.0), C),
                                           Amplitude2((0.9, 0.9), (0.0, 0.0), C)),
        ValidationError, "amplitude magnitudes give sum P(a) = 3.24 != 1"),
    "csv probability": (lambda: _csv("0.5,0.5,0.5,1.2\n"), ValidationError,
                        "P(b1) = 6/5 outside [0, 1] (row 1)"),
    "csv cell": (lambda: _csv("0.5,0.5,0.5,0.5\n0.5,oops,0.5,0.5\n"), ValidationError,
                 "not a number: 'oops' (row 2)"),
    # a first cell past the exponent bound is a number, not a header
    "csv header exponent": (lambda: _csv("1e4301,1/2,1/2,1/2\n"), ValidationError,
                            "not a number: '1e4301' (row 1)"),
    "csv exponent": (lambda: _csv("0.5,0.5,0.5,1e-4301\n"), ValidationError,
                     "not a number: '1e-4301' (row 1)"),
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
    # ``degree_cap`` is keyword-only, so a positional fourth argument (once an
    # ``h`` that had to equal ``phi.h``) is refused, not read as a cap
    "compose_check positional cap": (
        lambda: compose_check(_P, _Q, _quadratic_wavefunction(H, HALF), HALF), TypeError,
        "compose_check() takes 3 positional arguments but 4 were given"),
    "apply sigmas": (lambda: Operator(_Q, HALF).apply(_quadratic_wavefunction(C, HALF)),
                     SignatureMismatchError, "operator and wavefunction signatures differ"),
    "apply h": (lambda: Operator(_Q, HALF).apply(_quadratic_wavefunction(H, Fraction(1, 3))),
                ValidationError, "operator h 1/2 differs from wavefunction h 1/3"),
    "apply dofs": (lambda: Operator(_Q, HALF).apply(
        WaveFunction.plane_wave((Fraction(1), Fraction(1)), HALF, H)),
        DimensionMismatchError, "operator dof 1 differs from wavefunction dof 2"),
    "plane_wave h -1 of 1": (lambda: WaveFunction.plane_wave(Fraction(1), Fraction(-1), H),
                             ValidationError, "h must be a positive rational"),
    # refused before the momentum is divided by h
    "plane_wave momentum 1 h 0": (lambda: WaveFunction.plane_wave(1, 0, H), ValidationError,
                                  "h must be a positive rational"),
    "plane_wave momentum 1 h -1": (lambda: WaveFunction.plane_wave(1, -1, H), ValidationError,
                                   "h must be a positive rational"),
    "operator h 'x'": (lambda: Operator(_Q, "x"), ValidationError, _TEXT),
    "operator h exponent": (lambda: Operator(_Q, "1e4301"), ValidationError, _TOO_LONG),
    "plane_wave momentum '1/0'": (lambda: WaveFunction.plane_wave("1/0", 1, H), ValidationError,
                                  "zero denominator in '1/0'"),
    # parsing
    "symbol name t1": (lambda: parse_symbol("t1", H), ParseError,
                       "unknown name 't1' in a symbol expression (at position 0)"),
    "grassmann unit i": (lambda: parse_grassmann("i", H), ParseError,
                         "unit 'i' does not match sigma=+1 (at position 0)"),
    "parse '-'": (lambda: parse_symbol("-", H), ParseError,
                  "unexpected end of input (at position 1)"),
    "parse 'q*-'": (lambda: parse_symbol("q*-", H), ParseError,
                    "unexpected end of input (at position 3)"),
    "parse '--'": (lambda: parse_symbol("--", H), ParseError,
                   "unexpected end of input (at position 2)"),
    "parse 'q+'": (lambda: parse_symbol("q+", H), ParseError,
                   "unexpected end of input (at position 2)"),
    "parse '*q'": (lambda: parse_symbol("*q", H), ParseError, "unexpected '*' (at position 0)"),
    "parse 'q*'": (lambda: parse_symbol("q*", H), ParseError,
                   "unexpected end of input (at position 2)"),
    "parse '()'": (lambda: parse_symbol("()", H), ParseError, "unexpected ')' (at position 1)"),
    "parse '-)'": (lambda: parse_symbol("-)", H), ParseError, "unexpected ')' (at position 1)"),
    "parse '+'": (lambda: parse_symbol("+", H), ParseError,
                  "unexpected end of input (at position 1)"),
    "parse '(q'": (lambda: parse_symbol("(q", H), ParseError, "expected ')' (at position 2)"),
    "parse 'q^-2'": (lambda: parse_symbol("q^-2", H), ParseError,
                     "exponent must be a nonnegative integer (at position 2)"),
    "parse 'q^'": (lambda: parse_symbol("q^", H), ParseError,
                   "exponent must be a nonnegative integer (at position 2)"),
    "parse '(q)(p)'": (lambda: parse_symbol("(q)(p)", H), ParseError,
                       "unexpected trailing '(' (at position 3)"),
    "parse 'q p'": (lambda: parse_symbol("q p", H), ParseError,
                    "unexpected trailing 'p' (at position 2)"),
    "parse '1/0'": (lambda: parse_symbol("1/0", H), ParseError, "zero denominator (at position 2)"),
    "parse '3/'": (lambda: parse_symbol("3/", H), ParseError,
                   "expected denominator (at position 2)"),
    # a bound passed after other text: the position is where the run starts
    "parse index past the bound": (lambda: parse_symbol(f"p + q{MAX_INDEX + 1}", H), ParseError,
                                   f"index of 'q' above {MAX_INDEX} (at position 4)"),
    "grassmann index past the bound": (
        lambda: parse_grassmann(f"2*t{MAX_INDEX + 1}", H), ParseError,
        f"index of 't' above {MAX_INDEX} (at position 2)"),
    "parse digits past the bound": (
        lambda: parse_symbol("p - " + "1" * (MAX_DIGITS + 1), H), ParseError,
        f"more than {MAX_DIGITS} digits in a row (at position 4)"),
    "parse depth past the bound": (
        lambda: parse_symbol("2*" + "(" * (MAX_DEPTH + 1) + "q" + ")" * (MAX_DEPTH + 1), H),
        ParseError, f"parentheses nested deeper than {MAX_DEPTH} (at position {MAX_DEPTH + 2})"),
    "grassmann depth past the bound": (
        lambda: parse_grassmann("2*" + "(" * (MAX_DEPTH + 1) + "t1" + ")" * (MAX_DEPTH + 1), H),
        ParseError, f"parentheses nested deeper than {MAX_DEPTH} (at position {MAX_DEPTH + 2})"),
    "parse unit i": (
        lambda: parse_symbol("q + i*p", H), ParseError,
        "unit 'i' belongs to sigma=-1; the requested signature is sigma=+1 (at position 4)"),
    "parse 'q + '": (lambda: parse_symbol("q + ", H), ParseError,
                     "unexpected end of input (at position 4)"),
    "parse 'q q'": (lambda: parse_symbol("q q", H), ParseError,
                    "unexpected trailing 'q' (at position 2)"),
    "parse 'q + $'": (lambda: parse_symbol("q + $", H), ParseError,
                      "unexpected character '$' (at position 4)"),
    "parse 'j*q' complex": (
        lambda: parse_symbol("j*q", C), ParseError,
        "unit 'j' belongs to sigma=+1; the requested signature is sigma=-1 (at position 0)"),
    "parse q3 at dof 2": (lambda: parse_symbol("q3", H, dof=2), ParseError,
                          "variable 'q3' out of range for dof 2 (at position 0)"),
    "parse p at dof past the bound": (
        lambda: parse_symbol("p", H, dof=MAX_INDEX + 1), ValidationError,
        f"dof must be <= {MAX_INDEX}, got {MAX_INDEX + 1}"),
    "binarion 'q + 1'": (lambda: parse_binarion("q + 1", H), ParseError,
                         "expected a scalar, found phase-space variables (at position 0)"),
    "binarion 'h'": (lambda: parse_binarion("h", H), ParseError,
                     "expected a scalar, found the parameter h (at position 0)"),
    "grassmann t3 at n 2": (lambda: parse_grassmann("t3", H, n=2), ParseError,
                            "generator 't3' out of range for n=2 (at position 0)"),
    "grassmann 'q*t1'": (lambda: parse_grassmann("q*t1", H), ParseError,
                         "unknown name 'q' in a Grassmann expression (at position 0)"),
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
    "invert light cone": (lambda: Binarion(1, 1, H).invert(), ZeroDivisorError,
                          "1 + 1j lies on the light cone (z*conj(z) = 0) and is a zero divisor"),
    "invert zero": (lambda: Binarion(0, 0, H).invert(), ZeroDivisorError, "cannot invert 0"),
    "polar light cone": (lambda: polar(Binarion(1, 1, H)), NotRepresentableError,
                         "modulus_sq = 0 <= 0: 1 + 1j lies outside the positive cone"),
    "polar negative modulus": (lambda: polar(Binarion(1, 2, H)), NotRepresentableError,
                               "modulus_sq = -3 <= 0: 1 + 2j lies outside the positive cone"),
    "polar complex": (lambda: polar(Binarion(2, 1, C)), NotRepresentableError,
                      "polar decomposition of this form exists only for the hyperbolic signature"),
    "binarion sigmas +": (lambda: Binarion(1, 2, H) + Binarion(1, 2, C), SignatureMismatchError,
                          "cannot combine sigma=+1 with sigma=-1"),
    "binarion sigmas *": (lambda: Binarion(1, 2, H) * Binarion(1, 2, C), SignatureMismatchError,
                          "cannot combine sigma=+1 with sigma=-1"),
    "binarion '1/0'": (lambda: Binarion("1/0", 0, H), ValidationError, "zero denominator in '1/0'"),
    "text '1/0'": (lambda: _as_fraction("1/0"), ValidationError, "zero denominator in '1/0'"),
    "text 'x'": (lambda: _as_fraction("x"), ValidationError, _TEXT),
    "text of 0.5": (lambda: _as_fraction(0.5), TypeError, _FLOAT),
    "json text '3/0'": (lambda: _json_fraction("3/0"), ValidationError,
                        "zero denominator in '3/0'"),
    # an exponent past the digit limit, refused before its power of ten is built;
    # each is small enough to build at once if it were not, so that such a
    # regression fails here instead of hanging (the run of ``1e999999999`` is
    # in ``test_cli``, in a fresh interpreter under a timeout)
    "text 1e4301": (lambda: _as_fraction("1e4301"), ValidationError, _TOO_LONG),
    "text 1E4301": (lambda: _as_fraction("1E4301"), ValidationError, _TOO_LONG),
    "text 1e+4301": (lambda: _as_fraction("1e+4301"), ValidationError, _TOO_LONG),
    "text -2.5E-4301": (lambda: _as_fraction("-2.5E-4301"), ValidationError, _TOO_LONG),
    "binarion 1E-4301": (lambda: Binarion(0, "1E-4301", H), ValidationError, _TOO_LONG),
    "binarion floats": (lambda: Binarion(10**400, 0, H).to_floats(), ValidationError,
                        "value too large for a float"),
    "charsum cosh floats": (lambda: CharSum.character(1000, H).to_floats(), ValidationError,
                            "value too large for a float"),
    "charsum exponent floats": (lambda: CharSum.character(Fraction(10**400, 3), C).to_floats(),
                                ValidationError, "value too large for a float"),
    "charsum product floats": (lambda: CharSum({700: Binarion(10**300, 0, H)}, H).to_floats(),
                               ValidationError, "value too large for a float"),
    "charsum sum floats": (lambda: CharSum({0: Binarion(10**308, 0, C),
                                            Fraction(1, 10**9): Binarion(10**308, 0, C)},
                                           C).to_floats(),
        ValidationError, "value too large for a float"),
    "charsum as_binarion": (lambda: CharSum.character(1, H).as_binarion(), ValidationError,
                            "(1)*e^(1j) carries formal characters; not a plain scalar"),
    "character of inf": (lambda: character(math.inf, H), ValidationError,
                         "character requires finite theta, got inf"),
    "character of nan": (lambda: character(math.nan, C), ValidationError,
                         "character requires finite theta, got nan"),
    "unknown public name": (lambda: hypermoyal.no_such_name, AttributeError,
                            "module 'hypermoyal' has no attribute 'no_such_name'"),
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
    "star cap": (lambda: star(_Q**9, _Q**8), DegreeCapError,
                 "star product degree 17 exceeds cap 16"),
    "star sigmas": (lambda: star(_Q, PolySymbol.coordinate("q", 0, 1, C)), SignatureMismatchError,
                    "cannot combine sigma=+1 with sigma=-1"),
    "star dofs": (lambda: star(_Q, PolySymbol.coordinate("q", 0, 2, H)), DimensionMismatchError,
                  "cannot combine dof=1 with dof=2"),
    "moyal bracket cap": (lambda: moyal_bracket(_Q**9, _P**8), DegreeCapError,
                          "star product degree 17 exceeds cap 16"),
    "scaled bracket cap": (lambda: scaled_bracket(_Q**9, _P**8), DegreeCapError,
                           "star product degree 17 exceeds cap 16"),
    "differentiate index 1": (lambda: _Q.differentiate("q", 1), IndexError,
                              "index 1 out of range for dof 1"),
    "differentiate variable x": (lambda: _Q.differentiate("x"), ValidationError,
                                 "variable must be 'q' or 'p'"),
    "evaluate h -1": (lambda: _Q.evaluate(PhasePoint((1,), (1,)), Fraction(-1)), ValidationError,
                      "h must be >= 0"),
    "evaluate h -1 at 0": (lambda: _Q.evaluate(PhasePoint((0,), (0,)), -1), ValidationError,
                           "h must be >= 0"),
    "coordinate kind x": (lambda: PolySymbol.coordinate("x", 0, 1, H), ValidationError,
                          "kind must be 'q' or 'p'"),
    "phase point '1/0'": (lambda: PhasePoint(("1/0",), (1,)), ValidationError,
                          "zero denominator in '1/0'"),
    "substitute_h 'x'": (lambda: _Q.substitute_h("x"), ValidationError, _TEXT),
    # public constructors, each refusal read before anything is stored
    **CONSTRUCTOR_REFUSALS,
    # index, order and size arguments, read by ``sparse.integer``: a value that
    # ``int`` would change or refuse is refused, not truncated or stored
    "coordinate 0.5": (lambda: ExpPoly.coordinate(0.5, 2, H), ValidationError,
                       "0.5 is not an integer"),
    "symbol coordinate 0.5": (lambda: PolySymbol.coordinate("q", 0.5, 2, H), ValidationError,
                              "0.5 is not an integer"),
    "generator 1.5": (lambda: GrassmannElement.generator(1.5, 3, H), ValidationError,
                      "1.5 is not an integer"),
    "differentiate 0.5": (lambda: _X.differentiate(0.5), ValidationError,
                          "0.5 is not an integer"),
    "symbol differentiate 0.5": (lambda: _Q.differentiate("q", 0.5), ValidationError,
                                 "0.5 is not an integer"),
    "derivative 0.5": (lambda: _DELTA.derivative(0.5), ValidationError, "0.5 is not an integer"),
    "order (0.5,)": (lambda: _X.differentiate_multi((0.5,)), ValidationError,
                     "0.5 is not an integer"),
    "symbol order (0.5,)": (lambda: _Q.differentiate_multi("q", (0.5,)), ValidationError,
                            "0.5 is not an integer"),
    "atom order (0.5,)": (lambda: _DELTA.derivative_multi((0.5,)), ValidationError,
                          "0.5 is not an integer"),
    "n_max 2.5": (lambda: paley_wiener_growth(_X, 2.5), ValidationError,
                  "2.5 is not an integer"),
    "variable x": (lambda: _Q.differentiate_multi("x", (0,)), ValidationError,
                   "variable must be 'q' or 'p'"),
    "coordinate 2": (lambda: ExpPoly.coordinate(2, 2, H), IndexError,
                     "index 2 out of range for dim 2"),
    "symbol coordinate -1": (lambda: PolySymbol.coordinate("p", -1, 2, H), IndexError,
                             "coordinate index -1 out of range for dof 2"),
    "generator 3": (lambda: GrassmannElement.generator(3, 3, H), IndexError,
                    "generator index 3 out of range for n=3"),
    "derivative 1": (lambda: _DELTA.derivative(1), IndexError, "axis 1 out of range for dim 1"),
    "order (0, 1)": (lambda: _X.differentiate_multi((0, 1)), IndexError,
                     "index 1 out of range for dim 1"),
    "atom order (0, 1)": (lambda: _DELTA.derivative_multi((0, 1)), IndexError,
                          "axis 1 out of range for dim 1"),
    "symbol order (0, 1)": (lambda: _Q.differentiate_multi("p", (0, 1)), IndexError,
                            "index 1 out of range for dof 1"),
    "dof 1.5": (lambda: PolySymbol.zero(1.5, H), ValidationError, "1.5 is not an integer"),
    "dof True": (lambda: PolySymbol.zero(True, H), ValidationError, "True is not an integer"),
    "dim 2.7": (lambda: ExpPoly.zero(2.7, H), ValidationError, "2.7 is not an integer"),
    "atoms dim 1.5": (lambda: Ultradistribution.zero(1.5, H), ValidationError,
                      "1.5 is not an integer"),
    "n 3.9": (lambda: GrassmannElement.zero(3.9, H), ValidationError, "3.9 is not an integer"),
    "h-degree 'x'": (lambda: HPoly({"x": 1}, H), ValidationError, "'x' is not an integer"),
    "n 'two'": (lambda: parse_grassmann("t1", H, "two"), ValidationError,
                "'two' is not an integer"),
    "mask None": (lambda: GrassmannElement(2, H, {None: 1}), ValidationError,
                  "None is not an integer"),
    "h-degree inf": (lambda: HPoly({float("inf"): 1}, H), ValidationError, "inf is not an integer"),
    "dof nan": (lambda: parse_symbol("q1", H, float("nan")), ValidationError,
                "nan is not an integer"),
    "parse dof 2.7": (lambda: parse_symbol("q1*p1", H, 2.7), ValidationError,
                      "2.7 is not an integer"),
    "parse dof 1.5": (lambda: parse_symbol("q1*p1", H, 1.5), ValidationError,
                      "1.5 is not an integer"),
    "parse dof True": (lambda: parse_symbol("q1*p1", H, True), ValidationError,
                       "True is not an integer"),
    "parse dof '2'": (lambda: parse_symbol("q1*p1", H, "2"), ValidationError,
                      "'2' is not an integer"),
    "parse n 2.7": (lambda: parse_grassmann("t1*t2", H, 2.7), ValidationError,
                    "2.7 is not an integer"),
    "parse n True": (lambda: parse_grassmann("t1*t2", H, True), ValidationError,
                     "True is not an integer"),
    "parse n '2'": (lambda: parse_grassmann("t1*t2", H, "2"), ValidationError,
                    "'2' is not an integer"),
    "grassmann mask 2.7": (lambda: GrassmannElement(2, H, {2.7: 1}), ValidationError,
                           "2.7 is not an integer"),
    "grassmann mask '3'": (lambda: GrassmannElement(2, H, {"3": 1}), ValidationError,
                           "'3' is not an integer"),
    "grassmann mask True n 2": (lambda: GrassmannElement(2, H, {True: 1}), ValidationError,
                                "True is not an integer"),
    # integer fields of JSON documents: the message names the field
    "json symbol dof 1.5": (lambda: PolySymbol.from_json_dict(
        _with(OPERATOR["symbol"], ("dof",), 1.5)), ValidationError, "dof: 1.5 is not an integer"),
    "json symbol q [0.5]": (
        lambda: PolySymbol.from_json_dict(_with(OPERATOR["symbol"], ("terms", 0, "q"), [0.5])),
        ValidationError, "terms: q: 0.5 is not an integer"),
    "json symbol q [[0]]": (
        lambda: PolySymbol.from_json_dict(_with(OPERATOR["symbol"], ("terms", 0, "q"), [[0]])),
        ValidationError, "terms: q: [0] is not an integer"),
    "json symbol q ['a']": (
        lambda: PolySymbol.from_json_dict(_with(OPERATOR["symbol"], ("terms", 0, "q"), ["a"])),
        ValidationError, "terms: q: 'a' is not an integer"),
    "json symbol p ['1']": (
        lambda: PolySymbol.from_json_dict(_with(OPERATOR["symbol"], ("terms", 0, "p"), ["1"])),
        ValidationError, "terms: p: '1' is not an integer"),
    "json symbol h 0.5": (lambda: PolySymbol.from_json_dict(
        _with(OPERATOR["symbol"], ("terms", 0, "coeff", 0, "h"), 0.5)),
        ValidationError, "terms: coeff: h: 0.5 is not an integer"),
    "json exppoly dim '1'": (lambda: ExpPoly.from_json_dict(_with(WAVE["func"], ("dim",), "1")),
                             ValidationError, "dim: '1' is not an integer"),
    "json exppoly exp [2.7]": (
        lambda: ExpPoly.from_json_dict(_with(WAVE["func"], ("terms", 0, "exp"), [2.7])),
        ValidationError, "terms: exp: 2.7 is not an integer"),
    "json atoms dim 1.5": (lambda: Ultradistribution.from_json_dict(_with(ATOMS, ("dim",), 1.5)),
                           ValidationError, "dim: 1.5 is not an integer"),
    "json atoms order [1.9]": (
        lambda: Ultradistribution.from_json_dict(_with(ATOMS, ("atoms", 0, "order"), [1.9])),
        ValidationError, "atoms: order: 1.9 is not an integer"),
    "json grassmann n 2.5": (lambda: GrassmannElement.from_json_dict(
        _with(GRASSMANN, ("n",), 2.5)), ValidationError, "n: 2.5 is not an integer"),
    "json grassmann gens [1.5]": (
        lambda: GrassmannElement.from_json_dict(_with(GRASSMANN, ("terms", 0, "gens"), [1.5])),
        ValidationError, "terms: gens: 1.5 is not an integer"),
    "json grassmann gens [0]": (
        lambda: GrassmannElement.from_json_dict(_with(GRASSMANN, ("terms", 0, "gens"), [0])),
        ValidationError, "terms: gens: generator 0 is outside 1..2"),
    "json grassmann gens [10^9]": (
        lambda: GrassmannElement.from_json_dict(_with(GRASSMANN, ("terms", 0, "gens"), [10**9])),
        ValidationError, "terms: gens: generator 1000000000 is outside 1..2"),
    "json symbol dof true": (lambda: PolySymbol.from_json_dict(
        _with(OPERATOR["symbol"], ("dof",), True)), ValidationError, "dof: True is not an integer"),
    "json symbol q [true]": (
        lambda: PolySymbol.from_json_dict(_with(OPERATOR["symbol"], ("terms", 0, "q"), [True])),
        ValidationError, "terms: q: True is not an integer"),
    "json symbol h true": (lambda: PolySymbol.from_json_dict(
        _with(OPERATOR["symbol"], ("terms", 0, "coeff", 0, "h"), True)),
        ValidationError, "terms: coeff: h: True is not an integer"),
    "json exppoly exp [false]": (
        lambda: ExpPoly.from_json_dict(_with(WAVE["func"], ("terms", 0, "exp"), [False])),
        ValidationError, "terms: exp: False is not an integer"),
    "json atoms dim true": (lambda: Ultradistribution.from_json_dict(
        _with(ATOMS, ("dim",), True)), ValidationError, "dim: True is not an integer"),
    "json grassmann gens [true, 2]": (
        lambda: GrassmannElement.from_json_dict(_with(GRASSMANN, ("terms", 0, "gens"), [True, 2])),
        ValidationError, "terms: gens: True is not an integer"),
    "json gens [1, 1]": (lambda: GrassmannElement.from_json_dict(
        {"n": 2, "sigma": 1, "terms": [{"gens": [1, 1], "re": "1"}]}),
        ValidationError, "terms: gens: generators must be nonnegative and strictly ascending"),
    "json gens [2, 1]": (lambda: GrassmannElement.from_json_dict(
        {"n": 2, "sigma": 1, "terms": [{"gens": [2, 1], "re": "1"}]}),
        ValidationError, "terms: gens: generators must be nonnegative and strictly ascending"),
}


def check_refusal(request, row):
    """The call of ``REFUSALS[row]`` raises its class, the class itself and not
    a subclass, with its exact message."""
    call, error, message = REFUSALS[row]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
    if error is ParseError:
        assert message.endswith(f" (at position {err.value.position})")


def rows_test(check, rows):
    """A test that runs ``check(request, row)`` on ``rows``: one case for each
    id when ``rows`` maps ids to rows, else each row in turn in one run."""
    if isinstance(rows, dict):
        @pytest.mark.parametrize("row", rows.values(), ids=rows)
        def test(request, row):
            check(request, row)
    else:
        def test(request):
            for row in rows:
                check(request, row)
    return test


def homed_tests(module: str, homes: dict, check) -> dict:
    """The tests of ``module`` that ``homes`` names, by name, each checking its rows."""
    return {home.split("::")[1]: rows_test(check, rows) for home, rows in homes.items()
            if home.startswith(f"{module}::")}


def homed_rows(homes: dict) -> set:
    return {row for rows in homes.values()
            for row in (rows.values() if isinstance(rows, dict) else rows)}


def _by_name(*rows) -> dict:
    return dict(zip(rows, rows))


#: A row that a test of another module checked before it joined this table is
#: checked by that test still, under its old name and id: "module::test" ->
#: its rows by their ids, or the rows a test without parameters checks in one
#: run.  A row may belong to two such tests; every other row is checked by
#: ``test_a_refusal_raises_its_class_and_message``.
HOMES = {
    "test_cli::test_integer_fields_refuse_booleans": {
        "PolySymbol-document0-path0-True": "json symbol dof true",
        "PolySymbol-document1-path1-value1": "json symbol q [true]",
        "PolySymbol-document2-path2-True": "json symbol h true",
        "ExpPoly-document3-path3-value3": "json exppoly exp [false]",
        "Ultradistribution-document4-path4-True": "json atoms dim true",
        "GrassmannElement-document5-path5-value5": "json grassmann gens [true, 2]"},
    "test_cli::test_integer_fields_refuse_what_int_would_change": {
        "PolySymbol-document0-path0-1.5": "json symbol dof 1.5",
        "PolySymbol-document1-path1-value1": "json symbol q [0.5]",
        "PolySymbol-document2-path2-value2": "json symbol q [[0]]",
        "PolySymbol-document3-path3-value3": "json symbol q ['a']",
        "PolySymbol-document4-path4-value4": "json symbol p ['1']",
        "PolySymbol-document5-path5-0.5": "json symbol h 0.5",
        "ExpPoly-document6-path6-1": "json exppoly dim '1'",
        "ExpPoly-document7-path7-value7": "json exppoly exp [2.7]",
        "Ultradistribution-document8-path8-1.5": "json atoms dim 1.5",
        "Ultradistribution-document9-path9-value9": "json atoms order [1.9]",
        "GrassmannElement-document10-path10-2.5": "json grassmann n 2.5",
        "GrassmannElement-document11-path11-value11": "json grassmann gens [1.5]",
        "GrassmannElement-document12-path12-value12": "json grassmann gens [0]",
        "GrassmannElement-document13-path13-value13": "json grassmann gens [10^9]"},
    "test_distributions::test_pair_dimension_mismatch": ("pair dims",),
    "test_grassmann::test_json_gens_must_strictly_ascend": {
        "gens0": "json gens [1, 1]", "gens1": "json gens [2, 1]"},
    "test_grassmann::test_mask_past_n_is_named_by_its_highest_generator": ("mask past n",),
    "test_grassmann::test_masks_must_be_integers": {
        "2.7": "grassmann mask 2.7", "3": "grassmann mask '3'", "True": "grassmann mask True n 2"},
    "test_grassmann::test_mismatches_rejected": ("grassmann sigmas", "grassmann sizes"),
    "test_grassmann::test_monomial_refuses_a_word_that_is_not_strictly_ascending": {
        "indices0": "monomial word (1, 0)", "indices1": "monomial word (0, 0)",
        "indices2": "monomial word (0, 2, 1)", "indices3": "monomial word (-1,)"},
    "test_grassmann::test_monomial_refuses_an_index_past_n_before_building_its_bit": {
        "10000000": "monomial index 10^7", "100000000": "monomial index 10^8",
        "1000000000000000000000000000000": "monomial index 10^30"},
    "test_interference::test_context_checks_name_the_first_failure": {
        "range-first": "context range first", "p-a": "context p-a", "a1": "context a1",
        "a2": "context a2", "observed": "context observed", "float-sum": "context float sum"},
    "test_interference::test_csv_malformed_probability": ("csv probability",),
    "test_interference::test_csv_non_numeric_cell": ("csv cell",),
    "test_interference::test_forward_rejects_negative_born_value": ("forward below zero",),
    "test_interference::test_forward_validates_magnitude_consistency": ("forward magnitudes",),
    "test_interference::test_invalid_tables_rejected": (
        "b1 row observed 6/5", "context observed sum", "context prior sum"),
    "test_interference::test_probabilities_outside_the_unit_interval_are_refused": {
        "amplitude-prior": "amplitude prior", "amplitude-conditional": "amplitude conditional",
        "theta-prior": "theta prior", "theta-conditional": "theta conditional", "sqrt": "sqrt -1"},
    "test_operators::test_compose_check_takes_h_from_the_wavefunction": (
        "compose_check positional cap",),
    "test_operators::test_mismatches_rejected": (
        "apply sigmas", "apply h", "apply dofs", "plane_wave h -1 of 1"),
    "test_operators::test_plane_wave_rejects_nonpositive_h_before_dividing": {
        "0": "plane_wave momentum 1 h 0", "-1": "plane_wave momentum 1 h -1"},
    "test_parsing::test_malformed_text_message_and_position": {
        "--unexpected end of input-1": "parse '-'", "q*--unexpected end of input-3": "parse 'q*-'",
        "---unexpected end of input-2": "parse '--'", "q+-unexpected end of input-2": "parse 'q+'",
        "*q-unexpected '*'-0": "parse '*q'", "q*-unexpected end of input-2": "parse 'q*'",
        "()-unexpected ')'-1": "parse '()'", "-)-unexpected ')'-1": "parse '-)'",
        "+-unexpected end of input-1": "parse '+'", "(q-expected ')'-2": "parse '(q'",
        "q^-2-exponent must be a nonnegative integer-2": "parse 'q^-2'",
        "q^-exponent must be a nonnegative integer-2": "parse 'q^'",
        "(q)(p)-unexpected trailing '('-3": "parse '(q)(p)'",
        "q p-unexpected trailing 'p'-2": "parse 'q p'", "1/0-zero denominator-2": "parse '1/0'",
        "3/-expected denominator-2": "parse '3/'"},
    "test_parsing::test_parse_dof_must_be_an_integer": {
        "2.7": "parse dof 2.7", "1.5": "parse dof 1.5", "True": "parse dof True",
        "2": "parse dof '2'"},
    "test_parsing::test_parse_grassmann_n_must_be_an_integer": {
        "2.7": "parse n 2.7", "True": "parse n True", "2": "parse n '2'"},
    "test_parsing::test_trailing_garbage_rejected": (
        "parse 'q + '", "parse 'q q'", "parse 'q + $'", "parse 'q^-2'", "parse '1/0'"),
    "test_parsing::test_variable_out_of_declared_range": ("parse q3 at dof 2",),
    "test_parsing::test_wrong_unit_rejected_with_position": (
        "parse unit i", "parse 'j*q' complex"),
    "test_public_surface::test_unknown_name_raises_attribute_error": ("unknown public name",),
    "test_scalars::test_as_fraction_reads_text_and_refuses_with_validation_errors": (
        "text '1/0'", "text 'x'", "text of 0.5", "json text '3/0'"),
    "test_scalars::test_constructors_refuse_bad_rational_text_with_validation_error": {
        "binarion": "binarion '1/0'", "phase-point": "phase point '1/0'",
        "plane-wave": "plane_wave momentum '1/0'", "operator-h": "operator h 'x'",
        "substitute-h": "substitute_h 'x'"},
    "test_scalars::test_cross_sigma_rejected": ("binarion sigmas +", "binarion sigmas *"),
    "test_scalars::test_invert_light_cone_rejected": ("invert light cone", "invert zero"),
    "test_scalars::test_malformed_input_raises_a_package_error": {
        "coordinate-kind": "coordinate kind x",
        "differentiate-variable": "differentiate variable x", "evaluate-h": "evaluate h -1 at 0",
        "formal-h": "from_poly_symbol formal h", "as-binarion": "charsum as_binarion",
        "growth-n-max": "growth n_max 0", "character-inf": "character of inf",
        "character-nan": "character of nan"},
    "test_scalars::test_polar_rejects_outside_positive_cone": (
        "polar light cone", "polar negative modulus", "polar complex"),
    "test_scalars::test_to_floats_refuses_a_value_too_large_for_a_float": {
        "binarion": "binarion floats", "charsum-cosh": "charsum cosh floats",
        "charsum-exponent": "charsum exponent floats", "charsum-product": "charsum product floats",
        "charsum-sum": "charsum sum floats"},
    "test_sparse::test_an_h_degree_is_read_before_its_sign_is_checked": ("HPoly degree -1",),
    "test_sparse::test_index_and_order_arguments_are_read_as_integers": _by_name(
        "coordinate 0.5", "symbol coordinate 0.5", "generator 1.5", "differentiate 0.5",
        "symbol differentiate 0.5", "derivative 0.5", "order (0.5,)", "symbol order (0.5,)",
        "atom order (0.5,)", "n_max 2.5", "variable x", "coordinate 2", "symbol coordinate -1",
        "generator 3", "derivative 1", "order (0, 1)", "atom order (0, 1)", "symbol order (0, 1)"),
    "test_sparse::test_public_constructors_refuse_with_their_exact_error":
        _by_name(*CONSTRUCTOR_REFUSALS),
    "test_sparse::test_sizes_and_h_degrees_must_be_integers": {
        **_by_name("dof 1.5", "dof True", "dim 2.7", "atoms dim 1.5", "n 3.9"),
        "h-degree True": "HPoly degree True", "h-degree '1'": "HPoly degree '1'",
        "h-degree 1.5": "HPoly degree 1.5"},
    "test_sparse::test_what_int_refuses_is_a_validation_error": _by_name(
        "h-degree 'x'", "n 'two'", "mask None", "h-degree inf", "dof nan"),
    "test_symbols::test_differentiate_index_out_of_range": ("differentiate index 1",),
    "test_symbols::test_evaluate_negative_h_rejected": ("evaluate h -1",),
    "test_symbols::test_mismatches_rejected": ("star sigmas", "star dofs"),
}


def refusal_tests(module: str) -> dict:
    """The tests of ``module`` that check rows of ``REFUSALS``, by name."""
    return homed_tests(module, HOMES, check_refusal)


test_a_refusal_raises_its_class_and_message = rows_test(
    check_refusal, _by_name(*(row for row in REFUSALS if row not in homed_rows(HOMES))))


def _table(module, name: str) -> ast.Dict:
    """The dict display assigned to ``name`` in ``module``'s source."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return next(node.value for node in tree.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == name)


def test_no_row_repeats_another():
    """A repeated key would hide a row; a repeated call, or a command line
    repeated on the same documents, would pin one refusal twice."""
    import test_cli  # not at the top: ``test_cli`` imports this module

    library = [_table(sys.modules[__name__], name) for name in ("CONSTRUCTOR_REFUSALS", "REFUSALS")]
    rows = [row for table in library for key, row in zip(table.keys, table.values)
            if key is not None]  # ``**`` splices have none
    assert len(rows) == len(REFUSALS)
    keys = [key.value for key in _table(test_cli, "CLI_REFUSALS").keys if key is not None]
    calls = [ast.unparse(row.elts[0]) for row in rows]
    lines = [repr(row[:2]) for row in test_cli.CLI_REFUSALS.values()]
    for rows in (keys, calls, lines):
        assert len(set(rows)) == len(rows)


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
