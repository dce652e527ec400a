"""Exact symbolic calculus for phase-space quantization over two scalar rings.

One engine, two rings: the complex numbers (``sigma = -1``) and the
split-complex "hyperbolic" numbers (``sigma = +1``).  On top of the exact
binarion arithmetic the package provides polynomial phase-space symbols
with a terminating star product, point-supported distributions with a
closed-form Fourier calculus, pseudo-differential operators acting on
exponential-polynomial wavefunctions, the cos/cosh interference analysis of
probability tables, and finite Grassmann algebras over either scalar ring.

The classical limit is handled exactly: the deformation parameter ``h``
stays formal inside the symbol algebra, so "h -> 0" is constant-term
extraction and the correspondence with the Poisson bracket is an identity
of rational numbers, not a numerical approximation.
"""

from .errors import (
    DegreeCapError,
    DimensionMismatchError,
    HypermoyalError,
    InvalidStateError,
    NotRepresentableError,
    ParseError,
    SignatureMismatchError,
    ValidationError,
    ZeroDivisorError,
)
from .scalars import (
    FLOAT_TOLERANCE,
    Binarion,
    GClass,
    HPolar,
    Rational,
    Sigma,
    as_sigma,
    character,
    polar,
)
from .symbols import (
    DEFAULT_DEGREE_CAP,
    HPoly,
    PhasePoint,
    PolySymbol,
    moyal_bracket,
    poisson_bracket,
    scaled_bracket,
    star,
)
from .distributions import (
    CharSum,
    ExpPoly,
    Ultradistribution,
    inverse_fourier_symbol,
    paley_wiener_growth,
    star_distributional,
    symbol_from_distribution,
)
from .operators import (
    ComposeCheck,
    Operator,
    WaveFunction,
    commutator,
    compose_check,
    plane_wave_eigenvalue,
)
from .interference import (
    Amplitude2,
    DichotomousContext,
    InterferenceReport,
    OutcomeReport,
    Regime,
    ThetaRange,
    classify,
    contexts_from_csv,
    forward,
    theta_range,
)
from .grassmann import (
    GrassmannElement,
    Parity,
    annihilator_witness,
    generators,
    parity,
    supercommutator,
)
from .parsing import parse_binarion, parse_grassmann, parse_symbol
from .selftest import run_selftest

__version__ = "0.1.0"

__all__ = [
    "Amplitude2",
    "Binarion",
    "CharSum",
    "ComposeCheck",
    "DEFAULT_DEGREE_CAP",
    "DegreeCapError",
    "DichotomousContext",
    "DimensionMismatchError",
    "ExpPoly",
    "FLOAT_TOLERANCE",
    "GClass",
    "GrassmannElement",
    "HPolar",
    "HPoly",
    "HypermoyalError",
    "InterferenceReport",
    "InvalidStateError",
    "NotRepresentableError",
    "Operator",
    "OutcomeReport",
    "Parity",
    "ParseError",
    "PhasePoint",
    "PolySymbol",
    "Rational",
    "Regime",
    "Sigma",
    "SignatureMismatchError",
    "ThetaRange",
    "Ultradistribution",
    "ValidationError",
    "WaveFunction",
    "ZeroDivisorError",
    "annihilator_witness",
    "as_sigma",
    "character",
    "classify",
    "commutator",
    "compose_check",
    "contexts_from_csv",
    "forward",
    "generators",
    "inverse_fourier_symbol",
    "moyal_bracket",
    "paley_wiener_growth",
    "parity",
    "parse_binarion",
    "parse_grassmann",
    "parse_symbol",
    "plane_wave_eigenvalue",
    "poisson_bracket",
    "polar",
    "run_selftest",
    "scaled_bracket",
    "star",
    "star_distributional",
    "supercommutator",
    "symbol_from_distribution",
    "theta_range",
]
