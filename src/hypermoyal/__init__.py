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

Modules load on first use, so ``hypermoyal star`` loads only ``errors``,
``scalars``, ``sparse``, ``symbols`` and ``parsing``: each public name below
is imported from the submodule that defines it the first time it is looked up.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "errors": (
        "DegreeCapError", "DimensionMismatchError", "HypermoyalError",
        "InvalidStateError", "NotRepresentableError", "ParseError",
        "SignatureMismatchError", "ValidationError", "ZeroDivisorError",
    ),
    "scalars": (
        "FLOAT_TOLERANCE", "Binarion", "GClass", "HPolar", "Rational", "Sigma",
        "as_sigma", "character", "polar",
    ),
    "symbols": (
        "DEFAULT_DEGREE_CAP", "HPoly", "PhasePoint", "PolySymbol", "moyal_bracket",
        "poisson_bracket", "scaled_bracket", "star",
    ),
    "distributions": (
        "CharSum", "ExpPoly", "Ultradistribution", "inverse_fourier_symbol",
        "paley_wiener_growth", "star_distributional", "symbol_from_distribution",
    ),
    "operators": (
        "ComposeCheck", "Operator", "WaveFunction", "commutator", "compose_check",
        "plane_wave_eigenvalue",
    ),
    "interference": (
        "Amplitude2", "DichotomousContext", "InterferenceReport", "OutcomeReport",
        "Regime", "ThetaRange", "classify", "contexts_from_csv", "forward",
        "theta_range",
    ),
    "grassmann": (
        "GrassmannElement", "Parity", "annihilator_witness", "generators", "parity",
        "supercommutator",
    ),
    "parsing": ("parse_binarion", "parse_grassmann", "parse_symbol"),
    "selftest": ("run_selftest",),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:  # ``hypermoyal.symbols`` works without importing it first
        return import_module(f".{name}", __name__)
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
