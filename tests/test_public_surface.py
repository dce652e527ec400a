"""The package's public names and the modules each entry point loads."""

import importlib

import pytest
from conftest import fresh_modules
from test_refusals import refusal_tests

import hypermoyal

globals().update(refusal_tests(__name__))  # the tests named in ``test_refusals.HOMES``

PUBLIC_NAMES = [
    "Amplitude2", "Binarion", "CharSum", "ComposeCheck", "DEFAULT_DEGREE_CAP",
    "DegreeCapError", "DichotomousContext", "DimensionMismatchError", "ExpPoly",
    "FLOAT_TOLERANCE", "GClass", "GrassmannElement", "HPolar", "HPoly", "HypermoyalError",
    "InterferenceReport", "InvalidStateError", "NotRepresentableError", "Operator",
    "OutcomeReport", "Parity", "ParseError", "PhasePoint", "PolySymbol", "Rational",
    "Regime", "Sigma", "SignatureMismatchError", "ThetaRange", "Ultradistribution",
    "ValidationError", "WaveFunction", "ZeroDivisorError", "annihilator_witness",
    "as_sigma", "character", "classify", "commutator", "compose_check",
    "contexts_from_csv", "forward", "generators", "inverse_fourier_symbol",
    "moyal_bracket", "paley_wiener_growth", "parity", "parse_binarion", "parse_grassmann",
    "parse_symbol", "plane_wave_eigenvalue", "poisson_bracket", "polar", "run_selftest",
    "scaled_bracket", "star", "star_distributional", "supercommutator",
    "symbol_from_distribution", "theta_range",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 59
    assert hypermoyal.__all__ == PUBLIC_NAMES


def test_each_name_is_its_defining_module_attribute():
    for module, names in hypermoyal._EXPORTS.items():
        owner = importlib.import_module(f"hypermoyal.{module}")
        for name in names:
            value = getattr(hypermoyal, name)
            assert value is getattr(owner, name), name
            if getattr(value, "__module__", "").startswith("hypermoyal"):
                assert value.__module__ == owner.__name__, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from hypermoyal import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) | {"__all__", "__version__"} <= set(dir(hypermoyal))


def test_submodules_stay_reachable():
    from hypermoyal import distributions

    assert distributions.star_distributional is hypermoyal.star_distributional
    # in a fresh interpreter, so that nothing has imported the submodule yet
    code = "import hypermoyal\nassert hypermoyal.grassmann.parity is hypermoyal.parity"
    assert "hypermoyal.grassmann" in fresh_modules(code)


def test_package_import_loads_no_submodule():
    loaded = fresh_modules("import hypermoyal")
    assert {m for m in loaded if m.startswith("hypermoyal")} == {"hypermoyal"}


@pytest.mark.parametrize("argv, loads, skips", [
    (["star", "p", "q"], "symbols",
     ("interference", "selftest", "operators", "distributions", "grassmann")),
    (["super", "t1", "t2"], "grassmann", ("interference", "operators", "selftest")),
], ids=["star", "super"])
def test_a_command_loads_only_its_own_modules(argv, loads, skips):
    loaded = fresh_modules(f"from hypermoyal.cli import main\nmain({argv!r})")
    assert f"hypermoyal.{loads}" in loaded
    for module in skips:
        assert f"hypermoyal.{module}" not in loaded

