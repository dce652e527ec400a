"""The package's public names and the modules each entry point loads."""

import importlib
import os
import subprocess
import sys

import pytest

import hypermoyal

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


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hypermoyal.no_such_name  # noqa: B018


def test_submodules_stay_reachable():
    from hypermoyal import distributions

    assert distributions.star_distributional is hypermoyal.star_distributional
    # in a fresh interpreter, so that nothing has imported the submodule yet
    loaded = _loaded_after(
        "import hypermoyal\nassert hypermoyal.grassmann.parity is hypermoyal.parity"
    )
    assert "hypermoyal.grassmann" in loaded


def _loaded_after(code: str) -> set:
    """The ``hypermoyal`` modules a fresh interpreter holds after running ``code``."""
    src = os.path.dirname(os.path.dirname(hypermoyal.__file__))
    script = (
        "import sys\n" + code + "\n"
        "print(' '.join(m for m in sys.modules if m.startswith('hypermoyal')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def test_package_import_loads_no_submodule():
    assert _loaded_after("import hypermoyal") == {"hypermoyal"}


def test_star_command_loads_only_the_symbol_modules():
    loaded = _loaded_after("from hypermoyal.cli import main\nmain(['star', 'p', 'q'])")
    assert "hypermoyal.symbols" in loaded
    for module in ("interference", "selftest", "operators", "distributions", "grassmann"):
        assert f"hypermoyal.{module}" not in loaded


def test_super_command_loads_no_operator_modules():
    loaded = _loaded_after("from hypermoyal.cli import main\nmain(['super', 't1', 't2'])")
    assert "hypermoyal.grassmann" in loaded
    for module in ("interference", "operators", "selftest"):
        assert f"hypermoyal.{module}" not in loaded
