"""Settings, fixtures and helpers shared by the whole test suite.

The property tests run one fixed set of examples per test: Hypothesis seeds
each test from a hash of its own code, keeps no example database and sets
no deadline, so a run does not depend on earlier runs or on the host's
speed.  Python's int-to-text digit limit is pinned at its default, 4,300, so
the tests of numbers too long to write do not depend on
``PYTHONINTMAXSTRDIGITS``.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import settings

import hypermoyal
from hypermoyal import ExpPoly, WaveFunction, distributions, operators, symbols
from hypermoyal.cli import main

sys.set_int_max_str_digits(4300)

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def run_fresh(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports the ``hypermoyal``
    under test, its output captured as text."""
    src = os.path.dirname(os.path.dirname(hypermoyal.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env={**os.environ, "PYTHONPATH": src})


def fresh_modules(code: str, *flags: str) -> set:
    """The modules a fresh interpreter started with ``flags`` holds after
    running ``code``, which exits cleanly and writes nothing to stderr."""
    result = run_fresh(*flags, "-c", f"import sys\n{code}\nprint(' '.join(sys.modules))")
    assert (result.returncode, result.stderr) == (0, "")
    return set(result.stdout.splitlines()[-1].split())


def _quadratic_wavefunction(sigma, h, momentum=Fraction(1, 2)):
    """(1 + q)^2 times a plane wave."""
    base = ExpPoly.one(1, sigma) + ExpPoly.coordinate(0, 1, sigma)
    return WaveFunction(base * base * WaveFunction.plane_wave(momentum, h, sigma).func, h)


@pytest.fixture(scope="session")
def full_selftest(tmp_path_factory) -> list:
    """Criterion 10's two ``selftest --seed 20260808`` runs, the suite's one
    full selftest, from cold row memos, then warm: per run its exit code, its
    output bytes and each row memo's ``cache_info()`` after it."""
    memos = (symbols._structure_constants, distributions._twist_row, distributions._axis_row,
             operators._derivative_row)
    for memo in memos:
        memo.cache_clear()
    runs = []
    for name in ("selftest-a.json", "selftest-b.json"):
        out = tmp_path_factory.mktemp("selftest") / name
        code = main(["selftest", "--seed", "20260808", "--out", str(out)])
        runs.append((code, out.read_bytes(), {memo: memo.cache_info() for memo in memos}))
    return runs
