"""A planted fault in the oracle of each randomized selftest check makes that
check report failures, and ``selftest`` exit 1: a check that never counts a
failure is caught here.  The values the checks draw are pinned too, since
the report, which holds only counts, cannot show a changed draw."""

import hashlib
import random

import pytest

from hypermoyal import distributions, grassmann, interference, operators, selftest, symbols
from hypermoyal.cli import main


def _plus_one(original):
    return lambda *args, **kwargs: original(*args, **kwargs) + 1


def _always_false(original):
    return lambda *args, **kwargs: False


def _theta_off(original):
    """``forward`` whose first outcome's angle is off by 1e-9."""

    def planted(*args):
        context, report = original(*args)
        first, *rest = report.outcomes
        first = interference.OutcomeReport(*first._fields()[:-1], first.theta + 1e-9)
        return context, interference.InterferenceReport((first, *rest),
                                                         report.normalization_residual)

    return planted


#: check name -> (owner of the oracle, oracle name, fault built from the oracle)
FAULTS = {
    "classical_limit": (symbols, "poisson_bracket", _plus_one),
    "associativity": (symbols, "star", _plus_one),
    "composition": (operators, "compose_check", _always_false),
    "two_path": (distributions, "star_distributional", _plus_one),
    "fourier_identities": (distributions.Ultradistribution, "fourier", _plus_one),
    "eigenrelation": (operators, "plane_wave_eigenvalue", _plus_one),
    "interference": (interference, "forward", _theta_off),
    "grassmann": (grassmann, "supercommutator", _plus_one),
}


def _plant(monkeypatch, name):
    owner, oracle, fault = FAULTS[name]
    monkeypatch.setattr(owner, oracle, fault(getattr(owner, oracle)))


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_a_planted_oracle_fault_fails_its_check(monkeypatch, name):
    _plant(monkeypatch, name)
    entry = getattr(selftest, f"check_{name}")(random.Random(0), 5)
    assert entry["failures"] > 0
    assert entry["passed"] is False


def test_a_negated_product_sign_fails_criterion_9(monkeypatch):
    """Negating every product sign keeps ``a*b - b*a`` and associativity
    intact; the ``2*b_odd*a_odd`` term of the supercommutator, whose factor 2
    enters as a constant, does not."""
    merge_sign = grassmann._merge_sign
    monkeypatch.setattr(grassmann, "_merge_sign", lambda a, b: -merge_sign(a, b))
    entry = selftest.check_grassmann(random.Random(5), 100)
    assert entry["failures"] > 0
    assert entry["passed"] is False


def test_selftest_with_a_planted_fault_exits_1(monkeypatch, capsys):
    _plant(monkeypatch, "associativity")
    code = main(["selftest", "--fast", "--format", "text"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[2].startswith("[FAIL]  3. star product associativity (")
    assert lines[-1] == "FAILURES PRESENT"


def test_a_failing_compose_check_object_fails_criterion_4(monkeypatch):
    """Criteria count a failure by truth value: a falsy ``ComposeCheck``, not
    only the literal ``False``, is one."""
    compose_check = operators.compose_check

    def failing(a, b, phi):
        check = compose_check(a, b, phi)
        return operators.ComposeCheck(False, check.lhs, check.rhs, check.diff)

    monkeypatch.setattr(operators, "compose_check", failing)
    entry = selftest.check_composition(random.Random(0), 5)
    assert entry["failures"] == entry["cases"] == 10
    assert entry["passed"] is False


@pytest.mark.parametrize("seed, count, digest", [
    (0, 3135, "d090c8b6d1059b3382c6013e70926141f2ecdca2d9982fe0f659fc32ba54b2ba"),
    (42, 3228, "c95cf9590f4c08c9c85b876b9a3db57179288d3d07a9638e66d6c15004e7b3c8"),
], ids=("seed-0", "seed-42"))
def test_the_selftest_draws_the_same_cases(monkeypatch, seed, count, digest):
    """The report holds only counts, so a changed draw shows here, not in its
    md5: the text of every value the six value generators return, nested
    calls included, during one pass of ``run_selftest(seed, fast=True)`` is
    pinned by its count and digest.  The second pass repeats the same draws,
    which criterion 10 checks."""
    texts = []

    def recording(name, generator):
        def draw(*args, **kwargs):
            value = generator(*args, **kwargs)
            texts.append(f"{name} {value}")
            return value

        return draw

    for name in ("_random_fraction", "_random_binarion", "_random_symbol",
                 "_random_distribution", "_random_wavefunction", "_random_grassmann"):
        monkeypatch.setattr(selftest, name, recording(name, getattr(selftest, name)))
    selftest._payload(seed, selftest._sizes(fast=True))
    assert len(texts) == count
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == digest
