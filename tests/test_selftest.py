"""A planted fault in the oracle of each randomized selftest check makes that
check report failures, and ``selftest`` exit 1: a check that never counts a
failure is caught here."""

import random

import pytest

from hypermoyal import distributions, grassmann, operators, selftest, symbols
from hypermoyal.cli import main


def _plus_one(original):
    return lambda *args, **kwargs: original(*args, **kwargs) + 1


def _always_false(original):
    return lambda *args, **kwargs: False


def _extra_problem(original):
    return lambda rng, sigma: original(rng, sigma) + ["planted"]


#: check name -> (owner of the oracle, oracle name, fault built from the oracle)
FAULTS = {
    "classical_limit": (symbols, "poisson_bracket", _plus_one),
    "associativity": (symbols, "star", _plus_one),
    "composition": (operators, "compose_check", _always_false),
    "two_path": (distributions, "star_distributional", _plus_one),
    "fourier_identities": (distributions.Ultradistribution, "fourier", _plus_one),
    "eigenrelation": (operators, "plane_wave_eigenvalue", _plus_one),
    "interference": (selftest, "_random_round_trip", _extra_problem),
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
