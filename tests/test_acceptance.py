"""Acceptance suite: every verification criterion with its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  All checks are exact rational identities except the
interference angles, which carry the package tolerance of 1e-12; the
randomized case counts and time budgets are pinned here.
"""

import json
import random
import time

from hypermoyal import Binarion, HPoly, PolySymbol, Sigma, moyal_bracket
from hypermoyal.selftest import (
    check_associativity,
    check_classical_limit,
    check_commutation,
    check_composition,
    check_eigenrelation,
    check_fourier_identities,
    check_grassmann,
    check_interference,
    check_two_path,
)

SEED = 20260808


def _report(cid, name, entry, elapsed, budget):
    status = "PASS" if entry["passed"] and elapsed < budget else "FAIL"
    print(
        f"[{status}] criterion {cid}: {name} "
        f"({entry['cases']} cases, {entry['failures']} failures, {elapsed:.2f}s)"
    )
    assert entry["passed"], f"criterion {cid} failed: {entry}"
    assert elapsed < budget, f"criterion {cid} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_canonical_commutation():
    start = time.monotonic()
    entry = check_commutation()
    elapsed = time.monotonic() - start
    # exact constants, pinned independently of the checker
    for sigma in (Sigma.HYPERBOLIC, Sigma.COMPLEX):
        q = PolySymbol.coordinate("q", 0, 1, sigma)
        p = PolySymbol.coordinate("p", 0, 1, sigma)
        expected = PolySymbol.constant(
            HPoly.h_power(1, sigma, Binarion(0, -sigma.value, sigma)), 1, sigma
        )
        assert moyal_bracket(q, p) == expected
    _report(1, "moyal_bracket(q, p) = -sigma*u*h, both signatures", entry, elapsed, 1.0)


def test_criterion_2_classical_limit_exact():
    rng = random.Random(SEED + 2)
    start = time.monotonic()
    entry = check_classical_limit(rng, cases=200)  # 200 per signature
    elapsed = time.monotonic() - start
    assert entry["cases"] == 400
    _report(2, "classical limit equals Poisson bracket exactly", entry, elapsed, 30.0)


def test_criterion_3_star_associativity():
    rng = random.Random(SEED + 3)
    start = time.monotonic()
    entry = check_associativity(rng, cases=200)  # 200 per signature
    elapsed = time.monotonic() - start
    assert entry["cases"] == 400
    _report(3, "star associativity on random triples", entry, elapsed, 60.0)


def test_criterion_4_operator_homomorphism():
    rng = random.Random(SEED + 4)
    start = time.monotonic()
    entry = check_composition(rng, cases=200)  # 200 per signature, h in {1, 1/3, 7/2}
    elapsed = time.monotonic() - start
    assert entry["cases"] == 400
    _report(4, "operator composition matches star symbols", entry, elapsed, 60.0)


def test_criterion_5_two_path_star_equality():
    rng = random.Random(SEED + 5)
    start = time.monotonic()
    entry = check_two_path(rng, cases=50)  # 100 pairs across both signatures
    elapsed = time.monotonic() - start
    assert entry["cases"] == 100
    _report(5, "differential and distributional stars agree", entry, elapsed, 60.0)


def test_criterion_6_fourier_identities():
    rng = random.Random(SEED + 6)
    start = time.monotonic()
    entry = check_fourier_identities(rng, cases=50)
    elapsed = time.monotonic() - start
    _report(6, "transform identities and delta-derivative images", entry, elapsed, 60.0)


def test_criterion_7_plane_wave_eigenrelation():
    rng = random.Random(SEED + 7)
    start = time.monotonic()
    entry = check_eigenrelation(rng, cases=50)  # 100 symbols across signatures
    elapsed = time.monotonic() - start
    assert entry["cases"] == 100
    _report(7, "plane-wave eigenrelation apply(a, e) = a(q, p0)*e", entry, elapsed, 60.0)


def test_criterion_8_interference_round_trip():
    rng = random.Random(SEED + 8)
    start = time.monotonic()
    entry = check_interference(rng, cases=500)  # 500 per signature + worked tables
    elapsed = time.monotonic() - start
    assert entry["cases"] == 1003
    _report(8, "interference round trips, bounds, worked tables", entry, elapsed, 60.0)


def test_criterion_9_grassmann_claims():
    rng = random.Random(SEED + 9)
    start = time.monotonic()
    entry = check_grassmann(rng, cases=100)
    elapsed = time.monotonic() - start
    _report(9, "supercommutativity and annihilator witnesses n=1..8", entry, elapsed, 60.0)


def test_criterion_10_selftest_determinism(full_selftest, capsys):
    # the suite's one full selftest (conftest.py), which the memo contract reads too
    (code1, first, _), (code2, second, _) = full_selftest
    identical = first == second
    report = json.loads(first)
    status = "PASS" if (code1 == 0 and code2 == 0 and identical) else "FAIL"
    with capsys.disabled():
        print(f"\n[{status}] criterion 10: selftest --seed S is byte-stable "
              f"({len(first)} bytes)")
    assert code1 == 0 and code2 == 0
    assert identical
    assert report["all_passed"] is True
