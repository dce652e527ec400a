"""Deterministic self-verification suite.

Each check regenerates its random cases from a seeded generator, so a fixed
seed gives a byte-identical report; the report carries no timestamps.  The
final check re-runs the entire generation with the same seed and compares
the canonical serializations, making determinism itself part of the suite.

A randomized check is one case function run by :func:`_cases`, which calls
it once per signature and case index and hands it the generator: a case
receives the rng, draws its values from it and returns one truth value per
identity it checked.  Fixed tables (point-mass Fourier images, the worked
interference tables, Grassmann witnesses) draw nothing, run outside it and
append their truth values to the same list.  :func:`_entry` alone turns a
criterion's truth values into its report: ``cases``, ``failures``, ``passed``.

The checks are exact (rational arithmetic) except where a quantity is
intrinsically transcendental (interference angles), which use the package
float tolerance of 1e-12.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from . import distributions as dist
from . import grassmann as gr
from . import interference as intf
from . import operators as ops
from . import symbols as sym
from .scalars import Binarion, Sigma
from .sparse import summed

SIGMAS = (Sigma.HYPERBOLIC, Sigma.COMPLEX)

#: Case counts for the full suite; ``fast`` divides them by 10 (minimum 5).
FULL_SIZES = {
    "classical_limit": 200,
    "associativity": 200,
    "composition": 200,
    "two_path": 100,
    "fourier": 50,
    "eigenrelation": 100,
    "interference": 500,
    "grassmann": 100,
}


def _sizes(fast: bool) -> dict:
    if not fast:
        return dict(FULL_SIZES)
    return {k: max(5, v // 10) for k, v in FULL_SIZES.items()}


# -- random value generators ---------------------------------------------------


def _random_fraction(rng) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _random_binarion(rng, sigma: Sigma) -> Binarion:
    while True:
        b = Binarion(_random_fraction(rng), _random_fraction(rng), sigma)
        if not b.is_zero():
            return b


def _random_symbol(rng, k: int, sigma: Sigma, max_degree: int, max_terms: int = 3):
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, max_degree)
        alpha = [0] * k
        beta = [0] * k
        for _ in range(degree):
            slot = rng.randrange(2 * k)
            if slot < k:
                alpha[slot] += 1
            else:
                beta[slot - k] += 1
        coeff = sym.HPoly.from_scalar(_random_binarion(rng, sigma))
        pairs.append(((tuple(alpha), tuple(beta)), coeff))
    return sym.PolySymbol(k, sigma, summed(pairs))


def _random_distribution(rng, dim: int, sigma: Sigma):
    atoms = []
    for _ in range(rng.randint(1, 6)):
        loc = tuple(_random_fraction(rng) for _ in range(dim))
        order = tuple(rng.randint(0, 4) for _ in range(dim))
        atoms.append((loc, order, _random_binarion(rng, sigma)))
    return dist.Ultradistribution(dim, sigma, atoms)


def _random_wavefunction(rng, k: int, sigma: Sigma, h: Fraction) -> ops.WaveFunction:
    momentum = tuple(_random_fraction(rng) for _ in range(k))
    wave = ops.WaveFunction.plane_wave(momentum, h, sigma)
    poly = dist.ExpPoly.constant(_random_binarion(rng, sigma), k, sigma)
    for _ in range(rng.randint(0, 2)):
        index = rng.randrange(k)
        poly = poly * (
            dist.ExpPoly.coordinate(index, k, sigma)
            + dist.ExpPoly.constant(_random_fraction(rng), k, sigma)
        )
    return ops.WaveFunction(poly * wave.func, h)


def _entry(cid: int, name: str, oks: list, detail=None) -> dict:
    """A value fails by its truth, so a failing ``ComposeCheck`` counts."""
    failures = sum(not ok for ok in oks)
    entry = {
        "id": cid,
        "name": name,
        "cases": len(oks),
        "failures": failures,
        "passed": failures == 0,
    }
    if detail is not None:
        entry["detail"] = detail
    return entry


def _cases(rng, cases: int, case) -> list:
    """The truth values that ``case(rng, sigma, i)`` returns, one per checked
    identity, for each sigma in :data:`SIGMAS` and each ``i < cases``; the
    only path from the generator to a case."""
    return [ok for sigma in SIGMAS for i in range(cases) for ok in case(rng, sigma, i)]


# -- individual checks ------------------------------------------------------------


def check_commutation() -> dict:
    """Star commutator of q and p is the canonical constant, both signatures."""
    oks = []
    detail = {}
    for sigma in SIGMAS:
        q = sym.PolySymbol.coordinate("q", 0, 1, sigma)
        p = sym.PolySymbol.coordinate("p", 0, 1, sigma)
        got = sym.moyal_bracket(q, p)
        minus_sigma_u = Binarion(0, -sigma.value, sigma)
        expected = sym.PolySymbol.constant(
            sym.HPoly.h_power(1, sigma, minus_sigma_u), 1, sigma
        )
        oks.append(got == expected)
        detail[f"sigma={sigma}"] = got.to_text()
    return _entry(1, "canonical commutation relation", oks, detail)


def check_classical_limit(rng, cases: int) -> dict:
    """Constant-h term of (u/h)*Moyal bracket equals the Poisson bracket."""

    def case(rng, sigma, i):
        a = _random_symbol(rng, 1 + i % 2, sigma, max_degree=5)
        b = _random_symbol(rng, 1 + i % 2, sigma, max_degree=5)
        return (sym.scaled_bracket(a, b).h_constant_part() == sym.poisson_bracket(a, b),)

    return _entry(2, "classical limit is the Poisson bracket", _cases(rng, cases, case))


def check_associativity(rng, cases: int) -> dict:
    def case(rng, sigma, i):
        a, b, c = (_random_symbol(rng, 1 + i % 2, sigma, max_degree=4) for _ in range(3))
        return (sym.star(sym.star(a, b), c) == sym.star(a, sym.star(b, c)),)

    return _entry(3, "star product associativity", _cases(rng, cases, case))


def check_composition(rng, cases: int) -> dict:
    """Operator-side oracle: apply(star(a, b)) == apply(a) after apply(b)."""
    h_values = (Fraction(1), Fraction(1, 3), Fraction(7, 2))

    def case(rng, sigma, i):
        k = 1 + i % 2
        a = _random_symbol(rng, k, sigma, max_degree=4, max_terms=2)
        b = _random_symbol(rng, k, sigma, max_degree=4, max_terms=2)
        phi = _random_wavefunction(rng, k, sigma, h_values[i % len(h_values)])
        return (ops.compose_check(a, b, phi),)

    return _entry(4, "operator-symbol composition homomorphism", _cases(rng, cases, case))


def check_two_path(rng, cases: int) -> dict:
    """Differential and distributional star products agree exactly."""

    def case(rng, sigma, i):
        a = _random_symbol(rng, 1 + i % 2, sigma, max_degree=4)
        b = _random_symbol(rng, 1 + i % 2, sigma, max_degree=4)
        h = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        via_series = dist.ExpPoly.from_poly_symbol(sym.star(a, b).substitute_h(h))
        return (via_series == dist.star_distributional(a, b, h),)

    return _entry(5, "two independent star-product routes agree", _cases(rng, cases, case))


def check_fourier_identities(rng, cases: int) -> dict:
    """Transform identities for derivatives and monomial multiplication."""

    def case(rng, sigma, i):
        u = Binarion.unit(sigma)
        lam = _random_distribution(rng, 1, sigma)
        n = rng.randint(1, 4)
        x_n = dist.ExpPoly.monomial((n,), (-u) ** n, sigma)
        return (
            lam.fourier().differentiate_multi((n,)) == (u**n) * lam.mul_monomial((n,)).fourier(),
            lam.derivative_multi((n,)).fourier() == x_n * lam.fourier(),
        )

    oks = _cases(rng, cases, case)
    # closed form for derivatives of the point mass at the origin
    oks += [
        dist.Ultradistribution.delta((0,), sigma).derivative_multi((n,)).fourier()
        == dist.ExpPoly.monomial((n,), (-Binarion.unit(sigma)) ** n, sigma)
        for sigma in SIGMAS
        for n in range(7)
    ]
    return _entry(6, "Fourier transform identities on point atoms", oks)


def check_eigenrelation(rng, cases: int) -> dict:
    """Plane waves are exact eigenfunctions: apply(a, e) = a(q, p0) * e."""

    def case(rng, sigma, i):
        k = 1 + i % 2
        h = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        a = _random_symbol(rng, k, sigma, max_degree=4)
        momentum = tuple(_random_fraction(rng) for _ in range(k))
        wave = ops.WaveFunction.plane_wave(momentum, h, sigma)
        got = ops.Operator(a, h).apply(wave)
        return (got.func == ops.plane_wave_eigenvalue(a, momentum, h) * wave.func,)

    return _entry(7, "plane-wave eigenrelation", _cases(rng, cases, case))


def _random_round_trip(rng, sigma: Sigma):
    """One forward/classify round trip; returns failure strings (empty = ok)."""
    problems = []
    # doubly stochastic conditionals keep both outcomes coupled symmetrically
    c = Fraction(rng.randint(1, 9), 10)
    p_a = (Fraction(1, 2), Fraction(1, 2))
    cond = ((c, 1 - c), (1 - c, c))
    base = rng.uniform(-2.0, 2.0)
    if sigma is Sigma.COMPLEX:
        delta = rng.uniform(0.1, math.pi - 0.1)
        expected_regime, expected_sign = intf.Regime.TRIGONOMETRIC, None
        phase2, signs = base + (math.pi - delta), ((1, 1), (1, 1))
    else:
        ranges = intf.theta_range(p_a, cond)
        if not ranges[0].admissible or ranges[0].theta_max < 0.15:
            return problems  # too close to the zero-interference boundary
        delta = rng.uniform(0.1, min(2.0, 0.95 * ranges[0].theta_max))
        expected_regime, expected_sign = intf.Regime.HYPERBOLIC, rng.choice((1, -1))
        phase2 = base + delta
        signs = ((1, 1), (1, -1)) if expected_sign > 0 else ((1, -1), (1, 1))
    amp1, amp2 = (
        intf.Amplitude2.from_probabilities(p_a, cond[j], (phase, base), sigma, signs=signs[j])
        for j, phase in enumerate((base + delta, phase2))
    )
    try:
        _, report = intf.forward(amp1, amp2)
    except (intf.ValidationError, intf.InvalidStateError) as exc:  # pragma: no cover
        problems.append(f"forward rejected a valid configuration: {exc}")
        return problems
    outcome = report.outcomes[0]
    tol = 1e-12
    if outcome.regime is not expected_regime:
        problems.append(f"regime {outcome.regime} != {expected_regime}")
    elif abs(outcome.theta - delta) > tol:
        problems.append(f"theta {outcome.theta} != {delta}")
    if expected_sign is not None and outcome.sign != expected_sign:
        problems.append(f"sign {outcome.sign} != {expected_sign}")
    lam = outcome.lam
    if sigma is Sigma.COMPLEX and abs(lam) > 1 + 1e-12:
        problems.append(f"complex |lambda| = {abs(lam)} > 1")
    if sigma is Sigma.HYPERBOLIC and abs(lam) < 1 - 1e-12:
        problems.append(f"hyperbolic |lambda| = {abs(lam)} < 1")
    if abs(report.normalization_residual) > 1e-12:
        problems.append(f"residual {report.normalization_residual}")
    return problems


def check_interference(rng, cases: int) -> dict:
    """Forward/inverse round trips plus the three exact worked tables."""
    oks = _cases(rng, cases, lambda rng, sigma, i: (not _random_round_trip(rng, sigma),))
    # frozen exact tables: lambda = 0, 4/5 (trigonometric) and 3/2 (hyperbolic)
    half, trig, hyp = Fraction(1, 2), intf.Regime.TRIGONOMETRIC, intf.Regime.HYPERBOLIC
    worked = [
        ((half, half, half, half), Fraction(0), trig),
        ((half, half, half, Fraction(9, 10)), Fraction(4, 5), trig),
        ((half, Fraction(9, 10), Fraction(1, 10), Fraction(19, 20)), Fraction(3, 2), hyp),
    ]
    for row, lam, regime in worked:
        outcome = intf.classify(intf.DichotomousContext.from_b1_row(*row)).outcomes[0]
        oks.append(outcome.lam == lam and outcome.regime is regime)
    return _entry(8, "interference round trips and worked tables", oks)


def check_grassmann(rng, cases: int) -> dict:
    """Supercommutativity and the odd-part annihilator witness."""

    def case(rng, sigma, i):
        n = rng.randint(1, 6)
        a, b, c = (_random_grassmann(rng, n, sigma) for _ in range(3))
        return (gr.supercommutator(a, b).is_zero() and (a * b) * c == a * (b * c),)

    oks = _cases(rng, cases, case)
    oks += [
        not gr.annihilator_witness(n, sigma).is_zero() for n in range(1, 9) for sigma in SIGMAS
    ]
    return _entry(9, "Grassmann supercommutativity and annihilator witness", oks)


def _random_grassmann(rng, n: int, sigma: Sigma) -> gr.GrassmannElement:
    return gr.GrassmannElement(n, sigma, summed(
        (rng.randrange(1 << n), _random_binarion(rng, sigma)) for _ in range(rng.randint(1, 4))
    ))


# -- suite driver -------------------------------------------------------------------


def _payload(seed: int, sizes: dict) -> list:
    rng = random.Random(seed)
    return [
        check_commutation(),
        check_classical_limit(rng, sizes["classical_limit"]),
        check_associativity(rng, sizes["associativity"]),
        check_composition(rng, sizes["composition"]),
        check_two_path(rng, sizes["two_path"]),
        check_fourier_identities(rng, sizes["fourier"]),
        check_eigenrelation(rng, sizes["eigenrelation"]),
        check_interference(rng, sizes["interference"]),
        check_grassmann(rng, sizes["grassmann"]),
    ]


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def run_selftest(seed: int = 0, fast: bool = False) -> dict:
    """Run the whole suite twice and report per-check results.

    The second run exists only to assert byte-level determinism of the
    seeded generation; its payload must serialize identically.
    """
    sizes = _sizes(fast)
    first = _payload(seed, sizes)
    second = _payload(seed, sizes)
    deterministic = canonical_json(first) == canonical_json(second)
    criteria = first + [_entry(10, "seeded reports are byte-identical", [deterministic])]
    return {
        "seed": seed,
        "fast": fast,
        "criteria": criteria,
        "all_passed": all(c["passed"] for c in criteria),
    }
