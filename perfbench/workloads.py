"""Seeded inputs and verified operations for the three benchmark workloads.

A run's inputs are one *batch* of ``BATCH_ROUNDS[workload]`` rounds.  A
round is a fixed mix of operation kinds and input shapes; the seed picks
the coefficients, the signatures' order and the values of ``h``, never the
mix, so two seeds give runs of the same shape.  Each :class:`Op` has a timed ``run`` and an
untimed check: ``observed(out) == expected(out)``.

* ``star-wide``  -- large ``star`` products and ``scaled_bracket`` calls on
  dense symbols (powers of random linear forms), k = 1, 2, 3.
* ``operator-route`` -- many small symbols through ``compose_check``, both
  operator-application routes, the distributional star product and the
  ``Ultradistribution`` Fourier identities.
* ``cli-session`` -- fresh ``python -m hypermoyal.cli`` processes on
  generated expressions, JSON files and a CSV table.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

from hypermoyal import (
    Binarion,
    ExpPoly,
    Operator,
    PolySymbol,
    Sigma,
    Ultradistribution,
    WaveFunction,
    annihilator_witness,
    classify,
    compose_check,
    contexts_from_csv,
    parse_grassmann,
    parse_symbol,
    parity,
    poisson_bracket,
    run_selftest,
    scaled_bracket,
    star,
    star_distributional,
    supercommutator,
    theta_range,
)

SIGMAS = (Sigma.HYPERBOLIC, Sigma.COMPLEX)
H_VALUES = (Fraction(1), Fraction(1, 3), Fraction(7, 2))


class Op:
    """One verified operation: timed ``run(tr)``, then an untimed check."""

    __slots__ = ("kind", "run", "observed", "expected", "shape")

    def __init__(self, kind, run, expected, observed=None, shape=None):
        self.kind = kind
        self.run = run
        self.expected = expected
        self.observed = observed or (lambda tr, out: out)
        self.shape = shape or {}

    def check(self, tr, out) -> bool:
        return self.observed(tr, out) == self.expected(tr, out)


# -- traced library calls with work counters -----------------------------------


def _covers(vectors, kappa) -> bool:
    return any(all(v >= c for v, c in zip(vec, kappa)) for vec in vectors)


def star_counts(a: PolySymbol, b: PolySymbol) -> dict:
    """Work counters for ``star(a, b)`` from the operands' public terms.

    ``kappa_terms`` is the number of multi-indices the series visits,
    ``prod(p_degrees(a) + 1)``; a kappa is useful when some p-exponent of
    ``a`` and some q-exponent of ``b`` both dominate it.
    """
    a_terms = a.terms()
    b_terms = b.terms()
    betas = {beta for _, beta, _ in a_terms}
    alphas = {alpha for alpha, _, _ in b_terms}
    kappas = [()]
    for bound in a.p_degrees():
        kappas = [kap + (n,) for kap in kappas for n in range(bound + 1)]
    useful = sum(1 for kap in kappas if _covers(betas, kap) and _covers(alphas, kap))
    return {
        "terms_in": len(a_terms) * len(b_terms),
        "kappa_terms": len(kappas),
        "kappa_useful": useful,
    }


def traced_star(tr, a, b):
    if not tr.enabled:
        return star(a, b)
    with tr.span("symbols.star", **star_counts(a, b)) as span:
        out = star(a, b)
    span.attrs["terms_out"] = len(out.terms())
    return out


def traced_apply_normal_ordered(tr, operator, phi):
    if not tr.enabled:
        return operator.apply_normal_ordered(phi)
    with tr.span("operators.apply_normal_ordered") as span:
        out = operator.apply_normal_ordered(phi)
    span.attrs["terms_out"] = len(out.func.terms())
    return out


def traced_parse_symbol(tr, text, sigma, dof):
    return tr.call("parsing.parse_symbol", parse_symbol, text, sigma, dof, chars=len(text))


def render(tr, obj):
    return tr.call("cli.render", obj.to_text)


# -- seeded scalars and symbols --------------------------------------------------


def _invertible_pair(rng) -> tuple:
    """Small integer binarion ``re + im*u`` that is invertible in both rings."""
    while True:
        re, im = rng.randint(-2, 2), rng.randint(-1, 1)
        if re * re != im * im:  # excludes 0 and the split ring's zero divisors
            return re, im


def _pair_mul(x, y, s):
    return (x[0] * y[0] + s * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _form_monomials(k: int, support: str) -> list:
    def vec(q=(), p=()):
        return tuple(1 if i in q else 0 for i in range(k)) + tuple(
            1 if i in p else 0 for i in range(k)
        )

    if support == "all":
        return [vec(q=(i,)) for i in range(k)] + [vec(p=(i,)) for i in range(k)]
    if support == "pq1":
        return [vec(p=(i,)) for i in range(k)] + [vec(q=(0,))]
    if support == "cross":
        return [vec(q=(0,), p=(1,)), vec(q=(1,), p=(0,))]
    raise ValueError(f"unknown support {support!r}")


def form_power(rng, k: int, sigma: Sigma, support: str, n: int) -> PolySymbol:
    """``(sum_i c_i m_i)^n`` expanded by the multinomial theorem.

    The coefficients ``c_i`` are invertible binarions, so no term cancels
    and the term count depends only on the support and ``n``.
    """
    monomials = _form_monomials(k, support)
    s = sigma.value
    powers = []
    for _ in monomials:
        c = _invertible_pair(rng)
        table = [(1, 0)]
        for _ in range(n):
            table.append(_pair_mul(table[-1], c, s))
        powers.append(table)
    acc: dict = {}
    for combo in combinations_with_replacement(range(len(monomials)), n):
        counts = [combo.count(i) for i in range(len(monomials))]
        multi = math.factorial(n)
        coeff = (1, 0)
        key = [0] * (2 * k)
        for i, e in enumerate(counts):
            if e:
                multi //= math.factorial(e)
                coeff = _pair_mul(coeff, powers[i][e], s)
                key = [x + e * y for x, y in zip(key, monomials[i])]
        key = tuple(key)
        re, im = acc.get(key, (0, 0))
        acc[key] = (re + multi * coeff[0], im + multi * coeff[1])
    terms = {
        (key[:k], key[k:]): Binarion(re, im, sigma) for key, (re, im) in acc.items()
    }
    return PolySymbol(k, sigma, terms)


def _fraction(rng, zero_ok=True) -> Fraction:
    while True:
        f = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if zero_ok or f:
            return f


def _binarion(rng, sigma) -> Binarion:
    while True:
        b = Binarion(_fraction(rng), _fraction(rng), sigma)
        if not b.is_zero():
            return b


def small_symbol(rng, k, sigma, max_degree=5, max_terms=3) -> PolySymbol:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * (2 * k)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(2 * k)] += 1
        terms[(tuple(exps[:k]), tuple(exps[k:]))] = _binarion(rng, sigma)
    return PolySymbol(k, sigma, terms)


def wavefunction(rng, k, sigma, h) -> WaveFunction:
    """Polynomial times plane wave, ``c * prod (q_i + r) * exp(u<p0, q>/h)``."""
    momentum = tuple(_fraction(rng) for _ in range(k))
    wave = WaveFunction.plane_wave(momentum, h, sigma)
    poly = ExpPoly.constant(_binarion(rng, sigma), k, sigma)
    for _ in range(rng.randint(0, 2)):
        poly = poly * (
            ExpPoly.coordinate(rng.randrange(k), k, sigma)
            + ExpPoly.constant(_fraction(rng), k, sigma)
        )
    return WaveFunction(poly * wave.func, h)


def distribution(rng, dim, sigma, max_atoms=4, max_order=3) -> Ultradistribution:
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        loc = tuple(_fraction(rng) for _ in range(dim))
        order = tuple(rng.randint(0, max_order) for _ in range(dim))
        atoms.append((loc, order, _binarion(rng, sigma)))
    return Ultradistribution(dim, sigma, atoms)


# -- star-wide ------------------------------------------------------------------------

#: name -> (k, support of a, power of a, support of b, power of b); the name
#: gives the term counts of a and b
STAR_SHAPES = {
    "k1_5x5": (1, "all", 4, "all", 4),
    "k1_6x6": (1, "all", 5, "all", 5),
    "k1_7x7": (1, "all", 6, "all", 6),
    "k1_7x9": (1, "all", 6, "all", 8),
    "k1_8x8": (1, "all", 7, "all", 7),
    "k1_9x7": (1, "all", 8, "all", 6),
    "k1_9x9": (1, "all", 8, "all", 8),
    "k2_10x10": (2, "all", 2, "all", 2),
    "k2_10x20": (2, "all", 2, "all", 3),
    "k2_20x10": (2, "all", 3, "all", 2),
    "k2_20x20": (2, "all", 3, "all", 3),
    "k2_20x35": (2, "all", 3, "all", 4),
    "k2_35x20": (2, "all", 4, "all", 3),
    "k2_35x35": (2, "all", 4, "all", 4),
    "k2_56x20": (2, "all", 5, "all", 3),
    "k2_84x6": (2, "all", 6, "cross", 5),
    "k3_21x56": (3, "all", 2, "all", 3),
    "k3_56x21": (3, "all", 3, "all", 2),
    "k3_126x21": (3, "all", 4, "all", 2),
    "k3_252x56": (3, "all", 5, "pq1", 5),
}

#: One round of 100 operations, (kind, shape, count): 70 star, 30 bracket.
#: A round is the whole batch of a run, repeated in passes (see ``run.py``),
#: so it is kept to about 5.5 s.  The mix sets where the quantiles fall:
#: the median lies in the middle of a tier of twenty ~14 ms operations and
#: the 90th percentile in the middle of ten k3_21x56 products, and the
#: neighbouring tiers cost at least ~1.7x less or more (best-of-7 times on
#: one machine).  A slower or faster operation then rarely changes which
#: operation a quantile reads.
STAR_WIDE_ROUND = (
    # ranks 1-40: 4-8 ms
    ("star", "k1_5x5", 14), ("star", "k1_6x6", 13), ("star", "k2_10x10", 13),
    # ranks 41-60, the median: 13-15 ms
    ("star", "k1_8x8", 12), ("bracket", "k1_6x6", 8),
    # ranks 61-85: 29-35 ms
    ("star", "k2_20x20", 5), ("bracket", "k1_9x7", 7), ("bracket", "k1_7x9", 7),
    ("bracket", "k1_8x8", 6),
    # ranks 86-95, the 90th percentile: ~70 ms
    ("star", "k3_21x56", 10),
    # the five largest, 0.19-2.4 s, up to the 252x56 product
    ("bracket", "k3_56x21", 1), ("bracket", "k2_56x20", 1), ("star", "k2_84x6", 1),
    ("star", "k3_126x21", 1), ("star", "k3_252x56", 1),
)

STAR_WIDE_MINI = (("star", "k1_9x9", 1), ("bracket", "k1_9x9", 1), ("star", "k2_20x20", 1))


def _star_op(a, b, shape):
    def run(tr):
        return traced_star(tr, a, b)

    def expected(tr, out):
        return tr.call("symbols.pointwise_mul", a.__mul__, b)

    return Op("star", run, expected, lambda tr, out: out.h_constant_part(), shape)


def _bracket_op(a, b, shape):
    def run(tr):
        return tr.call("symbols.scaled_bracket", scaled_bracket, a, b)

    def expected(tr, out):
        return tr.call("symbols.poisson_bracket", poisson_bracket, a, b)

    return Op("bracket", run, expected, lambda tr, out: out.h_constant_part(), shape)


def star_wide_round(rng, round_index, mini=False):
    ops = []
    for kind, shape_name, count in STAR_WIDE_MINI if mini else STAR_WIDE_ROUND:
        k, sa, na, sb, nb = STAR_SHAPES[shape_name]
        for _ in range(count):
            sigma = SIGMAS[(len(ops) + round_index) % 2]
            a = form_power(rng, k, sigma, sa, na)
            b = form_power(rng, k, sigma, sb, nb)
            shape = {"shape": shape_name, "k": k, "sigma": sigma.value,
                     "terms": [len(a.terms()), len(b.terms())],
                     "degree": [a.total_degree(), b.total_degree()]}
            make = _star_op if kind == "star" else _bracket_op
            ops.append(make(a, b, shape))
    rng.shuffle(ops)
    return ops


# -- operator-route ---------------------------------------------------------------


def _compose_op(a, b, phi, h, shape):
    def run(tr):
        if not tr.enabled:
            return compose_check(a, b, phi).ok
        # replay compose_check from its public steps so each layer shows
        composed = traced_star(tr, a, b)
        composed = tr.call("symbols.substitute_h", composed.substitute_h, h)
        lhs = traced_apply_normal_ordered(tr, Operator(composed, h), phi)
        inner = traced_apply_normal_ordered(tr, Operator(b, h), phi)
        rhs = traced_apply_normal_ordered(tr, Operator(a, h), inner)
        return (lhs.func - rhs.func).is_zero()

    return Op("compose_check", run, lambda tr, out: True, shape=shape)


def _apply_routes_op(a, phi, h, shape):
    def run(tr):
        operator = Operator(a, h)
        shifted = tr.call("operators.apply_shift_form", operator.apply_shift_form, phi)
        return shifted, traced_apply_normal_ordered(tr, operator, phi)

    return Op("apply_routes", run, lambda tr, out: out[1], lambda tr, out: out[0], shape)


def _star_distributional_op(a, b, h, shape):
    atoms_in = len(a.terms()) * len(b.terms())

    def run(tr):
        via_atoms = tr.call(
            "distributions.star_distributional", star_distributional, a, b, h,
            atoms_in=atoms_in,
        )
        series = traced_star(tr, a, b)
        series = tr.call("symbols.substitute_h", series.substitute_h, h)
        return via_atoms, tr.call(
            "distributions.from_poly_symbol", ExpPoly.from_poly_symbol, series
        )

    return Op("star_distributional", run, lambda tr, out: out[1],
              lambda tr, out: out[0], shape)


def _fourier_identities_op(lam, order, sigma, shape):
    u = Binarion.unit(sigma)
    n = sum(order)

    def run(tr):
        image = tr.call("distributions.fourier", lam.fourier)
        lhs = tr.call("distributions.differentiate_multi", image.differentiate_multi, order)
        raised = tr.call("distributions.mul_monomial", lam.mul_monomial, order)
        rhs = tr.call("distributions.fourier", raised.fourier)
        rhs = tr.call("distributions.exppoly_mul", rhs.__rmul__, u**n)
        derived = tr.call("distributions.derivative_multi", lam.derivative_multi, order)
        lhs2 = tr.call("distributions.fourier", derived.fourier)
        factor = ExpPoly.monomial(order, (-u) ** n, sigma)
        rhs2 = tr.call("distributions.exppoly_mul", factor.__mul__, image)
        return (lhs, lhs2), (rhs, rhs2)

    return Op("fourier_identities", run, lambda tr, out: out[1],
              lambda tr, out: out[0], shape)


OPERATOR_ROUTE_ROUND = (
    ("compose_check", 6),
    ("apply_routes", 6),
    ("star_distributional", 6),
    ("fourier_identities", 6),
)


def operator_route_round(rng, round_index, mini=False):
    ops = []
    for kind, count in OPERATOR_ROUTE_ROUND:
        for i in range(1 if mini else count):
            k = 1 + (i % 2)
            sigma = SIGMAS[(i // 2 + round_index) % 2]
            h = H_VALUES[(i + round_index) % 3]
            shape = {"k": k, "sigma": sigma.value, "h": str(h)}
            if kind == "fourier_identities":
                lam = distribution(rng, k, sigma)
                order = tuple(rng.randint(0, 3) for _ in range(k))
                if not any(order):
                    order = (1,) + order[1:]
                shape.update(atoms=len(lam.atoms()), order=list(order))
                ops.append(_fourier_identities_op(lam, order, sigma, shape))
                continue
            a = small_symbol(rng, k, sigma)
            b = small_symbol(rng, k, sigma)
            shape.update(terms=[len(a.terms()), len(b.terms())],
                         degree=[a.total_degree(), b.total_degree()])
            if kind == "compose_check":
                ops.append(_compose_op(a, b, wavefunction(rng, k, sigma, h), h, shape))
            elif kind == "apply_routes":
                ops.append(_apply_routes_op(a, wavefunction(rng, k, sigma, h), h, shape))
            else:
                ops.append(_star_distributional_op(a, b, h, shape))
    rng.shuffle(ops)
    return ops


# -- cli-session ------------------------------------------------------------------------


class CliContext:
    """Where the session's generated files live and how the CLI is started."""

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def path(self, name):
        return os.path.join(self.workdir, name)

    def cli_run(self, args):
        """The timed part of a CLI operation, traced as ``cli.<subcommand>``."""
        return lambda tr: tr.call(f"cli.{args[0]}", self.run_cli, args)

    def run_cli(self, args):
        proc = subprocess.run(
            [sys.executable, "-m", "hypermoyal.cli", *args],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout


def _lin_text(rng, k, unit=None) -> str:
    names = [f"q{i + 1}" for i in range(k)] + [f"p{i + 1}" for i in range(k)]
    parts = []
    for name in names:
        c = rng.choice((1, 2, 3, -1, -2, "3/2", "-1/2"))
        parts.append(f"{c}*{name}")
    if unit is not None:
        parts.append(f"{rng.randint(1, 3)}{unit}*{names[0]}")
    return " + ".join(parts).replace("+ -", "- ")


def symbol_text(rng, k, max_power=3, unit=None) -> str:
    return f"({_lin_text(rng, k, unit)})^{rng.randint(1, max_power)}"


def grassmann_text(rng, n) -> str:
    """A sum of Grassmann monomials; it never starts with ``-``, which the
    CLI's argument parser would read as an option."""
    text = ""
    for i in range(rng.randint(1, 4)):
        gens = sorted(rng.sample(range(1, n + 1), rng.randint(0, min(3, n))))
        factor = "*".join(f"t{g}" for g in gens)
        c = rng.choice((1, 2, 3, "1/2"))
        if i:
            text += rng.choice((" + ", " - "))
        text += f"{c}*{factor}" if factor else str(c)
    return text


def _sigmas_for(flag):
    return SIGMAS if flag == "both" else (Sigma.HYPERBOLIC if flag == "+1" else Sigma.COMPLEX,)


def _cli_observed(parse):
    def observed(tr, out):
        code, stdout = out
        if code != 0:
            return ("exit status", code)
        return parse(stdout)

    return observed


def _star_cli_op(ctx, a_text, b_text, k, flag, h=None, fmt="text"):
    args = ["star", a_text, b_text, "--dof", str(k), "--sigma", flag]
    if h is not None:
        args += ["--h", str(h)]
    args += ["--format", fmt]

    def library(tr):
        results = []
        for sigma in _sigmas_for(flag):
            a = traced_parse_symbol(tr, a_text, sigma, k)
            b = traced_parse_symbol(tr, b_text, sigma, k)
            result = traced_star(tr, a, b)
            if h is not None:
                result = tr.call("symbols.substitute_h", result.substitute_h, h)
            results.append((sigma, result))
        return results

    if fmt == "text":
        def expected(tr, out):
            return [f"sigma={sigma}: {render(tr, r)}" for sigma, r in library(tr)]

        parse = str.splitlines
    else:
        def expected(tr, out):
            return [(r, render(tr, r)) for _, r in library(tr)]

        def parse(stdout):
            data = json.loads(stdout)
            entries = data if isinstance(data, list) else [data]
            return [
                (PolySymbol.from_json_dict(
                    {"dof": k, "sigma": e["sigma"], "terms": e["terms"]}), e["result"])
                for e in entries
            ]

    variant = "json" if fmt == "json" else ("h" if h is not None else flag)
    shape = {"sub": "star", "variant": variant, "k": k, "sigma": flag, "chars": len(a_text) + len(b_text)}
    return Op("star", ctx.cli_run(args), expected, _cli_observed(parse), shape)


def _limit_cli_op(ctx, a_text, b_text, k, flag, steps):
    args = ["limit", a_text, b_text, "--dof", str(k), "--sigma", flag,
            "--steps", str(steps), "--format", "json"]

    def expected(tr, out):
        rows = []
        for sigma in _sigmas_for(flag):
            a = traced_parse_symbol(tr, a_text, sigma, k)
            b = traced_parse_symbol(tr, b_text, sigma, k)
            residual = tr.call("symbols.scaled_bracket", scaled_bracket, a, b) - tr.call(
                "symbols.poisson_bracket", poisson_bracket, a, b)
            rows.append((render(tr, residual), residual.h_constant_part().is_zero(), steps))
        return rows

    def parse(stdout):
        data = json.loads(stdout)
        entries = data if isinstance(data, list) else [data]
        return [(e["residual"], e["constant_term_zero"], len(e["values_at_ones"]))
                for e in entries]

    shape = {"sub": "limit", "k": k, "sigma": flag, "chars": len(a_text) + len(b_text)}
    return Op("limit", ctx.cli_run(args), expected, _cli_observed(parse), shape)


def _apply_cli_op(ctx, name, op_data, phi):
    op_path = ctx.path(f"{name}_operator.json")
    wf_path = ctx.path(f"{name}_wave.json")
    with open(op_path, "w", encoding="utf-8") as fh:
        json.dump(op_data, fh)
    with open(wf_path, "w", encoding="utf-8") as fh:
        json.dump(phi.to_json_dict(), fh)
    args = ["apply", op_path, wf_path, "--format", "json"]

    def expected(tr, out):
        if isinstance(op_data["symbol"], str):
            sigma = Sigma.HYPERBOLIC if op_data["sigma"] == 1 else Sigma.COMPLEX
            symbol = traced_parse_symbol(tr, op_data["symbol"], sigma, phi.dof)
            operator = Operator(symbol, Fraction(op_data["h"]), sigma)
        else:
            operator = Operator.from_json_dict(op_data)
        return traced_apply_normal_ordered(tr, operator, phi)

    def parse(stdout):
        return WaveFunction.from_json_dict(json.loads(stdout))

    shape = {"sub": "apply", "k": phi.dof, "wave_terms": len(phi.func.terms())}
    return Op("apply", ctx.cli_run(args), expected, _cli_observed(parse), shape)


def _fourier_cli_op(ctx, name, lam):
    path = ctx.path(f"{name}_distribution.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(lam.to_json_dict(), fh)
    args = ["fourier", path, "--format", "json"]

    def expected(tr, out):
        return tr.call("distributions.fourier", lam.fourier)

    def parse(stdout):
        return ExpPoly.from_json_dict(json.loads(stdout))

    shape = {"sub": "fourier", "dim": lam.dim, "atoms": len(lam.atoms())}
    return Op("fourier", ctx.cli_run(args), expected, _cli_observed(parse), shape)


def _super_cli_op(ctx, a_text, b_text, sigma):
    flag = "+1" if sigma is Sigma.HYPERBOLIC else "-1"
    args = ["super", a_text, b_text, "--sigma", flag, "--format", "json"]

    def expected(tr, out):
        n = max(parse_grassmann(a_text, sigma).n, parse_grassmann(b_text, sigma).n)
        a = tr.call("parsing.parse_grassmann", parse_grassmann, a_text, sigma, n)
        b = tr.call("parsing.parse_grassmann", parse_grassmann, b_text, sigma, n)
        return {
            "a": str(a), "b": str(b),
            "parity_a": str(parity(a)), "parity_b": str(parity(b)),
            "product": str(tr.call("grassmann.product", a.__mul__, b)),
            "supercommutator": str(tr.call("grassmann.supercommutator", supercommutator, a, b)),
        }

    shape = {"sub": "super", "sigma": flag, "chars": len(a_text) + len(b_text)}
    return Op("super", ctx.cli_run(args), expected, _cli_observed(json.loads), shape)


def _witness_cli_op(ctx, n, sigma):
    flag = "+1" if sigma is Sigma.HYPERBOLIC else "-1"
    args = ["super", "--witness", str(n), "--sigma", flag, "--format", "json"]

    def expected(tr, out):
        witness = tr.call("grassmann.annihilator_witness", annihilator_witness, n, sigma)
        return {"witness": str(witness), "generators": n,
                "odd_monomials_annihilated": 1 << (n - 1), "nonzero": not witness.is_zero()}

    shape = {"sub": "super", "variant": "witness", "generators": n}
    return Op("witness", ctx.cli_run(args), expected, _cli_observed(json.loads), shape)


def _probability(rng) -> str:
    if rng.random() < 0.5:
        return str(Fraction(rng.randint(0, 20), 20))
    return f"0.{rng.randint(0, 999):03d}"


def _interfere_cli_op(ctx, name, rng, rows):
    path = ctx.path(f"{name}_table.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("p_a1,p_b1_a1,p_b1_a2,p_b1\n")
        for _ in range(rows):
            fh.write(",".join(_probability(rng) for _ in range(4)) + "\n")
    args = ["interfere", path, "--format", "json"]

    def expected(tr, out):
        contexts = tr.call("interference.contexts_from_csv", contexts_from_csv, path, rows=rows)
        report = []
        for row_number, c in contexts:
            result = tr.call("interference.classify", classify, c)
            ranges = tr.call("interference.theta_range", theta_range, c.p_a, c.cond)
            report.append({
                "row": row_number,
                "report": tr.call("cli.render", result.to_json_dict),
                "theta_range": [r.to_json_dict() for r in ranges],
            })
        return report

    shape = {"sub": "interfere", "rows": rows}
    return Op("interfere", ctx.cli_run(args), expected, _cli_observed(json.loads), shape)


#: one round of 34 commands, (command kind, count)
CLI_ROUND = (
    ("star", 5),
    ("star_both", 3),
    ("star_h", 3),
    ("star_json", 3),
    ("limit", 4),
    ("apply", 5),
    ("fourier", 5),
    ("super", 4),
    ("witness", 1),
    ("interfere", 1),
)

CLI_MINI = tuple((kind, 1) for kind, _ in CLI_ROUND)
INTERFERE_ROWS = 2000


def cli_session_round(rng, round_index, ctx, mini=False):
    ops = []
    for kind, count in CLI_MINI if mini else CLI_ROUND:
        for i in range(count):
            name = f"r{round_index}_{kind}_{i}"
            sigma = SIGMAS[(i + round_index) % 2]
            flag = "+1" if sigma is Sigma.HYPERBOLIC else "-1"
            k = 1 + (i % 2)
            h = H_VALUES[(i + round_index) % 3]
            if kind in ("star", "star_h", "star_json"):
                unit = sigma.unit_symbol if kind == "star" else None
                a, b = symbol_text(rng, k, unit=unit), symbol_text(rng, k)
                ops.append(_star_cli_op(ctx, a, b, k, flag,
                                        h=h if kind == "star_h" else None,
                                        fmt="json" if kind == "star_json" else "text"))
            elif kind == "star_both":
                ops.append(_star_cli_op(ctx, symbol_text(rng, k), symbol_text(rng, k), k, "both"))
            elif kind == "limit":
                flag = "both" if i % 2 else flag
                ops.append(_limit_cli_op(ctx, symbol_text(rng, k), symbol_text(rng, k),
                                         k, flag, steps=4))
            elif kind == "apply":
                if k == 1:
                    op_data = {"symbol": symbol_text(rng, 1, unit=sigma.unit_symbol),
                               "sigma": sigma.value, "h": str(h)}
                else:
                    op_data = Operator(small_symbol(rng, k, sigma, max_degree=3), h).to_json_dict()
                ops.append(_apply_cli_op(ctx, name, op_data, wavefunction(rng, k, sigma, h)))
            elif kind == "fourier":
                ops.append(_fourier_cli_op(ctx, name, distribution(rng, k, sigma)))
            elif kind == "super":
                n = rng.randint(2, 6)
                ops.append(_super_cli_op(ctx, grassmann_text(rng, n), grassmann_text(rng, n), sigma))
            elif kind == "witness":
                ops.append(_witness_cli_op(ctx, rng.randint(9, 12), sigma))
            else:
                ops.append(_interfere_cli_op(ctx, name, rng, INTERFERE_ROWS))
    rng.shuffle(ops)
    return ops


# -- the closing selftest --------------------------------------------------------------


def selftest_op(ctx, seed):
    """``selftest --fast --seed S`` as a subprocess, checked against the library."""
    args = ["selftest", "--fast", "--seed", str(seed), "--format", "json"]

    def expected(tr, out):
        return run_selftest(seed=seed, fast=True)

    return Op("selftest", ctx.cli_run(args), expected,
              _cli_observed(json.loads), {"sub": "selftest", "seed": seed})


#: rounds per batch: at least 100 operations, so that ten lie beyond the
#: 90th percentile, and a pass of about 4-6 s (cli-session: about 12 s)
#: in the scaled times of ``run.py``
BATCH_ROUNDS = {"star-wide": 1, "operator-route": 50, "cli-session": 3}


def build_batch(workload, rng, ctx):
    """The operations of one run: ``BATCH_ROUNDS[workload]`` rounds."""
    return [op for index in range(BATCH_ROUNDS[workload])
            for op in build_round(workload, rng, index, ctx)]


def build_round(workload, rng, round_index, ctx, mini=False):
    if workload == "star-wide":
        return star_wide_round(rng, round_index, mini)
    if workload == "operator-route":
        return operator_route_round(rng, round_index, mini)
    if workload == "cli-session":
        return cli_session_round(rng, round_index, ctx, mini)
    raise ValueError(f"unknown workload {workload!r}")
