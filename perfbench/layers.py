"""Per-layer measurements for the traced run.

Three sources feed the per-layer metrics:

* micro-loops over seeded scalar operands (``Binarion``, ``HPoly`` and
  ``CharSum`` arithmetic, both rings);
* interpreter and import probes for the CLI (``python -c pass`` and
  ``-X importtime``), and the nine selftest checks at ``--fast`` sizes,
  each in its own span;
* the spans recorded around the benchmark's library calls (see
  :mod:`tracing`), aggregated by name.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from hypermoyal import Binarion, CharSum, HPoly
from hypermoyal import selftest as st

from tracing import aggregate
from workloads import SIGMAS

#: (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("scalars.binarion_mul_us", "us"),
    ("scalars.binarion_add_us", "us"),
    ("symbols.hpoly_mul_us", "us"),
    ("distributions.charsum_mul_us", "us"),
    ("symbols.star.calls", "count"),
    ("symbols.star.self_s", "s"),
    ("symbols.star.terms_in", "count"),
    ("symbols.star.terms_out", "count"),
    ("symbols.star.kappa_terms", "count"),
    ("symbols.star.kappa_useful_frac", "frac"),
    ("symbols.star.us_per_term_pair", "us"),
    ("symbols.scaled_bracket.self_s", "s"),
    ("symbols.poisson_bracket.self_s", "s"),
    ("symbols.substitute_h.self_s", "s"),
    ("operators.apply_normal_ordered.calls", "count"),
    ("operators.apply_normal_ordered.self_s", "s"),
    ("operators.apply_normal_ordered.terms_out", "count"),
    ("operators.apply_shift_form.calls", "count"),
    ("operators.apply_shift_form.self_s", "s"),
    ("distributions.star_distributional.self_s", "s"),
    ("distributions.star_distributional.atoms_in", "count"),
    ("distributions.from_poly_symbol.self_s", "s"),
    ("distributions.fourier.self_s", "s"),
    ("distributions.mul_monomial.self_s", "s"),
    ("distributions.derivative_multi.self_s", "s"),
    ("parsing.parse_symbol.calls", "count"),
    ("parsing.parse_symbol.self_s", "s"),
    ("parsing.parse_symbol.chars", "count"),
    ("cli.render.self_s", "s"),
    ("interference.contexts_from_csv.self_s", "s"),
    ("interference.classify.self_s", "s"),
    ("interference.theta_range.self_s", "s"),
    ("interference.rows", "count"),
    ("grassmann.product.self_s", "s"),
    ("grassmann.supercommutator.self_s", "s"),
    ("grassmann.annihilator_witness.self_s", "s"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.star.ms", "ms"),
    ("cli.limit.ms", "ms"),
    ("cli.apply.ms", "ms"),
    ("cli.fourier.ms", "ms"),
    ("cli.interfere.ms", "ms"),
    ("cli.super.ms", "ms"),
    ("cli.selftest.ms", "ms"),
    ("selftest.check_commutation.self_s", "s"),
    ("selftest.check_classical_limit.self_s", "s"),
    ("selftest.check_associativity.self_s", "s"),
    ("selftest.check_composition.self_s", "s"),
    ("selftest.check_two_path.self_s", "s"),
    ("selftest.check_fourier_identities.self_s", "s"),
    ("selftest.check_eigenrelation.self_s", "s"),
    ("selftest.check_interference.self_s", "s"),
    ("selftest.check_grassmann.self_s", "s"),
    ("trace.overhead_frac", "frac"),
)

CLI_SUBCOMMANDS = ("star", "limit", "apply", "fourier", "interfere", "super", "selftest")


# -- micro-loops -------------------------------------------------------------------


def _binarion(rng, sigma):
    return Binarion(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 7)), sigma)


def _per_op_us(pairs, op, repeats=7, min_ops=2000) -> float:
    """Median over ``repeats`` batches of the time per ``op(x, y)``, in us."""
    rounds = max(1, min_ops // len(pairs))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(rounds):
            for x, y in pairs:
                op(x, y)
        samples.append((time.perf_counter() - t0) / (rounds * len(pairs)))
    return statistics.median(samples) * 1e6


def micro_metrics(seed: int) -> dict:
    rng = random.Random(seed)
    scalars, hpolys, charsums = [], [], []
    for i in range(200):
        sigma = SIGMAS[i % 2]
        scalars.append((_binarion(rng, sigma), _binarion(rng, sigma)))
    for i in range(60):
        sigma = SIGMAS[i % 2]
        hpolys.append(tuple(
            HPoly({d: _binarion(rng, sigma) for d in range(3)}, sigma) for _ in range(2)))
        charsums.append(tuple(
            CharSum({Fraction(rng.randint(-6, 6), 3): _binarion(rng, sigma) for _ in range(3)},
                    sigma) for _ in range(2)))
    mul = lambda x, y: x * y  # noqa: E731
    return {
        "scalars.binarion_mul_us": _per_op_us(scalars, mul),
        "scalars.binarion_add_us": _per_op_us(scalars, lambda x, y: x + y),
        "symbols.hpoly_mul_us": _per_op_us(hpolys, mul, min_ops=300),
        "distributions.charsum_mul_us": _per_op_us(charsums, mul, min_ops=300),
    }


# -- CLI start-up probes ----------------------------------------------------------------


def _wall_ms(argv, env, cwd) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=cwd, capture_output=True, check=True, timeout=60)
    return (time.perf_counter() - t0) * 1e3


def _import_ms(env, cwd) -> float:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import hypermoyal.cli"],
        env=env, cwd=cwd, capture_output=True, text=True, check=True, timeout=60,
    )
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "hypermoyal.cli":
            return int(fields[1]) / 1e3
    raise RuntimeError("-X importtime printed no line for hypermoyal.cli")


def cli_startup_metrics(env, cwd, repeats=5) -> dict:
    return {
        "cli.interpreter_ms": statistics.median(
            _wall_ms([sys.executable, "-c", "pass"], env, cwd) for _ in range(repeats)),
        "cli.import_ms": statistics.median(_import_ms(env, cwd) for _ in range(repeats)),
    }


# -- selftest checks ----------------------------------------------------------------------


def traced_selftest_checks(tr, seed: int) -> list:
    """The payload of ``run_selftest(seed, fast=True)``, one span per check."""
    sizes = {name: max(5, n // 10) for name, n in st.FULL_SIZES.items()}
    rng = random.Random(seed)
    calls = (
        ("commutation", ()),
        ("classical_limit", (rng, sizes["classical_limit"])),
        ("associativity", (rng, sizes["associativity"])),
        ("composition", (rng, sizes["composition"])),
        ("two_path", (rng, sizes["two_path"])),
        ("fourier_identities", (rng, sizes["fourier"])),
        ("eigenrelation", (rng, sizes["eigenrelation"])),
        ("interference", (rng, sizes["interference"])),
        ("grassmann", (rng, sizes["grassmann"])),
    )
    return [tr.call(f"selftest.check_{name}", getattr(st, f"check_{name}"), *args)
            for name, args in calls]


# -- assembly ------------------------------------------------------------------------------


def span_metrics(spans) -> dict:
    """Per-layer metrics derived from the recorded spans."""
    table = aggregate(spans)
    cli_ms: dict = {}
    for record in spans:
        layer, _, sub = record.name.partition(".")
        if layer == "cli" and sub in CLI_SUBCOMMANDS:
            cli_ms.setdefault(sub, []).append(record.duration * 1e3)

    def row(name):
        return table.get(name, {"calls": 0, "self_s": 0.0, "attrs": {}})

    def attr(name, key):
        return row(name)["attrs"].get(key, 0)

    out = {}
    for name, unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if unit == "s" and field == "self_s":
            out[name] = row(base)["self_s"]
        elif field == "calls":
            out[name] = row(base)["calls"]
    star = row("symbols.star")
    kappa = attr("symbols.star", "kappa_terms")
    terms_in = attr("symbols.star", "terms_in")
    out.update({
        "symbols.star.terms_in": terms_in,
        "symbols.star.terms_out": attr("symbols.star", "terms_out"),
        "symbols.star.kappa_terms": kappa,
        "symbols.star.kappa_useful_frac":
            attr("symbols.star", "kappa_useful") / kappa if kappa else 0.0,
        "symbols.star.us_per_term_pair": star["self_s"] / terms_in * 1e6 if terms_in else 0.0,
        "operators.apply_normal_ordered.terms_out":
            attr("operators.apply_normal_ordered", "terms_out"),
        "distributions.star_distributional.atoms_in":
            attr("distributions.star_distributional", "atoms_in"),
        "parsing.parse_symbol.chars": attr("parsing.parse_symbol", "chars"),
        "interference.rows": attr("interference.contexts_from_csv", "rows"),
    })
    for sub in CLI_SUBCOMMANDS:
        samples = cli_ms.get(sub)
        out[f"cli.{sub}.ms"] = statistics.median(samples) if samples else 0.0
    return out
