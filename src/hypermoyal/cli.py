"""Command-line surface: reproducible demonstrations and machine reports.

Subcommands: ``star``, ``limit``, ``fourier``, ``apply``, ``interfere``,
``super``, ``selftest``.  All output is deterministic for a fixed seed and
configuration: canonical term ordering, floats printed with 12 significant
digits, JSON keys sorted.  Exit status is 0 exactly when every requested
check passed.

Each subcommand handler does its work and returns its exit status with one
zero-argument renderer per format its ``--format`` offers, which returns the
text of that format (``_dump_json`` writes a ``json`` one's data).
:func:`main` runs only the chosen renderer and writes its text to stdout or
``--out``, so a refusal inside the renderer writes nothing.  ``interfere``
does its work in its renderers: each CSV row is read, classified in ints by
``interference._row_report`` and written as that row's text at once.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import HypermoyalError, ValidationError, json_document, json_field
from .parsing import _highest_index, parse_symbol
from .scalars import Sigma, _as_fraction, _num_str, as_sigma
from .sparse import MAX_STEPS
from .symbols import PhasePoint, poisson_bracket, scaled_bracket, star


def _dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _one_or_all(entries):
    """One signature's entry alone, several in a list."""
    return entries if len(entries) > 1 else entries[0]


def _sigmas(value: str):
    if value == "both":
        return (Sigma.HYPERBOLIC, Sigma.COMPLEX)
    return (as_sigma(value),)


def _read_json(path: str) -> dict:
    if path == "-":
        return json_document(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return json_document(fh.read())


# -- subcommand handlers -----------------------------------------------------


def _parsed_pairs(args):
    """Each requested signature with ``args.a`` and ``args.b`` parsed once,
    over ``--dof`` or else the highest variable index either uses."""
    dof = _highest_index("qp", args.a, args.b) if args.dof is None else args.dof
    for sigma in _sigmas(args.sigma):
        yield sigma, parse_symbol(args.a, sigma, dof), parse_symbol(args.b, sigma, dof)


def _positive_h(text: str) -> Fraction:
    try:
        h = _as_fraction(text)
    except ValidationError:
        h = 0
    if h <= 0:
        raise ValidationError(f"--h must be a positive rational, got {text}")
    return h


def _cmd_star(args):
    h = None if args.h is None else _positive_h(args.h)
    results = []
    for sigma, a, b in _parsed_pairs(args):
        result = star(a, b, args.degree_cap)
        results.append((sigma, result if h is None else result.substitute_h(h)))
    return 0, {
        "text": lambda: "".join(f"sigma={sigma}: {r.to_text()}\n" for sigma, r in results),
        "json": lambda: _dump_json(_one_or_all([
            {"sigma": sigma.value, "result": r.to_text(), "terms": r.to_json_dict()["terms"]}
            for sigma, r in results
        ])),
    }


def _cmd_limit(args):
    if args.steps < 0:
        raise ValidationError(f"--steps must be >= 0, got {args.steps}")
    if args.steps > MAX_STEPS:
        raise ValidationError(f"--steps must be <= {MAX_STEPS}, got {args.steps}")
    h_values = [Fraction(1, 2**n) for n in range(args.steps)]
    results = []
    for sigma, a, b in _parsed_pairs(args):
        residual = scaled_bracket(a, b, args.degree_cap) - poisson_bracket(a, b)
        point = PhasePoint((1,) * a.dof, (1,) * a.dof)
        rows = [tuple(map(_num_str, (h, *residual.evaluate(point, h).to_floats())))
                for h in h_values]
        results.append((sigma, residual, residual.h_constant_part().is_zero(), rows))

    def text():
        lines = []
        for sigma, residual, ok, rows in results:
            lines.append(f"sigma={sigma}: residual = {residual.to_text()}")
            lines.append(f"  constant term zero: {'yes' if ok else 'NO'}")
            lines.extend(f"  h={h:>8}  residual(1,..,1) = {re} + {im}u" for h, re, im in rows)
        return "\n".join(lines) + "\n"

    def data():
        return _dump_json(_one_or_all([
            {
                "sigma": sigma.value,
                "residual": residual.to_text(),
                "constant_term_zero": ok,
                "values_at_ones": [{"h": h, "re": re, "im": im} for h, re, im in rows],
            }
            for sigma, residual, ok, rows in results
        ]))

    return (0 if all(ok for _, _, ok, _ in results) else 1), {"text": text, "json": data}


def _cmd_fourier(args):
    from .distributions import Ultradistribution

    image = Ultradistribution.from_json_dict(_read_json(args.input)).fourier()
    return 0, {"text": lambda: image.to_text() + "\n",
               "json": lambda: _dump_json(image.to_json_dict())}


def _load(role: str, path: str, build):
    """``build`` of the JSON in ``path``; a failure to read or build it is
    prefixed with ``role``, a missing or unreadable file too."""
    try:
        return json_field({role: path}, role, lambda p: build(_read_json(p)))
    except OSError as exc:
        raise ValidationError(f"{role}: {exc}") from None


def _cmd_apply(args):
    from .operators import Operator, WaveFunction

    document = _load("operator", args.operator, lambda data: data)
    phi = _load("wavefunction", args.wavefunction, WaveFunction.from_json_dict)
    # an expression symbol is read at the wavefunction's dof, as star reads at --dof
    operator = json_field({"operator": document}, "operator",
                          lambda data: Operator._from_json(data, phi.dof))
    result = operator.apply(phi)
    return 0, {"text": lambda: result.to_text() + "\n",
               "json": lambda: _dump_json(result.to_json_dict())}


#: One row of the ``interfere`` JSON report, as ``_dump_json`` writes the
#: entry ``{"report": ..., "row": ..., "theta_range": ...}`` inside the list:
#: the residual, both outcomes' fields, the row and both ranges' fields.
_OUTCOME_JSON = """        {
          "classical": %s,
          "d": %s,
          "interference": %s,
          "lambda": %s,
          "observed": %s,
          "regime": %s,
          "sign": %s,
          "theta": %s
        }"""
_RANGE_JSON = """      {
        "admissible": %s,
        "cosh_max": %s,
        "degenerate": %s,
        "theta_max": %s
      }"""
_ROW_JSON = f"""  {{
    "report": {{
      "normalization_residual": %s,
      "outcomes": [
{_OUTCOME_JSON},
{_OUTCOME_JSON}
      ]
    }},
    "row": %s,
    "theta_range": [
{_RANGE_JSON},
{_RANGE_JSON}
    ]
  }}"""


def _json_value(value) -> str:
    """A field of the ``interfere`` report as JSON: text quoted, an int by
    ``_num_str``, ``None`` and a bool as their literals."""
    if type(value) is str:
        return f'"{value}"'
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    return _num_str(value)


def _cmd_interfere(args):
    from .interference import _row_report, _table_rows

    def reports():
        for row, values in _table_rows(args.csv):
            yield (row, *_row_report(row, values))

    def data():
        texts = [_ROW_JSON % tuple(map(_json_value, (residual, *outcomes[0], *outcomes[1], row,
                                                     *ranges[0], *ranges[1])))
                 for row, residual, outcomes, ranges in reports()]
        return "[\n" + ",\n".join(texts) + "\n]\n" if texts else "[]\n"

    def csv():
        lines = ["row,outcome,observed,classical,d,lambda,regime,theta,cosh_max,residual\n"]
        for row, residual, outcomes, ranges in reports():
            for j, (outcome, bound) in enumerate(zip(outcomes, ranges), 1):
                classical, d, _, lam, observed, regime, _, theta = outcome
                cells = (_num_str(row), _num_str(j), observed, classical, d, lam, regime, theta,
                         bound[1], residual)
                lines.append(",".join("" if c is None else c for c in cells) + "\n")
        return "".join(lines)

    return 0, {"json": data, "csv": csv}


def _cmd_super(args):
    from .grassmann import annihilator_witness, supercommutator
    from .parsing import parse_grassmann

    sigma = as_sigma(args.sigma)
    if args.witness is not None:
        n = args.witness
        witness = annihilator_witness(n, sigma)
        odd_count = 1 << (n - 1)
        return 0, {
            "text": lambda: f"witness = {witness} annihilates all {odd_count} odd basis "
            f"monomials and is nonzero\n",
            "json": lambda: _dump_json({
                "witness": str(witness),
                "generators": n,
                "odd_monomials_annihilated": odd_count,
                "nonzero": not witness.is_zero(),
            }),
        }
    if not (args.a and args.b):
        raise HypermoyalError("super needs two expressions or --witness N")
    n = _highest_index("tθ", args.a, args.b) if args.gens is None else args.gens
    a = parse_grassmann(args.a, sigma, n)
    b = parse_grassmann(args.b, sigma, n)
    product = a * b
    scomm = supercommutator(a, b)
    return 0, {
        "text": lambda: (
            f"a = {a}  (parity {a.parity()})\n"
            f"b = {b}  (parity {b.parity()})\n"
            f"a*b = {product}\n"
            f"supercommutator = {scomm}\n"
        ),
        "json": lambda: _dump_json({
            "a": str(a),
            "b": str(b),
            "parity_a": str(a.parity()),
            "parity_b": str(b.parity()),
            "product": str(product),
            "supercommutator": str(scomm),
        }),
    }


def _cmd_selftest(args):
    from .selftest import run_selftest

    report = run_selftest(seed=args.seed, fast=args.fast)

    def text():
        lines = [
            f"[{'PASS' if c['passed'] else 'FAIL'}] {_num_str(c['id']):>2}. {c['name']} "
            f"({c['cases']} cases, {c['failures']} failures)"
            for c in report["criteria"]
        ]
        lines.append("all passed" if report["all_passed"] else "FAILURES PRESENT")
        return "\n".join(lines) + "\n"

    return (0 if report["all_passed"] else 1), {"json": lambda: _dump_json(report), "text": text}


# -- argument wiring --------------------------------------------------------------


def _add_output(parser, formats=("text", "json")):
    """``--format`` over the formats the handler renders; the first is the default."""
    parser.add_argument("--format", default=formats[0], choices=formats,
                        help="output format")
    parser.add_argument("--out", default=None, help="write output to this path")


def _add_sigma(parser, both=False):
    choices = ["+1", "-1"] + (["both"] if both else [])
    parser.add_argument("--sigma", default="+1", choices=choices,
                        help="signature of the imaginary unit square")


def _dash_epilog(example: str) -> str:
    """Help text for expression arguments: argparse reads a leading ``-`` as
    an option, so such an expression must follow ``--``."""
    return (
        "An expression that starts with '-' must follow '--', after all "
        f"options: %(prog)s -- {example}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermoyal",
        description="Exact star products, brackets and interference analysis "
        "over complex and split-complex scalars.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_star = sub.add_parser("star", help="star product of two symbol expressions",
                            epilog=_dash_epilog("-q p"))
    p_star.add_argument("a")
    p_star.add_argument("b")
    p_star.add_argument("--dof", type=int, default=None)
    p_star.add_argument("--degree-cap", type=int, default=None)
    p_star.add_argument("--h", default=None,
                        help="evaluate the result at this rational h instead of "
                        "leaving h formal")
    _add_sigma(p_star, both=True)
    _add_output(p_star)
    p_star.set_defaults(handler=_cmd_star)

    p_limit = sub.add_parser(
        "limit", help="classical-limit residual of the scaled star commutator",
        epilog=_dash_epilog("-q p"),
    )
    p_limit.add_argument("a")
    p_limit.add_argument("b")
    p_limit.add_argument("--dof", type=int, default=None)
    p_limit.add_argument("--degree-cap", type=int, default=None)
    p_limit.add_argument("--steps", type=int, default=6,
                         help="number of halving h values to tabulate")
    _add_sigma(p_limit, both=True)
    _add_output(p_limit)
    p_limit.set_defaults(handler=_cmd_limit)

    p_fourier = sub.add_parser(
        "fourier", help="Fourier transform of a JSON atom-list distribution"
    )
    p_fourier.add_argument("input", help="path to the distribution JSON ('-' = stdin)")
    _add_output(p_fourier)
    p_fourier.set_defaults(handler=_cmd_fourier)

    p_apply = sub.add_parser(
        "apply", help="apply an operator JSON to a wavefunction JSON"
    )
    p_apply.add_argument("operator")
    p_apply.add_argument("wavefunction")
    _add_output(p_apply)
    p_apply.set_defaults(handler=_cmd_apply)

    p_intf = sub.add_parser(
        "interfere", help="classify observed probability tables from a CSV file"
    )
    p_intf.add_argument("csv", help="rows: P(a1), P(b1|a1), P(b1|a2), P(b1)")
    _add_output(p_intf, ("json", "csv"))
    p_intf.set_defaults(handler=_cmd_interfere)

    p_super = sub.add_parser("super", help="Grassmann product and annihilator witness",
                             epilog=_dash_epilog("-t1 t2"))
    p_super.add_argument("a", nargs="?", default=None)
    p_super.add_argument("b", nargs="?", default=None)
    p_super.add_argument("--gens", type=int, default=None)
    p_super.add_argument("--witness", type=int, default=None,
                         help="emit the top-monomial annihilator witness for n generators")
    _add_sigma(p_super)
    _add_output(p_super)
    p_super.set_defaults(handler=_cmd_super)

    p_self = sub.add_parser("selftest", help="run the full verification suite")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--fast", action="store_true",
                        help="reduced case counts for quick runs")
    _add_output(p_self, ("json", "text"))
    p_self.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status, renderers = args.handler(args)
        text = renderers[args.format]()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return status
    except (HypermoyalError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
