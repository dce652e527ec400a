"""Command-line surface: reproducible demonstrations and machine reports.

Subcommands: ``star``, ``limit``, ``fourier``, ``apply``, ``interfere``,
``super``, ``selftest``.  All output is deterministic for a fixed seed and
configuration: canonical term ordering, floats printed with 12 significant
digits, JSON keys sorted.  Exit status is 0 exactly when every requested
check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import HypermoyalError, ValidationError, json_field
from .parsing import parse_symbol
from .scalars import Sigma, _json_fraction, as_sigma
from .symbols import PhasePoint, poisson_bracket, scaled_bracket, star


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return f"{float(value):.12g}"


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _sigmas(value: str):
    if value == "both":
        return (Sigma.HYPERBOLIC, Sigma.COMPLEX)
    return (as_sigma(value),)


def _read_json(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- subcommand handlers -----------------------------------------------------


def _parse_pair(a_text: str, b_text: str, sigma: Sigma, dof):
    """Parse two expressions over a shared number of degrees of freedom."""
    if dof is None:
        dof = max(parse_symbol(a_text, sigma).dof, parse_symbol(b_text, sigma).dof)
    return parse_symbol(a_text, sigma, dof), parse_symbol(b_text, sigma, dof)


def _positive_h(text: str) -> Fraction:
    try:
        h = Fraction(text)
    except (ValueError, ZeroDivisionError):
        h = 0
    if h <= 0:
        raise ValidationError(f"--h must be a positive rational, got {text}")
    return h


def _cmd_star(args) -> int:
    h = None if args.h is None else _positive_h(args.h)
    lines = []
    payload = []
    for sigma in _sigmas(args.sigma):
        a, b = _parse_pair(args.a, args.b, sigma, args.dof)
        result = star(a, b, args.degree_cap)
        if h is not None:
            result = result.substitute_h(h)
        lines.append(f"sigma={sigma}: {result.to_text()}")
        payload.append({"sigma": sigma.value, "result": result.to_text(),
                        "terms": result.to_json_dict()["terms"]})
    if args.format == "json":
        _emit(_dump_json(payload if len(payload) > 1 else payload[0]), args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_limit(args) -> int:
    if args.steps < 0:
        raise ValidationError(f"--steps must be >= 0, got {args.steps}")
    all_zero = True
    blocks = []
    payload = []
    h_values = [Fraction(1, 2**n) for n in range(args.steps)]
    for sigma in _sigmas(args.sigma):
        a, b = _parse_pair(args.a, args.b, sigma, args.dof)
        residual = scaled_bracket(a, b, args.degree_cap) - poisson_bracket(a, b)
        constant = residual.h_constant_part()
        ok = constant.is_zero()
        all_zero = all_zero and ok
        point = PhasePoint((1,) * a.dof, (1,) * a.dof)
        rows = []
        for h in h_values:
            value = residual.evaluate(point, h)
            rows.append((h, value))
        block = [f"sigma={sigma}: residual = {residual.to_text()}",
                 f"  constant term zero: {'yes' if ok else 'NO'}"]
        for h, value in rows:
            re, im = value.to_floats()
            block.append(f"  h={str(h):>8}  residual(1,..,1) = {_fmt(re)} + {_fmt(im)}u")
        blocks.append("\n".join(block))
        payload.append(
            {
                "sigma": sigma.value,
                "residual": residual.to_text(),
                "constant_term_zero": ok,
                "values_at_ones": [
                    {"h": str(h), "re": _fmt(v.to_floats()[0]), "im": _fmt(v.to_floats()[1])}
                    for h, v in rows
                ],
            }
        )
    if args.format == "json":
        _emit(_dump_json(payload if len(payload) > 1 else payload[0]), args.out)
    else:
        _emit("\n".join(blocks) + "\n", args.out)
    return 0 if all_zero else 1


def _cmd_fourier(args) -> int:
    from .distributions import Ultradistribution

    data = _read_json(args.input)
    distribution = Ultradistribution.from_json_dict(data)
    image = distribution.fourier()
    if args.format == "json":
        _emit(_dump_json(image.to_json_dict()), args.out)
    else:
        _emit(image.to_text() + "\n", args.out)
    return 0


def _load(role: str, path: str, build):
    """``build`` of the JSON in ``path``; an error in it is prefixed with ``role``."""
    return json_field({role: _read_json(path)}, role, build)


def _operator_from_json(op_data) -> Operator:
    from .operators import Operator

    if isinstance(op_data, dict) and isinstance(op_data.get("symbol"), str):
        sigma = json_field(op_data, "sigma", as_sigma)
        symbol = parse_symbol(op_data["symbol"], sigma)
        return Operator(symbol, json_field(op_data, "h", _json_fraction), sigma)
    return Operator.from_json_dict(op_data)


def _cmd_apply(args) -> int:
    from .operators import WaveFunction

    operator = _load("operator", args.operator, _operator_from_json)
    phi = _load("wavefunction", args.wavefunction, WaveFunction.from_json_dict)
    result = operator.apply(phi)
    if args.format == "json":
        _emit(_dump_json(result.to_json_dict()), args.out)
    else:
        _emit(result.to_text() + "\n", args.out)
    return 0


def _cmd_interfere(args) -> int:
    from . import interference as intf

    rows = intf.contexts_from_csv(args.csv)
    report_rows = []
    for row_number, ctx in rows:
        report = intf.classify(ctx)
        ranges = intf.theta_range(ctx.p_a, ctx.cond)
        report_rows.append(
            {
                "row": row_number,
                "report": report.to_json_dict(),
                "theta_range": [r.to_json_dict() for r in ranges],
            }
        )
    if args.format == "csv":
        lines = [
            "row,outcome,observed,classical,d,lambda,regime,theta,cosh_max,residual"
        ]
        for entry in report_rows:
            for j, outcome in enumerate(entry["report"]["outcomes"]):
                bound = entry["theta_range"][j]["cosh_max"]
                lines.append(
                    ",".join(
                        [
                            str(entry["row"]),
                            str(j + 1),
                            outcome["observed"],
                            outcome["classical"],
                            outcome["d"],
                            outcome["lambda"] if outcome["lambda"] is not None else "",
                            outcome["regime"],
                            outcome["theta"] if outcome["theta"] is not None else "",
                            bound if bound is not None else "",
                            entry["report"]["normalization_residual"],
                        ]
                    )
                )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump_json(report_rows), args.out)
    return 0


def _cmd_super(args) -> int:
    from .grassmann import annihilator_witness, supercommutator
    from .parsing import parse_grassmann

    sigma = as_sigma(args.sigma)
    if args.witness is not None:
        n = args.witness
        witness = annihilator_witness(n, sigma)
        odd_count = 1 << (n - 1)
        payload = {
            "witness": str(witness),
            "generators": n,
            "odd_monomials_annihilated": odd_count,
            "nonzero": not witness.is_zero(),
        }
        if args.format == "json":
            _emit(_dump_json(payload), args.out)
        else:
            _emit(
                f"witness = {witness} annihilates all {odd_count} odd basis "
                f"monomials and is nonzero\n",
                args.out,
            )
        return 0
    if not (args.a and args.b):
        raise HypermoyalError("super needs two expressions or --witness N")
    a = parse_grassmann(args.a, sigma, args.gens)
    b = parse_grassmann(args.b, sigma, args.gens)
    n = max(a.n, b.n)
    a = parse_grassmann(args.a, sigma, n)
    b = parse_grassmann(args.b, sigma, n)
    product = a * b
    scomm = supercommutator(a, b)
    payload = {
        "a": str(a),
        "b": str(b),
        "parity_a": str(a.parity()),
        "parity_b": str(b.parity()),
        "product": str(product),
        "supercommutator": str(scomm),
    }
    if args.format == "json":
        _emit(_dump_json(payload), args.out)
    else:
        _emit(
            "\n".join(
                [
                    f"a = {a}  (parity {a.parity()})",
                    f"b = {b}  (parity {b.parity()})",
                    f"a*b = {product}",
                    f"supercommutator = {scomm}",
                ]
            )
            + "\n",
            args.out,
        )
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    report = run_selftest(seed=args.seed, fast=args.fast)
    if args.format == "text":
        lines = []
        for c in report["criteria"]:
            status = "PASS" if c["passed"] else "FAIL"
            lines.append(
                f"[{status}] {c['id']:>2}. {c['name']} "
                f"({c['cases']} cases, {c['failures']} failures)"
            )
        lines.append("all passed" if report["all_passed"] else "FAILURES PRESENT")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump_json(report), args.out)
    return 0 if report["all_passed"] else 1


# -- argument wiring --------------------------------------------------------------


def _add_output(parser, default="text"):
    parser.add_argument("--format", default=default, choices=["text", "json", "csv"],
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
    _add_output(p_intf, default="json")
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
    _add_output(p_self, default="json")
    p_self.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (HypermoyalError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
