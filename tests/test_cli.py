"""End-to-end tests of the command-line interface."""

import copy
import io
import json
import random
import sys
from fractions import Fraction

import pytest
from conftest import run_fresh

import hypermoyal
from hypermoyal import (
    Binarion,
    ExpPoly,
    GrassmannElement,
    PolySymbol,
    Sigma,
    Ultradistribution,
    WaveFunction,
    contexts_from_csv,
    theta_range,
)
from hypermoyal.cli import MAX_STEPS, main
from hypermoyal.grassmann import MAX_WITNESS_GENERATORS
from hypermoyal.parsing import MAX_DEPTH, MAX_DIGITS, MAX_INDEX
from test_interference import _near_boundary_tables

H = Sigma.HYPERBOLIC


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- star ---------------------------------------------------------------------


def test_star_hyperbolic(capsys):
    code, out, _ = run(capsys, "star", "p", "q", "--sigma", "+1")
    assert code == 0
    assert out == "sigma=+1: q1*p1 + 1j*h\n"


def test_star_complex(capsys):
    code, out, _ = run(capsys, "star", "q", "p", "--sigma", "-1")
    assert code == 0
    assert out == "sigma=-1: q1*p1\n"


def test_star_sign_after_an_operator_binds_looser_than_power(capsys):
    expected = "sigma=+1: -q1^2*p1^2 - 2j*h*q1*p1\n"
    assert run(capsys, "star", "q*-p^2", "q") == (0, expected, "")
    assert run(capsys, "star", "--", "-q*p^2", "q") == (0, expected, "")


def test_star_deep_nesting_is_one_line_error(capsys):
    code, out, err = run(capsys, "star", "(" * 250 + "q" + ")" * 250, "q")
    assert (code, out) == (2, "")
    assert err == f"error: parentheses nested deeper than {MAX_DEPTH} (at position {MAX_DEPTH})\n"


def test_star_unit_absorbs(capsys):
    code, out, _ = run(capsys, "star", "1", "q^2", "--sigma", "+1")
    assert code == 0
    assert out == "sigma=+1: q1^2\n"


def test_star_both_signatures(capsys):
    code, out, _ = run(capsys, "star", "p", "q", "--sigma", "both")
    assert code == 0
    assert out.splitlines() == [
        "sigma=+1: q1*p1 + 1j*h",
        "sigma=-1: q1*p1 - 1i*h",
    ]


def test_star_numeric_h(capsys):
    code, out, _ = run(capsys, "star", "p", "q", "--sigma", "+1", "--h", "1/2")
    assert code == 0
    assert out == "sigma=+1: q1*p1 + 1/2j\n"
    code, _, err = run(capsys, "star", "p", "q", "--h", "-1")
    assert code == 2 and "positive" in err


def test_star_h_must_be_a_rational(capsys):
    for value in ("abc", "1/0"):
        code, out, err = run(capsys, "star", "p", "q", "--h", value)
        assert code == 2 and out == ""
        assert err == f"error: --h must be a positive rational, got {value}\n"


def test_star_expression_with_leading_minus_follows_double_dash(capsys):
    code, out, _ = run(capsys, "star", "--", "-q", "p")
    assert code == 0
    assert out == "sigma=+1: -q1*p1\n"


def test_star_json_format(capsys):
    code, out, _ = run(capsys, "star", "p", "q", "--sigma", "+1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == "q1*p1 + 1j*h"


def test_star_parse_error_has_position_and_fails(capsys):
    code, _, err = run(capsys, "star", "p", "q +", "--sigma", "+1")
    assert code == 2
    assert "position" in err


# -- limit ----------------------------------------------------------------------


def test_limit_q_p_is_exact(capsys):
    code, out, _ = run(capsys, "limit", "q", "p", "--sigma", "both")
    assert code == 0
    assert "residual = 0" in out


def test_limit_cubes_shows_linear_decay(capsys):
    code, out, _ = run(capsys, "limit", "q^3", "p^3", "--sigma", "+1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["constant_term_zero"] is True
    values = data["values_at_ones"]
    # the residual is O(h): successive halvings shrink by at least ~2
    norms = [abs(float(v["re"])) + abs(float(v["im"])) for v in values]
    for a, b in zip(norms, norms[1:]):
        assert b < a / 1.9


def test_limit_negative_steps_rejected(capsys):
    code, out, err = run(capsys, "limit", "p", "q", "--steps", "-3")
    assert code == 2 and out == ""
    assert err == "error: --steps must be >= 0, got -3\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_limit_value_too_large_for_a_float_is_one_line_error(capsys, fmt):
    code, out, err = run(capsys, "limit", "10^400*q^2", "p^2", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: value too large for a float\n"


def _fail_on_use(*args, **kwargs):
    raise AssertionError("built before the limit was checked")


def test_limit_too_many_steps_rejected_before_any_work(monkeypatch, capsys):
    monkeypatch.setattr("hypermoyal.cli.parse_symbol", _fail_on_use)
    code, out, err = run(capsys, "limit", "q^3", "p^3", "--steps", str(MAX_STEPS + 1))
    assert code == 2 and out == ""
    assert err == f"error: --steps must be <= {MAX_STEPS}, got {MAX_STEPS + 1}\n"


def test_limit_at_most_steps_is_tabulated(capsys):
    code, out, err = run(capsys, "limit", "q", "p", "--steps", str(MAX_STEPS), "--format", "json")
    assert (code, err) == (0, "")
    rows = json.loads(out)["values_at_ones"]
    assert len(rows) == MAX_STEPS
    assert rows[-1]["h"] == str(Fraction(1, 2 ** (MAX_STEPS - 1)))


LONG = "9" * (MAX_DIGITS + 1)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["star", "q99999999999999999999", "p"], f"index of 'q' above {MAX_INDEX} (at position 0)"),
        (["star", "p", f"2*p{MAX_INDEX + 1}"], f"index of 'p' above {MAX_INDEX} (at position 2)"),
        (["star", "p", "q", "--dof", "99999999999999999999"],
         f"dof must be <= {MAX_INDEX}, got 99999999999999999999"),
        (["limit", "p", "q", "--dof", str(MAX_INDEX + 1)],
         f"dof must be <= {MAX_INDEX}, got {MAX_INDEX + 1}"),
        (["star", "q" + LONG, "p"], f"more than {MAX_DIGITS} digits in a row (at position 0)"),
        (["star", LONG, "p"], f"more than {MAX_DIGITS} digits in a row (at position 0)"),
        (["star", "p", "1/" + LONG], f"more than {MAX_DIGITS} digits in a row (at position 2)"),
        (["super", "t" + LONG, "t1"], f"more than {MAX_DIGITS} digits in a row (at position 0)"),
        (["super", "t99999999999999999999", "t1", "--gens", "2"],
         f"index of 't' above {MAX_INDEX} (at position 0)"),
    ],
)
def test_oversized_index_or_literal_is_refused_before_anything_is_built(
    monkeypatch, capsys, argv, message
):
    for owner, name in ((PolySymbol, "constant"), (PolySymbol, "coordinate"),
                        (GrassmannElement, "scalar"), (GrassmannElement, "generator")):
        monkeypatch.setattr(owner, name, _fail_on_use)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("expression", ["2^15000", "*".join(["9" * MAX_DIGITS] * 5)])
def test_coefficient_past_the_int_to_text_limit_is_one_line_error(capsys, expression, fmt):
    code, out, err = run(capsys, "star", expression, "1", "--format", fmt)
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"error: number too long to write: more than {limit} digits\n"


def test_limit_constant_inputs(capsys):
    code, out, _ = run(capsys, "limit", "5", "q", "--sigma", "+1")
    assert code == 0
    assert "residual = 0" in out


# -- fourier and apply -------------------------------------------------------------


def test_fourier_command(tmp_path, capsys):
    lam = Ultradistribution.delta((0,), H, order=(2,))
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(lam.to_json_dict()), encoding="utf-8")
    code, out, _ = run(capsys, "fourier", str(path))
    assert code == 0
    # (-j*y)^2 = j^2 * y^2 = y^2 in the hyperbolic ring
    assert out.strip() == "x1^2"


def test_fourier_json_round_trip(tmp_path, capsys):
    lam = Ultradistribution.delta((Fraction(1, 2),), H, weight=Binarion(0, 1, H))
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(lam.to_json_dict()), encoding="utf-8")
    code, out, _ = run(capsys, "fourier", str(path), "--format", "json")
    assert code == 0
    assert ExpPoly.from_json_dict(json.loads(out)) == lam.fourier()


def test_fourier_reads_its_document_from_stdin(monkeypatch, capsys):
    lam = Ultradistribution.delta((0,), H, order=(2,))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(lam.to_json_dict())))
    assert run(capsys, "fourier", "-") == (0, "x1^2\n", "")


#: JSON text the parser refuses, and its one-line message.
UNREADABLE_JSON = {
    "long-order": (
        '{"dim": 1, "sigma": 1, "atoms": [{"loc": ["0"], "order": [' + "9" * 4400 + "]}]}",
        "Exceeds the limit (4300 digits) for integer string conversion: value has 4400 digits; "
        "use sys.set_int_max_str_digits() to increase the limit"),
    "deep-nesting": (
        "[" * 100000,
        "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
    "truncated": (
        "{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
}


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("text, message", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON)
def test_fourier_unreadable_json_is_one_line_error(tmp_path, monkeypatch, capsys, text, message,
                                                    source):
    path = tmp_path / "atoms.json"
    path.write_text(text, encoding="utf-8")
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
    argument = str(path) if source == "file" else "-"
    assert run(capsys, "fourier", argument) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("bad, prefix", [(0, "operator"), (1, "wavefunction")])
@pytest.mark.parametrize("text, message", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON)
def test_apply_unreadable_json_names_its_document(tmp_path, capsys, text, message, bad, prefix):
    paths = [tmp_path / "op.json", tmp_path / "phi.json"]
    for i, (path, good) in enumerate(zip(paths, (json.dumps(OPERATOR), json.dumps(WAVE)))):
        path.write_text(text if i == bad else good, encoding="utf-8")
    assert run(capsys, "apply", *map(str, paths)) == (2, "", f"error: {prefix}: {message}\n")


def test_apply_command_with_expression_symbol(tmp_path, capsys):
    op_path = tmp_path / "op.json"
    op_path.write_text(
        json.dumps({"symbol": "p", "h": "1/2", "sigma": 1}), encoding="utf-8"
    )
    phi = WaveFunction.plane_wave(Fraction(1), Fraction(1, 2), H)
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps(phi.to_json_dict()), encoding="utf-8")
    code, out, _ = run(capsys, "apply", str(op_path), str(phi_path), "--format", "json")
    assert code == 0
    result = WaveFunction.from_json_dict(json.loads(out))
    # plane wave with momentum 1 is an eigenfunction with eigenvalue 1
    assert result == phi


def test_apply_command_missing_file_fails(capsys):
    code, _, err = run(capsys, "apply", "/nonexistent.json", "/also-missing.json")
    assert code == 2
    assert err


ATOMS = {"dim": 1, "sigma": 1, "atoms": [{"loc": ["1/2"], "order": [2], "weight": {"re": "1"}}]}
OPERATOR = {
    "h": "1/2",
    "sigma": 1,
    "kind": "poly",
    "symbol": {"dof": 1, "sigma": 1, "terms": [{"q": [0], "p": [1], "coeff": [{"h": 0, "re": "1"}]}]},
}
WAVE = {"h": "1/2", "func": {"dim": 1, "sigma": 1, "terms": [{"freq": ["2"], "exp": [0], "coeff": {"re": "1"}}]}}


def _drop_atoms(d):
    del d["atoms"]


def _negative_order(d):
    d["atoms"][0]["order"] = [-1]


def _bad_sigma(d):
    d["sigma"] = 3


def _bad_loc(d):
    d["atoms"][0]["loc"] = ["x"]


@pytest.mark.parametrize(
    "malform, message",
    [
        (_drop_atoms, "missing field 'atoms'"),
        (_negative_order, "atoms: order: derivative orders must be nonnegative"),
        (_bad_sigma, "sigma: not a signature: 3"),
        (_bad_loc, "atoms: loc: Invalid literal for Fraction: 'x'"),
    ],
)
def test_fourier_malformed_json_is_one_line_error(tmp_path, capsys, malform, message):
    data = copy.deepcopy(ATOMS)
    malform(data)
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(capsys, "fourier", str(path)) == (2, "", f"error: {message}\n")


def test_apply_malformed_json_is_one_line_error(tmp_path, capsys):
    op = copy.deepcopy(OPERATOR)
    del op["symbol"]["terms"]
    wave = copy.deepcopy(WAVE)
    wave["h"] = "0"
    paths = {}
    for name, data in (("op", OPERATOR), ("bad_op", op), ("wave", WAVE), ("bad_wave", wave)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data), encoding="utf-8")
    assert run(capsys, "apply", str(paths["op"]), str(paths["wave"]))[0] == 0
    assert run(capsys, "apply", str(paths["bad_op"]), str(paths["wave"])) == (
        2, "", "error: operator: symbol: missing field 'terms'\n")
    assert run(capsys, "apply", str(paths["op"]), str(paths["bad_wave"])) == (
        2, "", "error: wavefunction: h must be a positive rational\n")


def test_apply_h_mismatch_is_one_line_error_without_traceback(tmp_path):
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps({"symbol": "q*p", "h": "1/2", "sigma": 1}), encoding="utf-8")
    phi = WaveFunction.plane_wave(Fraction(1), Fraction(1, 3), H)
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps(phi.to_json_dict()), encoding="utf-8")
    result = run_fresh("-m", "hypermoyal.cli", "apply", str(op_path), str(phi_path), timeout=30)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: operator h 1/2 differs from wavefunction h 1/3\n"
    assert "Traceback" not in result.stderr


def test_apply_over_degree_cap_is_one_line_error(tmp_path, capsys):
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps({"symbol": "q^17", "h": "1/2", "sigma": 1}), encoding="utf-8")
    wave_path = tmp_path / "wave.json"
    wave_path.write_text(json.dumps(WAVE), encoding="utf-8")
    assert run(capsys, "apply", str(op_path), str(wave_path)) == (
        2, "", "error: operator symbol degree 17 exceeds cap 16\n")


def _one_term(dim, freq, exp) -> dict:
    """The JSON form of ``exp(freq . x) x^exp`` on ``dim`` variables, sigma = +1."""
    return {"dim": dim, "sigma": 1,
            "terms": [{"freq": freq, "exp": exp, "coeff": {"re": "1", "im": "0"}}]}


#: (operator document, wavefunction document) whose product has a number one
#: past the int-to-text limit.
APPLY_PAST_THE_LIMIT = {
    # each frequency has a 4,000-digit denominator; their sum, the result's
    # frequency, has one of about 8,000 digits
    "key": ({"h": "1", "sigma": 1, "kind": "exp",
             "symbol": _one_term(2, [f"1/{10**3999 + 3}", "0"], [0, 0])},
            {"h": "1", "func": _one_term(1, [f"1/{10**3999 + 1}"], [0])}),
    # the wavefunction's exponent has 4,300 digits, at the limit; times q it
    # has 4,301, one past, in the text and in the JSON integer field alike
    "exponent": ({"symbol": "q", "h": "1", "sigma": 1},
                 {"h": "1", "func": _one_term(1, ["0"], [10**4300 - 1])}),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("documents", APPLY_PAST_THE_LIMIT.values(), ids=APPLY_PAST_THE_LIMIT)
def test_apply_result_past_the_int_to_text_limit_is_one_line_error(tmp_path, capsys, documents,
                                                                   fmt):
    op_path, wave_path = tmp_path / "op.json", tmp_path / "wave.json"
    for path, document in zip((op_path, wave_path), documents):
        path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(capsys, "apply", str(op_path), str(wave_path), "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: number too long to write: more than 4300 digits\n"


GRASSMANN = {"n": 2, "sigma": 1, "terms": [{"gens": [1, 2], "re": "1"}]}

#: (reader, document, path to the field, value): an integer field holding a
#: value that ``int`` would change or reject, or a generator outside ``1..n``.
BAD_INTEGERS = [
    (PolySymbol, OPERATOR["symbol"], ("dof",), 1.5),
    (PolySymbol, OPERATOR["symbol"], ("terms", 0, "q"), [0.5]),
    (PolySymbol, OPERATOR["symbol"], ("terms", 0, "q"), [[0]]),
    (PolySymbol, OPERATOR["symbol"], ("terms", 0, "q"), ["a"]),
    (PolySymbol, OPERATOR["symbol"], ("terms", 0, "p"), ["1"]),
    (PolySymbol, OPERATOR["symbol"], ("terms", 0, "coeff", 0, "h"), 0.5),
    (ExpPoly, WAVE["func"], ("dim",), "1"),
    (ExpPoly, WAVE["func"], ("terms", 0, "exp"), [2.7]),
    (Ultradistribution, ATOMS, ("dim",), 1.5),
    (Ultradistribution, ATOMS, ("atoms", 0, "order"), [1.9]),
    (GrassmannElement, GRASSMANN, ("n",), 2.5),
    (GrassmannElement, GRASSMANN, ("terms", 0, "gens"), [1.5]),
    (GrassmannElement, GRASSMANN, ("terms", 0, "gens"), [0]),
    (GrassmannElement, GRASSMANN, ("terms", 0, "gens"), [10**9]),
]


def _with(document, path, value):
    data = copy.deepcopy(document)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


@pytest.mark.parametrize("reader, document, path, value", BAD_INTEGERS)
def test_integer_fields_refuse_what_int_would_change(reader, document, path, value):
    """The error names the field; a generator is checked against ``1..n``
    before its bit is built."""
    with pytest.raises(hypermoyal.HypermoyalError) as info:
        reader.from_json_dict(_with(document, path, value))
    assert f"{path[-1]}: " in str(info.value)


#: (reader, document, path to the field, value): a JSON boolean where an
#: integer belongs, which ``int`` would read as 0 or 1.
BOOLEANS = [
    (PolySymbol, OPERATOR["symbol"], ("dof",), True),
    (PolySymbol, OPERATOR["symbol"], ("terms", 0, "q"), [True]),
    (PolySymbol, OPERATOR["symbol"], ("terms", 0, "coeff", 0, "h"), True),
    (ExpPoly, WAVE["func"], ("terms", 0, "exp"), [False]),
    (Ultradistribution, ATOMS, ("dim",), True),
    (GrassmannElement, GRASSMANN, ("terms", 0, "gens"), [True, 2]),
]


@pytest.mark.parametrize("reader, document, path, value", BOOLEANS)
def test_integer_fields_refuse_booleans(reader, document, path, value):
    with pytest.raises(hypermoyal.HypermoyalError) as info:
        reader.from_json_dict(_with(document, path, value))
    assert f"{path[-1]}: " in str(info.value) and "is not an integer" in str(info.value)


def test_apply_refuses_an_unknown_operator_kind(tmp_path, capsys):
    """A missing ``kind`` still means ``poly``."""
    no_kind = copy.deepcopy(OPERATOR)
    del no_kind["kind"]
    paths = {}
    for name, data in (("polly", _with(OPERATOR, ("kind",), "polly")), ("none", no_kind),
                       ("wave", WAVE)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data), encoding="utf-8")
    assert run(capsys, "apply", str(paths["polly"]), str(paths["wave"])) == (
        2, "", "error: operator: kind: expected 'poly' or 'exp', got 'polly'\n")
    assert run(capsys, "apply", str(paths["none"]), str(paths["wave"]))[0] == 0


def _write_documents(tmp_path, documents) -> list:
    paths = []
    for i, data in enumerate(documents):
        paths.append(tmp_path / f"input{i}.json")
        paths[-1].write_text(json.dumps(data), encoding="utf-8")
    return [str(path) for path in paths]


EXPRESSION_OPERATOR = {"symbol": "q*p", "h": "1/3", "sigma": 1}
PLANE_WAVE_THIRD = WaveFunction.plane_wave(Fraction(1), Fraction(1, 3), H).to_json_dict()


@pytest.mark.parametrize("kind, message", [
    ("bogus", "operator: kind: expected 'poly' or 'exp', got 'bogus'"),
    ("exp", "operator: symbol: an expression is a 'poly' symbol, not 'exp'"),
])
def test_apply_reads_an_expression_symbol_only_as_kind_poly(tmp_path, capsys, kind, message):
    """An expression symbol passes through the one operator reader, which
    refuses any ``kind`` but ``poly``; without ``kind`` it still reads."""
    op, bad_op, wave = _write_documents(
        tmp_path, (EXPRESSION_OPERATOR, {**EXPRESSION_OPERATOR, "kind": kind}, PLANE_WAVE_THIRD)
    )
    assert run(capsys, "apply", bad_op, wave) == (2, "", f"error: {message}\n")
    assert run(capsys, "apply", op, wave) == (0, "q1*exp(j*(3*q1))\n", "")
    poly_op = _write_documents(tmp_path, ({**EXPRESSION_OPERATOR, "kind": "poly"},))[0]
    assert run(capsys, "apply", poly_op, wave) == (0, "q1*exp(j*(3*q1))\n", "")


@pytest.mark.parametrize("operator, message", [
    ({"symbol": {"sigma": 1, "dof": 1}, "h": "1/3"}, "operator: symbol: missing field 'terms'"),
    ({"symbol": "q*", "h": "1/3"}, "operator: missing field 'sigma'"),
], ids=["term-map", "expression"])
def test_apply_reads_the_sigma_first_only_for_an_expression(tmp_path, capsys, operator, message):
    """A term-map symbol is read before ``h`` and ``sigma``; an expression is
    parsed at the file's ``sigma``, which is therefore read first."""
    paths = _write_documents(tmp_path, (operator, PLANE_WAVE_THIRD))
    assert run(capsys, "apply", *paths) == (2, "", f"error: {message}\n")


PLANE_WAVE_THIRD_2 = WaveFunction.plane_wave((1, 2), Fraction(1, 3), H).to_json_dict()


@pytest.mark.parametrize("operator, result", [
    (EXPRESSION_OPERATOR, (0, "q1*exp(j*(3*q1 + 6*q2))\n", "")),
    ({**EXPRESSION_OPERATOR, "symbol": "q3*p1"},
     (2, "", "error: operator: symbol: variable 'q3' out of range for dof 2 (at position 0)\n")),
    ({**OPERATOR, "h": "1/3"}, (2, "", "error: operator dof 1 differs from wavefunction dof 2\n")),
], ids=["expression", "index-above-dof", "term-map"])
def test_apply_reads_an_expression_at_the_wavefunction_dof(tmp_path, capsys, operator, result):
    """An expression symbol is parsed at the wavefunction's dof; a term map
    keeps its own dof and is refused when it differs."""
    paths = _write_documents(tmp_path, (operator, PLANE_WAVE_THIRD_2))
    assert run(capsys, "apply", *paths) == result


@pytest.mark.parametrize("command, documents, message", [
    ("apply", ({**EXPRESSION_OPERATOR, "h": "1/0"}, PLANE_WAVE_THIRD),
     "operator: h: zero denominator in '1/0'"),
    ("apply", (EXPRESSION_OPERATOR, {**PLANE_WAVE_THIRD, "h": "1/0"}),
     "wavefunction: h: zero denominator in '1/0'"),
    ("fourier", (_with(ATOMS, ("atoms", 0, "loc"), ["1/0"]),),
     "atoms: loc: zero denominator in '1/0'"),
], ids=["operator", "wavefunction", "atoms"])
def test_a_zero_denominator_is_named_as_such(tmp_path, capsys, command, documents, message):
    paths = _write_documents(tmp_path, documents)
    assert run(capsys, command, *paths) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "command, documents, message",
    [
        ("apply", (_with(OPERATOR, ("symbol", "terms", 0, "q"), [0.5]), WAVE),
         "operator: symbol: terms: q: 0.5 is not an integer"),
        ("apply", (OPERATOR, _with(WAVE, ("func", "terms", 0, "exp"), [2.7])),
         "wavefunction: func: terms: exp: 2.7 is not an integer"),
        ("fourier", (_with(ATOMS, ("atoms", 0, "order"), [1.9]),),
         "atoms: order: 1.9 is not an integer"),
    ],
)
def test_non_integer_exponent_or_order_is_one_line_error(
    tmp_path, capsys, command, documents, message
):
    paths = []
    for i, data in enumerate(documents):
        paths.append(tmp_path / f"input{i}.json")
        paths[-1].write_text(json.dumps(data), encoding="utf-8")
    assert run(capsys, command, *map(str, paths)) == (2, "", f"error: {message}\n")


# -- interfere -----------------------------------------------------------------------


CSV_ROWS = "0.5,0.5,0.5,0.5\n0.5,0.5,0.5,0.9\n0.5,0.9,0.1,0.95\n"


def test_interfere_json_report(tmp_path, capsys):
    path = tmp_path / "tables.csv"
    path.write_text(CSV_ROWS, encoding="utf-8")
    code, out, _ = run(capsys, "interfere", str(path))
    assert code == 0
    data = json.loads(out)
    assert [d["report"]["outcomes"][0]["regime"] for d in data] == [
        "trigonometric",
        "trigonometric",
        "hyperbolic",
    ]
    assert data[1]["report"]["outcomes"][0]["lambda"] == "4/5"
    assert data[2]["report"]["outcomes"][0]["lambda"] == "3/2"
    assert data[2]["theta_range"][0]["cosh_max"] == "5/3"


def test_interfere_csv_report(tmp_path, capsys):
    path = tmp_path / "tables.csv"
    path.write_text(CSV_ROWS, encoding="utf-8")
    code, out, _ = run(capsys, "interfere", str(path), "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("row,outcome,")
    assert len(lines) == 1 + 6  # header + two outcomes per table


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("row, message", [
    # D^2 > 0, but D is below the smallest float
    (f"1/{10**2999 + 1},1/{10**2999 + 3},1/2,1/2", "value too small for a float"),
    # D is exact, and lambda is about 10^2000
    (f"1/{10**4000},1,{10**4000 - 1}/{10**4000},1/2", "value too large for a float"),
])
def test_interfere_row_past_the_float_range_is_one_line_error(tmp_path, capsys, row, message,
                                                              fmt):
    path = tmp_path / "tables.csv"
    path.write_text(row + "\n", encoding="utf-8")
    assert run(capsys, "interfere", str(path), "--format", fmt) == (2, "", f"error: {message}\n")


def test_interfere_empty_csv(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    code, out, _ = run(capsys, "interfere", str(path))
    assert code == 0
    assert json.loads(out) == []


def test_interfere_malformed_probability(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,0.5,0.5,1.2\n", encoding="utf-8")
    code, _, err = run(capsys, "interfere", str(path))
    assert code == 2
    assert "row 1" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_interfere_takes_one_square_root_per_outcome(tmp_path, monkeypatch, capsys, fmt):
    """The theta ranges come from the classification of each row, so each
    outcome's ``D`` is taken once, the degenerate ``D = 0`` included."""
    from hypermoyal import interference

    rows = CSV_ROWS + "0.5,0,0.5,0.25\n"  # outcome 1 of the last row has D = 0
    path = tmp_path / "tables.csv"
    path.write_text(rows, encoding="utf-8")
    sqrt, calls = interference._sqrt, []

    def counting(value):
        calls.append(value)
        return sqrt(value)

    monkeypatch.setattr(interference, "_sqrt", counting)
    code, out, err = run(capsys, "interfere", str(path), "--format", fmt)
    assert (code, err) == (0, "")
    assert "degenerate" in out
    assert len(calls) == 2 * rows.count("\n")


def _oracle_table(seed: int) -> list:
    """About 200 rows of four cells: decimal and fraction text mixed, every
    eighth row with a 0 or 1 that makes ``D = 0`` for one or both outcomes,
    and the near-boundary tables of the ``theta_range`` tests."""
    rng = random.Random(seed)

    def cell():
        if rng.random() < 0.5:
            return str(Fraction(rng.randint(0, 20), 20))
        return f"0.{rng.randint(0, 999):03d}"

    rows = []
    for n in range(160):
        cells = [cell() for _ in range(4)]
        if n % 8 == 0:
            cells[rng.randrange(3)] = rng.choice(("0", "1"))
        rows.append(cells)
    for p_a, cond in _near_boundary_tables(seed, 40):
        rows.append([str(p_a[0]), str(cond[0][0]), str(cond[0][1]), cell()])
    rng.shuffle(rows)
    return rows


def test_interfere_ranges_equal_theta_range(tmp_path, capsys):
    """Each row's ``theta_range`` entries of the JSON report and ``cosh_max``
    cells of the CSV report equal the public :func:`theta_range` of the
    context that :func:`contexts_from_csv` reads from the same file."""
    path = tmp_path / "tables.csv"
    path.write_text("".join(",".join(cells) + "\n" for cells in _oracle_table(30)),
                    encoding="utf-8")
    expected = {row: [r.to_json_dict() for r in theta_range(ctx.p_a, ctx.cond)]
                for row, ctx in contexts_from_csv(path)}
    code, out, _ = run(capsys, "interfere", str(path))
    assert code == 0
    assert {entry["row"]: entry["theta_range"] for entry in json.loads(out)} == expected
    code, out, _ = run(capsys, "interfere", str(path), "--format", "csv")
    assert code == 0
    cells = {}
    for line in out.splitlines()[1:]:
        row, _, *rest = line.split(",")
        cells.setdefault(int(row), []).append(rest[6])
    assert cells == {row: ["" if r["cosh_max"] is None else r["cosh_max"] for r in ranges]
                     for row, ranges in expected.items()}
    ranges = [r for entry in expected.values() for r in entry]
    assert len(expected) == 200
    assert {(r["degenerate"], r["admissible"]) for r in ranges} == {
        (True, False), (False, False), (False, True)}


@pytest.mark.parametrize(
    "command, inputs, bad, prefix",
    [
        ("fourier", [ATOMS], 0, ""),
        ("interfere", [CSV_ROWS], 0, ""),
        ("apply", [OPERATOR, WAVE], 0, "operator: "),
        ("apply", [OPERATOR, WAVE], 1, "wavefunction: "),
        ("apply", [OPERATOR, "{not json"], None, "wavefunction: "),
    ],
    ids=["fourier-inputs0-0", "interfere-inputs1-0", "apply-inputs2-0", "apply-inputs3-1",
         "apply-inputs4-not-json"],
)
def test_non_utf8_input_is_one_line_error(tmp_path, capsys, command, inputs, bad, prefix):
    paths = []
    for i, data in enumerate(inputs):
        text = data if isinstance(data, str) else json.dumps(data)
        path = tmp_path / f"input{i}"
        path.write_bytes((b"\xff" if i == bad else b"") + text.encode("utf-8"))
        paths.append(str(path))
    code, out, err = run(capsys, command, *paths)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith("error: " + prefix)


# -- super ----------------------------------------------------------------------------


def test_super_product(capsys):
    code, out, _ = run(capsys, "super", "t2", "t1", "--gens", "2")
    assert code == 0
    assert "a*b = -θ1θ2" in out
    assert "supercommutator = 0" in out


def test_super_witness(capsys):
    code, out, _ = run(capsys, "super", "--witness", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["witness"] == "θ1θ2θ3"
    assert data["odd_monomials_annihilated"] == 4
    assert data["nonzero"] is True


def test_super_witness_bounds(capsys):
    assert MAX_WITNESS_GENERATORS >= 12
    for n in ("0", "-1"):
        code, out, err = run(capsys, "super", "--witness", n)
        assert (code, out) == (2, "")
        assert err == "error: witness needs at least one generator\n"
    # refused by the cap before any of the 2^n work starts
    too_many = str(10**9)
    code, out, err = run(capsys, "super", "--witness", too_many)
    assert (code, out) == (2, "")
    assert err == (
        f"error: witness needs at most {MAX_WITNESS_GENERATORS} generators, got {too_many}\n"
    )
    code, out, _ = run(capsys, "super", "--witness", str(MAX_WITNESS_GENERATORS),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["odd_monomials_annihilated"] == 1 << (MAX_WITNESS_GENERATORS - 1)


def test_super_expression_with_leading_minus_follows_double_dash(capsys):
    code, out, _ = run(capsys, "super", "--", "-t1", "t2")
    assert code == 0
    assert "a*b = -θ1θ2" in out


def test_super_work_does_not_grow_with_generator_count():
    """Mask checks and rendering visit a term's own generators, not all ``n``."""
    result = run_fresh("-m", "hypermoyal.cli", "super", "t1", "t2", "--gens", "100000000",
                       timeout=10)
    assert result.returncode == 0
    assert "a*b = θ1θ2\n" in result.stdout


def test_super_needs_arguments(capsys):
    code, _, err = run(capsys, "super")
    assert code == 2
    assert "witness" in err


# -- selftest ----------------------------------------------------------------------------


def test_selftest_fast_passes_and_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1 = main(["selftest", "--fast", "--seed", "3", "--out", str(out1)])
    code2 = main(["selftest", "--fast", "--seed", "3", "--out", str(out2)])
    capsys.readouterr()
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["all_passed"] is True
    assert [c["id"] for c in report["criteria"]] == list(range(1, 11))


def test_selftest_text_format(capsys):
    code, out, _ = run(capsys, "selftest", "--fast", "--seed", "1", "--format", "text")
    assert code == 0
    assert out.count("[PASS]") == 10
    assert "all passed" in out


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "star.txt"
    code = main(["star", "p", "q", "--sigma", "+1", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text() == "sigma=+1: q1*p1 + 1j*h\n"


# -- formats and parsing -------------------------------------------------------------------

#: each command on a small input, with the formats it renders, default first;
#: ``{name}`` stands for an input file written from ``_INPUTS``
OFFERED = {
    "star": (["star", "p", "q"], ("text", "json")),
    "limit": (["limit", "q^3", "p^3"], ("text", "json")),
    "fourier": (["fourier", "{atoms}"], ("text", "json")),
    "apply": (["apply", "{operator}", "{wave}"], ("text", "json")),
    "interfere": (["interfere", "{tables}"], ("json", "csv")),
    "super": (["super", "t1", "t2"], ("text", "json")),
    "selftest": (["selftest", "--fast"], ("json", "text")),
}
_INPUTS = {"atoms": json.dumps(ATOMS), "operator": json.dumps(OPERATOR),
           "wave": json.dumps(WAVE), "tables": CSV_ROWS}


def _argv(tmp_path, command):
    paths = {}
    for name, text in _INPUTS.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text, encoding="utf-8")
    return [arg.format(**paths) for arg in OFFERED[command][0]]


@pytest.mark.parametrize(
    "command, fmt",
    [("star", "csv"), ("limit", "csv"), ("fourier", "csv"), ("apply", "csv"),
     ("super", "csv"), ("selftest", "csv"), ("interfere", "text")],
)
def test_format_a_command_does_not_render_is_refused(tmp_path, capsys, command, fmt):
    with pytest.raises(SystemExit) as exc:
        main([*_argv(tmp_path, command), "--format", fmt])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"argument --format: invalid choice: '{fmt}'" in err


@pytest.mark.parametrize("command", sorted(OFFERED))
def test_every_offered_format_renders_and_defaults_are_kept(tmp_path, capsys, command):
    argv = _argv(tmp_path, command)
    formats = OFFERED[command][1]
    outputs = {}
    for fmt in formats:
        code, outputs[fmt], err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "") and outputs[fmt].endswith("\n")
    json.loads(outputs["json"])
    assert run(capsys, *argv) == (0, outputs[formats[0]], "")


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["star", "p", "q2"], 2),
        (["star", "p", "q2", "--sigma", "both"], 4),
        (["limit", "q^3", "p2^3"], 2),
        (["limit", "q^3", "p2^3", "--sigma", "both"], 4),
        (["super", "t1", "t3", "--gens", "3"], 2),
        (["super", "t1", "t3"], 2),
    ],
)
def test_each_expression_is_built_once_per_signature(monkeypatch, capsys, argv, builds):
    from hypermoyal import parsing

    parse = parsing._Parser.parse
    calls = []

    def counting(self):
        calls.append(self)
        return parse(self)

    monkeypatch.setattr(parsing._Parser, "parse", counting)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(calls) == builds
