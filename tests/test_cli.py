"""End-to-end tests of the command-line interface."""

import hashlib
import io
import json
import os
import random
from fractions import Fraction

import pytest
from conftest import run_fresh

from hypermoyal import (
    Binarion,
    ExpPoly,
    GrassmannElement,
    PolySymbol,
    Sigma,
    Ultradistribution,
    WaveFunction,
    classify,
    contexts_from_csv,
    theta_range,
)
from hypermoyal.cli import _dump_json, main
from hypermoyal.interference import _cosh_range
from hypermoyal.sparse import MAX_DEPTH, MAX_DIGITS, MAX_INDEX, MAX_STEPS, MAX_WITNESS_GENERATORS
from test_interference import _near_boundary_tables
from test_refusals import (ATOMS, OPERATOR, WAVE, _with, homed_rows, homed_tests, refusal_tests,
                           rows_test)

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


def test_star_expression_with_leading_minus_follows_double_dash(capsys):
    code, out, _ = run(capsys, "star", "--", "-q", "p")
    assert code == 0
    assert out == "sigma=+1: -q1*p1\n"


def test_star_json_format(capsys):
    code, out, _ = run(capsys, "star", "p", "q", "--sigma", "+1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == "q1*p1 + 1j*h"


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


def _write_documents(tmp_path, documents) -> list:
    """The paths of files written from ``documents``, text or bytes as they
    are and any other as JSON."""
    paths = []
    for i, document in enumerate(documents):
        if not isinstance(document, (str, bytes)):
            document = json.dumps(document)
        paths.append(tmp_path / f"input{i}")
        paths[-1].write_bytes(document if isinstance(document, bytes) else document.encode())
    return [str(path) for path in paths]


EXPRESSION_OPERATOR = {"symbol": "q*p", "h": "1/3", "sigma": 1}
PLANE_WAVE_THIRD = WaveFunction.plane_wave(Fraction(1), Fraction(1, 3), H).to_json_dict()


def test_apply_reads_an_operator_without_kind_as_kind_poly(tmp_path, capsys):
    """An expression symbol passes through the one operator reader, which
    refuses any ``kind`` but ``poly`` (rows of ``CLI_REFUSALS``); without
    ``kind``, an expression and a term map still read."""
    no_kind = {key: value for key, value in OPERATOR.items() if key != "kind"}
    op, poly_op, term_map, wave, term_wave = _write_documents(tmp_path, (
        EXPRESSION_OPERATOR, {**EXPRESSION_OPERATOR, "kind": "poly"}, no_kind, PLANE_WAVE_THIRD,
        WAVE))
    assert run(capsys, "apply", op, wave) == (0, "q1*exp(j*(3*q1))\n", "")
    assert run(capsys, "apply", poly_op, wave) == (0, "q1*exp(j*(3*q1))\n", "")
    assert run(capsys, "apply", term_map, term_wave)[0] == 0


PLANE_WAVE_THIRD_2 = WaveFunction.plane_wave((1, 2), Fraction(1, 3), H).to_json_dict()


#: The refusals of ``test_apply_reads_an_expression_at_the_wavefunction_dof``.
DOF_REFUSALS = {"index-above-dof": "apply expression above dof", "term-map": "apply term map dof"}


@pytest.mark.parametrize("row", [None, *DOF_REFUSALS.values()], ids=["expression", *DOF_REFUSALS])
def test_apply_reads_an_expression_at_the_wavefunction_dof(request, tmp_path, capsys, row):
    """An expression symbol is parsed at the wavefunction's dof; a term map
    keeps its own dof and is refused when it differs (rows of
    ``CLI_REFUSALS``)."""
    if row:
        return _check_cli(request, row)
    paths = _write_documents(tmp_path, (EXPRESSION_OPERATOR, PLANE_WAVE_THIRD_2))
    assert run(capsys, "apply", *paths) == (0, "q1*exp(j*(3*q1 + 6*q2))\n", "")


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


def test_interfere_empty_csv(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    code, out, _ = run(capsys, "interfere", str(path))
    assert code == 0
    assert json.loads(out) == []


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


def _probability_text(rng) -> str:
    """Fraction or decimal text of a probability, as the cli-session
    benchmark draws a cell of its ``interfere`` table."""
    if rng.random() < 0.5:
        return str(Fraction(rng.randint(0, 20), 20))
    return f"0.{rng.randint(0, 999):03d}"


def _oracle_table(seed: int) -> list:
    """About 200 rows of four cells: decimal and fraction text mixed, every
    eighth row with a 0 or 1 that makes ``D = 0`` for one or both outcomes,
    and the near-boundary tables of the ``theta_range`` tests."""
    rng = random.Random(seed)
    rows = []
    for n in range(160):
        cells = [_probability_text(rng) for _ in range(4)]
        if n % 8 == 0:
            cells[rng.randrange(3)] = rng.choice(("0", "1"))
        rows.append(cells)
    for p_a, cond in _near_boundary_tables(seed, 40):
        rows.append([str(p_a[0]), str(cond[0][0]), str(cond[0][1]), _probability_text(rng)])
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


def _reference_report(path, fmt: str) -> str:
    """The ``interfere`` report of ``path`` by the library's public records:
    each context of :func:`contexts_from_csv`, its :func:`classify` and the
    :func:`_cosh_range` of each outcome, written by ``to_json_dict`` and
    :func:`_dump_json` or as CSV cells."""
    entries = []
    for row, ctx in contexts_from_csv(path):
        report = classify(ctx)
        ranges = [_cosh_range(o.classical, o.d_squared, o.d) for o in report.outcomes]
        entries.append({"row": row, "report": report.to_json_dict(),
                        "theta_range": [r.to_json_dict() for r in ranges]})
    if fmt == "json":
        return _dump_json(entries)
    lines = ["row,outcome,observed,classical,d,lambda,regime,theta,cosh_max,residual"]
    for entry in entries:
        report = entry["report"]
        for j, (o, bound) in enumerate(zip(report["outcomes"], entry["theta_range"]), 1):
            cells = [str(entry["row"]), str(j), o["observed"], o["classical"], o["d"], o["lambda"],
                     o["regime"], o["theta"], bound["cosh_max"], report["normalization_residual"]]
            lines.append(",".join("" if c is None else c for c in cells))
    return "\n".join(lines) + "\n"


#: Rows that reach each branch of a row's report: an exact ``D`` (1/4, 3/20),
#: the hyperbolic regime of each sign with an exact and an irrational ``D``,
#: ``D = 0`` for one outcome and for both, cells 0 and 1, and spaced cells.
SPECIAL_ROWS = [
    "1/2,1/2,1/2,1/2", "0.5,0.5,0.5,0.9", "0.5,0.9,0.1,0.95", "1/2,9/10,1/10,1/20",
    "1/3,4/5,1/7,0.99", "1/3,4/5,1/7,0.01", "0.5,0,0.5,0.25", "0,1/2,1/2,1/2", "1/2,1,0,1/2",
    "1,1,1,1", "0,0,0,0", "1,0,1,0", "0.25,0.75,0.125,0", " 1/7 , 2/7,3/7 ,4/7", "1,1/3,2/3,1",
]
#: The special rows as a file with a header, blank lines and a row of empty
#: cells, and as one without.
SPECIAL_TABLES = {
    "header": "p_a1,p_b1_a1,p_b1_a2,p_b1\n\n" + "\n,,,\n".join(SPECIAL_ROWS) + "\n\n",
    "no header": "\n".join(reversed(SPECIAL_ROWS)) + "\n",
}


def _table_text(seed: int) -> str:
    return "".join(",".join(cells) + "\n" for cells in _oracle_table(seed))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("table", [*SPECIAL_TABLES, *(f"seed {s}" for s in range(30, 36))])
def test_interfere_output_equals_the_reference_path(tmp_path, capsys, table, fmt):
    """Both formats of ``interfere`` equal, byte for byte, the report that the
    public records give for the same file."""
    text = SPECIAL_TABLES.get(table) or _table_text(int(table.split()[1]))
    path = tmp_path / "tables.csv"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, "interfere", str(path), "--format", fmt) == (
        0, _reference_report(path, fmt), "")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_interfere_refusal_on_the_last_row_writes_nothing(tmp_path, capsys, fmt):
    path, out = tmp_path / "tables.csv", tmp_path / "report"
    path.write_text(CSV_ROWS + "0.5,0.5,0.5,1.2\n", encoding="utf-8")
    assert run(capsys, "interfere", str(path), "--format", fmt, "--out", str(out)) == (
        2, "", "error: P(b1) = 6/5 outside [0, 1] (row 4)\n")
    assert not out.exists()


def _session_table(seed: int, rows: int) -> str:
    """A table drawn as the cli-session benchmark draws its ``interfere`` input."""
    rng = random.Random(seed)
    return "p_a1,p_b1_a1,p_b1_a2,p_b1\n" + "".join(
        ",".join(_probability_text(rng) for _ in range(4)) + "\n" for _ in range(rows))


#: sha256 of each format's report on ``_session_table(4101, 2000)``
SESSION_DIGESTS = {
    "json": "1bbdf386e8826bfcdfe3f68b942b7488e9b58e1678e7edbdd6f24e948725a073",
    "csv": "df1f727abdd29fa75e94c6ef7fbdeb70a449d6c549b5c6bc99c0e5eb14de223a",
}


@pytest.mark.parametrize("fmt", sorted(SESSION_DIGESTS))
def test_interfere_keeps_its_bytes_on_a_session_table(tmp_path, capsys, fmt):
    path, out = tmp_path / "tables.csv", tmp_path / "report"
    path.write_text(_session_table(4101, 2000), encoding="utf-8")
    assert run(capsys, "interfere", str(path), "--format", fmt, "--out", str(out)) == (0, "", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SESSION_DIGESTS[fmt]


#: Runs ``hypermoyal.cli`` as ``-m`` does, then writes the process's peak
#: resident size, ``VmHWM`` in kB, to stderr as it exits.
_PEAK_RUNNER = """
import atexit, runpy, sys

def peak():
    with open("/proc/self/status") as fh:
        sys.stderr.write([line for line in fh if line.startswith("VmHWM:")][0].split()[1])

atexit.register(peak)
sys.argv = ["hypermoyal", *sys.argv[1:]]
runpy.run_module("hypermoyal.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_interfere_peak_memory_grows_little_with_rows(tmp_path, fmt):
    """A 2,000-row table peaks at most 9 MB above a 1-row table, so the
    command does not keep every row's report until it writes."""
    peaks = []
    for rows in (1, 2000):
        path, out = tmp_path / f"{rows}.csv", tmp_path / f"{rows}.out"
        path.write_text(_session_table(4101, rows), encoding="utf-8")
        result = run_fresh("-c", _PEAK_RUNNER, "interfere", str(path), "--format", fmt,
                           "--out", str(out))
        assert result.returncode == 0
        peaks.append(int(result.stderr))
    assert peaks[1] - peaks[0] <= 9 * 1024, peaks


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
    """The refusals below one and above the cap are rows of ``CLI_REFUSALS``."""
    assert MAX_WITNESS_GENERATORS >= 12
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


# -- refusals --------------------------------------------------------------------------

TOO_LONG = "number too long to write: more than 4300 digits"
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"

#: expressions whose coefficients have a number past the int-to-text limit
STAR_PAST_THE_LIMIT = {"2^15000": "2^15000", "9...9^5": "*".join(["9" * MAX_DIGITS] * 5)}
#: table rows, and the message that refuses each, past the float range
PAST_THE_FLOAT_RANGE = {
    # D^2 > 0, but D is below the smallest float
    "D": (f"1/{10**2999 + 1},1/{10**2999 + 3},1/2,1/2", "value too small for a float"),
    # D is exact, and lambda is about 10^2000
    "lambda": (f"1/{10**4000},1,{10**4000 - 1}/{10**4000},1/2", "value too large for a float"),
}

#: Each refusal of the command line: its argv, the documents it reads and the
#: message of its one line on stderr.  ``{0}``, ``{1}``, ... in argv name the
#: files written from the documents (text or bytes as they are, any other as
#: JSON); ``-`` reads the first document from stdin.
CLI_REFUSALS = {
    # star and limit
    "star deep nesting": (["star", "(" * 250 + "q" + ")" * 250, "q"], (),
                          f"parentheses nested deeper than {MAX_DEPTH} (at position {MAX_DEPTH})"),
    "star parse error": (["star", "p", "q +", "--sigma", "+1"], (),
                         "unexpected end of input (at position 3)"),
    "star h -1": (["star", "p", "q", "--h", "-1"], (), "--h must be a positive rational, got -1"),
    "star h abc": (["star", "p", "q", "--h", "abc"], (),
                   "--h must be a positive rational, got abc"),
    "star h 1/0": (["star", "p", "q", "--h", "1/0"], (),
                   "--h must be a positive rational, got 1/0"),
    "star h 1E-4301": (["star", "p", "q", "--h", "1E-4301"], (),
                       "--h must be a positive rational, got 1E-4301"),
    "star h 1e+4301": (["star", "p", "q", "--h", "1e+4301"], (),
                       "--h must be a positive rational, got 1e+4301"),
    **{f"star {name} {fmt}": (["star", expression, "1", "--format", fmt], (), TOO_LONG)
       for name, expression in STAR_PAST_THE_LIMIT.items() for fmt in ("text", "json")},
    "limit steps -3": (["limit", "p", "q", "--steps", "-3"], (), "--steps must be >= 0, got -3"),
    **{f"limit float {fmt}": (["limit", "10^400*q^2", "p^2", "--format", fmt], (),
                              "value too large for a float") for fmt in ("text", "json")},
    # fourier and apply: a document the JSON parser refuses, in each place it is read
    **{f"fourier {name}": (["fourier", "{0}"], (text,), message)
       for name, (text, message) in UNREADABLE_JSON.items()},
    **{f"fourier stdin {name}": (["fourier", "-"], (text,), message)
       for name, (text, message) in UNREADABLE_JSON.items()},
    **{f"apply operator {name}": (["apply", "{0}", "{1}"], (text, WAVE), f"operator: {message}")
       for name, (text, message) in UNREADABLE_JSON.items()},
    **{f"apply wavefunction {name}": (["apply", "{0}", "{1}"], (OPERATOR, text),
                                      f"wavefunction: {message}")
       for name, (text, message) in UNREADABLE_JSON.items()},
    "fourier no atoms": (["fourier", "{0}"], ({"dim": 1, "sigma": 1},), "missing field 'atoms'"),
    "fourier order -1": (["fourier", "{0}"], (_with(ATOMS, ("atoms", 0, "order"), [-1]),),
                         "atoms: order: derivative orders must be nonnegative"),
    "fourier sigma 3": (["fourier", "{0}"], (_with(ATOMS, ("sigma",), 3),),
                        "sigma: not a signature: 3"),
    "fourier loc 'x'": (["fourier", "{0}"], (_with(ATOMS, ("atoms", 0, "loc"), ["x"]),),
                        "atoms: loc: Invalid literal for Fraction: 'x'"),
    "fourier loc '1/0'": (["fourier", "{0}"], (_with(ATOMS, ("atoms", 0, "loc"), ["1/0"]),),
                          "atoms: loc: zero denominator in '1/0'"),
    "fourier loc 1E-4301": (["fourier", "{0}"], (_with(ATOMS, ("atoms", 0, "loc"), ["1E-4301"]),),
                            f"atoms: loc: {TOO_LONG}"),
    "fourier order [1.9]": (["fourier", "{0}"], (_with(ATOMS, ("atoms", 0, "order"), [1.9]),),
                            "atoms: order: 1.9 is not an integer"),
    "apply missing files": (["apply", "/nonexistent.json", "/also-missing.json"], (),
                            "operator: [Errno 2] No such file or directory: '/nonexistent.json'"),
    "apply no terms": (
        ["apply", "{0}", "{1}"], (_with(OPERATOR, ("symbol",), {"dof": 1, "sigma": 1}), WAVE),
        "operator: symbol: missing field 'terms'"),
    "apply h 0": (["apply", "{0}", "{1}"], (OPERATOR, _with(WAVE, ("h",), "0")),
                  "wavefunction: h must be a positive rational"),
    "apply degree cap": (
        ["apply", "{0}", "{1}"], ({"symbol": "q^17", "h": "1/2", "sigma": 1}, WAVE),
        "operator symbol degree 17 exceeds cap 16"),
    **{f"apply {name} {fmt}": (["apply", "{0}", "{1}", "--format", fmt], documents, TOO_LONG)
       for name, documents in APPLY_PAST_THE_LIMIT.items() for fmt in ("text", "json")},
    "apply kind polly": (["apply", "{0}", "{1}"], (_with(OPERATOR, ("kind",), "polly"), WAVE),
                         "operator: kind: expected 'poly' or 'exp', got 'polly'"),
    "apply expression kind bogus": (["apply", "{0}", "{1}"],
                                    ({**EXPRESSION_OPERATOR, "kind": "bogus"}, PLANE_WAVE_THIRD),
                                    "operator: kind: expected 'poly' or 'exp', got 'bogus'"),
    "apply expression kind exp": (
        ["apply", "{0}", "{1}"], ({**EXPRESSION_OPERATOR, "kind": "exp"}, PLANE_WAVE_THIRD),
        "operator: symbol: an expression is a 'poly' symbol, not 'exp'"),
    # a term-map symbol is read before ``h`` and ``sigma``; an expression is
    # parsed at the file's ``sigma``, which is therefore read first
    "apply term map first": (["apply", "{0}", "{1}"],
                             ({"symbol": {"sigma": 1, "dof": 1}, "h": "1/3"}, PLANE_WAVE_THIRD),
                             "operator: symbol: missing field 'terms'"),
    "apply sigma first": (["apply", "{0}", "{1}"], ({"symbol": "q*", "h": "1/3"}, PLANE_WAVE_THIRD),
                          "operator: missing field 'sigma'"),
    "apply expression above dof": (
        ["apply", "{0}", "{1}"], ({**EXPRESSION_OPERATOR, "symbol": "q3*p1"}, PLANE_WAVE_THIRD_2),
        "operator: symbol: variable 'q3' out of range for dof 2 (at position 0)"),
    "apply term map dof": (["apply", "{0}", "{1}"], ({**OPERATOR, "h": "1/3"}, PLANE_WAVE_THIRD_2),
                           "operator dof 1 differs from wavefunction dof 2"),
    "apply operator h '1/0'": (
        ["apply", "{0}", "{1}"], ({**EXPRESSION_OPERATOR, "h": "1/0"}, PLANE_WAVE_THIRD),
        "operator: h: zero denominator in '1/0'"),
    "apply wavefunction h '1/0'": (
        ["apply", "{0}", "{1}"], (EXPRESSION_OPERATOR, {**PLANE_WAVE_THIRD, "h": "1/0"}),
        "wavefunction: h: zero denominator in '1/0'"),
    "apply q [0.5]": (
        ["apply", "{0}", "{1}"], (_with(OPERATOR, ("symbol", "terms", 0, "q"), [0.5]), WAVE),
        "operator: symbol: terms: q: 0.5 is not an integer"),
    "apply exp [2.7]": (
        ["apply", "{0}", "{1}"], (OPERATOR, _with(WAVE, ("func", "terms", 0, "exp"), [2.7])),
        "wavefunction: func: terms: exp: 2.7 is not an integer"),
    # interfere
    **{f"interfere {name} {fmt}": (["interfere", "{0}", "--format", fmt], (row + "\n",), message)
       for name, (row, message) in PAST_THE_FLOAT_RANGE.items() for fmt in ("json", "csv")},
    "interfere probability": (["interfere", "{0}"], ("0.5,0.5,0.5,1.2\n",),
                              "P(b1) = 6/5 outside [0, 1] (row 1)"),
    "interfere cell 1e4301": (["interfere", "{0}"], (CSV_ROWS + "1/2,1/2,1e4301,1/2\n",),
                              f"{TOO_LONG} (row 4)"),
    # input that is not UTF-8
    "fourier not utf-8": (["fourier", "{0}"], (b"\xff" + json.dumps(ATOMS).encode(),), NOT_UTF8),
    "interfere not utf-8": (["interfere", "{0}"], (b"\xff" + CSV_ROWS.encode(),), NOT_UTF8),
    "apply operator not utf-8": (
        ["apply", "{0}", "{1}"], (b"\xff" + json.dumps(OPERATOR).encode(), WAVE),
        f"operator: {NOT_UTF8}"),
    "apply wavefunction not utf-8": (
        ["apply", "{0}", "{1}"], (OPERATOR, b"\xff" + json.dumps(WAVE).encode()),
        f"wavefunction: {NOT_UTF8}"),
    "apply not json": (["apply", "{0}", "{1}"], (OPERATOR, "{not json"),
                       "wavefunction: Expecting property name enclosed in double quotes: line 1 "
                       "column 2 (char 1)"),
    # super
    "super witness 0": (["super", "--witness", "0"], (), "witness needs at least one generator"),
    "super witness -1": (["super", "--witness", "-1"], (), "witness needs at least one generator"),
    # refused by the cap before any of the 2^n work starts
    "super witness 10^9": (
        ["super", "--witness", str(10**9)], (),
        f"witness needs at most {MAX_WITNESS_GENERATORS} generators, got {10**9}"),
    "super no arguments": (["super"], (), "super needs two expressions or --witness N"),
}


def _check_cli(request, row):
    """The command line of ``CLI_REFUSALS[row]`` exits 2 with its one line."""
    argv, documents, message = CLI_REFUSALS[row]
    paths = _write_documents(request.getfixturevalue("tmp_path"), documents)
    if "-" in argv:
        request.getfixturevalue("monkeypatch").setattr("sys.stdin", io.StringIO(documents[0]))
    argv = [arg.format(*paths) for arg in argv]
    assert run(request.getfixturevalue("capsys"), *argv) == (2, "", f"error: {message}\n")


#: A row that a test of this module checked before it joined the table is
#: checked by that test still, under its old name and id, as in
#: ``test_refusals.HOMES``; every other row is checked by
#: ``test_a_refusal_exits_2_with_its_one_line``.
CLI_HOMES = {
    "test_cli::test_star_deep_nesting_is_one_line_error": ("star deep nesting",),
    "test_cli::test_star_h_must_be_a_rational": ("star h abc", "star h 1/0"),
    "test_cli::test_star_parse_error_has_position_and_fails": ("star parse error",),
    "test_cli::test_limit_negative_steps_rejected": ("limit steps -3",),
    "test_cli::test_limit_value_too_large_for_a_float_is_one_line_error": {
        fmt: f"limit float {fmt}" for fmt in ("text", "json")},
    "test_cli::test_coefficient_past_the_int_to_text_limit_is_one_line_error": {
        f"{expression}-{fmt}": f"star {name} {fmt}"
        for name, expression in STAR_PAST_THE_LIMIT.items() for fmt in ("text", "json")},
    "test_cli::test_fourier_unreadable_json_is_one_line_error": {
        f"{name}-{where}": f"{command} {name}" for name in UNREADABLE_JSON
        for where, command in (("file", "fourier"), ("stdin", "fourier stdin"))},
    "test_cli::test_apply_unreadable_json_names_its_document": {
        f"{name}-{i}-{document}": f"apply {document} {name}" for name in UNREADABLE_JSON
        for i, document in enumerate(("operator", "wavefunction"))},
    "test_cli::test_apply_command_missing_file_fails": ("apply missing files",),
    "test_cli::test_fourier_malformed_json_is_one_line_error": {
        "_drop_atoms-missing field 'atoms'": "fourier no atoms",
        "_negative_order-atoms: order: derivative orders must be nonnegative": "fourier order -1",
        "_bad_sigma-sigma: not a signature: 3": "fourier sigma 3",
        "_bad_loc-atoms: loc: Invalid literal for Fraction: 'x'": "fourier loc 'x'"},
    "test_cli::test_apply_malformed_json_is_one_line_error": ("apply no terms", "apply h 0"),
    "test_cli::test_apply_over_degree_cap_is_one_line_error": ("apply degree cap",),
    "test_cli::test_apply_result_past_the_int_to_text_limit_is_one_line_error": {
        f"{name}-{fmt}": f"apply {name} {fmt}" for name in APPLY_PAST_THE_LIMIT
        for fmt in ("text", "json")},
    "test_cli::test_apply_refuses_an_unknown_operator_kind": ("apply kind polly",),
    "test_cli::test_apply_reads_an_expression_symbol_only_as_kind_poly": {
        f"{row.split()[-1]}-{CLI_REFUSALS[row][2]}": row
        for row in ("apply expression kind bogus", "apply expression kind exp")},
    "test_cli::test_apply_reads_the_sigma_first_only_for_an_expression": {
        "term-map": "apply term map first", "expression": "apply sigma first"},
    "test_cli::test_a_zero_denominator_is_named_as_such": {
        "operator": "apply operator h '1/0'", "wavefunction": "apply wavefunction h '1/0'",
        "atoms": "fourier loc '1/0'"},
    "test_cli::test_non_integer_exponent_or_order_is_one_line_error": {
        f"{row.split()[0]}-documents{i}-{CLI_REFUSALS[row][2]}": row
        for i, row in enumerate(("apply q [0.5]", "apply exp [2.7]", "fourier order [1.9]"))},
    "test_cli::test_interfere_row_past_the_float_range_is_one_line_error": {
        f"{row}-{message}-{fmt}": f"interfere {name} {fmt}"
        for name, (row, message) in PAST_THE_FLOAT_RANGE.items() for fmt in ("json", "csv")},
    "test_cli::test_interfere_malformed_probability": ("interfere probability",),
    "test_cli::test_non_utf8_input_is_one_line_error": {
        "fourier-inputs0-0": "fourier not utf-8", "interfere-inputs1-0": "interfere not utf-8",
        "apply-inputs2-0": "apply operator not utf-8",
        "apply-inputs3-1": "apply wavefunction not utf-8",
        "apply-inputs4-not-json": "apply not json"},
    "test_cli::test_super_needs_arguments": ("super no arguments",),
}
globals().update(refusal_tests(__name__), **homed_tests(__name__, CLI_HOMES, _check_cli))

test_a_refusal_exits_2_with_its_one_line = rows_test(_check_cli, {
    row: row for row in CLI_REFUSALS
    if row not in homed_rows(CLI_HOMES) | set(DOF_REFUSALS.values())})


def test_an_exponent_past_the_digit_limit_is_refused_before_its_power_is_built(tmp_path):
    """``Fraction`` would build ``10**999999999`` and not return, so each case
    runs in a fresh interpreter whose timeout fails the test instead of
    hanging it."""
    tables, atoms = tmp_path / "tables.csv", tmp_path / "atoms.json"
    tables.write_text("1/2,1/2,1/2,1e-999999999\n", encoding="utf-8")
    atoms.write_text(json.dumps(_with(ATOMS, ("atoms", 0, "loc"), ["1e999999999"])),
                     encoding="utf-8")
    for argv, message in [
        (["star", "q", "p", "--h", "1e999999999"],
         "--h must be a positive rational, got 1e999999999"),
        (["interfere", str(tables)], f"{TOO_LONG} (row 1)"),
        (["fourier", str(atoms)], f"atoms: loc: {TOO_LONG}"),
    ]:
        result = run_fresh("-m", "hypermoyal.cli", *argv, timeout=30)
        assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")


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
