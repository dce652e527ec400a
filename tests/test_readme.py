"""The README's command-line examples and library sketch run as written.

Every ``hypermoyal ...`` line of the command-line block that names no input
file runs through :func:`hypermoyal.cli.main` and must exit 0; a line whose
comment reads ``# -> text`` must print exactly ``text``.  So the README keeps
in step with the options and ``--format`` choices each command offers.

The library sketch runs statement by statement.  An expression whose line
carries a comment must equal the result the comment states, which ends at
its first colon or run of two spaces: a symbol prints as that text, any
other value equals it read as Python.  A further ``== call(...)`` in the
comment must hold too.
"""

import ast
import os
import re
import shlex

import pytest

from hypermoyal import PolySymbol
from hypermoyal.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _block(heading: str, language: str) -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.search(rf"## {heading}\n\n```{language}\n(.*?)```", text, re.S).group(1)


def _examples():
    block = _block("Command-line usage", "sh")
    for line in block.splitlines():
        if not line.startswith("hypermoyal "):
            continue
        argv = shlex.split(line, comments=True)[1:]
        if any(arg.endswith((".json", ".csv")) for arg in argv):
            continue
        expected = line.split("# -> ", 1)[1].rstrip() + "\n" if "# -> " in line else None
        yield pytest.param(argv, expected, id=" ".join(argv))


EXAMPLES = list(_examples())


def test_readme_has_examples_to_run():
    assert len(EXAMPLES) >= 5
    assert sum(example.values[1] is not None for example in EXAMPLES) == 1


@pytest.mark.parametrize("argv, expected", EXAMPLES)
def test_readme_example_runs(capsys, argv, expected):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if expected is not None:
        assert out == expected


def test_readme_library_sketch_states_its_results():
    sketch = _block("Library sketch", "python")
    lines = sketch.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(sketch).body:
        line = lines[node.end_lineno - 1]
        if not (isinstance(node, ast.Expr) and "# " in line):
            exec(compile(ast.Module([node], []), README, "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), README, "eval"), namespace)
        comment = line.split("# ", 1)[1]
        stated = re.match(r"(.*?)(:|\s{2,}|$)", comment).group(1)
        if isinstance(value, PolySymbol):
            assert str(value) == stated
        else:
            assert value == eval(stated, namespace)
        for other in re.findall(r"== (.*?\))", comment):
            assert value == eval(other, namespace)
        checked.append(stated)
    assert checked == ["q1*p1 + 1j*h", "-1j*h", "-1", "2 * phi", "Fraction(3, 2)"]
