"""The README's command-line examples run as written.

Every ``hypermoyal ...`` line of the command-line block that names no input
file runs through :func:`hypermoyal.cli.main` and must exit 0; a line whose
comment reads ``# -> text`` must print exactly ``text``.  So the README keeps
in step with the options and ``--format`` choices each command offers.
"""

import os
import re
import shlex

import pytest

from hypermoyal.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _examples():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Command-line usage\n\n```sh\n(.*?)```", text, re.S).group(1)
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
