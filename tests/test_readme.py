"""The README's command examples print what they show.

Each fenced block of README.md whose first line starts with ``$ pirates``
is run through the CLI from the repository root; its stdout must equal
the rest of the block.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from pirates_treasure import cli

ROOT = Path(__file__).resolve().parent.parent


def _examples() -> list[tuple[str, str]]:
    """(command line, expected stdout) of each ``$ pirates`` block."""
    # the text between fence lines alternates: prose, block, prose, block, ...
    parts = re.split(r"^```.*\n", (ROOT / "README.md").read_text(), flags=re.M)
    blocks = parts[1::2]
    return [
        (command[len("$ pirates "):], output)
        for command, _, output in (block.partition("\n") for block in blocks)
        if command.startswith("$ pirates ")
    ]


EXAMPLES = _examples()


def test_the_readme_has_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_prints_what_it_shows(monkeypatch, capsys, command, expected):
    monkeypatch.chdir(ROOT)
    assert cli.main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected
