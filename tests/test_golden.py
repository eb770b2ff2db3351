"""Golden CLI transcript: the stdout of fixed commands on fixed boards.

Covers ``solve --machine`` on every fixture, ``sum`` and ``compare`` on
each fixture alone, and ``sum`` (both first players, ``--first left``,
``--first right``) and ``compare`` on each fixture summand set in both
orders.  Two larger boards in ``tests/data/`` get ``solve --machine`` and
``sum`` too: ``grid_3x3.pt`` (``pirates generate grid --cols 3 --rows 3
--left 1,1 --right 3,3``) and ``random_n7_seed1.pt`` (``pirates generate
random --n 7 --seed 1``).  On them, unlike on the fixtures, a state and
its mirror image (fleets swapped, the other side to move) both reach the
shared transposition table, so their node counts show that the two share
one table entry (the key leaves out the side to move).

The transcript pins scores, classes, best-move sets, variations and
``nodes expanded:``, so a change that moves any of them, node counts
included, must regenerate the file and say why in CHANGES.md.

A second transcript, ``verify_transcript.txt``, pins ``verify`` on the
uniform, table and reduction claims at the CLI defaults: counts, the
``params:`` lines and exit codes.

Regenerate both from the repository root with::

    PYTHONPATH=src python tests/test_golden.py

which also prints, per file, how many ``nodes expanded:``/``nodes=``
lines and how many other lines were removed or added.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import os
import re
from pathlib import Path

from pirates_treasure import cli
from pirates_treasure.fixtures import TAB_CASES

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "tests" / "data" / "cli_transcript.txt"
VERIFY_GOLDEN = REPO_ROOT / "tests" / "data" / "verify_transcript.txt"

#: ``verify`` at the CLI defaults, one claim per line.
VERIFY_COMMANDS = [
    ["verify", claim] for claim in ("pt-x", "pt-negx", "self-sum", "table", "reduction")
]

#: Boards outside ``fixtures/`` on which mirror states share a table entry,
#: each with the ``generate`` command that writes it.
GENERATED = {
    "tests/data/grid_3x3.pt": [
        "generate", "grid", "--cols", "3", "--rows", "3", "--left", "1,1", "--right", "3,3"
    ],
    "tests/data/random_n7_seed1.pt": ["generate", "random", "--n", "7", "--seed", "1"],
}
KEY_BOARDS = list(GENERATED)

#: Fixture stems whose boards are played together as one sum.
SUMMAND_SETS = [(f"tab_case{case}a", f"tab_case{case}b") for case in sorted(TAB_CASES)] + [
    ("fig_add_a", "fig_add_b"),
    ("fig_mis_a", "fig_mis_b", "fig_mis_c"),
]


def commands() -> list[list[str]]:
    """Every recorded command line, with paths relative to the repo root."""
    stems = sorted(p.stem for p in (REPO_ROOT / "fixtures").glob("*.pt"))
    out = [["solve", "--machine", f"fixtures/{s}.pt"] for s in stems]
    for s in stems:
        out += [["sum", f"fixtures/{s}.pt"], ["compare", f"fixtures/{s}.pt"]]
    for stems_in_set in SUMMAND_SETS:
        for order in (stems_in_set, stems_in_set[::-1]):
            files = [f"fixtures/{s}.pt" for s in order]
            out += [
                ["sum", *files],
                ["sum", "--first", "left", *files],
                ["sum", "--first", "right", *files],
                ["compare", *files],
            ]
    for board in KEY_BOARDS:
        out += [["solve", "--machine", board], ["sum", board]]
    return out


def transcript(argvs: list[list[str]] | None = None) -> str:
    """Run every command (by default :func:`commands`) in-process from the
    repo root; stdout and exit codes."""
    chunks = []
    for argv in commands() if argvs is None else argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        chunks.append(f"$ pirates {' '.join(argv)}\n{out.getvalue()}exit={code}\n")
    return "".join(chunks)


def changed_lines(old: str, new: str) -> tuple[int, int]:
    """Lines removed or added between two transcripts: (node counts, others)."""
    a, b = old.splitlines(), new.splitlines()
    changed = []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            changed += a[i1:i2] + b[j1:j2]
    nodes = sum(1 for line in changed if re.fullmatch(r"nodes expanded: \d+|nodes=\d+", line))
    return nodes, len(changed) - nodes


def test_cli_transcript_matches_golden(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert transcript() == GOLDEN.read_text()


def test_verify_transcript_matches_golden(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert transcript(VERIFY_COMMANDS) == VERIFY_GOLDEN.read_text()


def test_generate_writes_the_key_boards_byte_for_byte(capsys):
    # the random board leans on Random.sample and randint, which Python does
    # not pin across releases
    for path, argv in GENERATED.items():
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.encode() == (REPO_ROOT / path).read_bytes()


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    GOLDEN.parent.mkdir(exist_ok=True)
    for golden, argvs in ((GOLDEN, None), (VERIFY_GOLDEN, VERIFY_COMMANDS)):
        old = golden.read_text() if golden.exists() else ""
        new = transcript(argvs)
        golden.write_text(new)
        nodes, others = changed_lines(old, new)
        print(
            f"{golden.relative_to(REPO_ROOT)}: {nodes} node-count lines and "
            f"{others} other lines removed or added"
        )
