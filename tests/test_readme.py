"""The README's command transcripts, replayed through main(argv).

A transcript is a ``text`` block whose first line is ``$ multirees ...``.
Its output must match byte for byte, except that a line ``...`` stands
for any run of lines and ``...`` inside a line for any text on it.  The
spec files it names are the README's five-ideal JSON and the one-block
spec its comment describes.
"""
import json
import re
from pathlib import Path

import pytest

from multirees.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.S | re.M)
BLOCKS = [(lang, body) for lang, body in FENCE.findall(README)]
TRANSCRIPTS = [body for lang, body in BLOCKS if lang == "text" and body.startswith("$ multirees ")]

SPECS = {
    # the first JSON block: the five-ideal example
    "five.json": json.loads(next(body for lang, body in BLOCKS if lang == "json")),
    # "n=2, one block, power 2"
    "power2.json": {"sequence": {"mode": "generic", "n": 2}, "blocks": [{"rows": [1, 2], "power": 2}]},
}


def replay(body, tmp_path, capsys):
    """(expected output lines, actual output lines) of one transcript."""
    command, *expected = body.splitlines()
    argv = command[len("$ multirees ") :].split("#")[0].split()
    for i, arg in enumerate(argv):
        if arg in SPECS:
            path = tmp_path / arg
            path.write_text(json.dumps(SPECS[arg]))
            argv[i] = str(path)
    assert main(argv) == 0
    return expected, capsys.readouterr().out.splitlines()


def test_transcripts_found():
    commands = [body.split("\n", 1)[0] for body in TRANSCRIPTS]
    assert [c.split()[2] for c in commands] == ["generators", "verify", "generators"]
    assert sum("--show-matrix" in c for c in commands) == 2


@pytest.mark.parametrize("body", TRANSCRIPTS, ids=[body.split("\n", 1)[0] for body in TRANSCRIPTS])
def test_transcript_replays(body, tmp_path, capsys):
    expected, actual = replay(body, tmp_path, capsys)
    if not any("..." in line for line in expected):
        assert actual == expected
        return
    # an elided transcript: a line "..." stands for any run of lines, and
    # "..." inside a line for any text on it
    pattern = "".join(
        r"(?:[^\n]*\n)*?" if line == "..." else re.escape(line).replace(re.escape("..."), r"[^\n]*") + r"\n"
        for line in expected
    )
    assert re.fullmatch(pattern, "".join(line + "\n" for line in actual)), "\n".join(actual)
