"""README's examples run: each fenced python block executes, and the piped
`game play` transcript prints, byte for byte, what README shows."""

import io
import re
from pathlib import Path

import pytest

from perron.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
# `$ printf 'STDIN' | perron ARGS`, then the terminal: stderr, and last stdout
TRANSCRIPT = re.compile(r"^\$ printf '(.*?)' \| perron (.*?)\n(.*?)^```$", re.M | re.S)


def test_readme_has_its_examples():
    assert len(PYTHON_BLOCKS) >= 3
    assert len(TRANSCRIPT.findall(README)) == 1


@pytest.mark.parametrize("block", PYTHON_BLOCKS,
                         ids=[f"block{k}" for k in range(1, len(PYTHON_BLOCKS) + 1)])
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


def test_readme_game_play_transcript(monkeypatch, capsys):
    stdin, args, terminal = TRANSCRIPT.search(README).groups()
    *narration, document = terminal.splitlines(keepends=True)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin.replace("\\n", "\n")))
    assert main(args.split()) == 0
    out, err = capsys.readouterr()
    assert err == "".join(narration)
    assert out == document
