"""The examples in README.md: every JSON block is a diagram file that
parse_diagram accepts, and every `$ trisect ...` console example prints
what the README shows, byte for byte."""

import re
import shlex
from pathlib import Path

import pytest

from trisect.cli import main
from trisect.diagram import parse_diagram

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def _console_examples():
    examples = []
    for block in _blocks("console"):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.strip():
                command, _, output = chunk.partition("\n")
                examples.append((command[2:], output.rstrip("\n") + "\n"))
    return examples


JSON_BLOCKS = _blocks("json")
EXAMPLES = _console_examples()


def test_readme_has_examples():
    assert len(JSON_BLOCKS) >= 2
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("text", JSON_BLOCKS, ids=[f"json{i}" for i in range(len(JSON_BLOCKS))])
def test_json_blocks_parse(text):
    parse_diagram(text)


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_console_examples(command, expected, capsys):
    argv = shlex.split(command)
    assert argv[0] == "trisect"
    assert main(argv[1:]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""
