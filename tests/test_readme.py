"""The commands in the README's "Command line" section run and exit 0."""

import re
import shlex
from pathlib import Path

import pytest

from polyfock import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    """The `polyfock ...` lines of the first sh block under "## Command line"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = (line.split("#", 1)[0].strip() for line in block.splitlines())
    return [line for line in lines if line.startswith("polyfock ")]


COMMANDS = readme_commands()


def test_readme_commands_found():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("line", COMMANDS, ids=[line[len("polyfock "):] for line in COMMANDS])
def test_readme_command_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0
