"""The README's command examples run as written."""

import re
import shlex
from pathlib import Path

from dfgnoise import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of every ``dfgnoise`` line of the README's ``sh`` blocks,
    with backslash continuations joined and comments dropped."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["dfgnoise"]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 11
    for argv in commands:
        assert cli.main(argv) == cli.EXIT_OK, (argv, capsys.readouterr().err)
