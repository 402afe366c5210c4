"""The README's command examples run as written."""

import json
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


def test_readme_commands_read_the_config():
    # the README tells the user to edit run.yaml: every command that reads
    # a config must be given it
    for argv in readme_commands():
        if "--write-template" not in argv:
            assert "--config run.yaml" in " ".join(argv), argv


def test_readme_chain_follows_an_edited_config(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write, *rest = readme_commands()
    assert cli.main(write) == cli.EXIT_OK
    config = tmp_path / "run.yaml"
    config.write_text(config.read_text().replace("length_cm: 4.0", "length_cm: 2.0", 1))
    for argv in rest:
        assert cli.main(argv) == cli.EXIT_OK, (argv, capsys.readouterr().err)
    fit = json.loads((tmp_path / "out" / "fit_efficiency.json").read_text())
    assert fit["length_cm"] == 2.0
    eta_n, sigma = fit["parameters"]["eta_n"], fit["sigmas"]["eta_n"]
    assert abs(eta_n - 0.63) < 5 * sigma
    assert "length         2 cm" in (tmp_path / "out" / "report.txt").read_text()
