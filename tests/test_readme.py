"""The README's command examples run as written."""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
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


def _digests(root: Path) -> dict[str, str]:
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_readme_chain_writes_the_same_bytes_cold_and_in_process(tmp_path, monkeypatch, capsys):
    # module-level state (the YAML loader class, registered seed types)
    # must not leak from one command into the next of the same process
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cold.mkdir()
    warm.mkdir()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    for argv in readme_commands():
        proc = subprocess.run([sys.executable, "-m", "dfgnoise.cli", *argv], cwd=cold, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_OK, (argv, proc.stderr)
    monkeypatch.chdir(warm)
    for argv in readme_commands():
        assert cli.main(argv) == cli.EXIT_OK, (argv, capsys.readouterr().err)
    written = _digests(cold)
    assert len(written) == 22
    assert _digests(warm) == written


def _parser_options(parser: argparse.ArgumentParser, command: str = "") -> dict[str, list[str]]:
    """The ``--`` options of every leaf command of ``parser``, by command."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return {command: [option for action in parser._actions
                          for option in action.option_strings
                          if option.startswith("--") and option != "--help"]}
    found = {}
    for name, sub in subparsers[0].choices.items():
        found.update(_parser_options(sub, f"{command} {name}".strip()))
    return found


def test_readme_option_table_matches_the_parser():
    table = re.search(r"^\| command \| options \|\n\|---\|---\|\n((?:\|.*\n)+)",
                      README.read_text(), re.M)
    documented = {}
    for row in table.group(1).splitlines():
        command, options = re.fullmatch(r"\| `([^`]+)` \| (.*) \|", row).groups()
        documented[command] = re.findall(r"`(--[a-z-]+)", options)
    assert documented == _parser_options(cli._build_parser())
