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


# after the README chain, one command for each other exit code: neither
# input file, a missing config, and a fit to all-zero efficiency sweeps
EXIT_CASES = [
    (["fit", "noise", "--config", "run.yaml"], cli.EXIT_USAGE),
    (["validate-config", "--config", "missing.yaml"], cli.EXIT_DATA),
    (["fit", "efficiency", "--config", "run.yaml", "--internal", "zero.csv",
      "--external", "zero.csv", "--out", "zero"], cli.EXIT_NO_CONVERGENCE),
]
ZERO_SWEEP = "pump_w,value,sigma\n0.1,0.0,0.01\n0.2,0.0,0.01\n0.3,0.0,0.01\n"


def _in_process(argv: list[str], capsys) -> tuple[int, str, str]:
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # a usage error
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_readme_chain_writes_the_same_bytes_cold_and_in_process(tmp_path, monkeypatch, capsys):
    # module-level state (the YAML loader class, registered seed types, what
    # is kept per process) must not leak from one command into the next of
    # the same process, nor from one run of the chain into the next, and the
    # program entry must end each command as main returns from it
    cold, warm, again = tmp_path / "cold", tmp_path / "warm", tmp_path / "again"
    for root in (cold, warm, again):
        root.mkdir()
        (root / "zero.csv").write_text(ZERO_SWEEP)
    src = str(Path(cli.__file__).resolve().parents[1])
    # block-buffered stdout, as a pipe gives it without PYTHONUNBUFFERED
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cases = [(argv, cli.EXIT_OK) for argv in readme_commands()] + EXIT_CASES
    cold_runs = []
    for argv, _ in cases:
        proc = subprocess.run([sys.executable, "-m", "dfgnoise.cli", *argv], cwd=cold, env=env,
                              capture_output=True, text=True, timeout=120)
        cold_runs.append((proc.returncode, proc.stdout, proc.stderr))
    environ = dict(os.environ)
    for root in (warm, again):
        monkeypatch.chdir(root)
        warm_runs = [_in_process(argv, capsys) for argv, _ in cases]
        assert os.environ == environ
        for (argv, code), cold_run, warm_run in zip(cases, cold_runs, warm_runs):
            assert cold_run[0] == code, (argv, cold_run[2])
            assert cold_run == warm_run, argv
    written = _digests(cold)
    assert sum(not name.startswith("zero") for name in written) == 22
    assert _digests(warm) == written
    assert _digests(again) == written


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
