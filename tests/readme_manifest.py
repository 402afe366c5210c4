"""Print the sha256 of every file the README chain writes, per seed.

The chain of ``tests/test_readme.readme_commands()`` runs in this
process, once for each of the seeds 20210412 (the template's) and 1-9,
each in a fresh directory, with ``--seed`` given to every ``simulate``
command.  Each output line is ``<seed> <file> <sha256>``.  Run it before
and after a change that may move output bytes, and diff the listings:

    PYTHONPATH=src python tests/readme_manifest.py > manifest.txt
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from test_readme import readme_commands

from dfgnoise import cli

SEEDS = [20210412, *range(1, 10)]


def chain_digests(seed: int) -> dict[str, str]:
    """The sha256 of each file the README chain writes with ``seed``,
    keyed by its path relative to the directory it ran in."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in readme_commands():
                if argv[0] == "simulate":
                    argv = [*argv, "--seed", str(seed)]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != cli.EXIT_OK:
                    sys.exit(f"seed {seed}: {' '.join(argv)} exited {code}")
        finally:
            os.chdir(cwd)
        root = Path(tmp)
        return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(root.rglob("*")) if path.is_file()}


if __name__ == "__main__":
    for seed in SEEDS:
        for name, digest in chain_digests(seed).items():
            print(seed, name, digest)
