"""Run every case of ``tests/cli_cases.py`` against a ``coulombkit`` script.

Usage:

    python3 tools/cli_cases.py                               # coulombkit on PATH
    PYTHONPATH=src python3 tools/cli_cases.py python3 -m coulombkit.cli

The arguments, if any, are the command to run in place of ``coulombkit``.
Each case runs as a subprocess in an empty temporary directory, and its exit
code, stdout and stderr are checked as ``tests/test_cli.py`` checks them in
process.  One line per failed check goes to stdout, naming the case, then a
count.  The exit code is 0 when every case passed, else 1.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tests"))
import cli_cases  # noqa: E402


def run(cases, command: list, out=None) -> int:
    """Run ``cases`` with ``command``, reporting each failed check to ``out``
    (``sys.stdout`` at call time); the exit code is 0 when every case passed,
    else 1."""
    out = sys.stdout if out is None else out
    failed = 0
    for index, case in enumerate(cases):
        with tempfile.TemporaryDirectory() as directory:
            proc = subprocess.run(command + cli_cases.case_argv(case, directory), cwd=directory,
                                  capture_output=True)
        found = cli_cases.problems(case, proc.returncode, proc.stdout.decode("utf-8", "replace"),
                                   proc.stderr.decode("utf-8", "replace"))
        for problem in found:
            out.write("FAIL case %d [%s]: %s\n" % (index, cli_cases.case_id(case), problem))
        failed += bool(found)
    out.write("%d of %d cases passed\n" % (len(cases) - failed, len(cases)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run(cli_cases.CASES, sys.argv[1:] or ["coulombkit"]))
