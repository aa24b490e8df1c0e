"""Golden CLI outputs on the shipped scenarios.

Every command in ``COMMANDS`` runs through ``cli.main`` in process; its exit
status, the SHA-256 of its stdout and its full stderr must equal the entry
recorded in ``cli_golden.json``. The set covers every subcommand on both
shipped scenarios, in text and ``--json`` form, so refactors that should not
change behaviour can be checked byte for byte.

Regenerate the expectations (only when a change of output is intended) with:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from bandalloc import cli

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "cli_golden.json"

REF = "scenarios/reference_2x2.json"
FIVE = "scenarios/five_by_four.json"

COMMANDS = [
    ("rates", "--scenario", REF),
    ("rates", "--scenario", REF, "--json"),
    ("rates", "--scenario", FIVE),
    ("rates", "--scenario", FIVE, "--json"),
    ("envelope", "--scenario", REF, "--system", "S", "--axis", "2", "--grid", "0:0.7:0.05"),
    ("envelope", "--scenario", REF, "--system", "S", "--axis", "1", "--grid", "0:0.8:0.1", "--json"),
    ("envelope", "--scenario", REF, "--system", "S_hat", "--axis", "2", "--grid", "0:0.7:0.1"),
    ("envelope", "--scenario", REF, "--system", "S_hat", "--axis", "1", "--grid", "0:0.8:0.2", "--json"),
    ("envelope", "--scenario", REF, "--system", "fixed", "--axis", "2", "--grid", "0:0.7:0.05"),
    ("envelope", "--scenario", REF, "--system", "fixed", "--axis", "1", "--grid", "0:0.8:0.1", "--json"),
    ("envelope", "--scenario", FIVE, "--system", "S", "--axis", "2", "--grid", "0:0.6:0.05",
     "--fixed", "3=0.35,4=0.35"),
    ("envelope", "--scenario", FIVE, "--system", "fixed", "--axis", "1", "--grid", "0:0.6:0.1",
     "--fixed", "3=0.2,4=0.3", "--json"),
    ("envelope", "--scenario", FIVE, "--system", "S_hat", "--axis", "2", "--grid", "0:0.2:0.1"),
    ("decompose", "--scenario", REF, "--axis", "2", "--fixed", "1=0.4"),
    ("decompose", "--scenario", REF, "--axis", "1", "--fixed", "2=0.3", "--json"),
    ("decompose", "--scenario", FIVE, "--axis", "2", "--fixed", "1=0.1,3=0.2,4=0.25"),
    ("decompose", "--scenario", FIVE, "--axis", "4", "--fixed", "1=0.2", "--json"),
    ("simulate", "--scenario", REF, "--system", "S", "--fixed", "1=0.36,2=0.48",
     "--slots", "3000", "--seed", "7"),
    ("simulate", "--scenario", REF, "--system", "S_hat", "--fixed", "1=0.1,2=0.2",
     "--slots", "3000", "--seed", "8", "--json"),
    # S_hat policy branches: dominant 1 above, then dominant 2, the dominant-1
    # and dominant-2 fallbacks outside the region, and uniform selection.
    ("simulate", "--scenario", REF, "--system", "S_hat", "--fixed", "1=0.3,2=0.24",
     "--slots", "3000", "--seed", "9"),
    ("simulate", "--scenario", REF, "--system", "S_hat", "--fixed", "1=0.36,2=0.48",
     "--slots", "2000", "--seed", "9"),
    ("simulate", "--scenario", REF, "--system", "S_hat", "--fixed", "1=0.17,2=0.9",
     "--slots", "2000", "--seed", "9", "--json"),
    ("simulate", "--scenario", REF, "--system", "S_hat", "--fixed", "1=0.9,2=0.9",
     "--slots", "2000", "--seed", "10"),
    ("simulate", "--scenario", REF, "--system", "fixed", "--fixed", "1=0.1,2=0.2",
     "--slots", "3000", "--seed", "11", "--json"),
    ("simulate", "--scenario", FIVE, "--system", "S", "--fixed", "1=0.1,2=0.1,3=0.2,4=0.2",
     "--slots", "3000", "--seed", "12", "--json"),
    ("simulate", "--scenario", FIVE, "--system", "S_hat", "--fixed", "1=0.05,2=0.05,3=0.05,4=0.05",
     "--slots", "3000", "--seed", "13"),
    ("simulate", "--scenario", FIVE, "--system", "fixed", "--fixed", "1=0.2,2=0.1,3=0.3,4=0.25",
     "--slots", "3000", "--seed", "14"),
    ("compare", "--scenario", REF, "--grid", "0:0.7:0.1"),
    ("compare", "--scenario", REF, "--axis", "1", "--grid", "0:0.8:0.2", "--json"),
]


def _key(argv) -> str:
    return " ".join(argv)


def run_command(argv) -> dict:
    """Exit status, stdout digest and stderr of one command, scenario paths made absolute."""
    resolved = [str(ROOT / a) if a in (REF, FIVE) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(resolved)
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


def _expected() -> dict:
    return json.loads(EXPECTED.read_text())


def test_expectations_cover_every_command():
    assert sorted(_expected()) == sorted(_key(a) for a in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=_key)
def test_golden_output(argv):
    assert run_command(argv) == _expected()[_key(argv)]


if __name__ == "__main__":
    doc = {_key(a): run_command(a) for a in COMMANDS}
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} expectations to {EXPECTED}", file=sys.stderr)
