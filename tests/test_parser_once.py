"""The CLI's argument parser is built once per process and reused safely.

The parser depends on no input, so cli.main builds it on its first call
(not at import) and reads it on every later one.  parse_intermixed_args
changes the nargs, defaults and required flags of its actions while it
parses, and restores them, and the usage, in a finally clause, so a call
that ends in an argparse error or in --help leaves the parser as it was:
every golden report comes out byte for byte on a reused parser, before
and after such calls.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden_reports import CASES, GOLDEN, ORDERS, _argv
from xmodp import cli
from xmodp.cli import main

ROOT = Path(__file__).resolve().parent.parent
C2 = str(GOLDEN / "c2.json")

# Calls that leave parse_intermixed_args early, by SystemExit.
EXITS = [
    (["validate"], 2),
    (["--help"], 0),
    (["product", "A2", "A1", "--input", C2, "--budget", "+5"], 2),
]


def _exit(call, argv, capsys):
    with pytest.raises(SystemExit) as exited:
        call(argv)
    return exited.value.code, *capsys.readouterr()


def _golden_round(capsys):
    for case in CASES:
        for order in ORDERS.values():
            code = main(order(_argv(case)))
            out, err = capsys.readouterr()
            assert (code, out, err) == (
                case["exit"],
                (GOLDEN / f"{case['name']}.out").read_text(),
                (GOLDEN / f"{case['name']}.err").read_text(),
            ), case["name"]


def test_golden_reports_survive_argparse_exits_on_the_reused_parser(capsys):
    _golden_round(capsys)
    parser = cli._parser()
    for argv, code in EXITS:
        # A fresh parser is the oracle for the exits, which have no golden file.
        expected = _exit(cli.build_parser().parse_intermixed_args, argv, capsys)
        assert expected[0] == code
        assert _exit(main, argv, capsys) == expected
    assert "usage: xmodp" in _exit(main, ["validate"], capsys)[2]
    assert "expected an ASCII decimal integer" in _exit(main, EXITS[2][0], capsys)[2]
    assert cli._parser() is parser
    _golden_round(capsys)


def test_the_parser_is_built_on_the_first_call_not_at_import():
    code = (
        "import os, xmodp.cli as cli\n"
        "print(cli._parser.cache_info().currsize)\n"
        f"cli.main(['validate', '--input', {C2!r}, '--output', os.devnull])\n"
        "print(cli._parser.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "1"]
