"""Byte-for-byte CLI reports on checked-in session files.

tests/golden/cases.json lists each case: the argv passed to xmodp.cli.main
(its --input names a session file in tests/golden/) and the expected exit
code.  <name>.out and <name>.err hold the exact stdout and stderr of that
call, and of the same call with every option moved after the names.  They
were written once by running the cases on the code before the search
engines were merged (budget-exceeded, on the code that introduced the
work meter), so a refactor that keeps them passing keeps every report
unchanged.  Never regenerate them to make this test pass: a
changed report is either a bug or a change of the report format, which
needs its own review.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from xmodp.cli import main
from xmodp.session import COMMANDS

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


OPTIONS_WITH_VALUE = {"--input", "--output", "--budget", "--catalogue-order"}


def _argv(case: dict) -> list[str]:
    argv = list(case["argv"])
    i = argv.index("--input") + 1
    argv[i] = str(GOLDEN / argv[i])
    return argv


def _options_last(argv: list[str]) -> list[str]:
    """The same argv with every option token moved after the names."""
    names, options = [], []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in OPTIONS_WITH_VALUE:
            options += [token, next(tokens)]
        elif token.startswith("--"):
            options.append(token)
        else:
            names.append(token)
    return [argv[0], *names, *options]


ORDERS = {"as-listed": list, "options-last": _options_last}


@pytest.mark.parametrize(
    "case, order",
    [(c, order) for order in ORDERS for c in CASES],
    ids=[c["name"] if order == "as-listed" else f"{c['name']}-{order}" for order in ORDERS for c in CASES],
)
def test_golden_report(case, order, capsys):
    # The parser reads options before, between or after the names.
    code = main(ORDERS[order](_argv(case)))
    out, err = capsys.readouterr()
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_text()
    assert err == (GOLDEN / f"{case['name']}.err").read_text()


def test_options_last_moves_every_option_after_the_names():
    argv = ["equaliser", "--input", "p.json", "--catalogue-order", "3", "--budget", "9", "--no-json", "id", "inv"]
    assert _options_last(argv) == [
        "equaliser", "id", "inv", "--input", "p.json", "--catalogue-order", "3", "--budget", "9", "--no-json"
    ]


def test_golden_cases_cover_every_command():
    commands = {c["argv"][0] for c in CASES}
    assert commands == set(COMMANDS)
    kinds = {c["argv"][3] for c in CASES if c["argv"][0] == "verify-exact"}
    assert kinds == {"product", "equaliser", "coequaliser"}
    assert {c["exit"] for c in CASES} == {0, 1, 2}
    assert any("--no-json" in c["argv"] for c in CASES)


def test_base_s4_reports(tmp_path, capsys):
    # Base S4 has no golden file: the session is the benchmark's
    # (bench/sessions.py), and the embed digests were recorded from the
    # tuple-built site, before the site became a formula.
    spec = importlib.util.spec_from_file_location("sessions", Path(__file__).parent.parent / "bench" / "sessions.py")
    sessions = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sessions)
    session = tmp_path / "base_s4.json"
    session.write_text(json.dumps(sessions.base_s4()))
    digests = {
        "E96": "6ab588f4b84b8cc05e7a42453af23b769bc6e030e76eb4679d8bbcfd67d4902a",
        "Z2": "c56aeda1d6c9fc83e8dc3de834c103708ca09b466eb79d4610cc41127ffe9d74",
    }
    for name, digest in digests.items():
        assert main(["embed", name, "--input", str(session)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    assert main(["verify-exact", "product", "E96", "E96", "--input", str(session)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True and report["squares_checked"] == 599424
    assert main(["verify-embedding", "E96", "E96", "--input", str(session)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True and report["nat_count"] == 16
