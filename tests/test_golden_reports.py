"""Byte-for-byte CLI reports on checked-in session files.

tests/golden/cases.json lists each case: the argv passed to xmodp.cli.main
(its --input names a session file in tests/golden/) and the expected exit
code.  <name>.out and <name>.err hold the exact stdout and stderr of that
call.  They were written once by running the cases on the code before the
search engines were merged, so a refactor that keeps them passing keeps
every report unchanged.  Never regenerate them to make this test pass: a
changed report is either a bug or a change of the report format, which
needs its own review.
"""

import json
from pathlib import Path

import pytest

from xmodp.cli import main
from xmodp.session import COMMANDS

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _argv(case: dict) -> list[str]:
    argv = list(case["argv"])
    i = argv.index("--input") + 1
    argv[i] = str(GOLDEN / argv[i])
    return argv


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_report(case, capsys):
    code = main(_argv(case))
    out, err = capsys.readouterr()
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_text()
    assert err == (GOLDEN / f"{case['name']}.err").read_text()


def test_golden_cases_cover_every_command():
    commands = {c["argv"][0] for c in CASES}
    assert commands == set(COMMANDS)
    kinds = {c["argv"][3] for c in CASES if c["argv"][0] == "verify-exact"}
    assert kinds == {"product", "equaliser", "coequaliser"}
    assert {c["exit"] for c in CASES} == {0, 1, 2}
    assert any("--no-json" in c["argv"] for c in CASES)
