"""tools/code_lines.py counts code lines: not blank lines, comments or docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment after code

# a comment line


class C:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
that is not a docstring"""
        return text
'''


def test_counts_code_and_skips_docstrings_comments_and_blank_lines():
    # import, class, def, the two lines of the string, return.
    assert code_lines.code_lines(SAMPLE) == 6


def test_counts_the_package(capsys):
    assert code_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].split()[1] == "total"
    assert int(lines[-1].split()[0]) == sum(int(line.split()[0]) for line in lines[:-1])
