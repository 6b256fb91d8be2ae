"""Command line interface.

Every command reads a session file, runs one computation, and emits a JSON
report with a top-level "pass" flag.  Exit codes: 0 pass, 1 failed
verification or validation, 2 parse or usage error.

The parser depends on no input, so main builds it once per process, on
its first call, not at import (_parser), and renders its usage line then.
It is all that lives across main calls: nothing derived from a session
outlives the command that read it.  parse_intermixed_args restores the
nargs, defaults, required flags and usage it changes, also when a call
exits 2 or prints --help, so every call parses with the same parser.
build_parser returns a fresh one.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path
from typing import Sequence

from .errors import XmodError
from .limits import MAX_CATALOGUE_ORDER
from .session import COMMAND_TABLE, DATA_ERRORS, _ItemTexts, parse_session, run_command

__all__ = ["build_parser", "main"]


def _decimal(text: str) -> int:
    """An optional minus sign and ASCII decimal digits, read as an int."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"expected an ASCII decimal integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    width = max(map(len, COMMAND_TABLE))
    commands = "\n".join(f"  {cmd:<{width}}  {entry.help}" for cmd, entry in COMMAND_TABLE.items())
    parser = argparse.ArgumentParser(
        prog="xmodp",
        description="Crossed modules over a fixed finite base group.",
        epilog=f"commands:\n{commands}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMAND_TABLE, metavar="command", help="one of the commands below")
    parser.add_argument("names", nargs="*", help="object names (and indices for homset)")
    parser.add_argument("--input", required=True, help="session file (JSON)")
    parser.add_argument("--output", default="-", help="report destination, - for stdout")
    parser.add_argument("--budget", type=_decimal, default=None, help="search budget override, at least 1")
    parser.add_argument(
        "--catalogue-order",
        type=_decimal,
        default=None,
        help=f"catalogue group order bound override, 1 to {MAX_CATALOGUE_ORDER}",
    )
    parser.add_argument(
        "--json",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="emit the full JSON report (default) or a one-line summary",
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads, built on its first call.  Its usage is set to
    the text parse_intermixed_args would otherwise render, set and restore
    on every call (format_usage() without its "usage: " prefix)."""
    parser = build_parser()
    parser.usage = parser.format_usage()[7:]
    return parser


def _summary_line(report: dict) -> str:
    status = "PASS" if report.get("pass") else "FAIL"
    extras = []
    for key in ("apex", "count", "hom_count", "nat_count", "error"):
        if key in report:
            value = report[key]
            if isinstance(value, dict):
                value = value.get("name", "?")
            extras.append(f"{key}={value}")
    tail = f" ({', '.join(extras)})" if extras else ""
    return f"{report.get('command', '?')}: {status}{tail}"


_ENCODE_STR = json.encoder.encode_basestring_ascii


def _json_text(value: object, pad: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte, without its per-token chunks.

    A list of plain ints, such as a table row, is written with one join,
    and a session._ItemTexts by joining its item texts, each line
    indented to the depth of the list.
    Anything else (floats, int subclasses, dicts with non-str keys) goes to
    json.dumps itself, with its lines indented to the current depth.
    """
    if isinstance(value, str):
        return _ENCODE_STR(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return int.__repr__(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(x) is int for x in value):
            body = sep.join(map(int.__repr__, value))
        else:
            body = sep.join([_json_text(x, inner) for x in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        if not value:
            return "{}"
        body = sep.join([_ENCODE_STR(k) + ": " + _json_text(v, inner) for k, v in value.items()])
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(value, _ItemTexts):
        if not value:
            return "[]"
        return ("[\n" + ",\n".join(value.texts)).replace("\n", "\n" + inner) + "\n" + pad + "]"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _emit(report: dict, output: str, as_json: bool) -> None:
    text = _json_text(report) if as_json else _summary_line(report)
    if output == "-":
        print(text)
    else:
        Path(output).write_text(text + "\n")


def main(argv: Sequence[str] | None = None) -> int:
    ns = _parser().parse_intermixed_args(argv)
    try:
        text = Path(ns.input).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read {ns.input}: {e}", file=sys.stderr)
        return 2
    try:
        session = parse_session(text)
        report, code = run_command(
            session,
            ns.command,
            ns.names,
            budget=ns.budget,
            catalogue_order=ns.catalogue_order,
        )
    except DATA_ERRORS as e:
        report = {
            "command": ns.command,
            "pass": False,
            "error": f"{type(e).__name__}: {e}",
        }
        code = 1
    except XmodError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    try:
        _emit(report, ns.output, ns.json)
    except OSError as e:
        print(f"error: cannot write {ns.output}: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
