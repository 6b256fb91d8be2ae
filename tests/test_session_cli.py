"""Tests for session files, the command layer, and the CLI."""

import argparse
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from xmodp import cli, errors
from xmodp.cli import main
from xmodp.errors import (
    MissingArgumentError,
    NotEquivalenceRelationError,
    NotMonoError,
    ParseError,
    UnknownCommandError,
    UnknownNameError,
    ValidationError,
    XmodError,
)
from xmodp.session import COMMAND_TABLE, DATA_ERRORS, Session, parse_session, run_command, serialize_session

C2_SESSION = Path(__file__).parent / "golden" / "c2.json"
C4_TABLE = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]


def _doc():
    return {
        "base": "C2",
        "groups": [
            {"name": "C2", "order": 2, "table": [[0, 1], [1, 0]]},
            {"name": "C4", "order": 4, "table": C4_TABLE},
        ],
        "xmods": [
            {
                "name": "A2",
                "M": "C4",
                "P": "C2",
                "boundary": [0, 1, 0, 1],
                "action": [[0, 1, 2, 3], [0, 1, 2, 3]],
            },
            {
                "name": "A1",
                "M": "C2",
                "P": "C2",
                "boundary": [0, 1],
                "action": [[0, 1], [0, 1]],
            },
            {
                "name": "A3",
                "M": "C2",
                "P": "C2",
                "boundary": [0, 0],
                "action": [[0, 1], [0, 1]],
            },
        ],
        "morphisms": [
            {"name": "f", "from": "A2", "to": "A1", "map": [0, 1, 0, 1]},
            {"name": "incl", "from": "A3", "to": "A2", "map": [0, 2]},
        ],
        "pairsets": [
            {
                "name": "K",
                "carrier": "A2",
                "pairs": [[0, 0], [0, 2], [1, 1], [1, 3], [2, 0], [2, 2], [3, 1], [3, 3]],
            },
            {"name": "broken", "carrier": "A2", "pairs": [[0, 1]]},
        ],
        "options": {"catalogue_order": 4, "budget": 1000000},
    }


def _session():
    return parse_session(json.dumps(_doc()))


def test_parse_session_shape():
    s = _session()
    assert s.base.name == "C2"
    assert sorted(s.xmods) == ["A1", "A2", "A3"]
    assert s.morphisms["f"].mapping == (0, 1, 0, 1)
    assert len(s.pairsets["K"].pairs) == 8
    assert s.options.budget == 1000000


def test_serialize_round_trip():
    s = _session()
    text = serialize_session(s)
    again = serialize_session(parse_session(text))
    assert text == again


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError) as err:
        parse_session("{\n  \"base\": ")
    assert "line" in str(err.value)


def test_parse_schema_errors():
    doc = _doc()
    del doc["base"]
    with pytest.raises(ParseError):
        parse_session(json.dumps(doc))

    doc = _doc()
    doc["base"] = "C9"
    with pytest.raises(ParseError):
        parse_session(json.dumps(doc))

    doc = _doc()
    del doc["groups"][0]["table"]
    with pytest.raises(ParseError):
        parse_session(json.dumps(doc))

    doc = _doc()
    doc["groups"].append(doc["groups"][0])
    with pytest.raises(ParseError):
        parse_session(json.dumps(doc))

    doc = _doc()
    doc["groups"][1]["order"] = 3
    with pytest.raises(ParseError, match="group 'C4': order 3 does not match table size 4"):
        parse_session(json.dumps(doc))

    doc = _doc()
    doc["xmods"][0]["M"] = "C5"
    with pytest.raises(ParseError):
        parse_session(json.dumps(doc))

    doc = _doc()
    doc["morphisms"][0]["from"] = "missing"
    with pytest.raises(ParseError):
        parse_session(json.dumps(doc))

    doc = _doc()
    doc["pairsets"][0]["pairs"] = [[0]]
    with pytest.raises(ParseError):
        parse_session(json.dumps(doc))

    doc = _doc()
    doc["options"] = {"budget": "lots"}
    with pytest.raises(ParseError):
        parse_session(json.dumps(doc))


@pytest.mark.parametrize("options", [{"budjet": 5}, {"budget": 5, "catalogue-order": 2}, {"": 1}])
def test_parse_session_refuses_an_unknown_option(options):
    # An unknown key was ignored: {"budjet": 5} ran with the default budget.
    doc = _doc()
    doc["options"] = options
    unknown = next(key for key in options if key not in ("budget", "catalogue_order"))
    with pytest.raises(ParseError) as raised:
        parse_session(json.dumps(doc))
    assert str(raised.value) == f"options: unknown key {unknown!r}"


def test_parse_wraps_group_validation():
    doc = _doc()
    doc["groups"][0]["table"] = [[0, 1], [1, 1]]
    with pytest.raises(ValidationError) as err:
        parse_session(json.dumps(doc))
    assert "NoInverseError" in str(err.value)


def test_parse_wraps_xmod_validation():
    doc = _doc()
    doc["xmods"][0]["action"] = [[0, 2, 1, 3], [0, 1, 2, 3]]
    with pytest.raises(ValidationError) as err:
        parse_session(json.dumps(doc))
    assert "action-identity" in str(err.value)
    assert err.value.violations


def test_parse_rejects_xmod_over_other_base():
    doc = _doc()
    doc["xmods"].append(
        {
            "name": "off-base",
            "M": "C2",
            "P": "C4",
            "boundary": [0, 2],
            "action": [[0, 1]] * 4,
        }
    )
    with pytest.raises(ValidationError) as err:
        parse_session(json.dumps(doc))
    assert "BaseMismatchError" in str(err.value)


def test_parse_wraps_morphism_validation():
    doc = _doc()
    doc["morphisms"][0]["map"] = [0, 0, 0, 0]
    with pytest.raises(ValidationError) as err:
        parse_session(json.dumps(doc))
    assert "map-boundary" in str(err.value)


def test_run_validate():
    report, code = run_command(_session(), "validate")
    assert code == 0
    assert report["pass"]
    assert set(report["violation_counts"]) == {"A1", "A2", "A3", "f", "incl"}
    assert all(v == 0 for v in report["violation_counts"].values())


def test_run_equaliser():
    report, code = run_command(_session(), "equaliser", ["f", "f"])
    assert code == 0
    assert report["pass"]
    assert len(report["apex"]["boundary"]) == 4
    assert report["universal_property"]["kind"] == "equaliser"


def test_run_kernel_pair_and_quotient():
    s = _session()
    report, code = run_command(s, "kernel-pair", ["f"])
    assert code == 0
    assert len(report["elements"]) == 8

    report, code = run_command(s, "quotient", ["A2", "K"])
    assert code == 0
    assert report["universal_property"]["effective"]
    assert report["classes"] == [[0, 2], [1, 3]]


def test_run_quotient_rejects_bad_pairset():
    with pytest.raises(NotEquivalenceRelationError):
        run_command(_session(), "quotient", ["A2", "broken"])


def test_run_homset():
    report, code = run_command(_session(), "homset", ["A2", "1", "1"])
    assert code == 0
    assert report["count"] == 4
    assert report["assignments"] == [[1, 1], [1, 3], [3, 1], [3, 3]]
    report, _ = run_command(_session(), "homset", ["A2"])
    assert report["count"] == 1
    # int() would read the middle four as 1, 10, 1 and 1, and refuses the
    # last by its own digit limit.
    for element in ["x", " +1", "1_0", "\u0661", "+1", "9" * 5000]:
        with pytest.raises(ParseError):
            run_command(_session(), "homset", ["A2", element])


def test_run_embed():
    report, code = run_command(_session(), "embed", ["A2"])
    assert code == 0
    assert len(report["objects"]) == 6
    assert len(report["actions"]) == 22
    single0 = next(o for o in report["objects"] if o["object"] == "single(0)")
    assert single0["assignments"] == [[0], [2]]


def test_run_verify_embedding():
    report, code = run_command(_session(), "verify-embedding", ["A2", "A2"])
    assert code == 0
    assert report["hom_count"] == 2 == report["nat_count"]


def test_run_verify_exact():
    report, code = run_command(_session(), "verify-exact", ["product", "A2", "A1"])
    assert code == 0 and report["pass"]
    report, code = run_command(_session(), "verify-exact", ["equaliser", "f", "f"])
    assert code == 0 and report["pass"]
    with pytest.raises(UnknownCommandError):
        run_command(_session(), "verify-exact", ["pushout", "A2", "A1"])


@pytest.mark.parametrize(
    "args, stderr",
    [
        (
            [],
            "MissingArgumentError: expected verify-exact product <xmod> <xmod> | equaliser <m> <m>"
            " | coequaliser <m> <m>",
        ),
        (["pushout", "A2", "A1"], "UnknownCommandError: verify-exact: unknown kind 'pushout'"),
        (["product", "A2"], "MissingArgumentError: expected verify-exact product <xmod> <xmod>"),
        (
            ["equaliser", "id2", "neg", "extra"],
            "UnknownNameError: unexpected extra arguments ['extra']; expected verify-exact equaliser"
            " <morphism> <morphism>",
        ),
    ],
    ids=["no-kind", "unknown-kind", "one-object", "extra-argument"],
)
def test_cli_verify_exact_usage_texts(capsys, args, stderr):
    assert main(["verify-exact", "--input", str(C2_SESSION), *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {stderr}\n"


def test_run_witness_generators():
    report, code = run_command(_session(), "witness-generators", ["incl"])
    assert code == 0
    assert report["missed_element"] == 1
    with pytest.raises(NotMonoError):
        run_command(_session(), "witness-generators", ["f"])


def test_run_command_argument_errors():
    with pytest.raises(UnknownCommandError):
        run_command(_session(), "colimit")
    with pytest.raises(MissingArgumentError):
        run_command(_session(), "equaliser", ["f"])
    with pytest.raises(UnknownNameError):
        run_command(_session(), "equaliser", ["f", "f", "f"])
    with pytest.raises(UnknownNameError):
        run_command(_session(), "equaliser", ["f", "ghost"])
    with pytest.raises(MissingArgumentError):
        run_command(_session(), "homset", [])
    with pytest.raises(UnknownNameError):
        run_command(_session(), "validate", ["ghost"])


def _write_session(tmp_path, doc=None):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(doc if doc is not None else _doc()))
    return str(path)


def test_cli_validate(tmp_path, capsys):
    path = _write_session(tmp_path)
    assert main(["validate", "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True


def test_cli_output_file_and_summary(tmp_path, capsys):
    path = _write_session(tmp_path)
    out = tmp_path / "report.json"
    assert main(["kernel-pair", "--input", path, "--output", str(out), "f"]) == 0
    assert json.loads(out.read_text())["pass"] is True

    assert main(["validate", "--input", path, "--no-json"]) == 0
    assert capsys.readouterr().out.strip() == "validate: PASS"


def test_cli_is_deterministic(tmp_path, capsys):
    path = _write_session(tmp_path)
    main(["quotient", "--input", path, "A2", "K"])
    first = capsys.readouterr().out
    main(["quotient", "--input", path, "A2", "K"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_data_failure_exits_1(tmp_path, capsys):
    path = _write_session(tmp_path)
    assert main(["quotient", "--input", path, "A2", "broken"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert "NotEquivalenceRelationError" in report["error"]


def test_cli_invalid_session_exits_1(tmp_path, capsys):
    doc = _doc()
    doc["xmods"][0]["boundary"] = [0, 0, 0, 1]
    path = _write_session(tmp_path, doc)
    assert main(["validate", "--input", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert "ValidationError" in report["error"]


def test_cli_usage_failures_exit_2(tmp_path, capsys):
    assert main(["validate", "--input", str(tmp_path / "missing.json")]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["validate", "--input", str(bad)]) == 2

    path = _write_session(tmp_path)
    assert main(["equaliser", "--input", path, "f"]) == 2
    assert main(["equaliser", "--input", path, "f", "ghost"]) == 2
    assert main(["verify-embedding", "--input", path, "--budget", "1", "A2", "A2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("name", errors.__all__)
def test_cli_exit_code_for_every_error_class(name, tmp_path, capsys, monkeypatch):
    # A data error is a failed report with exit 1; every other library
    # error is a usage error: one stderr line and exit 2.
    cls = getattr(errors, name)

    def fail(*args, **kwargs):
        raise cls("boom")

    monkeypatch.setattr(cli, "run_command", fail)
    code = main(["validate", "--input", _write_session(tmp_path)])
    out, err = capsys.readouterr()
    if cls in DATA_ERRORS:
        assert (code, err) == (1, "")
        assert json.loads(out) == {"command": "validate", "pass": False, "error": f"{name}: boom"}
    else:
        assert (code, out, err) == (2, "", f"error: {name}: boom\n")


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    path = _write_session(tmp_path)
    out = tmp_path / "missing" / "report.json"
    assert main(["validate", "--input", path, "--output", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith(f"error: cannot write {out}: ")
    assert not out.exists()


def _assert_one_line_error(capsys, start):
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith(start) and stderr.count("\n") == 1 and stderr.endswith("\n")


def test_cli_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "session.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["validate", "--input", str(path)]) == 2
    _assert_one_line_error(capsys, f"error: cannot read {path}: ")


def test_cli_deeply_nested_input_exits_2(tmp_path, capsys):
    path = tmp_path / "session.json"
    path.write_text("[" * 100000)
    assert main(["validate", "--input", str(path)]) == 2
    _assert_one_line_error(capsys, "error: ParseError: ")


def test_cli_argparse_errors(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["colimit", "--input", "x.json"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["validate"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("value", ["1_000", " 5", "+5", "\u0664"], ids=["underscore", "space", "plus", "arabic-indic"])
@pytest.mark.parametrize("flag", ["--budget", "--catalogue-order"])
def test_cli_integer_options_take_ascii_digits_only(tmp_path, capsys, flag, value):
    # int() would read these as 1000, 5, 5 and 4.
    path = _write_session(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["product", "--input", path, flag, value, "A2", "A1"])
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: expected an ASCII decimal integer" in err_text


@pytest.mark.parametrize("argv", [["--help"], ["embed", "--help"]], ids=["top", "command"])
def test_cli_help_lists_every_command(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for cmd, entry in COMMAND_TABLE.items():
        assert any(line.split() == [cmd, *entry.help.split()] for line in lines), cmd


def test_cli_builds_one_parser_per_call(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    # The parser is built on main's first call in the process and read by
    # every later one, an argparse error among them; build_parser still
    # returns a fresh parser.
    path = _write_session(tmp_path)
    assert main(["validate", "--input", path]) == 0
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["product", "A2", "A1", "--input", path, "--no-json"]) == 0
    with pytest.raises(SystemExit) as exited:
        main(["validate"])
    assert exited.value.code == 2
    assert main(["validate", "--input", path]) == 0
    assert built == []
    parser = cli.build_parser()
    assert built == [parser] and parser is not cli._parser()
    capsys.readouterr()


def _fresh_doc():
    # _doc() shares C4_TABLE between documents; these tests edit in place.
    return json.loads(json.dumps(_doc()))


def _with(path, value):
    """A fresh session document with the node at path replaced by value."""
    doc = _fresh_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "path, code",
    [
        (("groups", 0, "table", 0, 1), "IndexOutOfRangeError"),
        (("xmods", 0, "boundary", 1), "boundary-range"),
        (("xmods", 0, "action", 1, 1), "action-range"),
        (("morphisms", 0, "map", 1), "map-range"),
    ],
    ids=["group-table", "boundary", "action", "map"],
)
def test_cli_bool_entry_is_rejected_like_an_out_of_range_one(tmp_path, capsys, path, code):
    # JSON true is not element 1: it takes the out-of-range path.
    errors = []
    for value in (True, 7):
        path_to = _write_session(tmp_path, _with(path, value))
        assert main(["validate", "--input", path_to]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert report["error"].startswith("ValidationError:")
        assert code in report["error"]
        errors.append(report["error"])
    assert errors[0].replace("True", "7") == errors[1]


@pytest.mark.parametrize(
    "option, value",
    [("catalogue_order", -3), ("catalogue_order", 0), ("catalogue_order", 7), ("budget", -5), ("budget", 0)],
)
def test_cli_option_out_of_bounds_exits_2(tmp_path, capsys, option, value):
    flag = "--" + option.replace("_", "-")
    path = _write_session(tmp_path)
    assert main(["product", "--input", path, flag, str(value), "A2", "A1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: ParseError: {option} must be ")
    assert err.endswith(f"got {value}\n")

    doc = _doc()
    doc["options"][option] = value
    assert main(["validate", "--input", _write_session(tmp_path, doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: ParseError: {option} must be ")


@pytest.mark.parametrize(
    "option, value",
    [("catalogue_order", True), ("catalogue_order", 4.5), ("budget", 1e7), ("budget", True), ("budget", "10")],
)
def test_run_command_rejects_an_option_that_is_not_an_int(option, value):
    # parse_session rejects these in a session file; a library override must not slip past.
    session = parse_session(json.dumps(_doc()))
    with pytest.raises(ParseError) as raised:
        run_command(session, "product", ["A2", "A1"], **{option: value})
    assert str(raised.value) == f"{option} must be int, got {value!r}"


def test_cli_option_bounds_are_inclusive(tmp_path, capsys):
    doc = _doc()
    doc["options"] = {"catalogue_order": 6, "budget": 1}
    assert main(["validate", "--input", _write_session(tmp_path, doc)]) == 0
    capsys.readouterr()
    path = _write_session(tmp_path)
    assert main(["product", "--input", path, "--catalogue-order", "1", "A2", "A1"]) == 0
    assert json.loads(capsys.readouterr().out)["options"]["catalogue_order"] == 1


@pytest.mark.parametrize(
    "path, value",
    [
        (("xmods",), True),
        (("morphisms",), None),
        (("pairsets",), 3),
        (("groups", 1, "table", 2), 5),
        (("xmods", 0, "action", 1), 0),
    ],
    ids=["xmods-section", "morphisms-section", "pairsets-section", "table-row", "action-row"],
)
def test_cli_malformed_session_exits_2(tmp_path, capsys, path, value):
    path_to = _write_session(tmp_path, _with(path, value))
    assert main(["validate", "--input", path_to]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ParseError: ")


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@st.composite
def _mutated_docs(draw):
    """The valid session with one node, at any depth, replaced by arbitrary JSON."""
    doc = _fresh_doc()
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
            continue
        node[key] = draw(_json)
        return doc


def _session_or_xmod_error(doc):
    try:
        session = parse_session(json.dumps(doc))
    except XmodError:
        return
    assert isinstance(session, Session)


@settings(max_examples=200, deadline=None)
@given(_mutated_docs())
def test_parse_session_fuzz_near_valid(doc):
    _session_or_xmod_error(doc)


@settings(max_examples=100, deadline=None)
@given(_json | st.dictionaries(st.sampled_from(["base", "groups", "xmods", "morphisms", "pairsets", "options"]), _json))
def test_parse_session_fuzz_arbitrary(doc):
    _session_or_xmod_error(doc)
