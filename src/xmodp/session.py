"""Session files and the command layer behind the CLI.

A session is a JSON document holding one base group, named groups, named
crossed modules over the base, named morphisms, and named pair sets, plus
default options.  Parsing validates everything up front: schema problems
raise ParseError, structural problems raise ValidationError carrying the
core validator's name and witnesses.  run_command executes one named
command against a parsed session and returns a JSON-ready report plus the
process exit code (0 pass, 1 failed verification or validation, 2 usage).
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import (
    MissingArgumentError,
    NotEquivalenceRelationError,
    ParseError,
    UnknownCommandError,
    UnknownNameError,
    ValidationError,
    XmodError,
)
from .groups import Group, make_group
from . import limits, presheaf
from .limits import DEFAULT_CATALOGUE_ORDER, MAX_CATALOGUE_ORDER, Cocone, Cone, EquivalenceRelation
from .presheaf import (
    compute_presheaf,
    generator_witness,
    verify_full_faithful,
)
from .words import hom_set, hom_set_size, make_free_object
from .xmod import (
    DEFAULT_BUDGET,
    CrossedModule,
    XModMorphism,
    make_crossed_module,
    make_xmod_morphism,
)

__all__ = [
    "SessionOptions",
    "Session",
    "parse_session",
    "serialize_session",
    "run_command",
    "Command",
    "COMMAND_TABLE",
    "COMMANDS",
    "DATA_ERRORS",
]


@dataclass
class SessionOptions:
    catalogue_order: int = DEFAULT_CATALOGUE_ORDER
    budget: int = DEFAULT_BUDGET


@dataclass
class Session:
    base: Group
    groups: dict[str, Group] = field(default_factory=dict)
    xmods: dict[str, CrossedModule] = field(default_factory=dict)
    morphisms: dict[str, XModMorphism] = field(default_factory=dict)
    pairsets: dict[str, EquivalenceRelation] = field(default_factory=dict)
    options: SessionOptions = field(default_factory=SessionOptions)


def _need(record: dict, key: str, kind: type, where: str):
    if key not in record:
        raise ParseError(f"{where}: missing field {key!r}")
    value = record[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def _records(doc: dict, key: str, kind: str, defined: dict, required: bool = False):
    """(name, record) for each entry of a list section; names must be new."""
    for rec in _need(doc, key, list, "session") if required or key in doc else []:
        if not isinstance(rec, dict):
            raise ParseError(f"{key}: each entry must be an object")
        name = _need(rec, "name", str, kind)
        if name in defined:
            raise ParseError(f"{kind} {name!r} defined twice")
        yield name, rec


def _ref(record: dict, key: str, defined: dict, kind: str, where: str) -> str:
    """A field naming an object already defined in the session."""
    name = _need(record, key, str, where)
    if name not in defined:
        raise ParseError(f"{where}: unknown {kind} {name!r}")
    return name


def _rows(record: dict, key: str, where: str) -> list:
    """A table field: a list whose every row is a list."""
    rows = _need(record, key, list, where)
    if not all(isinstance(row, list) for row in rows):
        raise ParseError(f"{where}: each row of {key!r} must be a list")
    return rows


def _check_options(catalogue_order: int, budget: int) -> None:
    for key, value in (("catalogue_order", catalogue_order), ("budget", budget)):
        if type(value) is not int:
            raise ParseError(f"{key} must be int, got {value!r}")
    if not 1 <= catalogue_order <= MAX_CATALOGUE_ORDER:
        raise ParseError(
            f"catalogue_order must be between 1 and {MAX_CATALOGUE_ORDER}, got {catalogue_order}"
        )
    if budget < 1:
        raise ParseError(f"budget must be at least 1, got {budget}")


def _wrap_validation(where: str, exc: XmodError) -> ValidationError:
    violations = getattr(exc, "violations", ())
    return ValidationError(f"{where}: {type(exc).__name__}: {exc}", violations=violations)


def parse_session(text: str) -> Session:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("session must be a JSON object")
    base_name = _need(doc, "base", str, "session")
    groups: dict[str, Group] = {}
    for name, rec in _records(doc, "groups", "group", groups, required=True):
        order = _need(rec, "order", int, f"group {name!r}")
        table = _rows(rec, "table", f"group {name!r}")
        if order != len(table):
            raise ParseError(f"group {name!r}: order {order} does not match table size {len(table)}")
        try:
            groups[name] = make_group(table, name)
        except XmodError as e:
            raise _wrap_validation(f"group {name!r}", e) from None
    if base_name not in groups:
        raise ParseError(f"base group {base_name!r} is not defined")
    session = Session(base=groups[base_name], groups=groups)

    for name, rec in _records(doc, "xmods", "xmod", session.xmods):
        where = f"xmod {name!r}"
        m_name = _ref(rec, "M", groups, "group", where)
        p_name = _ref(rec, "P", groups, "group", where)
        if groups[p_name] != session.base:
            raise ValidationError(
                f"{where}: BaseMismatchError: over {p_name!r}, session base is {base_name!r}"
            )
        boundary = _need(rec, "boundary", list, where)
        action = _rows(rec, "action", where)
        try:
            session.xmods[name] = make_crossed_module(
                name, groups[m_name], session.base, boundary, action
            )
        except XmodError as e:
            raise _wrap_validation(where, e) from None

    for name, rec in _records(doc, "morphisms", "morphism", session.morphisms):
        where = f"morphism {name!r}"
        src = _ref(rec, "from", session.xmods, "xmod", where)
        tgt = _ref(rec, "to", session.xmods, "xmod", where)
        mapping = _need(rec, "map", list, where)
        try:
            session.morphisms[name] = make_xmod_morphism(
                session.xmods[src], session.xmods[tgt], mapping
            )
        except XmodError as e:
            raise _wrap_validation(where, e) from None

    for name, rec in _records(doc, "pairsets", "pairset", session.pairsets):
        carrier = _ref(rec, "carrier", session.xmods, "xmod", f"pairset {name!r}")
        pairs = _need(rec, "pairs", list, f"pairset {name!r}")
        cleaned = set()
        for pair in pairs:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or any(isinstance(v, bool) or not isinstance(v, int) for v in pair)
            ):
                raise ParseError(f"pairset {name!r}: each pair must be two integers")
            cleaned.add((pair[0], pair[1]))
        session.pairsets[name] = EquivalenceRelation(
            carrier=session.xmods[carrier], pairs=frozenset(cleaned)
        )

    opts = doc.get("options", {})
    if not isinstance(opts, dict):
        raise ParseError("options must be an object")
    unknown = [key for key in opts if key not in ("catalogue_order", "budget")]
    if unknown:
        raise ParseError(f"options: unknown key {unknown[0]!r}")
    options = SessionOptions()
    if "catalogue_order" in opts:
        options.catalogue_order = _need(opts, "catalogue_order", int, "options")
    if "budget" in opts:
        options.budget = _need(opts, "budget", int, "options")
    _check_options(options.catalogue_order, options.budget)
    session.options = options
    return session


def group_json(G: Group) -> dict:
    return {"name": G.name, "order": G.order, "table": [list(r) for r in G.table]}


def xmod_json(A: CrossedModule) -> dict:
    return {
        "name": A.name,
        "M": A.group.name,
        "P": A.base.name,
        "boundary": list(A.boundary.image),
        "action": [list(r) for r in A.action.table],
    }


def morphism_json(name: str, f: XModMorphism) -> dict:
    return {"name": name, "from": f.source.name, "to": f.target.name, "map": list(f.mapping)}


def serialize_session(session: Session) -> str:
    reverse = {id(x): n for n, x in session.xmods.items()}
    doc = {
        "base": session.base.name,
        "groups": [group_json(G) for G in session.groups.values()],
        "xmods": [xmod_json(A) for A in session.xmods.values()],
        "morphisms": [morphism_json(n, f) for n, f in session.morphisms.items()],
        "pairsets": [
            {
                "name": n,
                "carrier": reverse[id(E.carrier)],
                "pairs": [list(p) for p in sorted(E.pairs)],
            }
            for n, E in session.pairsets.items()
        ],
        "options": {
            "catalogue_order": session.options.catalogue_order,
            "budget": session.options.budget,
        },
    }
    return json.dumps(doc, indent=2)


# Errors that mean the data failed a check: exit code 1.
DATA_ERRORS = (ValidationError, NotEquivalenceRelationError)


def _args(args: Sequence[str], count: int, usage: str) -> Sequence[str]:
    if len(args) < count:
        raise MissingArgumentError(f"expected {usage}")
    if len(args) > count:
        raise UnknownNameError(f"unexpected extra arguments {list(args[count:])}; expected {usage}")
    return args


def _get(table: dict, name: str, kind: str):
    if name not in table:
        raise UnknownNameError(f"no {kind} named {name!r}; defined: {sorted(table)}")
    return table[name]


_SESSION_TABLES = {"xmod": "xmods", "morphism": "morphisms", "pairset": "pairsets"}


def _resolve(session: Session, usage: str, kinds: Sequence[str], args: Sequence[str]) -> list:
    """The session objects named by args, one of each kind in turn."""
    names = _args(args, len(kinds), " ".join([usage, *(f"<{kind}>" for kind in kinds)]))
    return [_get(getattr(session, _SESSION_TABLES[k]), n, k) for k, n in zip(kinds, names)]


def _cone_json(cone: Cone | Cocone) -> dict:
    out = {
        "kind": cone.kind,
        "apex": xmod_json(cone.apex),
        "legs": [morphism_json(f"leg{i}", leg) for i, leg in enumerate(cone.legs)],
    }
    if isinstance(cone, Cocone):
        out["classes"] = [list(c) for c in cone.classes]
    else:
        out["elements"] = [list(e) if isinstance(e, tuple) else e for e in cone.elements]
    return out


def _universal(construct: str, verify: str) -> Callable[..., dict]:
    """A construction on the named objects, with its universal-property sweep.

    Both are named functions of limits, looked up at call time, so that a
    wrapper installed on them there (a tracer, say) sees every call.
    """

    def run(session: Session, objs: Sequence, budget: int, max_order: int) -> dict:
        cone = getattr(limits, construct)(*objs)
        up = getattr(limits, verify)(*objs, cone, max_order=max_order, budget=budget)
        return {**_cone_json(cone), "universal_property": up, "pass": up["pass"]}

    return run


def _validate(session: Session, objs: Sequence, budget: int, max_order: int) -> dict:
    # parse_session has validated every object, so no count can be nonzero.
    return {
        "pass": True,
        "base": session.base.name,
        "groups": sorted(session.groups),
        "violation_counts": dict.fromkeys([*session.xmods, *session.morphisms], 0),
    }


def _homset(session: Session, args: Sequence[str], budget: int, max_order: int) -> dict:
    if not args:
        raise MissingArgumentError("expected homset <xmod> [base-element-index ...]")
    A = _get(session.xmods, args[0], "xmod")
    try:
        # ASCII digits only: int() also reads signs, spaces, "_" and other scripts' digits.
        if not all(a.isascii() and a.isdigit() for a in args[1:]):
            raise ValueError
        omega = tuple(map(int, args[1:]))
    except ValueError:
        raise ParseError(f"homset: base elements must be integers, got {list(args[1:])}") from None
    free = make_free_object(session.base, tuple(f"g{i}" for i in range(len(omega))), omega)
    assignments = hom_set(free, A)
    return {
        "pass": True,
        "xmod": A.name,
        "omega": list(omega),
        "count": len(assignments),
        "product_of_fibers": hom_set_size(free, A),
        "assignments": [list(t) for t in assignments],
    }


class _ItemTexts(Sequence):
    """A read-only report list held as the JSON text of each item.

    Each text is json.dumps(item, indent=2) of one item, and indexing
    parses it back into that item.  cli._json_text writes the texts as
    they are, indented to the depth it writes the list at.
    """

    def __init__(self, texts: list[str]) -> None:
        self.texts = texts

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [json.loads(t) for t in self.texts[i]]
        return json.loads(self.texts[i])


_ENCODE_STR = json.encoder.encode_basestring_ascii
_OBJECT = '{\n  "object": %s,\n  "size": %d,\n  "assignments": %s\n}'
_ACTION = '{\n  "generator": %s,\n  "source": %s,\n  "target": %s,\n  "map": %s\n}'


def _embed(session: Session, objs: Sequence, budget: int, max_order: int) -> dict:
    """The presheaf of A, each object and generator record rendered once.

    The records are written straight from the fibers and the maps of
    compute_presheaf, on the site the presheaf built (F.site): an object's
    assignments are the product of its fibers' element texts, each made
    once; the object descriptions and generator names are the site's bulk
    texts, each object's encoded once for every record that names it, and
    each generator's ends come from Site.ends; and the text of each
    distinct map is written once, so the identity and inc maps, which the
    presheaf shares between generators, are written once per size.
    """
    (A,) = objs
    F = compute_presheaf(A)
    site = F.site
    names = list(map(_ENCODE_STR, site.descriptions))
    # The text of every int the records print: elements of M and set indices.
    digits = list(map(str, range(max(A.group.order, *F.sizes))))
    elements = [[digits[a] for a in fiber] for fiber in F.fibers]
    # The fibers of each object in site order: single(x), then pair(x, y).
    factors = [*((e,) for e in elements), *itertools.product(elements, repeat=2)]
    objects = []
    for name, size, fibers in zip(names, F.sizes, factors):
        assignments = "[]"
        if size:
            tuples = map(",\n      ".join, itertools.product(*fibers))
            assignments = "[\n    [\n      " + "\n    ],\n    [\n      ".join(tuples) + "\n    ]\n  ]"
        objects.append(_OBJECT % (name, size, assignments))
    maps: dict[tuple[int, ...], str] = {}
    actions = []
    for name, (s, t), image in zip(site.names, site.ends(), F.actions):
        text = maps.get(image)
        if text is None:
            entries = ",\n    ".join(map(digits.__getitem__, image))
            text = maps[image] = "[\n    " + entries + "\n  ]" if image else "[]"
        actions.append(_ACTION % (_ENCODE_STR(name), names[s], names[t], text))
    return {"pass": True, "xmod": A.name, "objects": _ItemTexts(objects), "actions": _ItemTexts(actions)}


def _verify_embedding(session: Session, objs: Sequence, budget: int, max_order: int) -> dict:
    return verify_full_faithful(*objs, budget=budget)


_MORPHISM_PAIR = ("morphism", "morphism")

# Each verify-exact kind: the name of its comparison in presheaf, looked up
# at call time as _universal looks up limits, and the kinds of session
# object it takes.
_EXACT_KINDS = {
    "product": ("verify_product_preserved", ("xmod", "xmod")),
    "equaliser": ("verify_equaliser_preserved", _MORPHISM_PAIR),
    "coequaliser": ("verify_coequaliser_preserved", _MORPHISM_PAIR),
}


def _verify_exact(session: Session, args: Sequence[str], budget: int, max_order: int) -> dict:
    if not args:
        raise MissingArgumentError(
            "expected verify-exact product <xmod> <xmod> | equaliser <m> <m> | coequaliser <m> <m>"
        )
    kind, rest = args[0], args[1:]
    if kind not in _EXACT_KINDS:
        raise UnknownCommandError(f"verify-exact: unknown kind {kind!r}")
    verify, kinds = _EXACT_KINDS[kind]
    return getattr(presheaf, verify)(*_resolve(session, f"verify-exact {kind}", kinds, rest))


def _witness_generators(session: Session, objs: Sequence, budget: int, max_order: int) -> dict:
    return generator_witness(*objs)


class Command(NamedTuple):
    """One CLI command.

    run(session, arguments, budget, catalogue order) returns the report
    fields after "command" and "options", including "pass".  When kinds is
    set, the arguments are the session objects named on the command line,
    one of each kind in turn; when it is None they are the raw strings.
    """

    run: Callable[..., dict]
    kinds: tuple[str, ...] | None
    help: str


COMMAND_TABLE: dict[str, Command] = {
    "validate": Command(
        _validate, (), "list the session's objects, each validated when the session is read"
    ),
    "equaliser": Command(
        _universal("equaliser", "verify_equaliser"), _MORPHISM_PAIR,
        "equaliser of two parallel morphisms, with universal property sweep",
    ),
    "coequaliser": Command(
        _universal("coequaliser", "verify_coequaliser"), _MORPHISM_PAIR,
        "coequaliser of two parallel morphisms, with universal property sweep",
    ),
    "pullback": Command(
        _universal("pullback", "verify_pullback"), _MORPHISM_PAIR,
        "pullback of two morphisms into a common target",
    ),
    "product": Command(
        _universal("product_over_P", "verify_product"), ("xmod", "xmod"),
        "binary product of two crossed modules over the base",
    ),
    "kernel-pair": Command(
        _universal("kernel_pair", "verify_kernel_pair"), ("morphism",), "kernel pair of a morphism"
    ),
    "quotient": Command(
        _universal("quotient_by_equivalence", "verify_quotient"), ("xmod", "pairset"),
        "quotient of a crossed module by an equivalence pair set",
    ),
    "homset": Command(_homset, None, "assignments from a free object with the given label boundaries"),
    "embed": Command(_embed, ("xmod",), "the presheaf of a crossed module: sets and generator actions"),
    "verify-embedding": Command(
        _verify_embedding, ("xmod", "xmod"),
        "compare morphisms with natural transformations for two objects",
    ),
    "verify-exact": Command(_verify_exact, None, "compare a construction before and after the embedding"),
    "witness-generators": Command(
        _witness_generators, ("morphism",), "an assignment that fails to factor through a proper mono"
    ),
}

COMMANDS = tuple(COMMAND_TABLE)


def run_command(
    session: Session,
    command: str,
    args: Sequence[str] = (),
    budget: int | None = None,
    catalogue_order: int | None = None,
) -> tuple[dict, int]:
    """Execute one command and return (report, exit_code)."""
    if command not in COMMAND_TABLE:
        raise UnknownCommandError(f"unknown command {command!r}; expected one of {COMMANDS}")
    budget = budget if budget is not None else session.options.budget
    max_order = catalogue_order if catalogue_order is not None else session.options.catalogue_order
    _check_options(max_order, budget)
    report: dict = {
        "command": command,
        "options": {"budget": budget, "catalogue_order": max_order},
    }
    entry = COMMAND_TABLE[command]
    objs = args if entry.kinds is None else _resolve(session, command, entry.kinds, args)
    report.update(entry.run(session, objs, budget, max_order))
    return report, 0 if report.get("pass", False) else 1
