"""Per-layer tracing of xmodp from outside the package.

The layers are the modules.  Recorder.install wraps every public function
of each layer (the plain functions named in the module's __all__) and
rebinds the wrapper under every name that refers to the original in any
loaded xmodp module, so calls between modules and within a module go
through it.  A reference captured inside a container at import time, such
as the constructors held in limits._CATALOGUE_GROUPS, cannot be rebound;
install lists those in Recorder.unwrapped.

Each call is a span: function, start, end, parent span and the index of
the command being run as the request id.  Spans stay in memory and are
written out by Recorder.write when the run ends.  A few wrappers also
count work from the arguments and results (search spaces, results found,
assignments), so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "session", "limits", "presheaf", "words", "xmod", "groups")


# Work counters, called after a wrapped function returns:
# work(recorder, name of the calling wrapped function or "", args, kwargs, result).


def _fibers(A) -> Counter:
    return Counter(A.boundary.image)


def _morphism_work(rec, caller, args, kwargs, result):
    A, B = args[0], args[1]
    rec.counts["xmod.enumerate_morphisms.space"] += B.group.order ** A.group.order
    rec.counts["xmod.enumerate_morphisms.found"] += len(result)


def _nat_work(rec, caller, args, kwargs, result):
    # Candidates: every function between the fibers at each single object,
    # i.e. the product over base elements x of |fib_G(x)| ** |fib_F(x)|.
    fa, fb = _fibers(args[0].xmod), _fibers(args[1].xmod)
    space = 1
    for x in range(args[0].xmod.base.order):
        space *= fb[x] ** fa[x]
    rec.counts["presheaf.enumerate_natural_transformations.space"] += space
    rec.counts["presheaf.enumerate_natural_transformations.found"] += len(result)


def _make_group_work(rec, caller, args, kwargs, result):
    table = args[0] if args else kwargs["table"]
    rec.counts["groups.make_group.triples"] += len(table) ** 3


def _catalogue_work(rec, caller, args, kwargs, result):
    rec.counts["limits.catalogue_objects"] += len(result)


def _hom_set_work(rec, caller, args, kwargs, result):
    rec.counts["words.hom_set.assignments"] += len(result)


def _cone_work(rec, caller, args, kwargs, result):
    # verify_product and verify_kernel_pair return verify_pullback's report:
    # count each report once, at the outermost limits span.
    if not caller.startswith("limits."):
        rec.counts["limits.cones_checked"] += result.get("cones_checked", 0) + result.get("cocones_checked", 0)


WORK = {
    "xmod.enumerate_morphisms": _morphism_work,
    "presheaf.enumerate_natural_transformations": _nat_work,
    "groups.make_group": _make_group_work,
    "limits.default_catalogue": _catalogue_work,
    "words.hom_set": _hom_set_work,
}


class Recorder:
    """Spans and work counts of the wrapped xmodp functions, while installed."""

    def __init__(self):
        self.names: list[str] = []
        # (function id, start, end, parent span or -1, request, raised)
        self.spans: list[tuple | None] = []
        # Open spans, innermost last, as (span index, function id).
        self.stack: list[tuple[int, int]] = []
        self.request = -1
        self.counts: Counter = Counter()
        self.unwrapped: list[str] = []
        # (module, attribute, original function, wrapper)
        self._bindings: list[tuple[object, str, object, object]] = []

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        work = WORK.get(name, _cone_work if name.startswith("limits.verify_") else None)
        spans, stack, names = self.spans, self.stack, self.names
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, caller = stack[-1] if stack else (-1, -1)
            idx = len(spans)
            spans.append(None)
            stack.append((idx, fid))
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.request, raised)
            if work is not None:
                work(self, names[caller] if caller >= 0 else "", args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Bind the wrappers; the first call finds every name to rebind."""
        if not self._bindings:
            self._discover()
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def _discover(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"xmodp.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        for modname, mod in sorted(sys.modules.items()):
            if modname != "xmodp" and not modname.startswith("xmodp."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((mod, attr, value, hit[1]))
                elif isinstance(value, (tuple, list, dict)):
                    items = value.items() if isinstance(value, dict) else enumerate(value)
                    for key, item in items:
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            self.unwrapped.append(
                                f"{modname}.{attr}[{key!r}] holds {item.__module__}.{item.__name__}"
                            )

    def metrics(self, overhead_s: float, report_bytes: int) -> dict:
        """Per-layer self time, calls and raised counts, plus the work counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for fid, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        layer_of = [n.split(".", 1)[0] for n in self.names]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        raised: Counter = Counter()
        fn_self: Counter = Counter()
        fn_calls: Counter = Counter()
        for i, (fid, start, end, parent, _, err) in enumerate(spans):
            own = end - start - child[i]
            layer = layer_of[fid]
            self_s[layer] += own
            calls[layer] += 1
            raised[layer] += err
            fn_self[self.names[fid]] += own
            fn_calls[self.names[fid]] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer], "s")
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.raised"] = (raised[layer], "count")
        c = self.counts
        for fn in (
            "groups.make_group",
            "groups.enumerate_homs",
            "groups.automorphism_group",
            "limits.default_catalogue",
            "xmod.enumerate_morphisms",
            "presheaf.check_naturality",
            "presheaf.compute_presheaf",
            "words.evaluate_word",
            "words.build_site",
            "xmod.crossed_module_violations",
        ):
            out[f"{fn}.calls"] = (fn_calls[fn], "count")
        for key in (
            "groups.make_group.triples",
            "limits.catalogue_objects",
            "xmod.enumerate_morphisms.space",
            "xmod.enumerate_morphisms.found",
            "limits.cones_checked",
            "presheaf.enumerate_natural_transformations.space",
            "presheaf.enumerate_natural_transformations.found",
            "words.hom_set.assignments",
        ):
            out[key] = (c[key], "count")
        space = c["xmod.enumerate_morphisms.space"]
        out["xmod.enumerate_morphisms.yield"] = (
            c["xmod.enumerate_morphisms.found"] / space if space else 0.0, "ratio")
        checks = fn_calls["presheaf.check_naturality"]
        out["presheaf.nat_yield"] = (
            c["presheaf.enumerate_natural_transformations.found"] / checks if checks else 0.0, "ratio")
        out["session.parse_session.self_s"] = (fn_self["session.parse_session"], "s")
        out["cli.report_bytes"] = (report_bytes, "bytes")
        out["trace.overhead_s"] = (overhead_s, "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def write(self, path: Path) -> None:
        """Write every span as CSV: span,name,start_s,end_s,parent,request,raised."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,request,raised\n")
            for i, (fid, start, end, parent, req, err) in enumerate(self.spans):
                fh.write(f"{i},{self.names[fid]},{start - t0:.9f},{end - t0:.9f},{parent},{req},{int(err)}\n")
