"""Outside-in tracer: run one qeuler CLI invocation in-process with the
public functions and methods of every layer wrapped.

    PYTHONPATH=src python perfbench/tracer.py SPANS.json -- <qeuler cli arguments>

The wrapped program writes its normal output to stdout and exits with the
CLI's exit code; SPANS.json receives the spans and a per-layer summary.

A span is opened when a call crosses from one layer (module) into
another, and for the few functions whose own time is a metric.  Calls
within the same layer are only counted, which keeps the overhead on the
hot arithmetic paths to a counter increment.  A span's self time is its
duration minus the time its child spans cover, kept on a span stack.
Names imported directly into another module (identities and cli import
euler_number, euler_poly and integrate) are rebound there too, otherwise
their calls would bypass the wrappers.
"""

from __future__ import annotations

import enum
import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("exactarith", "qspecial", "identities", "padic", "qintegral",
          "report", "cli")

# Dunder methods that belong to a layer's public surface.
_DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
            "__pow__", "__divmod__", "__floordiv__", "__mod__", "__eq__",
            "__str__"}

SERIALIZE = ("report.Report.to_json", "report.Report.to_pretty",
             "report.Report.to_csv")
RATFUNC_OPS = tuple(f"exactarith.RatFuncQ.{m}" for m in
                    ("__add__", "__sub__", "__rsub__", "__mul__",
                     "__truediv__", "__rtruediv__"))
XPOLY_OPS = ("exactarith.XPolyQ.__add__", "exactarith.XPolyQ.__mul__")
PADIC_OPS = tuple(f"padic.PadicApprox.{m}" for m in
                  ("__add__", "__sub__", "__mul__", "__truediv__"))
MONOMIAL = "identities.NumericContext.monomial_integral"

# Functions that always get a span, so that their own time is measurable
# even when they are called from inside their layer.
_ALWAYS_SPAN = {"exactarith.RatFuncQ.__init__", "qintegral.riemann_level",
                "qintegral.integrate", MONOMIAL, "report.ResultCache.__init__",
                "report.ResultCache.save", *SERIALIZE}


class Tracer:
    """Span stack, finished spans and counters of one process."""

    def __init__(self):
        self.clock = time.perf_counter
        # frame: [span id, layer, start, time covered by child spans]
        self.stack = [[0, None, self.clock(), 0.0]]
        self.spans = []     # [id, parent id, name, layer, start, end, self]
        self.active = Counter()
        self.calls = Counter()
        self.values = Counter()
        self.next_id = 1

    def wrap(self, fn, name, layer, hook=None):
        tracer = self
        always = name in _ALWAYS_SPAN

        def call(args, kwargs):
            if hook is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                hook(tracer, args, None, exc)
                raise
            hook(tracer, args, result, None)
            return result

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            parent = tracer.stack[-1]
            if not always and parent[1] == layer:
                return call(args, kwargs)
            frame = [tracer.next_id, layer, tracer.clock(), 0.0]
            tracer.next_id += 1
            tracer.stack.append(frame)
            tracer.active[name] += 1
            try:
                return call(args, kwargs)
            finally:
                end = tracer.clock()
                tracer.stack.pop()
                tracer.active[name] -= 1
                duration = end - frame[2]
                parent[3] += duration
                tracer.spans.append([frame[0], parent[0], name, layer,
                                     frame[2], end, duration - frame[3]])

        return traced


# -- hooks: counts that need a call's arguments or result ---------------------

def _table_index(tracer, args, result, exc):
    tracer.values["qspecial.max_n"] = max(tracer.values["qspecial.max_n"],
                                          args[0])


def _riemann_level(tracer, args, result, exc):
    req, level = args[0], args[1]
    tracer.values["qintegral.terms"] += req.p ** level


def _integrate(tracer, args, result, exc):
    res = result if exc is None else getattr(exc, "result", None)
    tracer.values["qintegral.attempts"] += 1
    if exc is None:
        tracer.values["qintegral.converged"] += 1
    if res is not None:
        tracer.values["qintegral.digits_short"] += (args[0].target
                                                    - res.achieved_precision)
    if tracer.active[MONOMIAL]:
        tracer.values["identities.integrate_behind_memo"] += 1


def _cache_get(tracer, args, result, exc):
    hit = exc is None and result is not None
    tracer.values["report.cache.hits" if hit else "report.cache.misses"] += 1


def _cache_file(tracer, args, result, exc):
    path = args[0].path
    if path is not None and path.exists():
        tracer.values["report.cache.bytes"] = path.stat().st_size


def _serialized(tracer, args, result, exc):
    if result is not None:
        tracer.values["report.out_bytes"] += len(result.encode())


HOOKS = {
    "qspecial.euler_number": _table_index,
    "qspecial.euler_poly": _table_index,
    "qintegral.riemann_level": _riemann_level,
    "qintegral.integrate": _integrate,
    "report.ResultCache.get_euler": _cache_get,
    "report.ResultCache.get_integral": _cache_get,
    "report.ResultCache.__init__": _cache_file,
    "report.ResultCache.save": _cache_file,
    **{name: _serialized for name in SERIALIZE},
}


def _public(name: str) -> bool:
    return not name.startswith("_") or name in _DUNDERS


def install(tracer: Tracer) -> None:
    """Wrap every public function and method of the qeuler layers, and
    rebind each wrapped function in every qeuler module that imported it."""
    modules = {layer: importlib.import_module(f"qeuler.{layer}")
               for layer in LAYERS}
    replaced = {}       # id(original) -> (original, wrapper)
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue    # imported from elsewhere, or a plain value
            if isinstance(obj, type):
                if not issubclass(obj, (BaseException, enum.Enum)):
                    _wrap_class(tracer, obj, layer)
            elif callable(obj) and _public(attr):
                name = f"{layer}.{attr}"
                replaced[id(obj)] = (obj, tracer.wrap(obj, name, layer,
                                                       HOOKS.get(name)))
    for mod in [sys.modules["qeuler"], *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            original, wrapper = replaced.get(id(obj), (None, None))
            if original is obj:
                setattr(mod, attr, wrapper)


def _wrap_class(tracer: Tracer, cls: type, layer: str) -> None:
    for attr, raw in list(vars(cls).items()):
        if not _public(attr):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        hook = HOOKS.get(name)
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(cls, attr, type(raw)(
                tracer.wrap(raw.__func__, name, layer, hook)))
        elif callable(raw) and not isinstance(raw, type):
            setattr(cls, attr, tracer.wrap(raw, name, layer, hook))


def summarize(tracer: Tracer) -> dict:
    """Per-layer self times, named durations and counters of one process."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    named_s = Counter()
    name_of = {span[0]: span[2] for span in tracer.spans}
    for sid, parent, name, layer, start, end, own in tracer.spans:
        self_s[layer] += own
        if name_of.get(parent) != name:     # outermost call of a recursion
            named_s[name] += end - start
    riemann_self = sum(s[6] for s in tracer.spans
                       if s[2] == "qintegral.riemann_level")
    calls, values = tracer.calls, tracer.values
    return {
        "self_s": self_s,
        "exactarith.ratfunc.construct": calls["exactarith.RatFuncQ.__init__"],
        "exactarith.ratfunc.construct_s":
            named_s["exactarith.RatFuncQ.__init__"],
        "exactarith.ratfunc.ops": sum(calls[n] for n in RATFUNC_OPS),
        "exactarith.xpoly.ops": sum(calls[n] for n in XPOLY_OPS),
        "exactarith.gcd.calls": (calls["exactarith.PolyQ.gcd"]
                                 + calls["exactarith.poly_gcd"]),
        "qspecial.euler_number.calls": calls["qspecial.euler_number"],
        "qspecial.max_n": values["qspecial.max_n"],
        "identities.cells": calls["identities.verify"],
        "identities.monomial_calls": calls[MONOMIAL],
        "identities.integrate_behind_memo":
            values["identities.integrate_behind_memo"],
        "padic.ops": sum(calls[n] for n in PADIC_OPS),
        "qintegral.levels": calls["qintegral.riemann_level"],
        "qintegral.terms": values["qintegral.terms"],
        "qintegral.riemann_level.self_s": riemann_self,
        "qintegral.attempts": values["qintegral.attempts"],
        "qintegral.converged": values["qintegral.converged"],
        "qintegral.digits_short": values["qintegral.digits_short"],
        "report.cache.load_s": named_s["report.ResultCache.__init__"],
        "report.cache.save_s": named_s["report.ResultCache.save"],
        "report.cache.hits": values["report.cache.hits"],
        "report.cache.misses": values["report.cache.misses"],
        "report.cache.bytes": values["report.cache.bytes"],
        "report.serialize_s": sum(named_s[n] for n in SERIALIZE),
        "report.out_bytes": values["report.out_bytes"],
        "cli.main_s": named_s["cli.main"],
    }


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <qeuler cli arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_args = Path(argv[0]), argv[2:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["qeuler.cli"]
    code = cli.main(cli_args)
    sys.stdout.flush()
    start = time.perf_counter()
    summary = summarize(tracer)
    spans = json.dumps(tracer.spans, separators=(",", ":"))
    summary["write_s"] = time.perf_counter() - start
    out_path.write_text(
        '{"argv":%s,"summary":%s,"spans":%s}'
        % (json.dumps(cli_args), json.dumps(summary), spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
