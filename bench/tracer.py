"""Span tracing for the diffseq benchmark, installed from outside the package.

``Tracer.install`` replaces every public function of the traced diffseq
modules, and every public method of the classes they define, with a wrapper
that records one span per call: name, parent span, request id, start and
end.  The wrapper is put at every binding site, so a module that imported a
function by name (``sequences.compose``) calls the wrapper too.  ``poly`` is
left alone: a wrapper on ``Poly.__mul__`` would cost more than the product,
so polynomial arithmetic shows up as the self time of its callers.

Spans stay in memory; ``summary`` folds them into per-function and
per-module totals once the traced work is done.
"""

import importlib
import inspect
import sys
import time

LAYERS = ("linalg", "groebner", "bundles", "operators", "sequences",
          "spencer", "serialize", "golden", "cli")


def _compose_cells(args, kwargs, result):
    outer, inner = args[0], args[1]
    return {"cells": outer.target.dim * inner.source.dim * outer.source.dim}


def _syzygies(args, kwargs, result):
    return {"in_gens": len(args[0].generators),
            "out_gens": len(result.generators)}


def _reduced_elements(args, kwargs, result):
    return {"basis_in": len(args[0].basis), "kept": len(result)}


def _minimal_generators(args, kwargs, result):
    return {"in_gens": len(args[0].generators), "kept": len(result.generators)}


def _rref(args, kwargs, result):
    return {"nnz_in": sum(len(r) for r in args[0]), "pivots": len(result[1])}


def _dumps(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# exact work counts, computed from the arguments and result of a call
COUNTERS = {
    "operators.compose": _compose_cells,
    "groebner.syzygies": _syzygies,
    "groebner.ModuleGB.reduced_elements": _reduced_elements,
    "groebner.minimal_graded_generators": _minimal_generators,
    "linalg.rref": _rref,
    "serialize.dumps": _dumps,
}


def _public_callables(module):
    """(name, owner, attribute, function) for each traced target of a module."""
    out = []
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            out.append((attr, module, attr, value))
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for mattr, mvalue in sorted(vars(value).items()):
                if not mattr.startswith("_") and inspect.isfunction(mvalue):
                    out.append((f"{attr}.{mattr}", value, mattr, mvalue))
    return out


class Tracer:
    """Records spans around calls into diffseq; one instance per process."""

    def __init__(self):
        # each span: [name, layer, parent index, request, start, end,
        #             counts, outermost of its name, outermost of its layer]
        self.spans = []
        self.request = None
        self.names = set()
        self._stack = []
        self._depth = {}
        self._restore = []

    def _wrap(self, name, layer, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            outer_name = depth.get(name, 0) == 0
            outer_layer = depth.get(layer, 0) == 0
            rec = [name, layer, parent, tracer.request, 0.0, 0.0, None,
                   outer_name, outer_layer]
            stack.append(len(spans))
            spans.append(rec)
            depth[name] = depth.get(name, 0) + 1
            depth[layer] = depth.get(layer, 0) + 1
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                depth[name] -= 1
                depth[layer] -= 1
                stack.pop()
            if counter is not None:
                rec[6] = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every traced target and rebind it wherever it is imported."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"diffseq.{layer}")
            for name, owner, attr, fn in _public_callables(module):
                full = f"{layer}.{name}"
                wrappers[id(fn)] = (fn, self._wrap(full, layer, fn))
                self.names.add(full)
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)][1])
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "diffseq"
                                      or modname.startswith("diffseq.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def summary(self):
        """Per-function and per-layer totals over every recorded span.

        ``time_s`` is inclusive time counted once per outermost call of a
        name (or layer); ``self_s`` subtracts the time of direct child
        spans.  Layer ``setup_s`` is inclusive layer time in the "setup"
        request only.  ``requests`` maps each request id to its self time
        per layer.
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[2] >= 0:
                child[rec[2]] += rec[5] - rec[4]
        funcs, layers, requests = {}, {}, {}
        for i, rec in enumerate(self.spans):
            name, layer, _, request, start, end, counts, outer_name, outer_layer = rec
            dur = end - start
            f = funcs.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
            f["calls"] += 1
            f["self_s"] += dur - child[i]
            if outer_name:
                f["time_s"] += dur
            for key, value in (counts or {}).items():
                f[key] = f.get(key, 0) + value
            lay = layers.setdefault(
                layer, {"time_s": 0.0, "self_s": 0.0, "setup_s": 0.0})
            lay["self_s"] += dur - child[i]
            per_request = requests.setdefault(str(request), {})
            per_request[layer] = per_request.get(layer, 0.0) + dur - child[i]
            if outer_layer:
                lay["time_s"] += dur
                if request == "setup":
                    lay["setup_s"] += dur
        return {"functions": funcs, "layers": layers, "requests": requests,
                "spans": len(self.spans), "targets": sorted(self.names)}
