"""Spans around the calls into each critgroups module, recorded from the
benchmark's side only.

`Tracer.install` replaces every public function of the package's layer
modules, wherever a module of the package (or the package itself) has bound
it, with a wrapper that records a span: layer, function, start, end, parent
span and the item the benchmark was working on. Classes and generator
functions are left alone. `uninstall` restores the original bindings, so
with tracing off nothing is wrapped. Spans stay in memory; `summarize`
turns the spans of one block run into sums and `write_spans` dumps them at the end.

A few results are inspected after their span has closed (the bit sizes of
the public `smith_normal_form` transforms, examined counts of a search, the
length of a move log). That inspection is timed and subtracted from every
enclosing span, so busy and self times exclude it.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("graphs", "linalg", "critical", "firing", "recurrences", "verify", "cli")

# Functions that share a metric under one category name; any other function
# is its own category.
CATEGORY = {
    "smith_normal_form": "snf",
    "determinant": "det",
    "critical_group": "group",
    "reduced_laplacian": "laplacian",
    "configuration_order": "query",
    "are_equivalent": "query",
    "pair_report": "query",
    "coprime_pair_search": "search",
    "reverify_outcome": "reverify",
    "reduce_to_pair": "reduce",
    "reduce_on_cycle": "reduce",
    "replay_log": "replay",
}

# Span record fields.
KEY, START, END, PARENT, ITEM, EXCL, HOOK, AUX = range(8)


def _max_bits(entries) -> int:
    return max(max(entries), -min(entries)).bit_length() if entries else 0


def _hook_snf(dec):
    return {"snf_u_bits": _max_bits(dec.u.entries), "snf_v_bits": _max_bits(dec.v.entries)}


def _hook_det(value):
    return {"det_bits": abs(value).bit_length()}


def _hook_pair(rep):
    return {"pair_reports": 1, "generating": int(rep.generates)}


def _hook_search(outcome):
    return {"examined": outcome.examined, "coprime": outcome.coprime_instances}


def _hook_reduce(result):
    return {"moves": len(result[1])}


HOOKS = {
    "smith_normal_form": _hook_snf,
    "determinant": _hook_det,
    "pair_report": _hook_pair,
    "coprime_pair_search": _hook_search,
    "reduce_to_pair": _hook_reduce,
    "reduce_on_cycle": _hook_reduce,
}

# Aux values combined by max instead of sum.
MAX_AUX = ("snf_u_bits", "snf_v_bits", "det_bits")


def _merge(out: dict, key: str, value) -> None:
    out[key] = max(out.get(key, 0), value) if key.rsplit(".", 1)[-1] in MAX_AUX else out.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, key, fn):
        spans, stack = self.spans, self.stack
        hook = HOOKS.get(key[1])

        def traced(*args, **kwargs):
            rec = [key, 0.0, 0.0, stack[-1] if stack else -1, self.item, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if hook is not None:
                rec[AUX] = hook(result)
                spent = perf_counter() - rec[END]
                rec[HOOK] = spent
                for i in stack:
                    spans[i][EXCL] += spent
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        pkg = importlib.import_module("critgroups")
        mods = {layer: importlib.import_module(f"critgroups.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj)):
                    continue
                wrappers[id(obj)] = self._wrap((layer, name), obj)
        for ns in [pkg, *mods.values()]:
            for name, obj in list(vars(ns).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._saved.append((ns, name, obj))
                    setattr(ns, name, w)

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._saved):
            setattr(ns, name, obj)
        self._saved.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        out = self.spans[:]
        self.spans.clear()
        return out


def summarize(spans: list[list]) -> dict:
    """Sums over the spans of one block run.

    For each layer L and category C: `L.calls`, `L.busy` (time inside
    outermost L spans), `L.C_calls`, `L.C_outer` (C spans not nested in
    another C span), `L.C_busy` and `L.C_self` (outermost C spans, minus
    the time of their child spans). Aux values from the result hooks are
    summed (bit sizes take the maximum). `verify.search_snf` counts SNF
    spans nested inside a search.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START] + rec[HOOK]
    out: dict = {"trace.spans": len(spans)}
    for i, rec in enumerate(spans):
        layer, name = rec[KEY]
        cat = CATEGORY.get(name, name)
        dur = rec[END] - rec[START]
        outer_layer = outer_cat = True
        in_search = False
        p = rec[PARENT]
        while p >= 0:
            player, pname = spans[p][KEY]
            if player == layer:
                outer_layer = False
                if CATEGORY.get(pname, pname) == cat:
                    outer_cat = False
            if pname == "coprime_pair_search":
                in_search = True
            p = spans[p][PARENT]
        _merge(out, f"{layer}.calls", 1)
        _merge(out, f"{layer}.{cat}_calls", 1)
        if outer_layer:
            _merge(out, f"{layer}.busy", dur - rec[EXCL])
        if outer_cat:
            _merge(out, f"{layer}.{cat}_outer", 1)
            _merge(out, f"{layer}.{cat}_busy", dur - rec[EXCL])
            _merge(out, f"{layer}.{cat}_self", dur - child[i])
        if cat == "snf" and in_search:
            _merge(out, "verify.search_snf", 1)
        for k, v in (rec[AUX] or {}).items():
            _merge(out, f"{layer}.{k}", v)
    return out


def combine(a: dict, b: dict) -> dict:
    """Merge two summaries (bit sizes by maximum, everything else by sum)."""
    out = dict(a)
    for k, v in b.items():
        _merge(out, k, v)
    return out


def span_rows(spans: list[list], offset: int = 0) -> list[dict]:
    """Spans as JSON rows; `offset` shifts parent indices when lists are joined."""
    return [
        {"name": ".".join(r[KEY]), "start": r[START], "end": r[END],
         "parent": r[PARENT] + offset if r[PARENT] >= 0 else -1, "item": r[ITEM]}
        for r in spans
    ]


def write_spans(path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
