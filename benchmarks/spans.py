"""Spans and counters recorded around the package's layer boundaries.

Tracing wraps public functions and class attributes of the package from the
outside; the package source is not touched.  Every module binding of a
wrapped function is replaced (``from .checker import check`` makes a second
binding in ``cli``), and ``uninstall`` puts the originals back, so untraced
runs execute the unmodified code.

A span is (name, start, end, parent, request).  Spans are stored in flat
arrays, about 40 bytes each, and written out when the run ends.  Self time is
accumulated as spans close: a span's duration minus the time its child spans
cover.  A recursive function records only its outermost call.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute, span name).  The span name is also the metric prefix.
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("textio", "load_structure", "textio.load_structure"),
    ("textio", "load_game", "textio.load_game"),
    ("textio", "dump_structure", "textio.dump_structure"),
    ("logic", "parse_formula", "logic.parse"),
    ("logic", "expand_abbreviations", "logic.expand"),
    ("logic", "well_formed", "logic.well_formed"),
    ("checker", "check", "checker.check"),
    ("checker", "holds_at", "extensive.holds_at"),
    ("checker", "verify_predicate", "checker.pred"),
    ("checker", "verify_equality", "checker.eq"),
    ("checker", "verify_not", "checker.not"),
    ("checker", "verify_implies", "checker.implies"),
    ("checker", "verify_ax", "checker.ax"),
    ("checker", "verify_eu", "checker.eu"),
    ("checker", "verify_au", "checker.au"),
    ("checker", "verify_exists", "checker.exists"),
    ("structure", "eval_term", "structure.eval_term"),
    ("extensive", "to_gal_structure", "extensive.to_structure"),
    ("extensive", "enumerate_equilibria", "extensive.enumerate"),
    ("extensive", "oracle_equilibria", "extensive.oracle"),
    ("gamegen", "tictactoe_structure", "gamegen.tictactoe"),
    ("gamegen", "random_bimatrix", "gamegen.bimatrix"),
)
CALLBACK = "structure.callback"
OPS = ("pred", "eq", "not", "implies", "ax", "eu", "au", "exists")

class Tracer:
    """In-memory span store with online self-time and call totals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.request = array("q")
        self.current_request = -1
        self.enabled = False
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._open_names: list[str] = []
        self._child_s: list[float] = []
        self.free_vars = None  # logic.free_variables, for its cache_info()
        self.free_vars_before = self.free_vars_after = (0, 0, 0)

    def span(self, name: str, fn, *args, **kwargs):
        if not self.enabled or (self._open_names and self._open_names[-1] == name):
            return fn(*args, **kwargs)
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.parent.append(self._open[-1] if self._open else -1)
        self.name.append(name_id)
        self.request.append(self.current_request)
        self.end.append(0.0)
        self._open.append(idx)
        self._open_names.append(name)
        self._child_s.append(0.0)
        t0 = time.perf_counter()
        self.start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.end[idx] = t1
            self._open.pop()
            self._open_names.pop()
            duration = t1 - t0
            self.self_s[name] += duration - self._child_s.pop()
            self.calls[name] += 1
            if self._child_s:
                self._child_s[-1] += duration

    def write(self, path: Path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one array per
        span in start order; `parent` counts span lines from 0 (-1: none)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"fields": ["name", "start", "end", "parent", "request"]}) + "\n")
            for i in range(len(self.start)):
                row = [self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.request[i]]
                out.write(json.dumps(row) + "\n")


def _modules():
    return [m for n, m in list(sys.modules.items()) if n == "galcheck" or n.startswith("galcheck.")]


def install(tracer: Tracer) -> list:
    """Wrap every boundary; returns the undo list for `uninstall`."""
    from galcheck import logic, structure

    undo = []
    modules = _modules()

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mod_name, attr, span_name in FUNCTIONS:
        target = getattr(sys.modules.get(f"galcheck.{mod_name}"), attr, None)
        if target is None:
            continue  # the boundary is gone; its metrics read 0
        wrapper = _span_wrapper(tracer, span_name, target)
        for mod in modules:
            for binding, value in list(vars(mod).items()):
                if value is target:
                    patch(mod, binding, wrapper)

    provider = structure.InterpretationProvider
    for kind in ("fun", "pred"):
        if hasattr(provider, kind):
            patch(provider, kind, _lookup_wrapper(tracer, kind, getattr(provider, kind)))

    init = structure.GalStructure.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        interp = getattr(self, "interp", None)
        for kind in ("fun", "pred"):
            raw = getattr(interp, f"{kind}_eval", None)
            if raw is not None:
                setattr(interp, f"{kind}_eval", _callback_wrapper(tracer, kind, raw))

    patch(structure.GalStructure, "__init__", traced_init)

    tracer.free_vars = getattr(logic, "free_variables", None)
    tracer.free_vars_before = _cache_info(tracer.free_vars)
    tracer.enabled = True
    return undo


def uninstall(tracer: Tracer, undo: list) -> None:
    tracer.enabled = False
    tracer.free_vars_after = _cache_info(tracer.free_vars)
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _cache_info(fn) -> tuple[int, int, int]:
    info = getattr(fn, "cache_info", None)
    if info is None:
        return (0, 0, 0)
    i = info()
    return (i.hits, i.misses, i.currsize)


def _span_wrapper(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        out = tracer.span(name, fn, *args, **kwargs)
        if tracer.enabled:
            _count(tracer, name, args, out)
        return out

    return wrapper


def _count(tracer: Tracer, name: str, args, out) -> None:
    counts = tracer.counts
    if name in ("textio.load_structure", "textio.load_game") and args:
        counts["textio.bytes"] += len(args[0])
    elif name == "textio.dump_structure":
        counts["textio.bytes"] += len(out)
    elif name == "checker.check":
        stats = getattr(out, "stats", None)
        counts["checker.label_instances"] += getattr(stats, "subformulas", 0)
        counts["checker.label_ms"] += getattr(stats, "millis", 0.0)
    elif name == "gamegen.tictactoe":
        counts["gamegen.states"] += len(out.states)
        counts["gamegen.actions"] += len(out.actions)


def _lookup_wrapper(tracer: Tracer, kind: str, method):
    key = f"structure.{kind}_lookups"

    def wrapper(self, *args, **kwargs):
        if tracer.enabled:
            tracer.counts[key] += 1
        return method(self, *args, **kwargs)

    return wrapper


def _callback_wrapper(tracer: Tracer, kind: str, raw):
    key = f"structure.{kind}_misses"

    def wrapper(*args):
        if tracer.enabled:
            tracer.counts[key] += 1
        return tracer.span(CALLBACK, raw, *args)

    return wrapper


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric; a boundary that was never crossed reads 0."""
    out: dict[str, float] = {}
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out["extensive.holds_at_calls"] = calls["extensive.holds_at"]
    out["checker.check_calls"] = calls["checker.check"]
    out["checker.label_instances"] = counts["checker.label_instances"]
    out["checker.label_ms"] = counts["checker.label_ms"]
    for op in OPS:
        out[f"checker.{op}_calls"] = calls[f"checker.{op}"]
        out[f"checker.{op}_s"] = self_s[f"checker.{op}"]
    out["structure.eval_term_calls"] = calls["structure.eval_term"]
    out["structure.eval_term_s"] = self_s["structure.eval_term"]
    lookups = misses = 0
    for kind in ("fun", "pred"):
        for what in ("lookups", "misses"):
            out[f"structure.{kind}_{what}"] = counts[f"structure.{kind}_{what}"]
        lookups += counts[f"structure.{kind}_lookups"]
        misses += counts[f"structure.{kind}_misses"]
    out["structure.memo_hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    out["structure.callback_s"] = self_s[CALLBACK]
    out["logic.parse_s"] = self_s["logic.parse"]
    out["logic.expand_calls"] = calls["logic.expand"]
    out["logic.expand_s"] = self_s["logic.expand"]
    out["logic.well_formed_s"] = self_s["logic.well_formed"]
    before, after = tracer.free_vars_before, tracer.free_vars_after
    out["logic.free_vars_hits"] = after[0] - before[0]
    out["logic.free_vars_misses"] = after[1] - before[1]
    out["logic.free_vars_size"] = after[2]
    for name in ("load_structure", "load_game", "dump_structure"):
        out[f"textio.{name}_s"] = self_s[f"textio.{name}"]
    out["textio.bytes"] = counts["textio.bytes"]
    for name in ("to_structure", "enumerate", "oracle"):
        out[f"extensive.{name}_s"] = self_s[f"extensive.{name}"]
    out["gamegen.tictactoe_s"] = self_s["gamegen.tictactoe"]
    out["gamegen.bimatrix_s"] = self_s["gamegen.bimatrix"]
    out["gamegen.states"] = counts["gamegen.states"]
    out["gamegen.actions"] = counts["gamegen.actions"]
    out["cli.self_s"] = self_s["cli.main"]
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = len(tracer.start)
    return out
