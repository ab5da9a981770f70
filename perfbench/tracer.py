"""Spans and counters at the public functions of each layer.

The benchmark wraps the program's functions from outside: no tracing code
lives in ``banach_gauge``.  Callers import these functions by name (``from
.tsirelson import tsirelson_norm``), so ``install`` replaces the function in
every ``banach_gauge`` module that holds it, and methods on their class.

A span is ``[name, start, end, parent, command]``; spans nest, so a span's
self time is its duration minus its direct children's.  ``busy_s`` counts a
span only when no enclosing span has the same name.  Everything stays in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


def _bound(fn, args, kwargs) -> dict:
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


def _lp(counts, fn, args, kwargs, result) -> None:
    a = _bound(fn, args, kwargs)
    n = len(a.get("c") or ())
    m_ub, m_eq = len(a.get("A_ub") or ()), len(a.get("A_eq") or ())
    rows = m_ub + m_eq
    counts["simplex.rows"] += rows
    # phase-1 tableau before artificial pruning: variables, slacks, one per equality
    counts["simplex.tableau_cells"] += rows * (n + m_ub + m_eq)


def _norm(counts, fn, args, kwargs, result) -> None:
    s = len(args[0]) if args else 0
    counts["tsirelson.norm.support_sum"] += s
    counts["tsirelson.norm.max_support"] = max(counts["tsirelson.norm.max_support"], s)
    stats = getattr(result, "stats", None)
    counts["tsirelson.norm.memo_entries"] += getattr(stats, "memo_entries", 0)
    counts["tsirelson.norm.expansions"] += getattr(stats, "expansions", 0)


def _rademacher(counts, fn, args, kwargs, result) -> None:
    counts["gauss.sign_patterns"] += getattr(result, "samples", 0)


def _gaussian(counts, fn, args, kwargs, result) -> None:
    counts["gauss.mc_samples"] += getattr(result, "samples", 0)


def _norm_array(counts, fn, args, kwargs, result) -> None:
    shape = getattr(result, "shape", ())
    counts["gauss.norm_array.rows"] += shape[0] if shape else 1


def _jl_embed(counts, fn, args, kwargs, result) -> None:
    pts = args[0] if args else kwargs.get("points")
    n = len(pts) if pts is not None else 0
    counts["jl.embed_pairs"] += n * (n - 1) // 2


#: (module, attribute, span name, counter hook)
TARGETS = [
    ("banach_gauge.cli", "main", "cli", None),
    ("banach_gauge.flatsearch", "search_flat", "flatsearch.search_flat", None),
    ("banach_gauge.simplex", "solve_lp", "simplex.solve_lp", _lp),
    ("banach_gauge.tsirelson", "tsirelson_norm", "tsirelson.norm", _norm),
    ("banach_gauge.tsirelson", "tsirelson_norm_bruteforce", "tsirelson.bruteforce", None),
    ("banach_gauge.tsirelson", "modified_norm", "tsirelson.modified", None),
    ("banach_gauge.tsirelson", "norming_functional", "tsirelson.cert", None),
    ("banach_gauge.tsirelson", "certificate_to_json", "tsirelson.cert", None),
    ("banach_gauge.tsirelson", "certificate_value", "tsirelson.cert", None),
    ("banach_gauge.gauss", "rademacher_ratio", "gauss.rademacher", _rademacher),
    ("banach_gauge.gauss", "gaussian_ratio", "gauss.gaussian", _gaussian),
    ("banach_gauge.gauss", "SpaceOracle.norm_sq", "gauss.norm_sq", None),
    ("banach_gauge.gauss", "SpaceOracle.norm_array", "gauss.norm_array", _norm_array),
    ("banach_gauge.gauss", "caratheodory_reduce", "gauss.caratheodory", None),
    ("banach_gauge.jl", "jl_embed", "jl.jl_embed", _jl_embed),
    ("banach_gauge.jl", "jl_mechanism_experiment", "jl.mechanism", None),
    ("banach_gauge.jl", "fwht", "jl.fwht", None),
    ("banach_gauge.jl", "walsh_pointset", "jl.walsh_pointset", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.command: str | None = None
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts[self.command], fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "banach_gauge" or n.startswith("banach_gauge."))]
        try:
            for modname, attr, name, hook in TARGETS:
                mod = sys.modules.get(modname)
                cls_name, _, meth = attr.rpartition(".")
                owner = getattr(mod, cls_name, None) if cls_name else mod
                original = vars(owner).get(meth) if owner is not None else None
                if original is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                wrapper = self._wrap(original, name, hook)
                if cls_name:
                    self._replace(owner, meth, wrapper)
                    continue
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is original:
                            self._replace(m, key, wrapper)
            yield self
        finally:
            for owner, attr, old in reversed(self._undo):
                setattr(owner, attr, old)
            self._undo.clear()

    def summary(self) -> dict:
        """Per span name: calls, busy_s, self_s; overall and per command."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]

        def empty():
            return {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

        total: dict[str, dict] = defaultdict(empty)
        by_cmd: dict[str, dict[str, dict]] = defaultdict(lambda: defaultdict(empty))
        for i, (name, start, end, parent, cmd) in enumerate(spans):
            dur = end - start
            outer = True
            p = parent
            while p >= 0:
                if spans[p][0] == name:
                    outer = False
                    break
                p = spans[p][3]
            for agg in (total[name], by_cmd[cmd][name]):
                agg["calls"] += 1
                agg["self_s"] += dur - child[i]
                if outer:
                    agg["busy_s"] += dur
        counts: dict[str, int] = defaultdict(int)
        for per in self.counts.values():
            for key, v in per.items():
                if key.endswith("max_support"):
                    counts[key] = max(counts[key], v)
                else:
                    counts[key] += v
        return {
            "spans": dict(total),
            "counts": dict(counts),
            "by_command": {c: {"spans": dict(v), "counts": dict(self.counts.get(c, {}))}
                           for c, v in by_cmd.items()},
            "missing": self.missing,
        }
