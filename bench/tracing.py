"""Spans recorded from outside the package, around calls into its public functions.

``Tracer.install()`` replaces each public function named in ``TARGETS``
with a wrapper, in every ``eagibench`` module that binds it, so calls the
package makes internally (``cli`` calling ``sample``, ``scoring`` calling
``evaluate_design``) are spanned too.  ``uninstall()`` puts the originals
back.  A target the package no longer has is listed in ``missing`` and
its metrics are reported as missing rather than failing the run.

A span is ``(id, name, start_ns, end_ns, parent, run, tag)``.  Spans stay
in memory and are written once, when the run ends.  Calls made on a
thread with no open span (the remote agent's worker pool) get the run's
root span as parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: (span name, module, attribute path, tag function name or None)
TARGETS = (
    ("bank.load_bank", "eagibench.bank", "load_bank", None),
    ("bank.sample", "eagibench.bank", "sample", None),
    ("bank.instantiate", "eagibench.bank", "instantiate", None),
    ("scoring.score_answer", "eagibench.scoring", "score_answer", "kind"),
    ("scoring.extract", "eagibench.scoring", "extract", "extraction"),
    ("propulsion.evaluate_design", "eagibench.propulsion", "evaluate_design", None),
    ("design_space.enumerate_designs", "eagibench.design_space", "enumerate_designs", None),
    ("design_space.pareto_front", "eagibench.design_space", "pareto_front", None),
    ("harness.emit_report", "eagibench.harness", "emit_report", None),
    ("agent.answer", "eagibench.harness", "ReplayAgent.answer", None),
    ("agent.answer", "eagibench.harness", "RemoteAgent.answer", None),
)

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "run", "tag")


def _answer_kind(args, kwargs, result):
    from eagibench.bank import answer_kind

    return answer_kind(args[0] if args else kwargs["spec"])


def _extraction(args, kwargs, result):
    return getattr(result, "extraction", None)


_TAGGERS = {"kind": _answer_kind, "extraction": _extraction}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.run = None
        self._root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, start_ns, end_ns, parent, tag=None) -> int:
        span_id = next(self._ids)
        with self._lock:
            self.spans.append((span_id, name, start_ns, end_ns, parent, self.run, tag))
        return span_id

    @contextmanager
    def root(self, name: str, run):
        """Open the span every span of one run hangs from."""
        self.run = run
        span_id = next(self._ids)
        self._root = span_id
        stack = self._stack()
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._root = None
            with self._lock:
                self.spans.append((span_id, name, start, end, None, run, None))

    def wrap(self, name: str, fn, tagger=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tag = tagger(args, kwargs, result) if tagger and result is not None else None
                with tracer._lock:
                    tracer.spans.append((span_id, name, start, end, parent, tracer.run, tag))

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "eagibench"]
        for name, module_name, path, tag in TARGETS:
            try:
                owner, attr, original = _resolve(module_name, path)
            except AttributeError:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self.wrap(name, original, _TAGGERS.get(tag))
            if "." in path:  # a method: patch the class once
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        document = {"fields": list(SPAN_FIELDS), "missing": self.missing, "spans": self.spans}
        path.write_text(json.dumps(document, separators=(",", ":")), encoding="utf-8")


# ---------------------------------------------------------------------------
# Span analysis


def children_of(spans) -> dict:
    children: dict = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)
    return children


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0, start
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total


def self_ns(span, children: dict, exclude=()) -> int:
    kids = [(c[2], c[3]) for c in children.get(span[0], ()) if c[1] not in exclude]
    return (span[3] - span[2]) - covered_ns(span[2], span[3], kids)


def self_time_by_name(spans) -> dict:
    """Total and self milliseconds per span name."""
    children = children_of(spans)
    out: dict = {}
    for span in spans:
        row = out.setdefault(span[1], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += (span[3] - span[2]) / 1e6
        row["self_ms"] += self_ns(span, children) / 1e6
    return out


def tree_errors(spans) -> list[str]:
    """Every parent exists and every child lies inside its parent."""
    by_id = {s[0]: s for s in spans}
    errors = []
    if len(by_id) != len(spans):
        errors.append("duplicate span ids")
    for span in spans:
        if span[3] < span[2]:
            errors.append(f"span {span[0]} ({span[1]}) ends before it starts")
        if span[4] is None:
            continue
        parent = by_id.get(span[4])
        if parent is None:
            errors.append(f"span {span[0]} ({span[1]}) has missing parent {span[4]}")
        elif not (parent[2] <= span[2] and span[3] <= parent[3]):
            errors.append(f"span {span[0]} ({span[1]}) lies outside parent {parent[0]} ({parent[1]})")
    return errors
