"""Span tracing of the library's layers from outside the library.

``Tracer.install`` rebinds each traced function in every ``latpoly`` module
namespace that holds it (``plan`` and ``reduce`` import ``analyze`` and
``canonical_form`` by name, for example), and wraps the two methods that
are not module-level functions: ``Arrangement.__init__`` and the
``DottedGraph.build`` static method.  ``uninstall`` puts the originals back.

Self time is a span's duration minus the time its child spans cover; it is
summed as spans close, so the per-layer totals cover every call.  The spans
themselves (name, start, end, parent, instance id) are kept in memory up to
``span_cap`` and written out by ``write_spans``.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (layer, function); "Class.method" wraps a method, a bare class its __init__.
TRACED = (
    ("geometry", "boundary_segments"),
    ("geometry", "area_abs"),
    ("arrangement", "Arrangement"),
    ("arrangement", "winding_2x"),
    ("dotgraph", "DottedGraph.build"),
    ("dotgraph", "analyze"),
    ("dotgraph", "canonical_form"),
    ("dotgraph", "associate"),
    ("deform", "enumerate_moves"),
    ("deform", "try_good_IV"),
    ("deform", "apply_move"),
    ("deform", "check_condition_A_everywhere"),
    ("reduce", "good_reduce"),
    ("reduce", "explore_reductions"),
    ("plan", "compile_plan"),
    ("plan", "classify_step"),
    ("plan", "normalize"),
    ("plan", "verify_minimal"),
    ("oracle", "min_cost"),
    ("oracle", "reduction_empties"),
)

INSTANCE = "instance"
_GOOD_REDUCE = "reduce.good_reduce"
_EMPTIES = "oracle.reduction_empties"


class Tracer:
    def __init__(self, lib, ignore: tuple, span_cap: int = 100_000):
        self.lib = lib
        self.ignore = ignore              # exceptions not counted as raised
        self.span_cap = span_cap
        self.names = [INSTANCE] + [f"{layer}.{fn}" for layer, fn in TRACED]
        self._idx = {n: i for i, n in enumerate(self.names)}
        k = len(self.names)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.raised = [Counter() for _ in range(k)]
        self.passed = 0                    # classify_step verdicts that pass
        self.visited = 0                   # explore_reductions states visited
        self.empties_hits = 0              # reduction_empties without good_reduce
        self.spans_dropped = 0
        self._span = {"id": array("q"), "parent": array("q"), "name": array("H"),
                      "instance": array("q"), "start": array("d"), "end": array("d")}
        self._next_id = 0
        self._stack: list[list] = []       # [name idx, start, child time, id, flag]
        self._instance = -1
        self._good_reduce = self._idx[_GOOD_REDUCE]
        self._empties = self._idx[_EMPTIES]
        self._restore: list[tuple] = []
        self._originals = {}

    # ------------------------------------------------------------ spans --

    def _open(self, idx: int) -> list:
        self._next_id += 1
        frame = [idx, time.perf_counter(), 0.0, self._next_id, False]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        while stack and stack.pop() is not frame:
            pass                           # frames a timeout left open
        idx, start, child, sid, flag = frame
        dur = end - start
        self.calls[idx] += 1
        self.self_s[idx] += dur - child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
            if idx == self._good_reduce:
                parent[4] = True
        if idx == self._empties and not flag:
            self.empties_hits += 1
        if len(self._span["id"]) < self.span_cap:
            sp = self._span
            sp["id"].append(sid)
            sp["parent"].append(parent[3] if parent is not None else 0)
            sp["name"].append(idx)
            sp["instance"].append(self._instance)
            sp["start"].append(start)
            sp["end"].append(end)
        else:
            self.spans_dropped += 1

    @contextmanager
    def instance(self, number: int):
        """The root span of one benchmark instance."""
        self._instance = number
        self._stack = []
        frame = self._open(0)
        try:
            yield
        finally:
            self._close(frame)

    def _wrap(self, name: str, fn):
        idx = self._idx[name]
        open_, close, ignore, raised = self._open, self._close, self.ignore, self.raised[idx]
        if name == "plan.classify_step":
            def on_result(r):
                if r.minimal:
                    self.passed += 1
        elif name == "reduce.explore_reductions":
            def on_result(r):
                self.visited += r.visited
        else:
            on_result = None

        def traced(*args, **kwargs):
            frame = open_(idx)
            try:
                result = fn(*args, **kwargs)
            except ignore:
                close(frame)
                raise
            except BaseException as e:
                raised[type(e).__name__] += 1
                close(frame)
                raise
            close(frame)
            if on_result is not None:
                on_result(result)
            return result
        traced.__wrapped__ = fn
        return traced

    # --------------------------------------------------------- rebinding --

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "latpoly" or n.startswith("latpoly.")]
        for layer, fn_name in TRACED:
            name = f"{layer}.{fn_name}"
            home = getattr(self.lib, layer)
            if "." in fn_name:
                cls_name, meth = fn_name.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                self._restore.append((cls, meth, raw))
                orig = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(name, orig)
                setattr(cls, meth, staticmethod(wrapped)
                        if isinstance(raw, staticmethod) else wrapped)
                continue
            obj = getattr(home, fn_name)
            if isinstance(obj, type):
                self._restore.append((obj, "__init__", obj.__dict__["__init__"]))
                obj.__init__ = self._wrap(name, obj.__init__)
                continue
            self._originals[name] = obj
            wrapped = self._wrap(name, obj)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is obj:
                        self._restore.append((mod, attr, obj))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ----------------------------------------------------------- results --

    def _ratio_from_cache(self, name: str) -> float:
        info = self._originals[name].cache_info()
        total = info.hits + info.misses
        return info.hits / total if total else 0.0

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
            out[f"{name}.raised"] = sum(self.raised[i].values())
        out["dotgraph.analyze.hit_ratio"] = self._ratio_from_cache("dotgraph.analyze")
        out["dotgraph.canonical_form.hit_ratio"] = \
            self._ratio_from_cache("dotgraph.canonical_form")
        steps = self.calls[self._idx["plan.classify_step"]]
        out["plan.classify_step.pass_ratio"] = self.passed / steps if steps else 0.0
        out["reduce.explore_reductions.visited"] = self.visited
        empties = self.calls[self._empties]
        out["oracle.reduction_empties.hit_ratio"] = \
            self.empties_hits / empties if empties else 0.0
        return out

    def raised_by_type(self) -> dict[str, dict[str, int]]:
        return {name: dict(self.raised[i]) for i, name in enumerate(self.names)
                if self.raised[i]}

    def write_spans(self, path) -> int:
        """Write the kept spans as tab-separated rows; returns the row count."""
        sp = self._span
        names = self.names
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tinstance\tstart\tend\n")
            for row in zip(sp["id"], sp["parent"], sp["name"], sp["instance"],
                           sp["start"], sp["end"]):
                fh.write(f"{row[0]}\t{row[1]}\t{names[row[2]]}\t{row[3]}\t"
                         f"{row[4]:.9f}\t{row[5]:.9f}\n")
        return len(sp["id"])
