"""In-memory span tracer that wraps gclab's public calls from outside the package.

A span is (name, parent, start, end). Spans are appended in start order, so a
parent always precedes its children; self time is a span's duration minus the
durations of its direct children. `install` patches module and class
attributes of an imported gclab and `uninstall` restores them, so nothing of
the tracer lives in the package itself.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from array import array
from collections import defaultdict

import numpy as np

# autodiff functions that walk or reset the tape rather than add a node to it
TAPE_FUNCTIONS = ("backward", "zero_grads")


def autodiff_primitives(autodiff) -> list:
    """Public functions defined in gclab.autodiff that add a node to the tape."""
    return sorted(
        name
        for name, obj in vars(autodiff).items()
        if inspect.isfunction(obj)
        and obj.__module__ == autodiff.__name__
        and not name.startswith("_")
        and name not in TAPE_FUNCTIONS
    )


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self.primitive_ids = set()
        self.primitives = []
        self._patches = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _leave(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._enter(self._id(name))
        try:
            yield
        finally:
            self._leave(idx)

    def timed(self, fn, name: str):
        nid = self._id(name)
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)

        return traced

    def _primitive(self, fn, name: str):
        """Time the forward call and the backward rule the new tape node carries."""
        fwd, bwd = self._id(name), name + ".backward"
        self.primitive_ids.update((fwd, self._id(bwd)))
        enter, leave, timed = self._enter, self._leave, self.timed

        def traced(*args, **kwargs):
            idx = enter(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(idx)
            rule = getattr(out, "_backward", None)
            if rule is not None:
                out._backward = timed(rule, bwd)
            return out

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, gc) -> None:
        """Wrap the calls gclab makes between its own modules at run time."""
        ad = gc.autodiff
        self.primitives = autodiff_primitives(ad)
        for name in self.primitives:
            self._patch(ad, name, self._primitive(getattr(ad, name), f"autodiff.{name}"))
        self._patch(ad, "backward", self.timed(ad.backward, "autodiff.backward"))
        self._patch(gc.optim.Adam, "step", self.timed(gc.optim.Adam.step, "optim.adam_step"))
        for cls in gc.train.Model.__subclasses__():
            if "forward" in vars(cls):
                self._patch(cls, "forward", self.timed(cls.forward, "train.forward"))
        for name in ("experiment_data", "build_model"):
            self._patch(gc.train, name, self.timed(getattr(gc.train, name), f"train.{name}"))
        for name in ("aggregate", "sample_instance"):
            self._patch(gc.verify, name, self.timed(getattr(gc.verify, name), f"verify.{name}"))
        alpha = gc.verify.CoefficientSource.alpha
        self._patch(gc.verify.CoefficientSource, "alpha", self.timed(alpha, "verify.alpha"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> "Summary":
        return Summary(self)

    def write(self, path) -> None:
        start = np.frombuffer(self.start, dtype=np.int64)
        origin = int(start[0]) if len(start) else 0
        payload = {
            "names": self.names,
            "primitives": self.primitives,
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "start_ns": (start - origin).tolist(),
                "end_ns": (np.frombuffer(self.end, dtype=np.int64) - origin).tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


PART_PREFIXES = ("op/", "setup")


class Summary:
    """Per (part, span name) totals: calls, self time and duration in ns.

    The part of a span is the nearest enclosing span whose name starts with
    "op/" (one timed sample of a workload part, e.g. "op/lmgc") or "setup".
    """

    def __init__(self, tracer: Tracer):
        names = tracer.names
        name = np.frombuffer(tracer.name, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        dur = np.frombuffer(tracer.end, dtype=np.int64) - np.frombuffer(tracer.start, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child

        is_part = np.array([n.startswith(PART_PREFIXES) for n in names], dtype=bool)
        part = np.full(len(name), -1, dtype=np.int64)
        for i in range(len(name)):  # parents precede children
            nid = name[i]
            if is_part[nid]:
                part[i] = nid
            elif parent[i] >= 0:
                part[i] = part[parent[i]]

        prim = np.zeros(len(names) + 1, dtype=bool)
        prim[list(tracer.primitive_ids)] = True
        fwd_prim = prim[name] & ~np.array([n.endswith(".backward") for n in names], dtype=bool)[name]
        top_level = fwd_prim & ~(has_parent & prim[name[np.where(has_parent, parent, 0)]])

        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.dur_ns = defaultdict(int)
        self.tape_nodes = defaultdict(int)
        key = part * (len(names) + 1) + name
        for k, calls, s, d, t in _group(key, self_ns, dur, top_level):
            p, n = divmod(int(k), len(names) + 1)
            pk = (names[p] if p >= 0 else "", names[n])
            self.calls[pk] = calls
            self.self_ns[pk] = s
            self.dur_ns[pk] = d
            self.tape_nodes[pk[0]] += t

    def total(self, field: str, span: str, parts) -> int:
        table = getattr(self, field)
        return sum(table[(p, span)] for p in parts)


def _group(key, self_ns, dur, top_level):
    """Yield (key, count, self sum, duration sum, top-level count) per distinct key."""
    if len(key) == 0:
        return
    uniq, inverse = np.unique(key, return_inverse=True)
    calls = np.bincount(inverse)
    s = np.bincount(inverse, weights=self_ns.astype(np.float64))
    d = np.bincount(inverse, weights=dur.astype(np.float64))
    t = np.bincount(inverse, weights=top_level.astype(np.float64))
    for row in zip(uniq, calls, s, d, t):
        yield row[0], int(row[1]), float(row[2]), float(row[3]), int(row[4])
