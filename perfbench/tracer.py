"""Span recorder that wraps the public functions of the simulator from
outside the package.

A span is (name, start, end, parent, request id). Spans are appended to
flat arrays while the run goes on and are only aggregated or written out
when it ends, so recording one costs two clock reads and a few appends.
"""

import json
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.req = array("q")
        self._stack = []
        self._patches = []
        self.request = -1

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, fn):
        """Return fn wrapped so that each call records one span."""
        nid = self._id(name)
        stack = self._stack
        name_id, start, end = self.name_id, self.start, self.end
        parent, req = self.parent, self.req
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            req.append(tracer.request)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap(self, owner, attr, name):
        """Register owner.attr (module function, method or classmethod) to
        be replaced by a traced version while the tracer is installed."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(self.span(name, raw.__func__))
        else:
            patched = self.span(name, raw)
        self._patches.append((owner, attr, raw, patched))

    def install(self):
        for owner, attr, _, patched in self._patches:
            setattr(owner, attr, patched)

    def uninstall(self):
        for owner, attr, raw, _ in self._patches:
            setattr(owner, attr, raw)

    # -- results -----------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def aggregate(self, scale):
        """Per span name: (calls, busy_s, self_s) summed over all spans,
        each duration multiplied by scale[its request id]. Self time is a
        span's duration minus the durations of its direct children."""
        n = len(self.names)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        factor = np.array([scale[r] for r in self.req])
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) * factor
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        calls = np.bincount(names, minlength=n)
        busy = np.bincount(names, weights=dur, minlength=n)
        self_time = np.bincount(names, weights=dur - child, minlength=n)
        return {
            name: (int(calls[i]), float(busy[i]), float(self_time[i]))
            for i, name in enumerate(self.names)
        }

    def write_jsonl(self, path, t0):
        """One JSON object per span, times in seconds from t0. A span's
        id is its line number from 0; parent is -1 for a root span."""
        names = self.names
        with open(path, "w") as fh:
            for i, (nid, s, e, p, r) in enumerate(zip(
                    self.name_id, self.start, self.end, self.parent,
                    self.req)):
                fh.write(json.dumps({
                    "id": i, "name": names[nid], "start": s - t0,
                    "end": e - t0, "parent": p, "req": r,
                }) + "\n")
