"""In-memory spans for the traced run.

A span records (name, start, end, parent, op id, counters, error), with
start and end in process CPU seconds.  Spans
are kept in a list and written out once, when the run ends.  The benchmark
opens them in its own code around each call into an srkit module, so they
measure the library from the outside.
"""

from __future__ import annotations

import json
from time import process_time


class _Span:
    __slots__ = ("tracer", "name", "attrs", "index")

    def __init__(self, tracer, name, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, process_time(), None, parent, tr.op_id,
                         self.attrs, False])
        tr.stack.append(self.index)
        return self.attrs

    def __exit__(self, exc_type, exc, tb):
        rec = self.tracer.spans[self.index]
        rec[2] = process_time()
        rec[6] = exc_type is not None
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = None

    def span(self, name, **attrs):
        return _Span(self, name, attrs)

    def self_times(self):
        """Duration minus the time covered by direct children, per span."""
        out = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] is not None:
                out[rec[3]] -= rec[2] - rec[1]
        return out

    def summary(self):
        """name -> calls, errors, total and self seconds, summed counters."""
        out = {}
        for rec, own in zip(self.spans, self.self_times()):
            s = out.setdefault(rec[0], {"calls": 0, "errors": 0, "total_s": 0.0,
                                        "self_s": 0.0, "counters": {}})
            s["calls"] += 1
            s["errors"] += rec[6]
            s["total_s"] += rec[2] - rec[1]
            s["self_s"] += own
            for key, value in rec[5].items():
                if key != "q":
                    s["counters"][key] = s["counters"].get(key, 0) + value
        return out

    def write(self, path):
        fields = ("name", "start", "end", "parent", "op", "counters", "error")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(fields, rec)) for rec in self.spans],
                       "summary": self.summary()}, fh)


class _NullSpan:
    def __enter__(self):
        return {}

    def __exit__(self, exc_type, exc, tb):
        return False


class NullTracer:
    """Tracing off: the same call sites, nothing recorded."""
    op_id = None
    _span = _NullSpan()

    def span(self, name, **attrs):
        return self._span
