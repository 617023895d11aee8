"""In-memory spans around the benchmark's calls into tunnelwave modules.

A span records its name, start, end, attributes, the span that encloses it
and the round (trace id) it belongs to.  Spans stay in memory and are written
out once, when the run ends.  With tracing off, ``span`` yields a throwaway
attribute dict and records nothing.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.trace_id = "setup"
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        """Time the enclosed block; the caller may add attributes to the dict."""
        if not self.enabled:
            yield attrs
            return
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "trace": self.trace_id,
            "name": name,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield attrs
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def leaf(self, name):
        """Closed spans of one name, as (duration_s, attrs) pairs."""
        return [(s["end"] - s["start"], s["attrs"]) for s in self.spans
                if s["name"] == name and "end" in s]

    def write(self, path, extra):
        """Dump spans (with self time: duration minus time covered by children)."""
        child_time = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (
                    s["end"] - s["start"])
        t0 = self.spans[0]["start"] if self.spans else 0.0
        out = []
        for s in self.spans:
            dur = s["end"] - s["start"]
            out.append({
                "id": s["id"], "parent": s["parent"], "trace": s["trace"],
                "name": s["name"], "attrs": s["attrs"],
                "start_s": s["start"] - t0, "dur_s": dur,
                "self_s": dur - child_time.get(s["id"], 0.0),
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": out}, indent=1), encoding="utf-8")
