"""Spans around the benchmark's calls into the package.

A span records its name, start, end, parent span and instance id.  Spans
stay in memory and are written out when the run ends.  With tracing off,
``call`` is a plain call, so the untraced run pays nothing for it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent, instance]
        self.instance = None
        self._stack = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.instance]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def instance_span(self, iid, fn, *args):
        """Run one instance under an ``instance`` span."""
        self.instance = iid
        return self.call("instance", fn, *args)

    def summarize(self):
        """Busy time and call count per span name, self time per layer (the
        name's prefix before the first dot) and per instance."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        busy = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        per_instance = defaultdict(lambda: defaultdict(float))
        for sid, (name, start, end, parent, iid) in enumerate(self.spans):
            duration = end - start
            busy[name] += duration
            calls[name] += 1
            layer = "harness" if name == "instance" else name.split(".", 1)[0]
            own = duration - child[sid]
            self_time[layer] += own
            per_instance[iid][layer] += own
        return busy, calls, self_time, per_instance

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for sid, (name, start, end, parent, iid) in enumerate(self.spans):
                out.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                      "parent": parent, "instance": iid}) + "\n")
