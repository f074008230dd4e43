"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code around each call into
a gridtopo layer; nothing inside the package is instrumented. Each span
carries its id, the id of the span that caused it, the operation
(request) id it belongs to, its name and its start and end times.
Spans stay in memory while the run measures and are written out once,
at the end.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name, op, parent=None):
        """Time the enclosed block as one span.

        The parent defaults to the innermost open span of the calling
        thread; pass it explicitly when the cause runs on another thread.
        """
        if parent is None:
            parent = getattr(self._local, "current", None)
        with self._lock:
            sid = next(self._ids)
        self._local.current = sid
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            self._local.current = parent
            with self._lock:
                self.spans.append((sid, parent, op, name, t0, t1))

    def count(self, name, value):
        with self._lock:
            self.counts[name] += value

    def mean_call_s(self, name):
        """Mean span duration over all spans with this name; 0 if none."""
        durs = [t1 - t0 for (_, _, _, n, t0, t1) in self.spans if n == name]
        return sum(durs) / len(durs) if durs else 0.0

    def dump(self, path):
        rows = [
            {"id": sid, "parent": parent, "op": op, "name": name,
             "start_s": t0, "end_s": t1}
            for (sid, parent, op, name, t0, t1) in sorted(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)
            fh.write("\n")
