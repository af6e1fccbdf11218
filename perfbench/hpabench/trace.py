"""Spans recorded around the calls a workload makes into each layer.

A span has a name, a start and end on the `perf_counter` clock, the span
that caused it, and the job it belongs to. Spans stay in memory until the
run ends and are then written out in one file. A span's self time is its
duration minus the part of it that its children cover.
"""

import json


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, job]

    @classmethod
    def load(cls, spans):
        """A tracer holding spans another process recorded."""
        t = cls()
        t.spans = [list(s) for s in spans]
        return t

    def add(self, name, start, end, parent=None, job=None):
        """Records a span whose bounds were measured elsewhere."""
        self.spans.append([name, start, end, parent, job])
        return len(self.spans) - 1

    def _self_time(self, i, children):
        """Span i's duration minus the part its children cover."""
        _, start, end, _, _ = self.spans[i]
        covered = _union([(self.spans[c][1], self.spans[c][2]) for c in children.get(i, [])],
                         start, end)
        return (end - start) - covered

    def _children(self):
        children = {}
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                children.setdefault(s[3], []).append(i)
        return children

    def durations_by_job(self):
        """{job: {span name: summed duration}}."""
        out = {}
        for name, start, end, _, job in self.spans:
            d = out.setdefault(job, {})
            d[name] = d.get(name, 0.0) + (end - start)
        return out

    def accounted(self, roots):
        """The share of the time in the root spans named `roots` that their
        child spans (the layer calls) cover: 1.0 when the layers account for
        the whole operation, lower by the time spent between layer calls."""
        children = self._children()
        ids = [i for i, s in enumerate(self.spans) if s[3] is None and s[0] in roots]
        total = sum(self.spans[i][2] - self.spans[i][1] for i in ids)
        unaccounted = sum(self._self_time(i, children) for i in ids)
        return 1 - unaccounted / total if total > 0 else 0.0

    def write(self, path):
        spans = [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                 for n, s, e, p, j in self.spans]
        path.write_text(json.dumps({"spans": spans}) + "\n")


def _union(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total

