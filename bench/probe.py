"""Timing of calls into the workbench, seen from outside.

Every call an operation makes into a ``bqlcd`` layer goes through
``Probe.call``.  The probe adds the call's duration to the operation's time,
so an operation's time covers only its calls into the program; the
benchmark's own checks run between calls and are not counted.  When tracing,
the probe also keeps a span per call (name, start, end, parent, operation
id) in memory; ``layer_metrics`` derives each layer's self time and counts
from them after the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Probe:
    def __init__(self, tracing=False):
        self.tracing = tracing
        self.spans = []          # (op_id, span_id, parent_id, name, start, end)
        self.counts = defaultdict(int)
        self.op_time = 0.0
        self.op_id = None
        self.op_span = None

    def begin_op(self, op_id):
        self.op_time = 0.0
        self.op_id = op_id
        if self.tracing:
            self.op_span = len(self.spans)
            self.spans.append([op_id, self.op_span, None, "op", _clock(), None])

    def end_op(self):
        if self.tracing:
            self.spans[self.op_span][5] = _clock()
        return self.op_time

    def call(self, name, fn, *args, **kwargs):
        """Run one call into the program and time it.  ``name`` is the span
        name, ``layer.what``; a callable ``name`` is given the result and
        returns the span name (used to split searches by outcome)."""
        out, done = None, False
        start = _clock()
        try:
            out = fn(*args, **kwargs)
            done = True
            return out
        finally:
            end = _clock()
            self.op_time += end - start
            if self.tracing:
                if not callable(name):
                    label = name
                else:
                    label = name(out) if done else "raised"
                self.spans.append([self.op_id, len(self.spans), self.op_span,
                                   label, start, end])

    def count(self, name, n=1):
        if self.tracing:
            self.counts[name] += n


def write_spans(path, *span_lists):
    """One JSON object per span, one per line; span ids are renumbered so
    they stay unique across the lists."""
    offset = 0
    with open(path, "w") as fh:
        for spans in span_lists:
            for op_id, sid, parent, name, start, end in spans:
                fh.write(json.dumps({
                    "op": op_id, "id": sid + offset,
                    "parent": None if parent is None else parent + offset,
                    "name": name, "start": start, "end": end}) + "\n")
            offset += len(spans)


def self_times(spans):
    """Self time per span name: a span's duration less the time its child
    spans cover.  Children of one span are sequential here, so their
    durations add up without overlap."""
    child = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(float)
    calls = defaultdict(int)
    for _, sid, _, name, start, end in spans:
        out[name] += (end - start) - child[sid]
        calls[name] += 1
    return out, calls
