"""Span recording for the benchmark's traced run.

Spans are kept in memory and written out when the run ends, as Chrome
trace-event JSON (opens in Perfetto).  Each span has a name, start,
end, parent and job id.

Calls that happen thousands of times per job -- the detector's
``sync``/``feed_batch`` and each step of the batch merge -- are recorded
as *leaf aggregates* instead: one record per (parent span, name) with
the first call's start, the summed busy time and the call count.  A
leaf calls into no other instrumented layer, so its busy time is simply
subtracted from its parent's self time.

:func:`instrument` patches the layers' entry points for the duration of
a ``with`` block and restores them afterwards; the ``repro`` sources
are never edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from typing import Dict, Iterator, List, Optional, Tuple

perf_counter = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "job")

    def __init__(self, sid: int, name: str, start: float,
                 parent: Optional[int], job: Optional[int]) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job

    @property
    def duration(self) -> float:
        return self.end - self.start


class Leaf:
    """Many calls of one leaf layer under one parent span."""

    __slots__ = ("name", "parent", "job", "first", "busy", "calls")

    def __init__(self, name: str, parent: int, job: Optional[int],
                 first: float) -> None:
        self.name = name
        self.parent = parent
        self.job = job
        self.first = first
        self.busy = 0.0
        self.calls = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.leaves: Dict[Tuple[int, str], Leaf] = {}
        self.job: Optional[int] = None
        #: Events per ``feed_batch`` call.
        self.batch_sizes: Counter = Counter()
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, perf_counter(), parent,
                      self.job)
        self.spans.append(record)
        self._stack.append(record.sid)
        try:
            yield
        finally:
            self._stack.pop()
            record.end = perf_counter()

    def add_leaf(self, name: str, start: float, end: float) -> None:
        key = (self._stack[-1], name)
        leaf = self.leaves.get(key)
        if leaf is None:
            leaf = self.leaves[key] = Leaf(name, key[0], self.job, start)
        leaf.busy += end - start
        leaf.calls += 1

    # ------------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of every span: its duration minus what its child
        spans and leaf aggregates cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        for leaf in self.leaves.values():
            own[leaf.parent] -= leaf.busy
        return own

    def layer_self_times(self, within: str) -> Tuple[Dict[str, float],
                                                     float]:
        """``(self seconds by span/leaf name, total duration of the
        *within* spans)`` over every span nested in a span named
        *within* (inclusive).  The self times sum to that total."""
        inside = [False] * len(self.spans)
        totals: Counter = Counter()
        own = self.self_times()
        covered = 0.0
        for span in self.spans:
            # Parents are recorded before their children.
            inside[span.sid] = (span.name == within or (
                span.parent is not None and inside[span.parent]))
            if inside[span.sid]:
                totals[span.name] += own[span.sid]
            if span.name == within:
                covered += span.duration
        for leaf in self.leaves.values():
            if inside[leaf.parent]:
                totals[leaf.name] += leaf.busy
        return dict(totals), covered

    def totals(self, name: str) -> Tuple[float, float]:
        """``(inclusive, self)`` seconds over every span named *name*."""
        own = self.self_times()
        spans = [s for s in self.spans if s.name == name]
        return (sum(s.duration for s in spans),
                sum(own[s.sid] for s in spans))

    def min_self_time(self) -> float:
        """Smallest span self time; negative means overlapping children
        were double-counted."""
        return min(self.self_times(), default=0.0)

    def write_chrome_trace(self, path) -> None:
        """Write the spans as Chrome trace-event JSON.  Spans go on
        thread 1; each leaf name gets its own thread, one slice per
        (parent, name) whose length is the summed busy time."""
        origin = min((s.start for s in self.spans), default=0.0)
        leaf_tids: Dict[str, int] = {}
        for leaf in self.leaves.values():
            leaf_tids.setdefault(leaf.name, 2 + len(leaf_tids))
        events = [{"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
                   "args": {"name": "spans"}}]
        events += [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
             "args": {"name": f"{name} (aggregated calls)"}}
            for name, tid in leaf_tids.items()
        ]
        for span in self.spans:
            events.append({
                "ph": "X", "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1, "tid": 1,
                "args": {"span": span.sid, "parent": span.parent,
                         "job": span.job},
            })
        for leaf in self.leaves.values():
            events.append({
                "ph": "X", "name": leaf.name,
                "cat": leaf.name.split(".", 1)[0],
                "ts": (leaf.first - origin) * 1e6,
                "dur": leaf.busy * 1e6,
                "pid": 1, "tid": leaf_tids[leaf.name],
                "args": {"parent": leaf.parent, "job": leaf.job,
                         "calls": leaf.calls, "aggregated": True},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


# ----------------------------------------------------------------------
# Instrumentation of the layers' entry points
# ----------------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _leaf(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add_leaf(name, start, perf_counter())
    return wrapper


def _feed_batch(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, batch, start=0, stop=None, base=0):
        begin = perf_counter()
        try:
            return fn(self, batch, start, stop, base)
        finally:
            tracer.add_leaf("detector.feed", begin, perf_counter())
            size = (len(batch) if stop is None else stop) - start
            tracer.batch_sizes[max(size, 0)] += 1
    return wrapper


def _timed_merge(tracer: Tracer, fn):
    """``merged_batches`` builds the batches when called and merges
    lazily as it is iterated: time both, never the consumer."""
    name = "analysis.merge"

    def iterate(items):
        while True:
            begin = perf_counter()
            try:
                item = next(items)
            except StopIteration:
                tracer.add_leaf(name, begin, perf_counter())
                return
            tracer.add_leaf(name, begin, perf_counter())
            yield item

    @functools.wraps(fn)
    def wrapper(self):
        begin = perf_counter()
        items = fn(self)
        tracer.add_leaf(name, begin, perf_counter())
        return iterate(items)
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap the layers' entry points in spans while the block runs."""
    from repro.analysis import context as context_module
    from repro.analysis.context import AnalysisContext
    from repro.detector.fasttrack import FastTrack

    patches = []

    def patch(owner, attr: str, make) -> None:
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else getattr(owner, attr)
        patches.append((owner, attr, owned, original))
        setattr(owner, attr, make(original))

    def spanned_property(name):
        return lambda prop: property(_spanned(tracer, name, prop.fget))

    patch(context_module, "decode_all_tolerant",
          lambda fn: _spanned(tracer, "ptdecode.decode", fn))
    patch(AnalysisContext, "located_syncs",
          spanned_property("ptdecode.locate"))
    patch(AnalysisContext, "located_allocs",
          spanned_property("ptdecode.locate"))
    patch(context_module, "align_samples",
          lambda fn: _spanned(tracer, "analysis.align", fn))
    patch(context_module, "build_timeline",
          lambda fn: _spanned(tracer, "analysis.timeline", fn))
    patch(AnalysisContext, "replay",
          lambda fn: _spanned(tracer, "replay.replay", fn))
    patch(AnalysisContext, "merged_batches",
          lambda fn: _timed_merge(tracer, fn))
    patch(FastTrack, "sync",
          lambda fn: _leaf(tracer, "detector.feed", fn))
    patch(FastTrack, "feed_batch", lambda fn: _feed_batch(tracer, fn))
    patch(FastTrack, "finish",
          lambda fn: _spanned(tracer, "detector.finish", fn))
    try:
        yield
    finally:
        for owner, attr, owned, original in reversed(patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
