"""In-memory span recorder for the traced benchmark pass.

The recorder replaces module attributes with timing wrappers, so spans
are taken at the boundaries of the program's public functions from the
benchmark's own code. Wrappers are installed only around a traced pass
and removed afterwards; nothing under ``src/`` knows about them.

A span is (name, start, end, parent, request, info). Spans nest because
the traced pass runs in one thread with one worker, so a layer's self
time is its duration minus the part its direct children cover.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: Optional[int] = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the union of its direct children,
    each child clipped to the parent's interval."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        clipped = [(max(k.start, s.start), min(k.end, s.end)) for k in kids]
        out.append(s.duration - covered([c for c in clipped if c[1] > c[0]]))
    return out


def ancestors(spans, index: int):
    p = spans[index].parent
    while p is not None:
        yield p
        p = spans[p].parent


class Recorder:
    """Collects spans while at least one root span is open."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.request: Optional[int] = None
        self._next_request = 0
        self._stack: list = []
        self._installed: list = []

    def new_request(self) -> None:
        """Tag the spans that follow with a fresh request id."""
        self.request = self._next_request
        self._next_request += 1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent, request=self.request))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def wrap(self, module, attr: str, name: str,
             annotate: Optional[Callable] = None) -> None:
        """Replace module.attr with a wrapper that records a span per call
        (only inside an open root span). annotate(info, args, kwargs,
        result, exc) may store counts in the span's info dict."""
        original = getattr(module, attr)
        rec = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not rec._stack:
                return original(*args, **kwargs)
            idx = rec.open(name)
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                rec.close(idx)
                if annotate is not None:
                    annotate(rec.spans[idx].info, args, kwargs, result, exc)

        self._installed.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for s, own in zip(self.spans, selfs):
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "request": s.request,
                                     "self": own, "info": s.info}, sort_keys=True) + "\n")
