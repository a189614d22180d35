"""In-memory span recorder for the traced run.

A span is one timed call at a layer boundary: name, category, start,
end, the span that caused it and the request it belongs to.  Spans are
kept in memory and written out once, at the end, as Chrome trace-event
JSON (which Perfetto and ``chrome://tracing`` open).  A disabled
recorder records nothing and only calls through.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from typing import Any, Callable, Iterator, List, Optional


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    name: str
    cat: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Records spans when ``enabled``; otherwise every method is a
    pass-through."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._request: List[Optional[str]] = [None]
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str, cat: str = "layer",
             request: Optional[str] = None) -> Iterator[None]:
        """Time the enclosed block as one span.  ``request`` starts a
        new request id for this span and everything inside it."""
        if not self.enabled:
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self._request.append(request if request is not None
                             else self._request[-1])
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, cat, start, end, parent,
                                   self._request.pop()))

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def write_chrome(self, path: str) -> None:
        """Write every span as Chrome trace-event JSON."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{
            "name": s.name, "cat": s.cat, "ph": "X", "pid": 1, "tid": 1,
            "ts": (s.start - origin) * 1e6, "dur": (s.end - s.start) * 1e6,
            "args": {"id": s.id, "parent": s.parent,
                     "request": s.request},
        } for s in sorted(self.spans, key=lambda s: s.start)]
        with open(path, "w") as f:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, f)
