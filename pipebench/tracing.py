"""In-memory spans around the calls the pipeline makes into each layer.

A span wraps the module attribute that the caller looks up, for example
``boxquery.training.adam_step`` (what ``train`` calls) or
``boxquery.sampling.execute`` (what ``sample_query`` calls), so nothing
inside the package changes.  Wrappers record only while the tracer is
active: the benchmark switches it on around the timed pipeline phases and
off around its own output checks, which call the same functions.

Spans are kept in a list and written out once, when the run ends.  A
layer's self time is its duration minus the time its direct children
cover; calls are single-threaded, so children nest strictly.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Span recorder; one per run, identified by ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        # each span: [name, parent index or -1, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            index = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def phase(self, on: bool):
        """Record spans in the block when ``on``; yields a holder whose
        ``stats`` are the block's :class:`SpanStats` once it has ended."""
        holder = Phase()
        first = len(self.spans)
        self.active = on
        try:
            yield holder
        finally:
            self.active = False
            holder.stats = SpanStats(self.spans, first, len(self.spans))

    def write(self, path: Path) -> None:
        """One JSON object per span, in the order the spans opened."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for index, (name, parent, start, end) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": index,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


class Phase:
    stats: "SpanStats"


class SpanStats:
    """Per-name call counts, total time and self time over a span slice."""

    def __init__(self, spans: list[list], first: int, last: int):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        child_time: dict[int, float] = {}
        for index in range(first, last):
            name, parent, start, end = spans[index]
            duration = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            if parent >= first:
                child_time[parent] = child_time.get(parent, 0.0) + duration
        for index in range(first, last):
            name, _, start, end = spans[index]
            own = (end - start) - child_time.get(index, 0.0)
            self.self_time[name] = self.self_time.get(name, 0.0) + own

    def mean_ms(self, name: str, own: bool = True) -> float:
        """Mean time per call in ms; self time unless ``own`` is False."""
        calls = self.calls.get(name, 0)
        if not calls:
            return 0.0
        source = self.self_time if own else self.total
        return 1e3 * source[name] / calls
