"""In-memory spans recorded around the benchmark's calls into each layer.

Spans are recorded from ``bench/`` only — the program under test is not
instrumented (spans inside ``src/repro`` are a later change).  A span is
``(name, start, end, parent, workload, pass, thread)``; the name's prefix up to
the first dot is the layer (the ``repro`` module the call went into, or
``bench`` for the harness's own work).  A span's *self time* is its duration
minus the part of that interval its children **on the same thread** cover, so
the self times of the root span's thread sum to the root's wall.  Spans of
another thread (the churn reader) ran *beside* that path: the layer table
lists them, flagged, and leaves them out of the sum.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional


def covered(intervals: List[tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """Collects spans while enabled; a disabled tracer records nothing."""

    def __init__(
        self,
        workload: str = "",
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.workload = workload
        self.enabled = enabled
        self.clock = clock
        self.pass_index = -1
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    def span(self, name: str, parent: Optional[int] = None):
        """Context manager recording one span; yields the span's index.

        The parent defaults to the innermost open span of the calling thread;
        pass ``parent`` to attach a span opened on another thread.
        """
        if not self.enabled:
            return nullcontext(None)
        return self._record(name, parent)

    @contextmanager
    def _record(self, name: str, parent: Optional[int]) -> Iterator[int]:
        stack = self._stack.__dict__.setdefault("open", [])
        if parent is None and stack:
            parent = stack[-1]
        record = {
            "name": name,
            "start": self.clock(),
            "end": None,
            "parent": parent,
            "workload": self.workload,
            "pass": self.pass_index,
            "thread": threading.get_ident(),
        }
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            record["end"] = self.clock()

    # ------------------------------------------------------------------ #
    def self_times(self, pass_index: Optional[int] = None, thread: Optional[int] = None) -> Dict[str, float]:
        """Self time per span name, summed over the spans of one pass and thread (or all)."""
        children: Dict[int, List[tuple[float, float]]] = {}
        for span in self.spans:
            parent = span["parent"]
            if parent is None or span["end"] is None:
                continue
            if span.get("thread") == self.spans[parent].get("thread"):
                children.setdefault(parent, []).append((span["start"], span["end"]))
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span["end"] is None or (pass_index is not None and span["pass"] != pass_index):
                continue
            if thread is not None and span.get("thread") != thread:
                continue
            duration = span["end"] - span["start"]
            own = duration - covered(children.get(index, []), span["start"], span["end"])
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def durations(self, name: str, pass_index: Optional[int] = None) -> List[float]:
        """Durations of every finished span called ``name``."""
        return [
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name
            and span["end"] is not None
            and (pass_index is None or span["pass"] == pass_index)
        ]

    def layer_table(self, pass_index: int, root: str = "pass") -> List[dict]:
        """Rows ``{layer, span, self_s, share, beside}`` of one pass, largest first.

        ``share`` is against the wall of the pass's ``root`` span.  The self
        times of the rows on the root's thread add up to that wall; rows with
        ``beside`` set ran on another thread at the same time.
        """
        roots = [s for s in self.spans if s["name"] == root and s["pass"] == pass_index and s["end"] is not None]
        if not roots:
            return []
        wall = roots[0]["end"] - roots[0]["start"]
        rows = []
        for thread in {span.get("thread") for span in self.spans if span["pass"] == pass_index}:
            for name, own in self.self_times(pass_index, thread).items():
                rows.append({
                    "layer": name.split(".", 1)[0],
                    "span": name,
                    "self_s": own,
                    "share": own / wall if wall else 0.0,
                    "beside": thread != roots[0].get("thread"),
                })
        return sorted(rows, key=lambda row: -row["self_s"])

    def write(self, path: Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": self.workload, "spans": self.spans}) + "\n")
