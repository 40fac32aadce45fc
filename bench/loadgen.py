"""Request streams and the closed- and open-loop load generators.

*Closed loop*: one client keeps a window of outstanding ``submit()`` futures
and sends the next request only when the oldest completes — a slow system
receives less load.  *Open loop*: one thread submits on a fixed schedule
whatever the system does; latency is counted **from the time a request was
due**, so a stall charges every request it delayed, and how late the
generator itself ran is reported beside it.

A request that is shed, fails, times out or never resolves counts as failed.
The generators take only a ``submit(row) -> Future`` callable, a clock and a
sleep function, so tests drive them with a fake clock.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

#: outstanding requests the closed-loop client keeps in flight
CLOSED_WINDOW = 256
#: every n-th answer is kept for the bit-identity check
SAMPLE_EVERY = 64
#: how long a finished segment waits for stragglers before failing them
DRAIN_SECONDS = 2.0


def zipf_rows(rng: np.random.Generator, count: int, num_rows: int, exponent: float) -> np.ndarray:
    """``count`` row ids, rank r drawn with probability ∝ r^-exponent.

    A finite Zipf law over exactly ``num_rows`` ranks (any positive exponent),
    mapped through a seeded random ranking so popular rows are not neighbours.
    """
    cdf = np.cumsum(np.arange(1, num_rows + 1, dtype=np.float64) ** -exponent)
    ranks = np.searchsorted(cdf, rng.random(count) * cdf[-1])
    return rng.permutation(num_rows)[np.minimum(ranks, num_rows - 1)]


def uniform_rows(rng: np.random.Generator, count: int, num_rows: int) -> np.ndarray:
    return rng.integers(0, num_rows, size=count, dtype=np.int64)


def make_rows(rng: np.random.Generator, count: int, num_rows: int, zipf: Optional[float]) -> np.ndarray:
    """Row-id stream of a workload: Zipfian with exponent ``zipf``, or uniform."""
    if zipf is None:
        return uniform_rows(rng, count, num_rows)
    return zipf_rows(rng, count, num_rows, zipf)


@dataclass
class Sample:
    """One served answer kept for verification."""

    row: int
    submitted: float
    done: float
    block: np.ndarray


@dataclass
class LoadResult:
    """Outcome of one load segment."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    #: process CPU seconds of the segment (closed loop)
    cpu_s: float = 0.0
    #: per-request latency in seconds, successful requests only
    latencies: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: when each of those requests was due, in seconds since the segment began (open loop)
    due_offsets: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: how late each request was sent relative to its due time (open loop)
    lateness: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: duration of each ``submit()`` call in seconds
    submit_calls: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: ``submit()`` return → future done, successful requests only (open loop)
    resolve_waits: np.ndarray = field(default_factory=lambda: np.empty(0))
    samples: List[Sample] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def qps(self) -> float:
        return (self.attempted - self.failed) / self.wall_s if self.wall_s > 0 else 0.0

    def note_error(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def closed_loop(
    submit: Callable[[int], object],
    rows: np.ndarray,
    *,
    window: int = CLOSED_WINDOW,
    sample_every: int = SAMPLE_EVERY,
    clock: Callable[[], float] = time.perf_counter,
) -> LoadResult:
    """Send ``rows`` keeping at most ``window`` requests outstanding."""
    result = LoadResult(attempted=int(rows.size))
    outstanding: deque = deque()

    def settle() -> None:
        index, row, sent, future = outstanding.popleft()
        try:
            block = future.result(timeout=DRAIN_SECONDS)
        except Exception as exc:  # shed, expired, failed or never resolved
            result.note_error(exc)
            return
        if index % sample_every == 0:
            result.samples.append(Sample(row, sent, clock(), block))

    cpu_began = time.process_time()
    began = clock()
    for index, row in enumerate(rows.tolist()):
        if len(outstanding) >= window:
            settle()
        try:
            outstanding.append((index, row, clock(), submit(row)))
        except Exception as exc:  # admission control shed the request
            result.note_error(exc)
    while outstanding:
        settle()
    result.wall_s = clock() - began
    result.cpu_s = time.process_time() - cpu_began
    return result


def open_loop(
    submit: Callable[[int], object],
    rows: np.ndarray,
    rate: float,
    *,
    stop: Optional[Callable[[], bool]] = None,
    sample_every: int = SAMPLE_EVERY,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> LoadResult:
    """Submit ``rows`` at ``rate`` requests per second on a fixed schedule.

    Request ``i`` is due at ``start + i / rate``; everything due by now is sent
    back to back, then the generator sleeps until the next due time.  ``stop``
    (polled between sends) ends the segment early — requests never sent are not
    counted as attempted.
    """
    total = int(rows.size)
    ids = rows.tolist()
    interval = 1.0 / rate
    # Per-request state lives in flat arrays and a future is let go the moment it
    # resolves: a generator that kept 10^4 futures alive would make every full
    # garbage collection walk them, and stall itself for milliseconds.
    sent_at = np.zeros(total)
    submit_took = np.zeros(total)
    done_at = np.full(total, np.nan)
    errors: dict = {}
    blocks: dict = {}
    result = LoadResult()

    def on_done(index: int) -> Callable[[object], None]:
        def record(future) -> None:
            error = future.exception() if not future.cancelled() else TimeoutError("cancelled")
            if error is not None:
                errors[index] = error
            elif index % sample_every == 0:
                blocks[index] = future.result()
            done_at[index] = clock()

        return record

    start = clock()
    sent = 0
    while sent < total and not (stop is not None and stop()):
        now = clock()
        due_count = min(total, int((now - start) * rate) + 1)
        if due_count <= sent:
            # never a zero-length nap: rounding can put the next due time level with ``now``
            sleep(min(max(start + sent * interval - now, 1e-5), 0.0005))
            continue
        for index in range(sent, due_count):
            before = clock()
            sent_at[index] = before
            try:
                submit(ids[index]).add_done_callback(on_done(index))
            except Exception as exc:  # admission control shed the request
                errors[index] = exc
                done_at[index] = before
            submit_took[index] = clock() - before
        sent = due_count
    result.attempted = sent

    # stragglers get a bounded wait; whatever is still open then has failed
    deadline = clock() + DRAIN_SECONDS
    while np.isnan(done_at[:sent]).any() and clock() < deadline:
        sleep(0.0005)
    result.wall_s = clock() - start

    due = start + np.arange(sent) * interval
    # late callbacks may still write: settle on a snapshot
    finished = done_at[:sent].copy()
    failed = {index: error for index, error in dict(errors).items() if index < sent}
    for index in np.flatnonzero(np.isnan(finished)).tolist():
        failed.setdefault(index, TimeoutError("request never resolved"))
    for index in sorted(failed):
        result.note_error(failed[index])
    ok = np.ones(sent, dtype=bool)
    ok[np.fromiter(failed, dtype=np.int64, count=len(failed))] = False
    result.latencies = (finished - due)[ok]
    result.due_offsets = (due - start)[ok]
    result.resolve_waits = (finished - sent_at[:sent] - submit_took[:sent])[ok]
    result.samples = [
        Sample(ids[index], sent_at[index], finished[index], block)
        for index, block in sorted(dict(blocks).items())
        if index < sent and ok[index]
    ]
    result.lateness = np.maximum(sent_at[:sent] - due, 0.0)
    result.submit_calls = submit_took[:sent]
    return result
