"""Online inference engine over a pre-propagated feature store.

The paper's bargain is that all graph aggregation happens offline, so the
online path is a pure feature gather.  :class:`ServingEngine` is that online
path: it accepts node-id queries and answers each batch of them with one
:meth:`~repro.prepropagation.store.FeatureStore.gather_packed` from the
packed ``(M, N, F)`` store it was given — the caller's own store object, in
RAM or mapped from its ``packed.npy``, never a copy.  Nothing sits in front
of that gather, and every answer — ``fetch`` or dispatch — reads all
``M`` hop matrices of its rows in that one gather.  What shapes the batches
is **request coalescing**: the dispatcher is work-conserving — the moment
it is free it claims everything pending, so the coalescing window is the
previous dispatch (an idle engine answers a request in one hand-off, a busy
one grows its batches by itself); duplicate ids waiting together collapse to
one entry, and a query for an id already being gathered joins that in-flight
batch instead of issuing another.
Both paths — direct and coalesced — therefore return bit-identical blocks,
so correctness tests compare them byte for byte.

On top of the fast path sits the **overload/resilience layer**:

* admission control bounds the pending queue (``max_pending`` distinct ids)
  and sheds excess load with a typed :class:`OverloadError` — immediately
  (``shed_policy="reject"``) or after a bounded wait (``"block"``);
* every request may carry a deadline; the dispatcher drops expired entries
  with :class:`DeadlineExceeded` *before* paying for their gather;
* transient gather faults are retried with bounded exponential backoff
  before failing only the affected futures, and whatever else escapes one
  dispatch fails that batch alone — the dispatcher goes on with the next;
* the dispatcher is one thread with no supervisor: a thread cannot be
  replaced the way a worker process can, and a replacement would wait on
  the same gather lock anyway.  A slow gather delays the requests behind
  it; what bounds that wait is each request's deadline and the budget of
  :meth:`close`;
* :meth:`health` reports readiness/liveness, and :meth:`close` supports a
  graceful drain: admission stops, the queue flushes under a drain deadline,
  stragglers fail typed — **no submitted future is ever silently dropped**.

For zero-downtime incremental updates (:mod:`repro.updates`), the engine pins
every dispatch batch to one store version: :meth:`adopt_store` swaps the
store reference under the gather lock, so a gather in flight finishes on the
old version and the next one reads the new version's bytes.  If the swap
fails, the engine keeps serving the old version bit-identically ("stale,
never torn") and reports it via :meth:`health`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.prepropagation.store import FeatureStore
from repro.resilience.faultinject import fault_point
from repro.serving.config import ServingConfig
from repro.serving.errors import DeadlineExceeded, OverloadError
from repro.updates.errors import UpdateSwapError
from repro.utils.logging import get_logger

logger = get_logger("serving.engine")

__all__ = ["ServingEngine", "ServingStats"]


@dataclass
class ServingStats:
    """Counters for one engine's lifetime."""

    requests: int = 0
    batches: int = 0
    #: duplicate ids that merged into a pending (not yet dispatched) entry
    coalesced_window: int = 0
    #: ids that joined a batch already being gathered
    coalesced_inflight: int = 0
    #: batches failed without an answer: a gather that failed every retry,
    #: or a dispatch that raised
    gather_errors: int = 0
    #: requests refused by admission control (OverloadError)
    shed: int = 0
    #: requests dropped at dispatch because their deadline had passed
    expired: int = 0
    #: transient gather failures that were retried
    retried: int = 0

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "coalesced_window": self.coalesced_window,
            "coalesced_inflight": self.coalesced_inflight,
            "gather_errors": self.gather_errors,
            "shed": self.shed,
            "expired": self.expired,
            "retried": self.retried,
            "respawns": 0,  # nothing respawns the dispatcher; goes with bench/'s serving.respawns row
        }


#: one waiter on a node id: (future, enqueue time, absolute deadline or ``_NEVER``)
_Waiter = Tuple[Future, float, float]

_NEVER = float("inf")


class _Entry:
    """Futures waiting on one node id, with per-future enqueue times."""

    __slots__ = ("futures", "expires")

    def __init__(self, future: Future, now: float, deadline: float) -> None:
        self.futures: List[_Waiter] = [(future, now, deadline)]
        #: earliest deadline among the waiters: the dispatcher walks the
        #: waiters only of entries this says can have expired
        self.expires = deadline

    def join(self, future: Future, now: float, deadline: float) -> None:
        self.futures.append((future, now, deadline))
        if deadline < self.expires:
            self.expires = deadline


class ServingEngine:
    """Serve per-node hop blocks (and predictions) from a packed store.

    Parameters
    ----------
    store:
        The pre-propagated :class:`FeatureStore` to serve from.  Every answer
        gathers from this object (or the one :meth:`adopt_store` swaps in);
        the engine copies nothing and never closes it — the store belongs to
        its caller.
    config:
        :class:`ServingConfig`; defaults apply when omitted.
    graph:
        Accepted and ignored; removed with ``bench/``'s follow-up.
    model:
        Optional PP-GNN model enabling :meth:`predict`.
    store_version:
        Name of the store version being served (``"base"`` or ``"vNNNN"``
        from a :class:`~repro.prepropagation.versions.VersionedStore`).  Purely
        informational until :meth:`adopt_store` swaps a newer version in.
    """

    def __init__(
        self,
        store: FeatureStore,
        config: Optional[ServingConfig] = None,
        *,
        graph=None,
        model=None,
        store_version: str = "base",
    ) -> None:
        if model is not None:
            model.check_store(store)
        self.store = store
        self.config = config if config is not None else ServingConfig()
        self._model = model
        self.num_rows = store.num_rows
        self.num_matrices = store.num_matrices
        self.feature_dim = store.feature_dim
        self.dtype = np.dtype(store.dtype)

        #: the store version every answer is currently pinned to
        self.store_version = str(store_version)
        #: version name of an announced in-flight update, if any
        self._update_pending: Optional[str] = None
        #: outcome of the most recent update affecting this engine
        self._last_update: Optional[dict] = None

        self.stats = ServingStats()
        #: serializes every store gather against a version swap
        self._gather_lock = threading.Lock()
        self._cond = threading.Condition()
        self._pending: "OrderedDict[int, _Entry]" = OrderedDict()
        self._inflight: dict[int, _Entry] = {}
        self._closed = False
        self._draining = False
        self._latencies: deque = deque(maxlen=self.config.latency_window)
        self._thread = threading.Thread(target=self._serve_loop, name="ppgnn-serving", daemon=True)
        self._thread.start()
        logger.debug(
            "serving engine up: %d rows, max_pending=%s", self.num_rows, self.config.max_pending
        )

    # ------------------------------------------------------------------ #
    # synchronous paths
    # ------------------------------------------------------------------ #
    def fetch(self, rows: Sequence[int]) -> np.ndarray:
        """Synchronous gather, no coalescing: one fused gather from the store.

        The lowest-latency path for a caller already holding a batch of ids,
        and the one every dispatch takes.  Returns the ``(M, B, F)`` block
        in request order; a duplicate id is simply gathered again.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        out = np.empty((self.num_matrices, rows.size, self.feature_dim), dtype=self.dtype)
        with self._gather_lock:
            self._gather_rows(rows, out)
        return out

    #: the reference the coalesced path must match — the same gather as :meth:`fetch`
    gather_direct = fetch

    def predict(self, rows: Sequence[int]) -> np.ndarray:
        """Class predictions for ``rows`` via the attached PP-GNN model.

        The gather reads only the model's :attr:`~repro.models.base.PPGNNModel.inputs`
        matrices, under the same lock and fault point as :meth:`fetch`.
        """
        if self._model is None:
            raise RuntimeError("this engine was built without a model; predictions unavailable")
        inputs = self._model.inputs
        rows = np.asarray(rows, dtype=np.int64).ravel()
        feats = np.empty((len(inputs), rows.size, self.feature_dim), dtype=self.dtype)
        with self._gather_lock:
            self._gather_rows(rows, feats, inputs)
        self._model.eval()
        logits = self._model(feats)
        return np.argmax(logits.data, axis=-1)

    # ------------------------------------------------------------------ #
    # coalesced path
    # ------------------------------------------------------------------ #
    def submit(self, row: int, *, deadline_seconds: Optional[float] = None) -> Future:
        """Enqueue one node-id query; resolves to its ``(M, F)`` block.

        Duplicate ids waiting for the dispatcher — and ids whose batch is
        already being gathered — share a single gather and bypass admission
        control (they add no gather work).  A new distinct id must pass admission:
        when the pending queue holds ``max_pending`` ids the request is shed
        with :class:`OverloadError` (``shed_policy="reject"``) or blocks up to
        ``admission_timeout_seconds`` for space (``"block"``).

        ``deadline_seconds`` (default ``config.default_deadline_seconds``)
        bounds how long the request may wait before the dispatcher drops it
        with :class:`DeadlineExceeded` instead of gathering for it.
        """
        row = int(row)
        if not 0 <= row < self.num_rows:
            raise IndexError(f"row {row} out of range [0, {self.num_rows})")
        cfg = self.config
        future: Future = Future()
        now = time.monotonic()
        ttl = deadline_seconds if deadline_seconds is not None else cfg.default_deadline_seconds
        deadline = now + ttl if ttl is not None else _NEVER
        admit_deadline: Optional[float] = None
        with self._cond:
            self._ensure_open()
            self.stats.requests += 1
            while True:
                entry = self._inflight.get(row)
                if entry is not None:
                    entry.join(future, now, deadline)
                    self.stats.coalesced_inflight += 1
                    return future
                entry = self._pending.get(row)
                if entry is not None:
                    entry.join(future, now, deadline)
                    self.stats.coalesced_window += 1
                    return future
                if cfg.max_pending is None or len(self._pending) < cfg.max_pending:
                    self._pending[row] = _Entry(future, now, deadline)
                    self._cond.notify()
                    return future
                # queue full: shed now, or block for space up to the timeout
                if cfg.shed_policy == "reject":
                    self.stats.shed += 1
                    raise OverloadError(
                        f"pending queue full ({len(self._pending)}/{cfg.max_pending} "
                        f"distinct ids); request for row {row} shed"
                    )
                if admit_deadline is None:
                    admit_deadline = now + cfg.admission_timeout_seconds
                remaining = admit_deadline - time.monotonic()
                if remaining <= 0:
                    self.stats.shed += 1
                    raise OverloadError(
                        f"no queue space within admission timeout "
                        f"({cfg.admission_timeout_seconds}s); request for row {row} shed"
                    )
                self._cond.wait(timeout=remaining)
                self._ensure_open()

    def query(
        self,
        rows: Sequence[int],
        timeout: Optional[float] = None,
        *,
        deadline_seconds: Optional[float] = None,
    ) -> np.ndarray:
        """Submit every id in ``rows`` and block for the assembled block.

        Goes through the coalescer (unlike :meth:`fetch`), so concurrent
        callers share gathers.  Returns ``(M, B, F)`` in request order.

        On any failure — a ``timeout`` expiry, a shed submit, a typed
        per-request error — every other future this call created is cancelled
        or drained before the exception propagates, so no future leaks past
        the call.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        futures: List[Future] = []
        try:
            for row in rows:
                futures.append(self.submit(row, deadline_seconds=deadline_seconds))
            out = np.empty((self.num_matrices, rows.size, self.feature_dim), dtype=self.dtype)
            for i, future in enumerate(futures):
                out[:, i, :] = future.result(timeout=timeout)
            return out
        except BaseException:
            self._abandon_futures(futures)
            raise

    def drain_latencies(self) -> np.ndarray:
        """Return (and clear) per-request latencies in seconds, oldest first."""
        with self._cond:
            values = np.asarray(self._latencies, dtype=np.float64)
            self._latencies.clear()
        return values

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _ensure_open(self) -> None:
        """Caller holds ``_cond``."""
        if self._closed:
            raise RuntimeError("cannot submit to a closed ServingEngine")
        if self._draining:
            raise RuntimeError("ServingEngine is draining; admission closed")

    def _abandon_futures(self, futures: Sequence[Future]) -> None:
        """Cancel this call's undone futures and prune emptied pending entries."""
        with self._cond:
            for future in futures:
                if not future.done():
                    future.cancel()
            for row in list(self._pending.keys()):
                entry = self._pending[row]
                live = [waiter for waiter in entry.futures if not waiter[0].cancelled()]
                if live:
                    entry.futures = live
                else:
                    del self._pending[row]
            self._cond.notify_all()  # queue space may have freed for blocked admits

    # A future is settled by whoever holds its entry: the dispatcher that
    # claimed it, ``close`` once it takes the entry from the dispatcher, or
    # the deadline pass that takes the waiter out of it.  So it is settled
    # once; the only race left is the caller cancelling it.
    @staticmethod
    def _resolve(future: Future, block: np.ndarray) -> None:
        if future.set_running_or_notify_cancel():
            future.set_result(block)

    @staticmethod
    def _fail(future: Future, exc: BaseException) -> None:
        if future.set_running_or_notify_cancel():
            future.set_exception(exc)

    def _serve_loop(self) -> None:
        while True:
            with self._cond:
                while not self._closed and not self._pending:
                    self._cond.wait()
                if not self._pending:
                    return  # closed and flushed
                # work-conserving claim: everything that queued up while the
                # previous dispatch ran leaves now, as one batch
                now = time.monotonic()
                batch = self._pending
                self._pending = OrderedDict()
                expired = self._drop_expired(batch, now)
                self._inflight.update(batch)
                self._cond.notify_all()  # queue space freed: wake blocked admits
            for future, enqueued, deadline in expired:
                self._fail(
                    future,
                    DeadlineExceeded(
                        f"request waited {now - enqueued:.3f}s, past its "
                        f"{deadline - enqueued:.3f}s deadline"
                    ),
                )
            if not batch:
                continue
            try:
                self._dispatch(batch)
            except BaseException as exc:
                logger.exception("serving dispatch of %d row(s) failed", len(batch))
                self._fail_batch(batch, exc)
                if not isinstance(exc, Exception):
                    raise  # an exit request ends the dispatcher; anything else fails one batch

    def _drop_expired(self, batch: "OrderedDict[int, _Entry]", now: float) -> List[_Waiter]:
        """Deadline pass: take expired waiters out of ``batch`` before paying for their gather.

        Caller holds ``_cond``.  Entries left with no live waiter leave the
        batch; the expired waiters are returned for the caller to fail.
        """
        expired: List[_Waiter] = []
        for row in [row for row, entry in batch.items() if entry.expires < now]:
            entry = batch[row]
            live = []
            for waiter in entry.futures:
                if not waiter[0].cancelled():
                    (expired if waiter[2] < now else live).append(waiter)
            if live:
                entry.futures = live
                entry.expires = min(waiter[2] for waiter in live)
            else:
                del batch[row]
        self.stats.expired += len(expired)
        return expired

    def _dispatch(self, batch: "OrderedDict[int, _Entry]") -> None:
        cfg = self.config
        rows = np.fromiter(batch, dtype=np.int64, count=len(batch))
        attempt = 0
        while True:
            try:
                blocks = self.fetch(rows)
                break
            except Exception as exc:
                if attempt >= cfg.gather_retries:
                    self._fail_batch(batch, exc)
                    return
                attempt += 1
                self.stats.retried += 1
                logger.warning(
                    "serve gather failed (retry %d/%d): %s", attempt, cfg.gather_retries, exc
                )
                time.sleep(min(cfg.gather_backoff_seconds * (2 ** (attempt - 1)), 1.0))
        # every answer is copied out before the first future resolves: a copy
        # releases the GIL, and a waiter already woken would take it each time
        answers = [np.ascontiguousarray(blocks[:, i, :]) for i in range(len(batch))]
        done = time.monotonic()
        with self._cond:
            owned = self._release(batch)
            self.stats.batches += 1
            self._latencies.extend(done - waiter[1] for _, entry in owned for waiter in entry.futures)
        for i, entry in owned:
            for waiter in entry.futures:
                self._resolve(waiter[0], answers[i])

    def _fail_batch(self, batch: "OrderedDict[int, _Entry]", exc: BaseException) -> None:
        with self._cond:
            owned = self._release(batch)
            self.stats.gather_errors += 1
        for _, entry in owned:
            for future, _, _ in entry.futures:
                self._fail(future, exc)

    def _release(self, batch: "OrderedDict[int, _Entry]") -> List[Tuple[int, _Entry]]:
        """Take ``batch`` out of ``_inflight``; its ``(position, entry)`` pairs still to settle.

        Caller holds ``_cond``.  An entry ``close`` already took (and failed)
        is not returned.  Once out of ``_inflight`` no future can join an
        entry, so ``entry.futures`` is final.
        """
        owned = [
            (i, entry)
            for i, (row, entry) in enumerate(batch.items())
            if self._inflight.pop(row, None) is entry
        ]
        self._cond.notify_all()  # wake the drain waiter in close()
        return owned

    def _take_all(self) -> List[_Waiter]:
        """Empty the queue and the in-flight set; every waiter in them.  Caller holds ``_cond``."""
        waiters = [
            waiter
            for entries in (self._pending, self._inflight)
            for entry in entries.values()
            for waiter in entry.futures
        ]
        self._pending = OrderedDict()
        self._inflight.clear()
        return waiters

    def _gather_rows(
        self, rows: np.ndarray, out: np.ndarray, inputs: Optional[range] = None
    ) -> None:
        """Fill ``out`` with the store blocks for ``rows`` (the ``inputs`` matrices
        only, when given); caller holds ``_gather_lock``."""
        fault_point("serve.gather", num_rows=int(rows.size))
        self.store.gather_packed(rows, out=out, inputs=inputs)

    # ------------------------------------------------------------------ #
    # zero-downtime store version swap (epoch protection)
    # ------------------------------------------------------------------ #
    def begin_update(self, version: str) -> None:
        """Announce an in-flight update targeting ``version``.

        Serving continues unchanged, pinned to the current version; the
        pending update is surfaced in :meth:`health` so operators can see a
        swap is coming (and, if it fails, why answers are stale).
        """
        with self._cond:
            self._update_pending = str(version)
            self._last_update = {
                "status": "in_progress",
                "version": str(version),
                "error": None,
                "serving_stale": False,
            }

    def abort_update(self, error: BaseException) -> None:
        """Record that the announced update failed before reaching this engine.

        The engine keeps answering from its pinned version — stale relative
        to the intent, but never torn — and :meth:`health` reports the typed
        failure until a later update succeeds.
        """
        with self._cond:
            version = self._update_pending
            self._update_pending = None
            self._last_update = {
                "status": "failed",
                "version": version,
                "error": f"{type(error).__name__}: {error}",
                "serving_stale": True,
            }

    def adopt_store(
        self,
        store: FeatureStore,
        *,
        version: str,
        invalidate_rows: Optional[np.ndarray] = None,
    ) -> None:
        """Atomically swap serving onto a new store version.

        The swap is a reference swap under the gather lock, so every dispatch
        batch reads entirely from one version — a batch is pinned to the
        version it started under and no reader ever sees a torn row.  Every
        gather after the swap reads the new version, so no row needs
        invalidating.  ``store`` must match the served store's shape, dtype
        and node ids.

        ``invalidate_rows`` is ignored; removed with ``bench/``'s serving
        config in the follow-up.  On any swap failure the engine keeps
        serving the old version bit-identically and raises
        :class:`~repro.updates.errors.UpdateSwapError`; the stale state is
        surfaced via :meth:`health`.
        """
        version = str(version)
        problem: Optional[str] = None
        if (
            store.num_rows != self.num_rows
            or store.num_matrices != self.num_matrices
            or store.feature_dim != self.feature_dim
            or np.dtype(store.dtype) != self.dtype
        ):
            problem = (
                f"store {version!r} shape/dtype mismatch: "
                f"({store.num_matrices}, {store.num_rows}, {store.feature_dim}) "
                f"{np.dtype(store.dtype)} vs served "
                f"({self.num_matrices}, {self.num_rows}, {self.feature_dim}) {self.dtype}"
            )
        elif not np.array_equal(store.node_ids, self.store.node_ids):
            problem = f"store {version!r} covers different node ids than the served store"
        if problem is not None:
            error = UpdateSwapError(problem)
            self.abort_update(error)
            raise error
        try:
            fault_point("update.swap", stage="engine", version=version)
        except BaseException as exc:
            self.abort_update(exc)
            raise UpdateSwapError(
                f"swap to store version {version!r} failed; serving stays pinned "
                f"to {self.store_version!r}"
            ) from exc
        with self._gather_lock:
            self.store = store
        with self._cond:
            previous = self.store_version
            self.store_version = version
            self._update_pending = None
            self._last_update = {
                "status": "applied",
                "version": version,
                "error": None,
                "serving_stale": False,
            }
        logger.info("serving swapped store version %s -> %s", previous, version)

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """One dict of engine counters (for logs and benchmarks)."""
        return self.stats.snapshot()

    def health(self) -> dict:
        """Readiness/liveness snapshot for load balancers and operators.

        ``live`` — the dispatcher thread is running and the engine is open;
        ``ready`` — live, and admitting new submissions (not draining).
        """
        with self._cond:
            live = self._thread.is_alive() and not self._closed
            queue_depth = len(self._pending)
            inflight = len(self._inflight)
            draining = self._draining
            closed = self._closed
            store_version = self.store_version
            update_pending = self._update_pending
            last_update = dict(self._last_update) if self._last_update else None
        stats = self.snapshot()
        max_pending = self.config.max_pending
        return {
            "live": live,
            "ready": live and not draining,
            "draining": draining,
            "closed": closed,
            "queue_depth": queue_depth,
            "inflight": inflight,
            "max_pending": max_pending,
            "saturated": max_pending is not None and queue_depth >= max_pending,
            "shed": stats["shed"],
            "shed_rate": stats["shed"] / max(stats["requests"], 1),
            "expired": stats["expired"],
            "retried": stats["retried"],
            "store_version": store_version,
            "update": {
                "status": last_update["status"] if last_update else "idle",
                "version": last_update["version"] if last_update else None,
                "pending_version": update_pending,
                "error": last_update["error"] if last_update else None,
                "serving_stale": bool(last_update and last_update["serving_stale"]),
            },
        }

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admission, then flush or abandon the queue.

        ``drain=True`` (default) lets the dispatcher flush every pending
        request within ``timeout`` (default ``config.drain_timeout_seconds``);
        requests still unanswered at the deadline fail with
        :class:`DeadlineExceeded`.  ``drain=False`` fails all pending and
        claimed requests immediately.  Either way every outstanding future
        resolves — to data or a typed error — before this returns.  The
        dispatcher is waited for only until the same deadline: one still
        inside a slow gather exits when it returns, with nothing left to
        answer.  The store stays open: it belongs to the caller.
        """
        budget = timeout if timeout is not None else self.config.drain_timeout_seconds
        deadline = time.monotonic() + budget
        abandoned: List[_Waiter] = []
        timed_out = False
        with self._cond:
            if self._closed:
                return
            self._draining = True
            self._closed = True
            self._cond.notify_all()
            if not drain:
                abandoned = self._take_all()
            while self._pending or self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    timed_out = True
                    abandoned = self._take_all()
                    break
                self._cond.wait(timeout=remaining)
        if timed_out:
            error: Exception = DeadlineExceeded(
                f"drain deadline ({budget}s) exceeded; {len(abandoned)} request(s) abandoned"
            )
        else:
            error = RuntimeError("ServingEngine closed before dispatch")
        for future, _, _ in abandoned:
            self._fail(future, error)
        self._thread.join(timeout=max(deadline - time.monotonic(), 0.0))
        self._draining = False

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
