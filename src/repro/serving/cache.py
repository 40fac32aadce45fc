"""Hot-node hop cache for the serving tier.

Real inference traffic is heavily skewed (a Zipfian handful of hub nodes
receives most queries), so a small cache of fully-assembled per-node hop
blocks turns the common case into a single ``(M, F)`` copy instead of a
fused gather across the packed store.  The cache holds one entry per store
row — the exact ``(num_matrices, feature_dim)`` block the engine would
otherwise assemble (post node-adaptive truncation, so hits and misses are
bit-identical) — in a single preallocated slab, with two eviction policies:

* ``"lru"`` — exact least-recently-used via an ordered dict;
* ``"clock"`` — second-chance/clock: one reference bit per slot and a
  sweeping hand, the classic O(1)-per-eviction approximation of LRU.

The cache is deliberately not thread-safe: the :class:`~repro.serving.
engine.ServingEngine` serializes every lookup/insert behind its gather lock,
which keeps the hot path free of per-entry locking.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["CACHE_POLICIES", "CacheStats", "HopCache"]

#: eviction policies :class:`HopCache` implements
CACHE_POLICIES = ("lru", "clock")


@dataclass
class CacheStats:
    """Lookup/eviction counters since construction (or the last ``clear``)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "insertions": self.insertions,
            "hit_rate": self.hit_rate,
        }


class HopCache:
    """Fixed-capacity cache of per-node ``(num_matrices, feature_dim)`` blocks.

    Entries live in one preallocated ``(M, capacity, F)`` slab — the packed
    store's own layout, so a batch of hits is one ``np.take`` along the slot
    axis — and the cache never allocates on the hot path; ``get`` returns a
    read view into the slab that is valid until the entry is evicted.

    :meth:`get_many` / :meth:`put_many` are the engine's path; they leave the
    cache in exactly the state the same rows passed one by one to
    :meth:`get` / :meth:`put` would (same hits, same victims, same counters).
    """

    def __init__(
        self,
        capacity: int,
        num_matrices: int,
        feature_dim: int,
        dtype,
        policy: str = "lru",
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if policy not in CACHE_POLICIES:
            raise ValueError(f"unknown cache policy {policy!r}; expected one of {CACHE_POLICIES}")
        self.policy = policy
        self._lru = policy == "lru"
        self._slab = np.empty((num_matrices, capacity, feature_dim), dtype=np.dtype(dtype))
        # row -> slot; under lru also the recency order, oldest first
        self._slot_of: "OrderedDict[int, int]" = OrderedDict()
        self._node_of = [-1] * capacity
        self._free = list(range(capacity - 1, -1, -1))  # pop() hands out slot 0 first
        self.stats = CacheStats()
        # clock bookkeeping: one second-chance bit per slot plus the hand
        self._referenced = np.zeros(capacity, dtype=bool)
        self._hand = 0

    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        return int(self._slab.shape[1])

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, row: int) -> bool:
        return int(row) in self._slot_of

    def entry_nbytes(self) -> int:
        """Bytes of one cached block (the unit cache budgets divide by)."""
        return int(self._slab[:, 0, :].nbytes)

    # ------------------------------------------------------------------ #
    def get(self, row: int) -> Optional[np.ndarray]:
        """Return the cached ``(M, F)`` block for ``row`` (or ``None`` on miss).

        A hit refreshes the entry's recency (LRU order / clock reference bit).
        """
        row = int(row)
        slot = self._slot_of.get(row)
        if slot is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if self._lru:
            self._slot_of.move_to_end(row)
        else:
            self._referenced[slot] = True
        return self._slab[:, slot, :]

    def get_many(self, rows: Sequence[int], out: np.ndarray) -> List[int]:
        """Copy the cached blocks of ``rows`` into ``out``; return the misses.

        ``rows`` are Python ints and ``out`` is ``(M, len(rows), F)``: a hit at
        position ``i`` fills ``out[:, i, :]``; the returned list holds the
        positions that missed, ascending.  Equivalent to ``get`` per row.
        """
        slot_of = self._slot_of
        slots = [slot_of.get(row, -1) for row in rows]
        misses = [i for i, slot in enumerate(slots) if slot < 0]
        self.stats.misses += len(misses)
        if len(misses) == len(slots):
            return misses
        self.stats.hits += len(slots) - len(misses)
        if misses:
            hits = [i for i, slot in enumerate(slots) if slot >= 0]
            slots = [slots[i] for i in hits]
            out[:, hits, :] = np.take(self._slab, slots, axis=1)
            rows = [rows[i] for i in hits]
        else:
            np.take(self._slab, slots, axis=1, out=out, mode="clip")
        if self._lru:
            for row in rows:
                slot_of.move_to_end(row)
        else:
            self._referenced[slots] = True
        return misses

    def put(self, row: int, block: np.ndarray) -> None:
        """Insert (or refresh) the block for ``row``, evicting if full."""
        self._slab[:, self._claim(int(row)), :] = block

    def put_many(self, rows: Sequence[int], blocks: np.ndarray) -> None:
        """Insert (or refresh) ``blocks[:, i, :]`` for each of ``rows``.

        ``rows`` are distinct Python ints.  Equivalent to ``put`` per row: a
        batch longer than ``capacity`` evicts its own head, so it is written
        in runs of at most ``capacity`` rows, within which no slot repeats.
        """
        capacity = self.capacity
        for start in range(0, len(rows), capacity):
            slots = [self._claim(row) for row in rows[start : start + capacity]]
            self._slab[:, slots, :] = blocks[:, start : start + len(slots), :]

    def _claim(self, row: int) -> int:
        """The slot ``row`` is to be written to, marked most recently used."""
        slot = self._slot_of.get(row)
        if slot is None:
            slot = self._free.pop() if self._free else self._evict()
            self._slot_of[row] = slot
            self._node_of[slot] = row
            self.stats.insertions += 1
        elif self._lru:
            self._slot_of.move_to_end(row)
        if not self._lru:
            self._referenced[slot] = True
        return slot

    def _evict(self) -> int:
        self.stats.evictions += 1
        if self._lru:
            _, slot = self._slot_of.popitem(last=False)
            self._node_of[slot] = -1
            return slot
        # clock: sweep the hand, granting one second chance per referenced slot
        while True:
            slot = self._hand
            self._hand = (self._hand + 1) % self.capacity
            if self._referenced[slot]:
                self._referenced[slot] = False
                continue
            victim_row = self._node_of[slot]
            if victim_row >= 0:
                del self._slot_of[victim_row]
                self._node_of[slot] = -1
                return slot

    def invalidate(self, rows) -> int:
        """Drop the entries for ``rows`` (store row indices); return drop count.

        Used on store-version swaps: only the rows an update patched change
        bytes, so the rest of the cache stays hot across the swap.  Unknown
        rows are ignored; statistics are preserved (unlike :meth:`clear`).
        """
        dropped = 0
        for row in np.asarray(rows, dtype=np.int64).ravel().tolist():
            slot = self._slot_of.pop(row, None)
            if slot is None:
                continue
            self._node_of[slot] = -1
            self._referenced[slot] = False
            self._free.append(slot)
            dropped += 1
        return dropped

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        self._slot_of.clear()
        self._node_of = [-1] * self.capacity
        self._free = list(range(self.capacity - 1, -1, -1))
        self._referenced.fill(False)
        self._hand = 0
        self.stats = CacheStats()
