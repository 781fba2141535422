"""LRU cache of prepared solver sessions.

Session setup is the expensive part of a solve (partitioning, local
factorisations, coarse space, compiled DSS inference plans) and the whole
point of the setup/solve split is to pay it once per *operator*, not once per
request.  :class:`SessionCache` keys prepared
:class:`~repro.solvers.session.SolverSession` objects by their content
fingerprint (:func:`repro.solvers.fingerprint.session_key` — problem bytes ×
config × model/checkpoint content) and evicts least-recently-used entries
beyond ``capacity``.

Concurrency: a miss inserts a *pending* entry and builds outside the cache
lock, so a slow setup never blocks hits on other keys; racing requests for
the same key wait on the pending entry's event instead of building twice.
Eviction only removes ready entries — in-flight requests hold their own
session reference, so an evicted session finishes its work and is then
garbage collected.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional

from ..solvers.session import SolverSession

__all__ = ["SessionCache"]


class _Entry:
    """One cache slot: a session being built or ready (or failed)."""

    __slots__ = ("session", "error", "ready")

    def __init__(self) -> None:
        self.session: Optional[SolverSession] = None
        self.error: Optional[BaseException] = None
        self.ready = threading.Event()


class SessionCache:
    """Thread-safe LRU cache of prepared sessions keyed by fingerprint."""

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    def get_or_create(self, key: str, builder: Callable[[], SolverSession]) -> SolverSession:
        """Return the cached session for ``key``, building it on first use.

        ``builder`` runs outside the cache lock; concurrent callers with the
        same key block until the first builder finishes (and share its
        result or its exception).  A failed build leaves no cache entry
        behind, so the next request retries.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                creator = False
            else:
                entry = _Entry()
                self._entries[key] = entry
                self._misses += 1
                creator = True
                self._evict_locked(exclude=key)

        if creator:
            try:
                entry.session = builder()
            except BaseException as error:  # noqa: BLE001 - propagated to all waiters
                entry.error = error
                with self._lock:
                    # drop the poisoned entry so later requests can retry
                    if self._entries.get(key) is entry:
                        del self._entries[key]
                raise
            finally:
                entry.ready.set()
            return entry.session

        entry.ready.wait()
        if entry.error is not None:
            raise entry.error
        assert entry.session is not None
        return entry.session

    def _evict_locked(self, exclude: str) -> None:
        """Evict ready LRU entries down to capacity (caller holds the lock)."""
        while len(self._entries) > self.capacity:
            victim = None
            for candidate_key, candidate in self._entries.items():
                if candidate_key != exclude and candidate.ready.is_set():
                    victim = candidate_key
                    break
            if victim is None:
                # everything else is still building; allow temporary overflow
                break
            del self._entries[victim]
            self._evictions += 1

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------ #
    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    @property
    def evictions(self) -> int:
        with self._lock:
            return self._evictions

    def hit_rate(self) -> Optional[float]:
        """Hits over lookups since construction (None before any lookup)."""
        with self._lock:
            lookups = self._hits + self._misses
            return (self._hits / lookups) if lookups else None

    def stats(self) -> Dict[str, object]:
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": (self._hits / lookups) if lookups else None,
            }
