"""Bounded, value-keyed memo for quadrature rules and density values."""

from __future__ import annotations

import threading
from collections import OrderedDict


class LruMemo:
    """Least-recently-used map from hashable value keys to computed results.

    Keys are built from values (levels, coordinate bytes, radii), never from
    object identities.  At most ``size`` entries are kept; with a ``budget``
    the least recently used entries are also dropped while the summed
    ``len()`` of the kept values exceeds it, except the two newest: a
    two-level error estimate alternates between a fine and a coarse entry.
    Each entry is written once and never mutated.  The computation runs
    outside the lock, so concurrent callers that miss the same key can at
    worst compute the entry twice.  ``None`` results are returned but not
    stored.
    """

    def __init__(self, size, budget=None):
        self.size = int(size)
        self.budget = budget
        self._entries = OrderedDict()       # key -> (value, len(value))
        self._total = 0
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def get(self, key, compute):
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key][0]
        value = compute()
        if value is None:
            return value
        w = len(value) if self.budget is not None else 0
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key][0]
            self._entries[key] = (value, w)
            self._total += w
            while len(self._entries) > self.size or (
                    self.budget is not None and self._total > self.budget
                    and len(self._entries) > 2):
                _, (_, w_old) = self._entries.popitem(last=False)
                self._total -= w_old
        return value
