"""One process-wide budget of evaluating threads, and the task helpers
that run on it.

``thread_bound()`` is the number of threads that may evaluate integrands
at once: ``STRESSDIST_THREADS`` when set and nonzero, else the usable CPU
count.  The budget holds that many lanes.  A ``batch`` worker holds one
lane per scenario (``holding_lane`` waits for it).  ``map_blocks`` runs
indexed pool tasks; ``geometry`` makes each task one integrand call on
one or more whole sum blocks (``geometry._task_size``), so the bound also
sets how large a task is.  It lets the calling thread evaluate tasks
itself and adds helper threads only on lanes it takes without waiting, so
a caller that finds no free lane does all the work alone and no thread
ever waits for a lane while holding one: the pool cannot deadlock.  Within stressdist no more threads than the
bound evaluate at once; threads a library caller starts itself count only
while they hold lanes.

Importing this module starts no thread; the helper threads are created on
first use.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor

from .errors import ConfigError

# set while this context evaluates blocks (the caller's own walk and every
# helper's copy of it): a nested map_blocks runs inline
_IN_BLOCKS = contextvars.ContextVar("stressdist_in_blocks", default=False)
# set while this context holds a lane it took in ``holding_lane``
_HOLDS_LANE = contextvars.ContextVar("stressdist_holds_lane", default=False)


def thread_bound():
    """``STRESSDIST_THREADS`` when set and nonzero, else the number of CPUs
    this process may run on.  Anything but a non-negative integer raises
    ``ConfigError``."""
    raw = os.environ.get("STRESSDIST_THREADS", "0")
    if not raw.isdecimal():
        raise ConfigError(
            f"STRESSDIST_THREADS must be a non-negative integer, got {raw!r}")
    if int(raw):
        return int(raw)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Budget:
    """Lanes of the bound in use, and the executor their helpers run on."""

    def __init__(self):
        self._cond = threading.Condition()
        self._busy = 0
        self._executor = None
        self._workers = 0

    def take(self, want):
        """Take up to ``want`` free lanes without waiting; returns how many."""
        with self._cond:
            got = max(0, min(want, thread_bound() - self._busy))
            self._busy += got
            return got

    def take_one_waiting(self):
        with self._cond:
            while self._busy >= thread_bound():
                self._cond.wait()
            self._busy += 1

    def give(self, n):
        with self._cond:
            self._busy -= n
            self._cond.notify_all()

    def executor(self, helpers):
        """An executor with room for ``helpers`` concurrent helpers.  A wider
        bound replaces it; callers still using the old one keep it alive,
        and its threads exit once it is collected."""
        with self._cond:
            if self._workers < helpers:
                self._workers = max(helpers, thread_bound() - 1)
                self._executor = ThreadPoolExecutor(
                    self._workers, thread_name_prefix="stressdist-block")
            return self._executor


_BUDGET = _Budget()


@contextlib.contextmanager
def holding_lane():
    """Hold one lane of the budget inside the block, waiting for it if none
    is free (a ``batch`` worker runs each scenario this way)."""
    _BUDGET.take_one_waiting()
    token = _HOLDS_LANE.set(True)
    try:
        yield
    finally:
        _HOLDS_LANE.reset(token)
        _BUDGET.give(1)


def map_blocks(fn, n):
    """``[fn(0), ..., fn(n - 1)]``, evaluated by the caller and by helpers on
    free lanes of the budget.

    Helpers claim the next index from a shared counter and run each in its
    own copy of the caller's ``contextvars`` context.  The results come back
    in index order, whoever computed them.  When ``fn`` raises, no further
    index is claimed, and the error of the lowest failing index is raised:
    every lower index was claimed before it and has completed, so this is
    the error a serial walk would raise.
    """
    if n < 2 or _IN_BLOCKS.get():
        return [fn(i) for i in range(n)]
    # the caller evaluates on its batch lane or on one it takes here; with
    # no lane of its own it works alone
    holds = _HOLDS_LANE.get()
    own = 0 if holds else _BUDGET.take(1)
    helpers = _BUDGET.take(n - 1) if holds or own else 0
    token = _IN_BLOCKS.set(True)
    try:
        if helpers == 0:
            return [fn(i) for i in range(n)]
        results = [None] * n
        errors = {}
        lock = threading.Lock()
        state = {"next": 0}

        def work():
            while True:
                with lock:
                    i = state["next"]
                    if i >= n or errors:
                        return
                    state["next"] = i + 1
                try:
                    results[i] = fn(i)
                except Exception as exc:
                    with lock:
                        errors[i] = exc
                    return

        pool = _BUDGET.executor(helpers)
        futures = [pool.submit(contextvars.copy_context().run, work)
                   for _ in range(helpers)]
        try:
            work()
        finally:
            # a helper that has not started is withdrawn; the others end
            # once the counter is spent
            for fut in futures:
                if not fut.cancel():
                    fut.result()
    finally:
        _IN_BLOCKS.reset(token)
        _BUDGET.give(own + helpers)
    if errors:
        raise errors[min(errors)]
    return results
