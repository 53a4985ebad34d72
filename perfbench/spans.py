"""Benchmark-side spans around the program's public layer entry points.

The traced run patches each entry point (a class method or a module
function) with a wrapper that records one span per call: a name, start
and end on ``time.perf_counter``, and the span that was open in the
caller when the call began.  Parents follow ``contextvars``, so nesting
is exact within one thread or one asyncio task; work handed to another
thread (the micro-batcher's executor, shard pools) starts a new root.

Spans stay in memory as flat arrays and are analysed once the run ends:
:func:`self_times` subtracts from each span the part of its interval that
its children cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import math
import threading
import time
from array import array

import numpy as np

__all__ = ["SpanLog", "self_times"]

_OPEN = contextvars.ContextVar("perfbench_open_span", default=-1)

#: Spans written out per run; the rest are summarised in the metrics.
SPAN_FILE_LIMIT = 20000


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    ``parent[i]`` is the row of span ``i``'s parent, or ``-1`` for a
    root.  Children are clipped to their parent's interval, and
    overlapping children are counted once, so a span's self time is
    never negative and the self times of a tree sum to its root's
    duration.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    covered = np.zeros(len(start))
    kids = np.flatnonzero(parent >= 0)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    current, reach = -1, 0.0
    for child in order.tolist():
        p = int(parent[child])
        if p != current:
            current, reach = p, float(start[p])
        lo = max(float(start[child]), reach)
        hi = min(float(end[child]), float(end[p]))
        if hi > lo:
            covered[p] += hi - lo
        reach = max(reach, hi)
    return (end - start) - covered


class SpanLog:
    """Thread-safe in-memory span store plus the entry-point patcher."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._idx = array("q")
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._obs = array("d")
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _add(
        self, idx: int, nid: int, parent: int, t0: float, t1: float, obs: float
    ) -> None:
        with self._lock:
            self._idx.append(idx)
            self._name.append(nid)
            self._parent.append(parent)
            self._start.append(t0)
            self._end.append(t1)
            self._obs.append(obs)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code around a block."""
        nid = self._name_id(name)
        idx = next(self._seq)
        parent = _OPEN.get()
        token = _OPEN.set(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            _OPEN.reset(token)
            self._add(idx, nid, parent, t0, t1, math.nan)

    def _wrapper(self, fn, name: str, observe):
        nid = self._name_id(name)
        seq, add = self._seq, self._add
        clock = time.perf_counter
        nan = math.nan

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                idx = next(seq)
                parent = _OPEN.get()
                token = _OPEN.set(idx)
                t0 = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    _OPEN.reset(token)
                    add(idx, nid, parent, t0, t1, nan)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = next(seq)
            parent = _OPEN.get()
            token = _OPEN.set(idx)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                _OPEN.reset(token)
                obs = nan if observe is None or result is None else observe(result)
                add(idx, nid, parent, t0, t1, obs)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a class (the method is looked up in its own
        ``__dict__``, never inherited) or a module.  ``observe`` maps
        each call's result to a number kept with its span.
        """
        fn = owner.__dict__[attr]
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self._wrapper(fn, name, observe))

    def clear(self) -> None:
        """Drop every recorded span (patches stay in place)."""
        with self._lock:
            for column in (self._idx, self._name, self._parent, self._start,
                           self._end, self._obs):
                del column[:]

    def unpatch(self) -> None:
        """Restore every patched entry point, newest first."""
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # -- analysis --------------------------------------------------------------

    def table(self) -> dict[str, np.ndarray]:
        """All finished spans as arrays, parents resolved to row numbers.

        A span whose parent never finished (still open when the table
        is taken) is treated as a root.
        """
        with self._lock:
            idx = np.frombuffer(self._idx, dtype=np.int64).copy()
            name = np.frombuffer(self._name, dtype=np.int32).copy()
            parent_idx = np.frombuffer(self._parent, dtype=np.int64).copy()
            start = np.frombuffer(self._start, dtype=float).copy()
            end = np.frombuffer(self._end, dtype=float).copy()
            obs = np.frombuffer(self._obs, dtype=float).copy()
        row_of = np.full(int(idx.max()) + 1 if idx.size else 1, -1, dtype=np.int64)
        row_of[idx] = np.arange(idx.size)
        parent = np.full(idx.size, -1, dtype=np.int64)
        has = parent_idx >= 0
        parent[has] = row_of[parent_idx[has]]
        root = np.arange(idx.size)
        while True:
            up = parent[root]
            if not (up >= 0).any():
                break
            root = np.where(up >= 0, up, root)
        return {
            "name": name,
            "parent": parent,
            "root": root,
            "start": start,
            "end": end,
            "obs": obs,
            "self": self_times(parent, start, end),
        }

    def rows(self, table: dict[str, np.ndarray], name: str, root: str | None = None) -> np.ndarray:
        """Rows of spans called ``name``, optionally under a root called ``root``."""
        if name not in self._name_ids:
            return np.zeros(0, dtype=np.int64)
        mask = table["name"] == self._name_ids[name]
        if root is not None:
            rid = self._name_ids.get(root, -1)
            mask &= table["name"][table["root"]] == rid
        return np.flatnonzero(mask)

    def write(self, path, table: dict[str, np.ndarray]) -> int:
        """Write the first ``SPAN_FILE_LIMIT`` spans as JSON lines; returns the count."""
        count = min(SPAN_FILE_LIMIT, table["name"].size)
        t0 = float(table["start"].min()) if count else 0.0
        with open(path, "w") as fh:
            for row in range(count):
                fh.write(json.dumps({
                    "row": row,
                    "name": self.names[int(table["name"][row])],
                    "parent": int(table["parent"][row]),
                    "start_us": round((table["start"][row] - t0) * 1e6, 3),
                    "dur_us": round((table["end"][row] - table["start"][row]) * 1e6, 3),
                    "self_us": round(float(table["self"][row]) * 1e6, 3),
                }) + "\n")
        return count
