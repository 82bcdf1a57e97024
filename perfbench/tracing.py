"""Span tracing for the benchmark, installed from outside the library.

A traced repetition replaces selected module attributes with timing
wrappers.  The attribute is replaced where the *calling* module binds
it (``reweightopt.optim.forward_losses`` is the name ``rgd_step`` looks
up at call time), so the library itself is unchanged and an untraced
repetition runs the original functions.  ``Tracer.installed`` restores
every attribute on exit, also when the workload raises.

Each span records its name, start, end and parent.  Spans are appended
to flat integer arrays in memory and summarised or written out at the
end of the run.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

# Nearest-rank tail percentile: the highest one with at least this many
# samples beyond it, capped at p99 and never below the median.
TAIL_SAMPLES = 10


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, fn):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the call's positional
        arguments returning one (used to split solvers by input size).
        """
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(self._name_id(name(args) if callable(name) else name))
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so each call only increments a count (no span)."""

        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch ``targets`` for the duration of the block, then restore.

        ``targets`` is a list of ``(module, attribute, kind, name)`` with
        ``kind`` either ``"span"`` or ``"count"``.  The same function may
        be patched on several modules; each binding gets its own wrapper.
        """
        saved = []
        try:
            for module, attr, kind, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                wrap = self.span if kind == "span" else self.counter
                setattr(module, attr, wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self):
        """(name_ids, starts, ends, parents) as int64 numpy arrays."""
        return (
            np.frombuffer(self.name_ids, dtype=np.int64),
            np.frombuffer(self.starts, dtype=np.int64),
            np.frombuffer(self.ends, dtype=np.int64),
            np.frombuffer(self.parents, dtype=np.int64),
        )

    def save(self, path) -> None:
        """Write every span as int64 arrays plus the name table (``.npz``)."""
        name_ids, starts, ends, parents = self.arrays()
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_ids=name_ids,
            start_ns=starts,
            end_ns=ends,
            parent=parents,
        )


def self_times_ns(starts, ends, parents) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Children of one span come from a single-threaded call stack, so
    they are sequential and never overlap; the covered time is the sum
    of their durations.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    dur = ends - starts
    covered = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], dur[has_parent])
    return dur - covered


def tail_quantile(count: int) -> float:
    """Highest quantile with ``TAIL_SAMPLES`` samples beyond it, in [0.5, 0.99]."""
    if count <= 0:
        return 0.5
    return min(0.99, max(0.5, 1.0 - TAIL_SAMPLES / count))


def nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile of an ascending array."""
    k = max(1, int(np.ceil(q * sorted_values.size)))
    return float(sorted_values[k - 1])


def span_stats(tracer: Tracer) -> dict:
    """Per span name: calls, p50_us, tail_us (and its quantile), self_s."""
    name_ids, starts, ends, parents = tracer.arrays()
    dur = ends - starts
    self_ns = self_times_ns(starts, ends, parents)
    stats = {}
    for nid, name in enumerate(tracer.names):
        mask = name_ids == nid
        d = np.sort(dur[mask]) / 1e3
        q = tail_quantile(d.size)
        stats[name] = {
            "calls": int(d.size),
            "p50_us": nearest_rank(d, 0.5),
            "tail_us": nearest_rank(d, q),
            "tail_q": q,
            "self_s": float(self_ns[mask].sum()) / 1e9,
        }
    return stats
