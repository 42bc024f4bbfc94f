"""Cross-process observability for the evaluation pipeline.

The Table 1 grid is a benchmark × method × mode matrix where each cell
runs a multi-stage pipeline (compile → data collection → AARA constraint
generation → LP solving → MCMC sampling → posterior summarization).
This module records *where inside a cell* the time goes:

* **spans** — hierarchical timed regions (``with span("lp.solve",
  variables=n):``) carrying wall and CPU time, a monotonic per-process
  id, a parent link (per-thread stack), and ``key=value`` attributes;
* **counters / gauges** — monotonic totals (leapfrog steps, LP
  fallbacks, cache hits, fault firings, …) and point-in-time values
  (acceptance rates);
* a **JSONL event sink** — every process appends complete JSON lines to
  its *own* ``trace-<pid>.jsonl`` file inside the trace directory
  (``O_APPEND`` single-write appends, so lines are atomic and a worker
  killed by the runner's watchdog leaves a valid prefix, never a torn
  file).  The parent merges the per-pid files post-run
  (:mod:`repro.telemetry.chrome`, :mod:`repro.telemetry.summary`).

Fast path
---------
Telemetry is **off** unless enabled explicitly (:func:`enable`) or via
the ``REPRO_TRACE=<dir>`` environment variable (which forked pool
workers inherit).  When off, :func:`span` returns a shared no-op
singleton (no object or dict allocated per call) and :func:`counter` /
:func:`gauge` return after a single module-global flag test, so the
instrumented pipeline is byte-identical in results *and* rng streams
whether tracing is on or off — tracing only ever observes.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

#: environment variable naming the trace directory (inherited by workers)
ENV_TRACE = "REPRO_TRACE"

#: trace file name pattern: one file per writing process
TRACE_FILE_PREFIX = "trace-"
TRACE_FILE_SUFFIX = ".jsonl"

# -- module state (the disabled fast path reads only ``_enabled``) ----------

_enabled = False
_trace_dir: Optional[str] = None
_sink_fd: Optional[int] = None
_sink_pid: Optional[int] = None
_sink_lock = threading.Lock()
_ids = itertools.count(1)  # monotonic span ids (per process)
_local = threading.local()  # .stack: active span stack; .accs: accumulators


def _renew_lock_in_child() -> None:
    """A forked child gets a fresh sink lock.

    ``fork`` copies the lock in whatever state it was in: held by a
    thread of the parent that does not exist in the child, a pool worker
    would block for ever at the first event that reopens its sink.
    """
    global _sink_lock
    _sink_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_lock_in_child)


def enabled() -> bool:
    """Is telemetry recording events?"""
    return _enabled


def enable(trace_dir: Optional[os.PathLike] = None) -> None:
    """Turn recording on, optionally writing events to ``trace_dir``.

    With ``trace_dir=None`` spans are still timed and stage accumulators
    filled (for in-process metrics) but nothing is written to disk.
    """
    global _enabled, _trace_dir, _sink_fd, _sink_pid
    with _sink_lock:
        _close_sink_locked()
        _trace_dir = str(trace_dir) if trace_dir is not None else None
        if _trace_dir is not None:
            os.makedirs(_trace_dir, exist_ok=True)
        _enabled = True


def disable() -> None:
    """Turn recording off and close the sink."""
    global _enabled, _trace_dir
    with _sink_lock:
        _close_sink_locked()
        _trace_dir = None
        _enabled = False


def ensure_from_env() -> bool:
    """Enable from ``REPRO_TRACE`` if set (cheap no-op otherwise).

    Called once per task on the worker side so pools started with any
    start method — not just fork — pick the trace directory up.
    """
    if _enabled:
        return True
    trace_dir = os.environ.get(ENV_TRACE)
    if trace_dir:
        enable(trace_dir)
        return True
    return False


def trace_path() -> Optional[str]:
    """This process's trace file path (None when not writing to disk)."""
    if _trace_dir is None:
        return None
    return os.path.join(_trace_dir, f"{TRACE_FILE_PREFIX}{os.getpid()}{TRACE_FILE_SUFFIX}")


def _close_sink_locked() -> None:
    global _sink_fd, _sink_pid
    if _sink_fd is not None:
        try:
            os.close(_sink_fd)
        except OSError:
            pass
    _sink_fd = None
    _sink_pid = None


def _emit(event: Dict[str, Any]) -> None:
    """Append one event line to this process's trace file.

    A forked pool worker inherits the parent's open fd; the pid check
    reopens a per-worker file so processes never interleave writes.
    Each event is one ``os.write`` on an ``O_APPEND`` fd — atomic for
    these line sizes, so a SIGKILLed worker cannot tear the file.
    """
    global _sink_fd, _sink_pid
    if _trace_dir is None:
        return
    pid = os.getpid()
    if _sink_fd is None or _sink_pid != pid:
        with _sink_lock:
            if _sink_fd is None or _sink_pid != pid:
                _close_sink_locked()
                try:
                    _sink_fd = os.open(
                        trace_path(), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                    )
                    _sink_pid = pid
                except OSError:
                    return
    try:
        os.write(_sink_fd, (json.dumps(event, default=str) + "\n").encode())
    except OSError:
        pass


# -- spans ------------------------------------------------------------------


def _stack() -> List["Span"]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def stage_of(name: str) -> str:
    """A span's pipeline stage: its first dotted name component."""
    return name.split(".", 1)[0]


class _NullSpan:
    """The disabled fast path: one shared, stateless, reusable no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, **_attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


class Span:
    """One timed region; use as a context manager."""

    __slots__ = ("name", "stage", "args", "id", "parent", "ts", "_t0", "_cpu0", "child_time")

    def __init__(self, name: str, args: Dict[str, Any]):
        self.name = name
        self.stage = str(args.pop("stage", None) or stage_of(name))
        self.args = args
        self.id = next(_ids)
        self.parent: Optional[int] = None
        self.ts = 0.0
        self._t0 = 0.0
        self._cpu0 = 0.0
        self.child_time = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (counts, sizes, …)."""
        self.args.update(attrs)

    def __enter__(self) -> "Span":
        stack = _stack()
        if stack:
            self.parent = stack[-1].id
        stack.append(self)
        self.ts = time.time()
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        dur = time.perf_counter() - self._t0
        cpu = time.process_time() - self._cpu0
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1].child_time += dur
        self_time = max(0.0, dur - self.child_time)
        for acc in getattr(_local, "accs", ()):
            acc.add(self.stage, self_time)
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        _emit(
            {
                "ev": "span",
                "name": self.name,
                "stage": self.stage,
                "ts": self.ts,
                "dur": dur,
                "cpu": cpu,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "id": self.id,
                "parent": self.parent,
                "args": self.args,
            }
        )
        return False


def span(name: str, **attrs):
    """A timed region; the shared no-op singleton when telemetry is off."""
    if not _enabled:
        return NULL_SPAN
    return Span(name, attrs)


def counter(name: str, value: float = 1, **attrs) -> None:
    """Record a monotonic increment (one flag test when disabled)."""
    if not _enabled:
        return
    _emit_metric("counter", name, value, attrs)


def gauge(name: str, value: float, **attrs) -> None:
    """Record a point-in-time value (one flag test when disabled)."""
    if not _enabled:
        return
    _emit_metric("gauge", name, value, attrs)


def _emit_metric(kind: str, name: str, value: float, attrs: Dict[str, Any]) -> None:
    stack = _stack()
    _emit(
        {
            "ev": kind,
            "name": name,
            "value": float(value),
            "ts": time.time(),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "parent": stack[-1].id if stack else None,
            "args": attrs,
        }
    )


# -- per-stage wall-clock accumulation (metrics_json's stage aggregates) ----


class StageAccumulator:
    """Sums span *self* times per stage while registered.

    Self time (duration minus direct children) makes the stage totals
    partition the enclosing span exactly: their sum equals the root
    span's duration, so per-cell stage breakdowns add up to the cell's
    wall clock instead of double-counting nested spans.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}

    def add(self, stage: str, seconds: float) -> None:
        self.totals[stage] = self.totals.get(stage, 0.0) + seconds

    def __enter__(self) -> "StageAccumulator":
        accs = getattr(_local, "accs", None)
        if accs is None:
            accs = _local.accs = []
        accs.append(self)
        return self

    def __exit__(self, *_exc) -> bool:
        accs = getattr(_local, "accs", [])
        if self in accs:
            accs.remove(self)
        return False


def stage_totals() -> Optional[StageAccumulator]:
    """An accumulator context when enabled, else None (zero-cost path)."""
    if not _enabled:
        return None
    return StageAccumulator()
