"""Per-layer timing from outside the program.

:class:`LayerTracer` replaces public entry points of each layer with
thin wrappers for the duration of a traced run and restores them after.
The program's own source is never modified: wrapping happens on the
class or module attribute that callers resolve at call time.

Every wrapped call is a frame on a per-thread stack. A frame's *self*
time is its duration minus the durations of the wrapped calls nested in
it, so the self times of one thread should telescope to the time that
thread spent inside top-level frames. That time is also summed on its
own, straight from each top-level frame's start and end, and
``closure_error`` compares the two: nested time subtracted from the
wrong frame, twice, or not at all shows there. Time a thread spends
outside every wrapped call (the gaps between its top-level frames, and
the window's edges) is reported as unattributed; top-level time plus
gaps is the window by construction, so the check says nothing about
what the wrappers do not cover.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class _ThreadState:
    """One thread's frame stack and its own accumulators (no locking)."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        # (phase, layer) -> [calls, self seconds]
        self.stats: dict[tuple[str, str], list] = defaultdict(
            lambda: [0, 0.0]
        )
        # (phase, counter) -> value
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        # phase -> seconds inside top-level frames
        self.top: dict[str, float] = defaultdict(float)
        # phase -> seconds between top-level frames / end of the last one
        self.gaps: dict[str, float] = defaultdict(float)
        self.last_exit: dict[str, float] = {}


class LayerTracer:
    """Wraps layer entry points and attributes wall time to them.

    Recording happens only between :meth:`start` and :meth:`stop`; the
    wrappers stay installed (and nearly free) outside that window.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self._phase: str | None = None
        self._window: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def wrap(self, owner, attr, layer, merge_under=(), on_exit=None):
        """Time ``owner.attr`` as ``layer``.

        ``merge_under``: layers whose nested calls of this function are
        their own work (compaction replays the log it rewrites), so no
        frame is opened under them. ``on_exit(state_counts, phase, args,
        result, top)`` records counts; ``top`` is false when the call is
        nested in another call of the same layer.
        """
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            phase = tracer._phase
            if phase is None:
                return original(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] in merge_under:
                return original(*args, **kwargs)
            started = _clock()
            if parent is None:
                state.gaps[phase] += started - state.last_exit.get(
                    phase, tracer._window[phase][0]
                )
            frame = [layer, started, 0.0]
            stack.append(frame)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                ended = _clock()
                stack.pop()
                duration = ended - started
                cell = state.stats[(phase, layer)]
                cell[0] += 1
                cell[1] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                else:
                    state.top[phase] += duration
                    state.last_exit[phase] = ended
                if on_exit is not None:
                    on_exit(
                        state.counts,
                        phase,
                        args,
                        result,
                        parent is None or parent[0] != layer,
                    )

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def count(self, owner, attr, on_exit):
        """Record counts from ``owner.attr`` without opening a frame."""
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            phase = tracer._phase
            if phase is not None:
                on_exit(tracer._state().counts, phase, args, result, True)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # Recording window
    # ------------------------------------------------------------------
    def start(self, phase: str) -> None:
        """Begin recording ``phase`` (called on the dispatcher thread)."""
        self._window[phase] = [_clock(), 0.0]
        self._phase = phase

    def stop(self) -> float:
        """End the current phase; returns its wall time."""
        phase = self._phase
        self._phase = None
        window = self._window[phase]
        window[1] = _clock()
        return window[1] - window[0]

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def stats(self, phases) -> dict[str, tuple[int, float]]:
        """``layer -> (calls, self seconds)`` summed over threads."""
        merged: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for state in self._threads:
            for (phase, layer), (calls, seconds) in state.stats.items():
                if phase in phases:
                    merged[layer][0] += calls
                    merged[layer][1] += seconds
        return {k: (v[0], v[1]) for k, v in merged.items()}

    def counts(self, phases) -> dict[str, float]:
        merged: dict[str, float] = defaultdict(float)
        for state in self._threads:
            for (phase, name), value in state.counts.items():
                if phase in phases:
                    merged[name] += value
        return merged

    def attribution(self, phase: str, threads: int) -> dict[str, float]:
        """Unattributed share of ``phase`` and the closure error.

        The closure error is the gap between the summed self times and
        the summed top-level frame durations, as a share of capacity.

        ``threads`` is how many threads could run wrapped code during the
        phase (the dispatcher plus any flusher threads); each contributes
        one wall time of capacity. Gaps are measured per thread between
        top-level frames, plus the tail from its last frame to the end
        of the window; threads that never entered a frame are idle for
        the whole window.
        """
        start, end = self._window[phase]
        wall = end - start
        capacity = wall * threads
        self_total = sum(
            seconds for _, seconds in self.stats({phase}).values()
        )
        gaps = top = 0.0
        active = 0
        for state in self._threads:
            if phase not in state.last_exit:
                continue
            active += 1
            top += state.top[phase]
            tail = end - state.last_exit[phase]
            gaps += state.gaps[phase] + max(0.0, tail)
        gaps += wall * max(0, threads - active)
        return {
            "unattributed_frac": gaps / capacity if capacity else 0.0,
            "closure_error": (
                abs(self_total - top) / capacity if capacity else 0.0
            ),
        }
