"""Fault-injection overhead: disarmed failpoints must be ~free.

The failpoint registry and the ``maybe_wrap`` IO shims are compiled into
the production persistence paths permanently. This benchmark measures the
same durable streaming workload twice — once with the registry completely
empty (the production default) and once with an unrelated failpoint armed
(the worst realistic disarmed case: every ``fire``/``trigger`` call now
takes the dict-lookup path instead of the empty fast path) — and gates
the delta at 2%. The result is written to ``BENCH_faults.json`` at the
repository root.

Methodology: best-of-N wall-clock over identical runs (min, not mean —
the minimum is the least noisy estimator of the achievable time on a
shared CI runner).
"""

from __future__ import annotations

import pathlib
import tempfile
import time

import numpy as np
from _results import write_bench_result

from repro.faults import FAILPOINTS
from repro.streaming import DurableSummarizer

ROUNDS = 7
CHUNKS = 12
CHUNK_SIZE = 300
OVERHEAD_BUDGET = 0.02


def _chunks() -> list[np.ndarray]:
    rng = np.random.default_rng(7)
    return [
        rng.normal(size=(CHUNK_SIZE, 2)) + [0.1 * i, -0.05 * i]
        for i in range(CHUNKS)
    ]


def _run_stream(chunks: list[np.ndarray]) -> None:
    with tempfile.TemporaryDirectory() as wal_dir:
        stream = DurableSummarizer(
            pathlib.Path(wal_dir) / "state",
            dim=2,
            window_size=1_600,
            points_per_bubble=40,
            seed=0,
            checkpoint_every=4,
            fsync=False,
        )
        for chunk in chunks:
            stream.append(chunk)
        stream.close()


def _best_of(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_disarmed_failpoints_within_budget(benchmark):
    """An armed-but-unmatched registry costs <= 2% over an empty one."""
    chunks = _chunks()
    FAILPOINTS.clear()
    _run_stream(chunks)  # warm caches before either arm is timed

    empty_registry = _best_of(lambda: _run_stream(chunks))

    # The worst disarmed case: something is armed, so every fire() and
    # has_prefix() consults the dict — but nothing ever matches.
    FAILPOINTS.arm("bench.unrelated.never", "error")
    try:
        armed_unmatched = _best_of(lambda: _run_stream(chunks))
    finally:
        FAILPOINTS.clear()
    overhead = armed_unmatched / empty_registry - 1.0

    # Registered as a pedantic benchmark so the run also lands in the
    # pytest-benchmark JSON artifact next to the other numbers.
    benchmark.pedantic(
        lambda: _run_stream(chunks), rounds=1, iterations=1
    )

    document = {
        "workload": {
            "chunks": CHUNKS,
            "chunk_size": CHUNK_SIZE,
            "window_size": 1_600,
            "points_per_bubble": 40,
            "checkpoint_every": 4,
            "rounds": ROUNDS,
        },
        "empty_registry_seconds": empty_registry,
        "armed_unmatched_seconds": armed_unmatched,
        "overhead_fraction": overhead,
        "overhead_budget": OVERHEAD_BUDGET,
    }
    write_bench_result("faults", document)

    assert overhead <= OVERHEAD_BUDGET, (
        f"disarmed fault-injection overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_BUDGET:.0%} budget (empty {empty_registry:.4f}s, "
        f"armed-unmatched {armed_unmatched:.4f}s)"
    )
