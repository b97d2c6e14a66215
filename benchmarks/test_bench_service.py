"""Ingestion-service capacity gate: sustained points/s and p95 latency.

Drives the full service stack — seeded Zipf/bursty load generator →
dispatcher → sharded bounded queues → pool-worker micro-batched appends
into per-tenant durable summarizers — at a **pinned tenant mix** (8
Zipf-skewed tenants, fixed seed), and gates two capacity numbers:

* sustained ingest throughput (accepted points per wall-clock second,
  graceful drain included), and
* fleet-wide p95 arrival→durably-applied latency (bucket-granular upper
  bound merged across the per-shard histograms).

Methodology: best-of-N over identical runs (min time / min p95 — the
least noisy estimator on a shared CI runner). Gates are deliberately
conservative (~4x headroom below the measured dev-container numbers) so
the gate catches order-of-magnitude regressions, not scheduler jitter.
The result is written to ``BENCH_service.json`` at the repository root.
"""

from __future__ import annotations

import pathlib
import tempfile

from _results import write_bench_result

from repro.service import (
    FleetConfig,
    FleetManager,
    LoadSpec,
    generate_events,
    serve_events,
)

ROUNDS = 3
MIN_POINTS_PER_SECOND = 1_500.0
MAX_P95_INGEST_SECONDS = 1.0

SPEC = LoadSpec(
    tenants=8, events=6_000, dim=2, seed=1234, zipf_s=1.1,
    burst_mean=32.0,
)
CONFIG = FleetConfig(
    dim=2,
    window_size=2_000,
    points_per_bubble=40,
    checkpoint_every=8,
    seed=1234,
    fsync=False,  # capacity of the engine, not the CI runner's disk
    queue_points=256,
    batch_points=32,
    backpressure="block",
    workers=2,
)


def _one_round(events) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        fleet = FleetManager(pathlib.Path(tmp) / "fleet", CONFIG)
        stats = serve_events(fleet, iter(events))
    assert stats.accepted == SPEC.events, (
        f"capacity run lost events: {stats.accepted}/{SPEC.events} "
        f"accepted, {stats.dropped} dropped"
    )
    rollup = stats.rollup
    assert rollup["fleet"]["applied_points"] == SPEC.events
    assert rollup["fleet"]["states"] == {"stopped": SPEC.tenants}
    return {
        "points_per_second": stats.points_per_second,
        "elapsed_seconds": stats.elapsed_seconds,
        "p95_ingest_seconds": rollup["fleet"]["ingest_p95_seconds"],
        "blocked_submissions": rollup["fleet"]["blocked_submissions"],
        "applied_batches": rollup["fleet"]["applied_batches"],
    }


def test_service_capacity_gate(benchmark):
    """The fleet sustains the pinned mix within throughput/latency gates."""
    events = list(generate_events(SPEC))  # generation off the clock
    _one_round(events)  # warm-up: imports, allocator, thread spawn

    rounds = [_one_round(events) for _ in range(ROUNDS)]
    best = max(rounds, key=lambda r: r["points_per_second"])
    p95s = [
        r["p95_ingest_seconds"]
        for r in rounds
        if r["p95_ingest_seconds"] is not None
    ]
    best_p95 = min(p95s) if p95s else None

    # Also registered with pytest-benchmark so the run lands in the
    # shared JSON artifact next to the other gates.
    benchmark.pedantic(
        lambda: _one_round(events), rounds=1, iterations=1
    )

    document = {
        "workload": {
            "tenants": SPEC.tenants,
            "events": SPEC.events,
            "dim": SPEC.dim,
            "seed": SPEC.seed,
            "zipf_s": SPEC.zipf_s,
            "burst_mean": SPEC.burst_mean,
            "window_size": CONFIG.window_size,
            "points_per_bubble": CONFIG.points_per_bubble,
            "checkpoint_every": CONFIG.checkpoint_every,
            "queue_points": CONFIG.queue_points,
            "batch_points": CONFIG.batch_points,
            "backpressure": CONFIG.backpressure,
            "workers": CONFIG.workers,
            "fsync": CONFIG.fsync,
            "rounds": ROUNDS,
        },
        "rounds": rounds,
        "best_points_per_second": best["points_per_second"],
        "best_p95_ingest_seconds": best_p95,
        "min_points_per_second": MIN_POINTS_PER_SECOND,
        "max_p95_ingest_seconds": MAX_P95_INGEST_SECONDS,
    }
    write_bench_result("service", document)

    assert best["points_per_second"] >= MIN_POINTS_PER_SECOND, (
        f"service capacity {best['points_per_second']:.0f} points/s is "
        f"below the {MIN_POINTS_PER_SECOND:.0f} points/s gate"
    )
    assert best_p95 is not None and best_p95 <= MAX_P95_INGEST_SECONDS, (
        f"fleet p95 ingest latency bound {best_p95} exceeds the "
        f"{MAX_P95_INGEST_SECONDS}s gate"
    )
