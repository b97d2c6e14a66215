"""Instrumentation overhead: the observability layer must be ~free.

Three measurements of the same deterministic streaming workload give the
overhead fractions the CI gate tracks:

* ``obs=None`` — instrumentation compiled out by the ``None`` checks
  (the baseline);
* a metrics-only :class:`~repro.observability.Observability` handle —
  the original counters/gauges/histograms arm;
* the full flight recorder — event tracer + span tracer + windowed
  time-series recorder, the heaviest configuration ``summarize`` can
  enable.

Both instrumented arms must stay within the same 5% budget over the
baseline. The result is written to ``BENCH_observability.json`` at
the repo root so the perf trajectory of the instrumentation itself is
visible across PRs.

Methodology: the arms are interleaved within each round (order rotated
per round, GC controlled per run) and the gate statistic is the lower
quartile of per-round overhead ratios — see :func:`_measure_rounds` and
:func:`_lower_quartile` for why that stays honest on a noisy shared
runner.
"""

from __future__ import annotations

import gc
import time

import numpy as np
from _results import write_bench_result

from repro.observability import (
    EventTracer,
    Observability,
    SpanTracer,
    TimeseriesRecorder,
)
from repro.streaming import SlidingWindowSummarizer

ROUNDS = 10
CHUNKS = 30
CHUNK_SIZE = 400
OVERHEAD_BUDGET = 0.05
#: Ceiling for the opt-in --trace serve arm; span JSONL writes are an
#: accepted diagnostic cost, tracked so regressions stay visible.
TRACE_OVERHEAD_BUDGET = 0.25


def _chunks() -> list[np.ndarray]:
    rng = np.random.default_rng(7)
    return [
        rng.normal(size=(CHUNK_SIZE, 2)) + [0.1 * i, -0.05 * i]
        for i in range(CHUNKS)
    ]


def _flight_recorder() -> Observability:
    return Observability(
        tracer=EventTracer(),
        spans=SpanTracer(),
        timeseries=TimeseriesRecorder(interval=1),
    )


def _run_stream(chunks: list[np.ndarray], obs: Observability | None) -> None:
    stream = SlidingWindowSummarizer(
        dim=2,
        window_size=1_600,
        points_per_bubble=40,
        seed=0,
        obs=obs,
    )
    for chunk in chunks:
        stream.append(chunk)


def _measure_rounds(fns, rounds: int = ROUNDS) -> list[list[float]]:
    """Per-round wall-clock for every arm, arms interleaved within a round.

    Interleaving keeps each round's arms adjacent in time, so a slow
    epoch on a shared runner (thermal throttling, a noisy neighbour)
    inflates one *round* uniformly instead of one *arm*; overhead is then
    computed per round and the cleanest round wins, which stays honest
    even when the machine's speed drifts over the run. The arm order
    rotates each round so a periodic disturbance cannot align with the
    same arm every time, and GC is collected before / disabled during
    each timed run so collection pauses (which would otherwise land in
    the allocation-heavier instrumented arms) stay out of the
    measurement.
    """
    times = [[0.0] * len(fns) for _ in range(rounds)]
    for round_index in range(rounds):
        order = [
            (round_index + offset) % len(fns)
            for offset in range(len(fns))
        ]
        for index in order:
            gc.collect()
            gc.disable()
            try:
                started = time.perf_counter()
                fns[index]()
                times[round_index][index] = (
                    time.perf_counter() - started
                )
            finally:
                gc.enable()
    return times


def _lower_quartile(values) -> float:
    """The 25th-percentile value.

    Timing noise on a shared runner only ever *adds* to a round, so a
    low quantile estimates the intrinsic cost; the quartile (unlike the
    minimum) still requires a quarter of the rounds to agree, which
    keeps one freak-fast round from deciding the gate.
    """
    ordered = sorted(values)
    return ordered[len(ordered) // 4]


def test_instrumentation_overhead_within_budget(benchmark):
    """Metrics and the full flight recorder cost <= 5% over obs=None."""
    chunks = _chunks()
    # One throwaway run to warm caches before any arm is timed.
    _run_stream(chunks, None)

    rounds = _measure_rounds(
        [
            lambda: _run_stream(chunks, None),
            lambda: _run_stream(chunks, Observability()),
            lambda: _run_stream(chunks, _flight_recorder()),
        ]
    )
    # Lower quartile of per-round ratios: each round's arms are adjacent
    # in time, so the ratio cancels epoch-wide slowdowns (which a ratio
    # of cross-round minima would not), and the low quantile discards
    # the rounds a burst did manage to split.
    overhead = _lower_quartile(r[1] / r[0] - 1.0 for r in rounds)
    flight_overhead = _lower_quartile(r[2] / r[0] - 1.0 for r in rounds)
    baseline = min(r[0] for r in rounds)
    instrumented = min(r[1] for r in rounds)
    flight = min(r[2] for r in rounds)

    # Registered as a pedantic benchmark so the run also lands in the
    # pytest-benchmark JSON artifact next to the assignment numbers.
    benchmark.pedantic(
        lambda: _run_stream(chunks, _flight_recorder()),
        rounds=1,
        iterations=1,
    )

    obs = _flight_recorder()
    _run_stream(chunks, obs)
    snapshot = obs.metrics.snapshot()
    computed = snapshot.value("repro_distance_computed_total")
    pruned = snapshot.value("repro_distance_pruned_total")

    document = {
        "workload": {
            "chunks": CHUNKS,
            "chunk_size": CHUNK_SIZE,
            "window_size": 1_600,
            "points_per_bubble": 40,
            "rounds": ROUNDS,
        },
        "baseline_seconds": baseline,
        "instrumented_seconds": instrumented,
        "overhead_fraction": overhead,
        "flight_recorder_seconds": flight,
        "flight_recorder_overhead_fraction": flight_overhead,
        "overhead_budget": OVERHEAD_BUDGET,
        "registry": {
            "distance_computed_total": computed,
            "distance_pruned_total": pruned,
            "pruned_fraction": pruned / (computed + pruned),
            "metrics_registered": len(snapshot),
            "spans_opened": obs.spans.total_opened,
            "timeseries_windows": len(obs.timeseries),
        },
    }
    write_bench_result("observability", document)

    assert overhead <= OVERHEAD_BUDGET, (
        f"instrumentation overhead {overhead:.1%} exceeds the 5% budget "
        f"(baseline {baseline:.4f}s, instrumented {instrumented:.4f}s)"
    )
    assert flight_overhead <= OVERHEAD_BUDGET, (
        f"flight-recorder overhead {flight_overhead:.1%} exceeds the 5% "
        f"budget (baseline {baseline:.4f}s, flight {flight:.4f}s)"
    )


def test_serve_plane_overhead_within_budget(tmp_path, benchmark):
    """``serve`` with the live telemetry plane (scrape listener + SLO
    ticker) costs <= 5% over a bare serve.

    Same interleaved-rounds methodology as the instrumentation gate;
    each arm serves the identical event stream through a fresh fleet
    (workers=0 so the dispatcher cost itself is measured, fsync off so
    the gate tracks CPU overhead rather than disk variance). The plane
    arm runs the listener's ticker at 10 Hz — an order of magnitude
    hotter than the 1 Hz production default — so the gate bounds an
    intentionally pessimistic configuration.

    A third arm adds ``--trace`` span recording. Trace JSONL is an
    opt-in diagnostic with an inherent per-batch write cost, so it is
    *reported* (for trajectory tracking across PRs) but gated only at a
    looser 25% ceiling rather than the plane's 5%.
    """
    import json

    from _results import REPO_ROOT
    from repro.observability import SLOEngine, TelemetryListener
    from repro.service import (
        FleetConfig,
        FleetManager,
        PointEvent,
        serve_events,
    )

    events = [
        PointEvent(
            tenant=f"tenant-{i % 4}",
            point=(float(i % 11) * 0.3, float(i % 7) * 0.2),
            label=i,
        )
        for i in range(6_000)
    ]
    config = dict(
        window_size=400,
        points_per_bubble=20,
        checkpoint_every=8,
        fsync=False,
        workers=0,
        queue_points=256,
        batch_points=32,
    )
    fleets = iter(range(10_000))

    def bare():
        fleet = FleetManager(
            tmp_path / f"bare-{next(fleets)}", FleetConfig(**config)
        )
        serve_events(fleet, events)

    def with_plane():
        fleet = FleetManager(
            tmp_path / f"plane-{next(fleets)}", FleetConfig(**config)
        )
        fleet.attach_slo(SLOEngine())
        listener = TelemetryListener(fleet, tick_seconds=0.1)
        serve_events(fleet, events, listener=listener)

    def with_plane_and_trace():
        fleet = FleetManager(
            tmp_path / f"traced-{next(fleets)}",
            FleetConfig(**dict(config, trace=True)),
        )
        fleet.attach_slo(SLOEngine())
        listener = TelemetryListener(fleet, tick_seconds=0.1)
        serve_events(fleet, events, listener=listener)

    with_plane()  # warm-up: binds a socket, imports http.server pieces
    rounds = _measure_rounds(
        [bare, with_plane, with_plane_and_trace], rounds=ROUNDS
    )
    overhead = _lower_quartile(r[1] / r[0] - 1.0 for r in rounds)
    traced_overhead = _lower_quartile(r[2] / r[0] - 1.0 for r in rounds)
    baseline = min(r[0] for r in rounds)
    plane = min(r[1] for r in rounds)
    traced = min(r[2] for r in rounds)

    benchmark.pedantic(with_plane, rounds=1, iterations=1)

    # Merge into the observability document (the instrumentation gate
    # above owns the rest of the file).
    path = REPO_ROOT / "BENCH_observability.json"
    document = json.loads(path.read_text()) if path.exists() else {}
    document["serve_plane"] = {
        "workload": {
            "events": len(events),
            "tenants": 4,
            "batch_points": 32,
            "rounds": ROUNDS,
            "tick_seconds": 0.1,
        },
        "bare_serve_seconds": baseline,
        "plane_serve_seconds": plane,
        "overhead_fraction": overhead,
        "overhead_budget": OVERHEAD_BUDGET,
        "traced_serve_seconds": traced,
        "traced_overhead_fraction": traced_overhead,
        "traced_overhead_budget": TRACE_OVERHEAD_BUDGET,
    }
    write_bench_result("observability", document)

    assert overhead <= OVERHEAD_BUDGET, (
        f"telemetry-plane serve overhead {overhead:.1%} exceeds the 5% "
        f"budget (bare {baseline:.4f}s, plane {plane:.4f}s)"
    )
    assert traced_overhead <= TRACE_OVERHEAD_BUDGET, (
        f"traced serve overhead {traced_overhead:.1%} exceeds the "
        f"{TRACE_OVERHEAD_BUDGET:.0%} ceiling "
        f"(bare {baseline:.4f}s, traced {traced:.4f}s)"
    )
