"""Self-healing recovery gate: kill a fleet, recover it, verify chains.

Drives a pinned 4-tenant workload into a fleet, kills it crash-style
(no drain, no final checkpoint — queued points are dropped from memory
exactly as ``kill -9`` would), and gates two numbers:

* **supervised recovery time** — wall-clock for
  :meth:`FleetManager.recover` to crash-recover every tenant (WAL
  replay past the last checkpoint), attach a :class:`ShardSupervisor`,
  ingest a post-recovery tail of events, and drain cleanly; and
* **verify-chain cost** — the read-only hash-chain integrity scan over
  all four tenant WALs must cost at most 2% of that recovery
  wall-clock, so operators can afford to run it on *every* restart
  before trusting the log.

Methodology: best-of-N wall-clock (min — the least noisy estimator on
a shared CI runner); the recovery budget is deliberately conservative
(order-of-magnitude headroom over dev-container numbers) so the gate
catches real regressions, not scheduler jitter. The result is written
to ``BENCH_chaos.json`` at the repository root.
"""

from __future__ import annotations

import pathlib
import tempfile
import time

from _results import write_bench_result

from repro.persistence import verify_chain
from repro.service import (
    FleetConfig,
    FleetManager,
    LoadSpec,
    ShardSupervisor,
    generate_events,
)

ROUNDS = 3
VERIFY_ROUNDS = 5
RECOVERY_BUDGET_SECONDS = 30.0
VERIFY_FRACTION_BUDGET = 0.02

SPEC = LoadSpec(tenants=4, events=3_000, seed=23)
TAIL_SPEC = LoadSpec(tenants=4, events=200, seed=24)

CONFIG = FleetConfig(
    window_size=2_000,
    points_per_bubble=40,
    # A sparse checkpoint cadence leaves a long WAL suffix to replay, so
    # the recovery measurement does real work rather than loading one
    # fresh snapshot.
    checkpoint_every=64,
    seed=23,
    fsync=False,
    workers=0,
    queue_points=512,
    batch_points=32,
)


def _build_killed_fleet(root: pathlib.Path) -> None:
    """Ingest the pinned workload, then die without drain/checkpoint."""
    fleet = FleetManager(root, CONFIG)
    for event in generate_events(SPEC):
        fleet.submit(event)
    fleet.close()  # crash-like: no flush, no final checkpoint


def _recover_supervised(root: pathlib.Path) -> dict:
    """One timed unit: recover + supervise + tail ingest + drain."""
    fleet = FleetManager.recover(root, config=CONFIG)
    fleet.attach_supervisor(ShardSupervisor(max_restarts=4))
    for event in generate_events(TAIL_SPEC):
        fleet.submit(event)
    fleet.drain()
    return fleet.rollup()["fleet"]


def _tenant_wals(root: pathlib.Path) -> list[pathlib.Path]:
    return sorted((root / "tenants").glob("*/wal.log"))


def test_supervised_recovery_and_chain_scan_within_budget(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        # Both measurements cover the same on-disk state: the WALs of a
        # freshly killed fleet, long uncompacted suffix included. Each
        # recovery round gets its own kill — a recovered-and-drained
        # fleet has checkpointed, leaving nothing to replay.
        scan_root = pathlib.Path(tmp) / "fleet-scan"
        _build_killed_fleet(scan_root)
        wals = _tenant_wals(scan_root)
        assert len(wals) == SPEC.tenants

        verify_seconds = float("inf")
        records = 0
        for _ in range(VERIFY_ROUNDS):
            started = time.perf_counter()
            records = 0
            for wal in wals:
                report = verify_chain(wal)
                assert report.ok, (wal, report)
                records += report.records
            verify_seconds = min(
                verify_seconds, time.perf_counter() - started
            )
        assert records > 0

        recovery_seconds = float("inf")
        totals = None
        for round_index in range(ROUNDS):
            root = pathlib.Path(tmp) / f"fleet-{round_index}"
            _build_killed_fleet(root)
            started = time.perf_counter()
            totals = _recover_supervised(root)
            elapsed = time.perf_counter() - started
            recovery_seconds = min(recovery_seconds, elapsed)
        assert totals is not None
        assert totals["states"] == {"stopped": SPEC.tenants}
        assert totals["applied_points"] >= TAIL_SPEC.events
        verify_fraction = verify_seconds / recovery_seconds

        # Registered as a pedantic benchmark so the run also lands in
        # the pytest-benchmark JSON artifact next to the other numbers.
        benchmark.pedantic(
            lambda: [verify_chain(wal) for wal in wals],
            rounds=1,
            iterations=1,
        )

        document = {
            "workload": {
                "tenants": SPEC.tenants,
                "events": SPEC.events,
                "tail_events": TAIL_SPEC.events,
                "window_size": CONFIG.window_size,
                "points_per_bubble": CONFIG.points_per_bubble,
                "checkpoint_every": CONFIG.checkpoint_every,
                "batch_points": CONFIG.batch_points,
                "rounds": ROUNDS,
                "verify_rounds": VERIFY_ROUNDS,
            },
            "recovery_seconds": recovery_seconds,
            "recovery_budget_seconds": RECOVERY_BUDGET_SECONDS,
            "verify_chain_seconds": verify_seconds,
            "verify_chain_records": records,
            "verify_fraction": verify_fraction,
            "verify_fraction_budget": VERIFY_FRACTION_BUDGET,
        }
        write_bench_result("chaos", document)

        assert recovery_seconds <= RECOVERY_BUDGET_SECONDS, (
            f"supervised fleet recovery took {recovery_seconds:.2f}s, "
            f"over the {RECOVERY_BUDGET_SECONDS:.0f}s budget"
        )
        assert verify_fraction <= VERIFY_FRACTION_BUDGET, (
            f"verify-chain scan cost {verify_fraction:.1%} of recovery "
            f"wall-clock ({verify_seconds:.4f}s vs "
            f"{recovery_seconds:.4f}s), over the "
            f"{VERIFY_FRACTION_BUDGET:.0%} budget"
        )
