"""One run of the pipeline: set-up, timed ingest, crash, recovery, checks.

A run is one or more rounds of the same pipeline on the same events,
each on a fresh fleet; metrics pool the rounds' samples. The phases of
a round, in order:

1. **set-up** — create the fleet and fill every tenant's window until
   its summary is bootstrapped and evicting;
2. **timed ingest** — one dispatcher thread submits the timed events in
   a closed loop: ``FleetManager.submit`` returns once the event is
   queued, and blocks while its tenant's queue is full. ``cluster_mix``
   also asks ``Shard.cluster_now`` after every applied micro-batch;
3. **crash** — ``FleetManager.close()``, which drops queued points;
4. **recovery** — ``FleetManager.recover`` on the crashed directory
   (and, with ``repeat_recovery``, on copies of it, for a median);
5. **checks** — the correctness gate, then ``drain()``. Workloads that
   issue no queries while ingesting time cold ``Shard.cluster_now``
   fits of every recovered tenant here instead, taking turns with the
   repeated recoveries.

Between phases the run times the reference computation of
``perfbench/calibrate.py``, which tracks how fast the machine is running.

Per-point latency is measured here, not read from the program's
bucketed histogram: every event is stamped before ``submit`` and closed
when its tenant's FIFO queue reports it applied (the end of the
``Shard.flush_once`` that took it).
"""

from __future__ import annotations

import gc
import pathlib
import resource
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from repro.clustering.incremental import IncrementalClusterer
from repro.core import adaptive as core_adaptive
from repro.core import maintenance as core_maintenance
from repro.core.assignment import (
    Assigner,
    NaiveAssigner,
    TriangleInequalityAssigner,
)
from repro.core.quality import BetaQuality
from repro import streaming
from repro.clustering.extraction import extract_candidates
from repro.evaluation import best_match_fscore
from repro.experiments.harness import candidate_point_sets
from repro.persistence import CheckpointManager, WriteAheadLog, verify_chain
from repro.service import FleetManager, Shard
from repro.streaming import DurableSummarizer

from calibrate import reference_seconds
from layertrace import LayerTracer
from workloads import Workload, crash_tail, make_events

_clock = time.perf_counter

#: Cold ``cluster_now`` rounds over every tenant after each round's
#: recovery, on workloads without in-loop queries (8 tenants x 60 = 480
#: samples a round).
PROBE_ROUNDS = 60

#: Smallest extracted cluster, as a share of the window (the paper
#: experiments' default).
MIN_CLUSTER_SHARE = 0.01

#: Distance totals are accounting, not summary state; clustering
#: queries add to them without being logged, so recovery cannot
#: reproduce them on a workload that queried before the crash.
_COUNTER_FIELDS = ("counter_computed", "counter_pruned")


@dataclass
class RunResult:
    """Raw measurements of one pipeline run, pooled over its rounds."""

    setup_s: list[float] = field(default_factory=list)
    ingest_wall_s: float = 0.0
    applied: int = 0
    submitted: int = 0
    rejected: int = 0
    latency_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    queue_wait_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    query_s: list[float] = field(default_factory=list)
    query_sources: list[str] = field(default_factory=list)
    query_computed: int = 0
    query_pruned: int = 0
    computed: int = 0
    pruned: int = 0
    blocked_s: float = 0.0
    write_bytes: int = 0
    recover_s: list[float] = field(default_factory=list)
    disk_bytes_per_point: list[float] = field(default_factory=list)
    fscore: list[float] = field(default_factory=list)
    failed_points: int = 0
    errors: list[str] = field(default_factory=list)
    #: Reference computation times, taken at every phase boundary.
    reference_s: list[float] = field(default_factory=list)


class FlushProbe:
    """Records when each tenant's micro-batches start and finish.

    Installed on ``Shard.flush_once`` for the timed phase of every run;
    one list append per flush.
    """

    def __init__(self) -> None:
        self.flushes: dict[str, list[tuple[float, float, int]]] = {}
        self.active = False
        self._original = Shard.__dict__["flush_once"]
        probe = self
        original = self._original

        def flush_once(shard):
            if not probe.active:
                return original(shard)
            started = _clock()
            applied = original(shard)
            if applied:
                probe.flushes.setdefault(shard.tenant, []).append(
                    (started, _clock(), applied)
                )
            return applied

        Shard.flush_once = flush_once

    def uninstall(self) -> None:
        Shard.flush_once = self._original


def install_layers(tracer: LayerTracer) -> None:
    """Wrap the public entry points of every layer.

    perfbench/interactions.json says which end-to-end metric each
    resulting per-layer metric should move.
    """

    def flushed(counts, phase, args, result, top):
        if result:
            counts[(phase, "service.flush.points")] += result
            counts[(phase, "service.flush.applied")] += 1

    def wal_bytes(counts, phase, args, result, top):
        counts[(phase, "persistence.wal_bytes")] += result

    def assigned(counts, phase, args, result, top):
        if top:
            counts[(phase, "core.assignment.points")] += len(args[1])
            counts[(phase, "core.assignment.calls")] += 1

    def recovered(counts, phase, args, result, top):
        counts[(phase, "persistence.replayed_batches")] += len(result.tail)

    tracer.wrap(FleetManager, "submit", "service.submit")
    tracer.wrap(Shard, "flush_once", "service.flush", on_exit=flushed)
    tracer.wrap(Shard, "cluster_now", "service.cluster_now")
    tracer.wrap(DurableSummarizer, "append", "streaming.append")
    tracer.wrap(
        WriteAheadLog, "append", "persistence.wal_append", on_exit=wal_bytes
    )
    tracer.wrap(WriteAheadLog, "compact", "persistence.compact")
    # Compaction rewrites the log it replays, and the first append to a
    # reopened log replays it to find the chain head: both are the
    # caller's work, not recovery's.
    tracer.wrap(
        WriteAheadLog,
        "replay",
        "persistence.replay",
        merge_under=("persistence.compact", "persistence.wal_append"),
    )
    tracer.wrap(CheckpointManager, "checkpoint", "persistence.checkpoint")
    tracer.wrap(
        CheckpointManager, "latest_state", "persistence.latest_state"
    )
    tracer.count(streaming, "recover_state", recovered)
    tracer.wrap(
        core_maintenance.IncrementalMaintainer,
        "apply_batch",
        "core.maintenance.apply_batch",
    )
    for cls in (Assigner, NaiveAssigner, TriangleInequalityAssigner):
        tracer.wrap(
            cls,
            "assign_many",
            "core.assignment.assign_many",
            on_exit=assigned,
        )
    tracer.wrap(BetaQuality, "classify", "core.quality.classify")
    tracer.wrap(core_maintenance, "rebuild_pair", "core.split_merge")
    tracer.wrap(core_adaptive, "split_bubble", "core.split_merge")
    tracer.wrap(core_adaptive, "merge_bubble", "core.split_merge")
    tracer.wrap(IncrementalClusterer, "fit", "clustering.fit")


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def write_chars() -> int:
    """Bytes this process has passed to write calls (``wchar``)."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _shards(fleet: FleetManager) -> dict[str, Shard]:
    return {tenant: fleet.shard(tenant) for tenant in fleet.tenants}


def _settle(fleet: FleetManager, workload: Workload) -> None:
    """Leave every accepted point applied: flush inline, or wait for the
    flushers (a flusher dequeues a batch before applying it, so an empty
    queue alone does not mean the batch is in)."""
    shards = _shards(fleet).values()
    if workload.workers == 0:
        for shard in shards:
            while shard.pending:
                shard.flush_once()
        return
    while any(
        shard.applied_points < shard.enqueued_points
        and shard.state == "running"
        for shard in shards
    ):
        time.sleep(0.0005)


def _align_to_checkpoint_cycle(fleet, workload, events) -> None:
    """Leave every tenant ``crash_tail`` micro-batches past a checkpoint.

    How much WAL a recovery replays depends on where in the checkpoint
    cycle the crash falls; with threads, even on timing. Padding each
    tenant with single-point batches (its last event again) puts the
    crash at the same place in the cycle on every run, so ``recover_s``
    measures the same work whatever the seed.
    """
    last = {event.tenant: event for event in events}
    for tenant, shard in _shards(fleet).items():
        while (
            shard.summarizer.batches_applied % workload.checkpoint_every
            != crash_tail(workload)
        ):
            fleet.submit(last[tenant])
            if workload.workers == 0:
                shard.flush_once()
            else:
                _settle(fleet, workload)


def _identity_errors(fleet: FleetManager, when: str) -> list[str]:
    errors = []
    for tenant, row in fleet.rollup()["tenants"].items():
        books = (
            row["applied_points"]
            + row["pending_points"]
            + row["shed_points"]
            + row["failed_points"]
            + row["dead_lettered_points"]
        )
        if books != row["submitted_points"]:
            errors.append(
                f"{when}: accounting identity broken for {tenant}: "
                f"{books} != {row['submitted_points']} submitted"
            )
    return errors


def _dir_bytes(root: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _state_diff(before, after, skip=()) -> list[str]:
    """Names of ``SummarizerState`` fields that differ bit for bit."""
    diffs = []
    for name, value in vars(before).items():
        if name in skip:
            continue
        other = getattr(after, name)
        if isinstance(value, np.ndarray):
            same = (
                value.dtype == other.dtype
                and value.shape == other.shape
                and value.tobytes() == other.tobytes()
            )
        else:
            same = value == other
        if not same:
            diffs.append(name)
    return diffs


def _capture(shard: Shard):
    summarizer = shard.summarizer
    return summarizer.inner.capture_state(summarizer.batches_applied)


def fit_fscore(fit, summarizer) -> tuple[float, int]:
    """Best-match F-score of one fit against the window's labels.

    Scored the way the paper's experiments score a summary
    (``repro.experiments.harness.score_summary``): every span of a sweep
    of cuts through the expanded plot is a candidate, plus the whole
    plot. Returns the score and its weight (labelled points).
    """
    ids, _, truth = summarizer.store.snapshot()
    expanded = fit.expanded()
    spans = extract_candidates(
        expanded.reachability,
        min_size=max(2, int(MIN_CLUSTER_SHARE * ids.size)),
    )
    spans.append((0, len(expanded.reachability)))
    candidates = candidate_point_sets(
        expanded, spans, summarizer.summary, ids
    )
    weight = int((truth >= 0).sum())
    return best_match_fscore(truth, candidates).overall, weight


def _fscore_and_oracle(fits: dict, shards: dict[str, Shard]):
    """Fleet F-score of ``fits``, plus oracle mismatches.

    Each tenant's fit must order its bubbles exactly as a from-scratch
    ``IncrementalClusterer`` does on the same bubbles.
    """
    errors = []
    total = weight_sum = 0.0
    for tenant, fit in sorted(fits.items()):
        shard = shards[tenant]
        bubbles = shard.summarizer.summary
        if fit.version != bubbles.version:
            errors.append(f"final fit of {tenant} is stale")
        fresh = IncrementalClusterer(min_pts=shard.clusterer().min_pts).fit(
            bubbles
        )
        if not (
            np.array_equal(fit.bubble_ids, fresh.bubble_ids)
            and np.array_equal(fit.plot.ordering, fresh.plot.ordering)
        ):
            errors.append(
                f"incremental ordering of {tenant} differs from a "
                "from-scratch fit"
            )
        score, weight = fit_fscore(fit, shard.summarizer)
        total += score * weight
        weight_sum += weight
    return (total / weight_sum if weight_sum else 0.0), errors


def _match_latencies(stamps, flushes):
    """Pair each tenant's submit stamps with the flushes that took them."""
    latency, wait = [], []
    for tenant, times in stamps.items():
        k = 0
        for started, ended, count in flushes.get(tenant, ()):
            for _ in range(count):
                if k < len(times):
                    latency.append(ended - times[k])
                    wait.append(started - times[k])
                    k += 1
    return np.asarray(latency), np.asarray(wait)


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run_pipeline(
    workload: Workload,
    seed: int,
    seconds: int,
    workdir: pathlib.Path,
    tracer: LayerTracer | None = None,
    rounds: int = 1,
    repeat_recovery: bool = False,
) -> RunResult:
    """``rounds`` repeats of the pipeline on the same events, pooled.

    Each round builds a fresh fleet, so every round does the same work;
    repeating it spreads each metric's samples over the whole run
    instead of one stretch of it, which the machine's speed may not
    hold for. Traced runs are one round (a phase is one time window).
    """
    if tracer is not None and rounds != 1:
        raise ValueError("a traced run is a single round")
    result = RunResult()
    config = workload.fleet_config(seed)
    fill, timed = make_events(workload, seed, seconds)
    # The event lists are the benchmark's, not the program's: keep the
    # collector from re-scanning them during every timed phase.
    gc.collect()
    gc.freeze()
    latency, queue_wait = [], []
    for index in range(rounds):
        round_latency, round_wait = _run_round(
            workload,
            config,
            fill,
            timed,
            workdir / f"round-{index}",
            result,
            tracer,
            repeat_recovery,
        )
        latency.append(round_latency)
        queue_wait.append(round_wait)
    result.latency_s = np.concatenate(latency)
    result.queue_wait_s = np.concatenate(queue_wait)
    del fill, timed
    gc.unfreeze()
    return result


def _run_round(
    workload: Workload,
    config,
    fill,
    timed,
    workdir: pathlib.Path,
    result: RunResult,
    tracer: LayerTracer | None,
    repeat_recovery: bool,
):
    """One round; adds its samples and counts to ``result``.

    Returns the round's per-point latencies and queue waits.
    """
    # 1. set-up --------------------------------------------------------
    result.reference_s.append(reference_seconds())
    started = _clock()
    fleet = FleetManager(workdir / "fleet", config)
    for event in fill:
        fleet.submit(event)
    _settle(fleet, workload)
    result.setup_s.append(_clock() - started)
    shards = _shards(fleet)
    for tenant, shard in shards.items():
        if (
            shard.summarizer.maintainer is None
            or shard.summarizer.size != workload.window
        ):
            result.errors.append(f"set-up left {tenant} short of steady state")

    # 2. timed ingest --------------------------------------------------
    result.reference_s.append(reference_seconds())
    applied_before = sum(s.applied_points for s in shards.values())
    counters = {t: s.summarizer.counter for t, s in shards.items()}
    computed_before = sum(c.computed for c in counters.values())
    pruned_before = sum(c.pruned for c in counters.values())
    query_computed_before = result.query_computed
    query_pruned_before = result.query_pruned
    blocked_before = fleet.rollup()["fleet"]["blocked_seconds"]
    stamps: dict[str, list[float]] = {t: [] for t in shards}
    last_batches = {t: s.applied_batches for t, s in shards.items()}
    final_fits = {}
    probe = FlushProbe()
    wchar_before = write_chars()
    probe.active = True
    if tracer is not None:
        tracer.start("ingest")
    started = _clock()
    for event in timed:
        stamp = _clock()
        if fleet.submit(event):
            stamps[event.tenant].append(stamp)
        else:
            result.rejected += 1
        if workload.queries:
            shard = shards[event.tenant]
            if shard.applied_batches != last_batches[event.tenant]:
                last_batches[event.tenant] = shard.applied_batches
                final_fits[event.tenant] = _timed_query(shard, result)
    if workload.workers:
        _settle(fleet, workload)
    result.ingest_wall_s += _clock() - started
    if tracer is not None:
        tracer.stop()
    probe.active = False
    probe.uninstall()
    result.write_bytes += write_chars() - wchar_before
    result.submitted += len(timed)
    result.applied += (
        sum(s.applied_points for s in shards.values()) - applied_before
    )
    # Maintenance distances only: the counter is shared with the
    # clustering queries issued in the loop.
    result.computed += (
        sum(c.computed for c in counters.values())
        - computed_before
        - (result.query_computed - query_computed_before)
    )
    result.pruned += (
        sum(c.pruned for c in counters.values())
        - pruned_before
        - (result.query_pruned - query_pruned_before)
    )
    result.blocked_s += (
        fleet.rollup()["fleet"]["blocked_seconds"] - blocked_before
    )
    result.reference_s.append(reference_seconds())
    latency, queue_wait = _match_latencies(stamps, probe.flushes)
    if workload.queries:
        fscore, errors = _fscore_and_oracle(final_fits, shards)
        result.fscore.append(fscore)
        result.errors.extend(errors)
    _align_to_checkpoint_cycle(fleet, workload, fill + timed)
    result.errors.extend(_identity_errors(fleet, "before the crash"))
    before_crash = {t: _capture(s) for t, s in shards.items()}
    window_points = sum(s.summarizer.size for s in shards.values())

    # 3. crash ---------------------------------------------------------
    fleet.close()
    root = fleet.root
    result.errors.extend(_identity_errors(fleet, "after the crash"))
    rollup = fleet.rollup()["fleet"]
    result.failed_points += (
        rollup["shed_points"]
        + rollup["failed_points"]
        + rollup["dead_lettered_points"]
        + fleet.invalid_points
    )
    result.disk_bytes_per_point.append(_dir_bytes(root) / window_points)
    for tenant in shards:
        report = verify_chain(fleet.tenant_dir(tenant) / "wal.log")
        if not report.ok or report.torn_tail:
            result.errors.append(f"WAL chain of {tenant} fails: {report}")
    copies = []
    for index in range(1, workload.recoveries if repeat_recovery else 1):
        copy = workdir / f"crashed-{index}"
        shutil.copytree(root, copy)
        copies.append(copy)

    # 4. recovery ------------------------------------------------------
    if tracer is not None:
        tracer.start("recover")
    started = _clock()
    recovered = FleetManager.recover(root, config)
    result.recover_s.append(_clock() - started)
    if tracer is not None:
        tracer.stop()

    # 5. checks --------------------------------------------------------
    result.reference_s.append(reference_seconds())
    new_shards = _shards(recovered)
    if sorted(new_shards) != sorted(shards):
        result.errors.append("recovery lost or invented tenants")
    skip = _COUNTER_FIELDS if workload.queries else ()
    for tenant, shard in new_shards.items():
        diffs = _state_diff(before_crash[tenant], _capture(shard), skip)
        if diffs:
            result.errors.append(
                f"recovered {tenant} differs from its pre-crash state "
                f"in {diffs}"
            )
        audit = shard.summarizer.audit(repair=False)
        if not audit.ok:
            result.errors.append(
                f"audit of {tenant} fails: {audit.violations[:3]}"
            )

    # Workloads that issue no queries while ingesting time cold fits
    # (cache dropped before each) of every recovered tenant instead,
    # taking turns with the repeated recoveries.
    probes = 0 if workload.queries else PROBE_ROUNDS
    probe_fits = {}
    turns = max(1, len(copies))
    for turn in range(turns):
        if turn < len(copies):
            started = _clock()
            extra = FleetManager.recover(copies[turn], config)
            result.recover_s.append(_clock() - started)
            extra.close()
            shutil.rmtree(copies[turn])
            result.reference_s.append(reference_seconds())
        share = probes * (turn + 1) // turns - probes * turn // turns
        if tracer is not None and share:
            tracer.start("probe")
        for _ in range(share):
            for tenant, shard in new_shards.items():
                shard.clusterer().cache.invalidate()
                probe_fits[tenant] = _timed_query(shard, result)
        if tracer is not None and share:
            tracer.stop()
    if probe_fits:
        fscore, errors = _fscore_and_oracle(probe_fits, new_shards)
        result.fscore.append(fscore)
        result.errors.extend(errors)
    recovered.drain()
    result.errors.extend(_identity_errors(recovered, "after the drain"))
    shutil.rmtree(workdir)
    return latency, queue_wait


def _timed_query(shard: Shard, result: RunResult):
    """One timed ``Shard.cluster_now``, with its distance counts."""
    counter = shard.summarizer.counter
    computed, pruned = counter.computed, counter.pruned
    started = _clock()
    fit = shard.cluster_now()
    result.query_s.append(_clock() - started)
    result.query_sources.append(fit.source)
    result.query_computed += counter.computed - computed
    result.query_pruned += counter.pruned - pruned
    return fit
