"""Pipeline benchmark: loadgen -> fleet -> shard -> WAL -> maintainer ->
checkpoint/compaction -> cluster query, timed end to end and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_sync --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` runs the pipeline untraced, as many rounds as the workload
says, each on a fresh fleet (``perfbench/workloads.py``), and prints the
end-to-end metrics over all rounds. ``--trace 1`` runs one round
untraced and then one again with every layer's entry points wrapped
(``perfbench/layertrace.py``), and prints the per-layer metrics. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every correctness check passed.

BENCHMARK.json lists the workloads and metrics; perfbench/interactions.json
records which end-to-end metric each per-layer metric should move, on
which workload, and the machine the sizing was done on.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

# One BLAS thread: the fleet's own threads are what the benchmark
# measures, and numpy must see these before it is first imported.
for _name in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_name] = "1"

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

def _quantile(values, q: float) -> float:
    """An observed sample: the smallest with at least ``q`` at or below."""
    import numpy as np

    return float(np.quantile(np.asarray(values), q, method="inverted_cdf"))


def _need(samples, q: float, name: str, errors: list[str]) -> None:
    """A percentile is reported only with ten samples beyond it."""
    beyond = len(samples) * (1.0 - q)
    if beyond < 10:
        errors.append(
            f"{name}: {len(samples)} samples leave {beyond:.1f} beyond "
            f"the {q:.0%} quantile (need 10)"
        )


#: End-to-end metrics that are wall times, and the one that is a rate.
_TIMES = (
    "setup_s",
    "ingest_p50_ms",
    "ingest_p99_ms",
    "query_p50_ms",
    "query_p90_ms",
    "recover_s",
)
_RATES = ("ingest_pts_per_s",)


def end_to_end(result, errors: list[str]) -> dict[str, tuple[float, str]]:
    """Each metric pools the samples of every round of the run.

    Times and the rate are reported at the reference machine speed: a
    wall time is divided by the run's slowdown (``perfbench/calibrate.py``)
    and the rate multiplied by it. The measured values and the slowdown
    are printed on standard error.
    """
    import statistics

    from calibrate import NOMINAL_S
    from pipeline import peak_rss_mb

    _need(result.latency_s, 0.99, "ingest latency", errors)
    _need(result.query_s, 0.90, "query latency", errors)
    measured = {
        "setup_s": (statistics.median(result.setup_s), "s"),
        "ingest_pts_per_s": (
            result.applied / result.ingest_wall_s,
            "pts/s",
        ),
        "ingest_p50_ms": (_quantile(result.latency_s, 0.50) * 1e3, "ms"),
        "ingest_p99_ms": (_quantile(result.latency_s, 0.99) * 1e3, "ms"),
        "query_p50_ms": (_quantile(result.query_s, 0.50) * 1e3, "ms"),
        "query_p90_ms": (_quantile(result.query_s, 0.90) * 1e3, "ms"),
        "recover_s": (statistics.median(result.recover_s), "s"),
        "disk_bytes_per_point": (
            statistics.median(result.disk_bytes_per_point),
            "B/pt",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "fscore": (statistics.median(result.fscore), "score"),
    }
    slowdown = statistics.fmean(result.reference_s) / NOMINAL_S
    print(
        f"slowdown {slowdown:.6g} (mean of {len(result.reference_s)} "
        f"reference timings / {NOMINAL_S} s); measured values:",
        file=sys.stderr,
    )
    for name in _TIMES + _RATES:
        value, unit = measured[name]
        print(f"  {name:<40} {value:>16.6g} {unit}", file=sys.stderr)
    scaled = dict(measured)
    for name in _TIMES:
        value, unit = measured[name]
        scaled[name] = (value / slowdown, unit)
    for name in _RATES:
        value, unit = measured[name]
        scaled[name] = (value * slowdown, unit)
    return scaled


def per_layer(result, untraced, tracer, workload, errors):
    stats = tracer.stats({"ingest"})
    counts = tracer.counts({"ingest"})
    recover = tracer.stats({"recover"})
    queries = tracer.stats({"ingest", "probe"})
    applied = result.applied

    def self_s(name, table=stats):
        return table.get(name, (0, 0.0))[1]

    def calls(name, table=stats):
        return table.get(name, (0, 0.0))[0]

    flushes = counts["service.flush.applied"]
    fits = len(result.query_sources)
    sources = result.query_sources
    attribution = tracer.attribution("ingest", threads=1 + workload.workers)
    if attribution["closure_error"] > 0.05:
        errors.append(
            "layer self times miss the time inside top-level wrapped "
            f"calls by {attribution['closure_error']:.1%} of the traced "
            "wall time (limit 5%)"
        )
    return {
        "service.submit.self_s": (self_s("service.submit"), "s"),
        "service.flush.calls": (flushes, "count"),
        "service.flush.self_s": (self_s("service.flush"), "s"),
        "service.batch_points_mean": (
            counts["service.flush.points"] / flushes if flushes else 0.0,
            "pts",
        ),
        "service.queue_wait_p50_ms": (
            _quantile(result.queue_wait_s, 0.5) * 1e3,
            "ms",
        ),
        "service.blocked_frac": (
            result.blocked_s / result.ingest_wall_s,
            "frac",
        ),
        "service.cluster_now.self_s": (
            self_s("service.cluster_now", queries),
            "s",
        ),
        "streaming.append.self_s": (self_s("streaming.append"), "s"),
        "persistence.wal_append.self_s": (
            self_s("persistence.wal_append"),
            "s",
        ),
        "persistence.wal_bytes_per_point": (
            counts["persistence.wal_bytes"] / applied,
            "B/pt",
        ),
        "persistence.checkpoint.calls": (
            calls("persistence.checkpoint"),
            "count",
        ),
        "persistence.checkpoint.self_s": (
            self_s("persistence.checkpoint"),
            "s",
        ),
        "persistence.compact.self_s": (self_s("persistence.compact"), "s"),
        "persistence.write_bytes_per_point": (
            result.write_bytes / applied,
            "B/pt",
        ),
        "persistence.latest_state.self_s": (
            self_s("persistence.latest_state", recover),
            "s",
        ),
        "persistence.replay.self_s": (
            self_s("persistence.replay", recover),
            "s",
        ),
        "persistence.replayed_batches": (
            tracer.counts({"recover"})["persistence.replayed_batches"],
            "count",
        ),
        "core.maintenance.apply_batch.calls": (
            calls("core.maintenance.apply_batch"),
            "count",
        ),
        "core.maintenance.apply_batch.self_s": (
            self_s("core.maintenance.apply_batch"),
            "s",
        ),
        "core.assignment.assign_many.self_s": (
            self_s("core.assignment.assign_many"),
            "s",
        ),
        "core.assignment.points_per_call": (
            counts["core.assignment.points"]
            / max(1, counts["core.assignment.calls"]),
            "pts",
        ),
        "core.quality.classify.self_s": (
            self_s("core.quality.classify"),
            "s",
        ),
        "core.split_merge.calls": (calls("core.split_merge"), "count"),
        "core.split_merge.self_s": (self_s("core.split_merge"), "s"),
        "clustering.fit.self_s": (self_s("clustering.fit", queries), "s"),
        "clustering.repair_frac": (
            sources.count("repair") / fits if fits else 0.0,
            "frac",
        ),
        "clustering.hit_frac": (
            sources.count("hit") / fits if fits else 0.0,
            "frac",
        ),
        "clustering.dist_per_fit": (
            result.query_computed / fits if fits else 0.0,
            "count",
        ),
        "geometry.dist_computed_per_point": (
            result.computed / applied,
            "count",
        ),
        "geometry.pruned_frac": (
            result.pruned / (result.computed + result.pruned),
            "frac",
        ),
        "trace.unattributed_frac": (
            attribution["unattributed_frac"],
            "frac",
        ),
        "trace.overhead_frac": (
            result.ingest_wall_s / untraced.ingest_wall_s - 1.0,
            "frac",
        ),
    }


def _report(metrics, correct, attempted, failed):
    import json

    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}", file=sys.stderr)
    document = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(document))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source at {SRC}; run from a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import shutil
    import tempfile

    from layertrace import LayerTracer
    from pipeline import install_layers, run_pipeline
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(expected one of {sorted(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    errors: list[str] = []
    try:
        if args.trace == 0:
            result = run_pipeline(
                workload,
                args.seed,
                args.seconds,
                workdir,
                rounds=workload.rounds,
                repeat_recovery=True,
            )
            errors.extend(result.errors)
            metrics = end_to_end(result, errors)
            fails = result.rejected + result.failed_points
            attempted = result.submitted + len(result.query_s)
            print(
                f"{workload.name} seed={args.seed}: "
                f"{len(result.latency_s)} latency samples, "
                f"{len(result.query_s)} query samples, "
                f"failed_frac={fails / result.submitted:.6g}",
                file=sys.stderr,
            )
        else:
            untraced = run_pipeline(
                workload, args.seed, args.seconds, workdir / "untraced"
            )
            errors.extend(untraced.errors)
            tracer = LayerTracer()
            install_layers(tracer)
            try:
                result = run_pipeline(
                    workload,
                    args.seed,
                    args.seconds,
                    workdir / "traced",
                    tracer=tracer,
                )
            finally:
                tracer.uninstall()
            errors.extend(result.errors)
            metrics = per_layer(result, untraced, tracer, workload, errors)
            fails = (
                result.rejected
                + result.failed_points
                + untraced.rejected
                + untraced.failed_points
            )
            attempted = (
                result.submitted
                + len(result.query_s)
                + untraced.submitted
                + len(untraced.query_s)
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's directory is still there
    for error in errors:
        print(f"correctness: {error}", file=sys.stderr)
    correct = not errors
    _report(metrics, correct, attempted, attempted if errors else fails)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
