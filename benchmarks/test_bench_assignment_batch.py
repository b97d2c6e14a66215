"""Batch assignment engine: speedup gate and equivalence proof.

The vectorized :meth:`TriangleInequalityAssigner.assign_many` must beat a
scalar ``assign()`` loop by at least 10x on the reference workload
(10k points x 100 seeds) while returning bit-identical assignments and
identical computed/pruned totals under identically seeded RNGs — both
facts are asserted here and recorded in
``BENCH_assignment_batch.json`` (repository root) so the engine's perf
trajectory and its equivalence guarantee stay visible across PRs.

The same workload also runs :class:`NaiveAssigner`, the simplest exact
alternative, and records ``naive_vs_batch`` = naive seconds ÷ TI batch
seconds (above 1 means the TI batch kernel is faster). The ratio is
reported, not gated.

Methodology: best-of-N wall-clock (min, the least noisy estimator on a
shared CI runner); the scalar arm runs fewer rounds because it is the
slow side by construction.
"""

from __future__ import annotations

import time

import numpy as np
from _results import write_bench_result

from repro.core import NaiveAssigner, TriangleInequalityAssigner
from repro.geometry import DistanceCounter

NUM_POINTS = 10_000
NUM_SEEDS = 100
BATCH_ROUNDS = 5
SCALAR_ROUNDS = 2
SPEEDUP_GATE = 10.0


def make_workload(num_points, num_seeds, dim=2, seed=0):
    """The paper-style clustered workload (same shape as the ablation
    benchmark's): 8 Gaussian blobs, seeds sampled from the points."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 100, size=(8, dim))
    points = np.vstack(
        [
            rng.normal(centers[i % 8], 1.0, size=(num_points // 8, dim))
            for i in range(8)
        ]
    )
    seeds = points[rng.choice(len(points), size=num_seeds, replace=False)]
    return points, seeds


def _make_assigner(seeds: np.ndarray) -> TriangleInequalityAssigner:
    # Identically seeded RNGs per arm: the probing permutations — and so
    # the assignments and the accounting — are reproduced exactly.
    return TriangleInequalityAssigner(
        seeds,
        DistanceCounter(),
        rng=np.random.default_rng(42),
        count_setup=False,
    )


def _scalar_arm(seeds, points):
    assigner = _make_assigner(seeds)
    started = time.perf_counter()
    result = np.array([assigner.assign(p) for p in points], dtype=np.int64)
    return time.perf_counter() - started, result, assigner


def _batch_arm(seeds, points):
    assigner = _make_assigner(seeds)
    started = time.perf_counter()
    result = assigner.assign_many(points)
    return time.perf_counter() - started, result, assigner


def _naive_arm(seeds, points):
    assigner = NaiveAssigner(seeds, DistanceCounter())
    started = time.perf_counter()
    result = assigner.assign_many(points)
    return time.perf_counter() - started, result


def test_batch_engine_speedup_gate(benchmark):
    """assign_many >= 10x faster than the scalar loop, bit-identically."""
    points, seeds = make_workload(
        num_points=NUM_POINTS, num_seeds=NUM_SEEDS, dim=2, seed=0
    )

    # Warm-up (allocators, numpy dispatch) before either arm is timed.
    _batch_arm(seeds, points[:256])

    scalar_time = float("inf")
    for _ in range(SCALAR_ROUNDS):
        elapsed, scalar_result, scalar_assigner = _scalar_arm(seeds, points)
        scalar_time = min(scalar_time, elapsed)

    batch_time = float("inf")
    for _ in range(BATCH_ROUNDS):
        elapsed, batch_result, batch_assigner = _batch_arm(seeds, points)
        batch_time = min(batch_time, elapsed)

    naive_time = float("inf")
    for _ in range(BATCH_ROUNDS):
        elapsed, naive_result = _naive_arm(seeds, points)
        naive_time = min(naive_time, elapsed)

    # Equivalence first: a fast kernel that drifts is worthless.
    assert batch_result.tolist() == scalar_result.tolist()
    assert batch_assigner.assign_computed == scalar_assigner.assign_computed
    assert batch_assigner.assign_pruned == scalar_assigner.assign_pruned
    assert naive_result.tolist() == batch_result.tolist()

    speedup = scalar_time / batch_time

    # Register with pytest-benchmark so the run lands in the CI JSON
    # artifact next to the other assignment numbers.
    benchmark.pedantic(
        lambda: _batch_arm(seeds, points), rounds=1, iterations=1
    )

    document = {
        "workload": {
            "num_points": NUM_POINTS,
            "num_seeds": NUM_SEEDS,
            "dim": 2,
            "scalar_rounds": SCALAR_ROUNDS,
            "batch_rounds": BATCH_ROUNDS,
            "naive_rounds": BATCH_ROUNDS,
        },
        "scalar_seconds": scalar_time,
        "batch_seconds": batch_time,
        "naive_seconds": naive_time,
        "speedup": speedup,
        "speedup_gate": SPEEDUP_GATE,
        "naive_vs_batch": naive_time / batch_time,
        "naive_vs_batch_base": (
            "naive_seconds / batch_seconds; above 1 means the TI batch "
            "kernel is faster, below 1 means NaiveAssigner is"
        ),
        "equivalence": {
            "indices_identical": True,
            "naive_indices_identical": True,
            "computed_distances": batch_assigner.assign_computed,
            "pruned_distances": batch_assigner.assign_pruned,
            "pruned_fraction": batch_assigner.pruned_fraction,
        },
    }
    write_bench_result("assignment_batch", document)

    assert speedup >= SPEEDUP_GATE, (
        f"batch engine speedup {speedup:.1f}x below the "
        f"{SPEEDUP_GATE:.0f}x gate (scalar {scalar_time:.3f}s, "
        f"batch {batch_time:.3f}s)"
    )
