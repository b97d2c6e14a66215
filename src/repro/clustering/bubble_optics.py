"""OPTICS over data bubbles (Breunig et al. 2001, as used by the paper).

Applying a hierarchical clustering algorithm to data summarizations needs
"only minor modifications" (Section 1): OPTICS keeps its priority-queue
walk, but distances, core distances and the final plot are defined on
bubbles instead of points.

**Bubble-to-bubble distance.** With representatives ``rep``, extents ``e``
and expected nearest-neighbour distances ``nnDist(1, ·)``::

    d_rep = dist(rep_B, rep_C)
    dist(B, C) = d_rep - (e_B + e_C) + nnDist(1, B) + nnDist(1, C)
                                         if d_rep - (e_B + e_C) >= 0
                 max(nnDist(1, B), nnDist(1, C))      otherwise (overlap)

i.e. the expected distance between *border points* of non-overlapping
bubbles, corrected by the average gap between points inside each bubble;
overlapping bubbles are as close as their internal point gaps.

**Core distance.** MinPts counts *points*, not bubbles: a bubble whose own
``n`` reaches MinPts is core within itself and its core distance is the
internal estimate ``nnDist(MinPts, B)``. A smaller bubble accumulates
neighbouring bubbles by increasing distance until the cumulative point
count reaches MinPts; its core distance is the bubble distance at which
that happens.

**Virtual reachability.** For expanding a bubble into its ``n`` plot
entries, the points inside a bubble are estimated to reach each other at
``max(coreDist(B), nnDist(1, B))``, which the internal core-distance
estimate already dominates; empty/singleton bubbles fall back to their
extent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.bubble_set import BubbleSet
from ..sufficient import SufficientStatistics
from .engine import OpticsWalk, PushBatch
from .reachability import ReachabilityPlot, SummaryExpansion

__all__ = [
    "BubbleOptics",
    "BubbleOpticsResult",
    "SummaryOrdering",
    "bubble_distance_matrix",
    "bubble_distance_rows",
    "order_summaries",
]

#: Row block size for the chunked distance matrix build; bounds the
#: ``(block, B, d)`` difference tensor without changing any result float
#: (each row is computed independently).
_MATRIX_BLOCK_ROWS = 256


def _distance_rows_from_sq(
    sq: np.ndarray,
    rows: np.ndarray,
    extents: np.ndarray,
    nn1: np.ndarray,
) -> np.ndarray:
    """Finish bubble distances for ``rows`` given squared rep distances."""
    d_rep = np.sqrt(sq)
    gap = d_rep - (extents[rows][:, None] + extents[None, :])
    # The nn1 sum is parenthesized so every term of the row formula is
    # symmetric under (i, j) swap; the whole matrix is then bitwise
    # symmetric, letting the incremental repair refresh column j of a
    # touched bubble from its recomputed row without ULP drift.
    separated = gap + (nn1[rows][:, None] + nn1[None, :])
    overlapping = np.maximum(nn1[rows][:, None], nn1[None, :])
    dists = np.where(gap >= 0.0, separated, overlapping)
    dists[np.arange(rows.shape[0]), rows] = 0.0
    return dists


def bubble_distance_rows(
    rows: np.ndarray,
    reps: np.ndarray,
    extents: np.ndarray,
    nn1: np.ndarray,
) -> np.ndarray:
    """Bubble distances from each of ``rows`` to every bubble.

    Bit-identical to the corresponding rows of
    :func:`bubble_distance_matrix`: both compute the squared rep distance
    as a difference-based einsum contraction over the coordinate axis
    (same operands, same reduction order), so an incrementally repaired
    row equals a from-scratch rebuild float for float — the foundation of
    the exact-equivalence contract in
    :mod:`repro.clustering.incremental`.
    """
    rows = np.asarray(rows, dtype=np.int64)
    diff = reps[rows][:, None, :] - reps[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    np.maximum(sq, 0.0, out=sq)
    return _distance_rows_from_sq(sq, rows, extents, nn1)


def bubble_distance_matrix(
    reps: np.ndarray, extents: np.ndarray, nn1: np.ndarray
) -> np.ndarray:
    """Full matrix of bubble-to-bubble distances.

    The squared rep distances are computed difference-based (``(a-b)·(a-b)``
    per pair) rather than via the norm trick (``|a|² + |b|² - 2a·b``):
    marginally slower, but exactly reproducible one row at a time, which
    the incremental cluster cache requires to repair touched rows without
    introducing ULP drift against a cold rebuild. Rows are processed in
    blocks to bound the ``(block, B, d)`` difference tensor.

    Args:
        reps: ``(B, d)`` representative matrix.
        extents: per-bubble extents, shape ``(B,)``.
        nn1: per-bubble ``nnDist(1, ·)`` estimates, shape ``(B,)``.
    """
    num = reps.shape[0]
    dists = np.empty((num, num), dtype=np.float64)
    for start in range(0, num, _MATRIX_BLOCK_ROWS):
        rows = np.arange(start, min(start + _MATRIX_BLOCK_ROWS, num))
        dists[rows] = bubble_distance_rows(rows, reps, extents, nn1)
    return dists


def _summary_features(reps, extents, counts, internal_core):
    """Sanitise ``(reps, extents, counts, internal_core)``; add ``nn1``.

    Degenerate summaries are clamped rather than propagated: a NaN or
    negative extent (float cancellation in the variance term of
    ``extent``, e.g. from duplicate points) would otherwise leak NaN into
    every distance involving the summary and from there into the whole
    plot. The paper's formula gives 0 for a zero-spread summary, so
    non-finite and negative extents, and NaN or negative internal cores,
    clamp to 0.0; a ``+inf`` internal core (never core within itself) is
    kept. ``nn1`` is ``nnDist(1, ·)``, the extent where ``n <= 1``.
    """
    reps = np.ascontiguousarray(reps, dtype=np.float64)
    extents = np.asarray(extents, dtype=np.float64)
    extents = np.where(np.isfinite(extents) & (extents > 0.0), extents, 0.0)
    counts = np.asarray(counts, dtype=np.int64)
    internal_core = np.asarray(internal_core, dtype=np.float64)
    internal_core = np.where(
        np.isnan(internal_core) | (internal_core < 0.0), 0.0, internal_core
    )
    nn1 = extents.copy()
    mask = counts > 1
    nn1[mask] = (1 / counts[mask]) ** (1.0 / reps.shape[1]) * extents[mask]
    return reps, extents, counts, internal_core, nn1


def _bubble_features(bubbles: BubbleSet, ids, min_pts: int):
    """Raw ``(reps, extents, counts, internal_core)`` of the bubbles
    ``ids``, the internal core being ``nnDist(min_pts, ·)``."""
    members = [bubbles[int(i)] for i in ids]
    return (
        np.array([b.rep for b in members], dtype=np.float64).reshape(
            len(members), bubbles.dim
        ),
        np.array([b.extent for b in members], dtype=np.float64),
        np.array([b.n for b in members], dtype=np.int64),
        np.array([b.nn_dist(min_pts) for b in members], dtype=np.float64),
    )


def _weighted_cores(dist, rows, counts, internal_core, min_pts, eps):
    """Core distances of the summaries ``rows`` of distance matrix ``dist``.

    MinPts counts *points*: a summary holding ``min_pts`` points is core
    within itself at its ``internal_core``. Any other summary's core
    distance is the value in its row at which the cumulative point count,
    ascending by distance, first reaches ``min_pts`` (``inf`` if never
    within ``eps``). That *value* is invariant to how equal distances are
    ordered — the crossing lands inside an equal-value block wherever its
    members sit — so an ``argpartition`` head (grown geometrically for
    rows whose head does not yet hold ``min_pts`` points) gives the same
    float as a full stable argsort of the row. Beyond-``eps`` entries are
    masked to ``inf``: they sort last, and a crossing on one reads as
    "never reached within eps".
    """
    rows = np.asarray(rows, dtype=np.int64)
    result = internal_core[rows].astype(np.float64)
    small = np.flatnonzero(counts[rows] < min_pts)
    if small.size == 0:
        return result
    result[small] = np.inf
    num_cols = dist.shape[1]
    vals = dist[rows[small]]
    if not np.isinf(eps):
        vals = np.where(vals <= eps, vals, np.inf)
    pending = np.arange(small.size)
    head = min(32, num_cols)
    while True:
        sub = vals[pending]
        if head < num_cols:
            part = np.argpartition(sub, head - 1, axis=1)[:, :head]
            head_vals = np.take_along_axis(sub, part, axis=1)
            order = np.argsort(head_vals, axis=1, kind="stable")
            svals = np.take_along_axis(head_vals, order, axis=1)
            scols = np.take_along_axis(part, order, axis=1)
        else:
            order = np.argsort(sub, axis=1, kind="stable")
            svals = np.take_along_axis(sub, order, axis=1)
            scols = order
        crossed = np.cumsum(counts[scols], axis=1) >= min_pts
        has = crossed.any(axis=1)
        done = np.flatnonzero(has)
        if done.size:
            first = np.argmax(crossed[done], axis=1)
            result[small[pending[done]]] = svals[done, first]
        pending = pending[~has]
        if head >= num_cols or pending.size == 0:
            return result  # rows that never cross stay inf
        head = min(head * 4, num_cols)


def _virtual_reachability(cores: np.ndarray, extents: np.ndarray):
    """Interior points of a summary reach each other at roughly its core
    distance; the extent stands in where that is undefined or degenerate.
    """
    virtual = cores.copy()
    fallback = ~np.isfinite(virtual) | (virtual <= 0.0)
    virtual[fallback] = extents[fallback]
    return virtual


@dataclass(frozen=True)
class SummaryOrdering:
    """What :func:`order_summaries` derives, per summary index: the
    sanitised features, the distance matrix ``dist``, the ``cores``, the
    ``plot``, the walk's push ``trace`` (empty unless recorded) and the
    ``virtual`` reachability."""

    reps: np.ndarray
    extents: np.ndarray
    counts: np.ndarray
    internal_core: np.ndarray
    nn1: np.ndarray
    dist: np.ndarray
    cores: np.ndarray
    plot: ReachabilityPlot
    trace: list[PushBatch]
    virtual: np.ndarray


def order_summaries(
    reps: np.ndarray,
    extents: np.ndarray,
    counts: np.ndarray,
    internal_core: np.ndarray,
    min_pts: int,
    eps: float = np.inf,
    distances: Callable[..., np.ndarray] = bubble_distance_matrix,
    record_trace: bool = False,
) -> SummaryOrdering:
    """OPTICS over arbitrary summaries described by rep/extent/count.

    The one OPTICS-over-summaries kernel, behind :meth:`BubbleOptics.fit`,
    the :class:`~repro.clustering.incremental.ClusterCache` cold fit and
    rebuild, the anytime stages and BIRCH's
    :func:`~repro.birch.summary.cluster_cf_tree`: features are sanitised
    once, distances use the bubble distance, cores the weighted rule, the
    walk is :class:`~repro.clustering.engine.OpticsWalk`, and the virtual
    reachability falls back to the extent. Zero summaries give an empty
    ordering, not an error ("cluster me now" on a fresh tenant).

    Args:
        reps: ``(K, d)`` representatives.
        extents: per-summary extents.
        counts: per-summary point counts (weights for the core condition).
        internal_core: per-summary internal core-distance estimate, used
            when the summary alone holds ``min_pts`` points.
        min_pts: MinPts in points.
        eps: generating distance.
        distances: builds the distance matrix from the sanitised
            ``(reps, extents, nn1)``; the cache's rebuild passes one that
            reuses the entries of surviving bubbles.
        record_trace: record the push trace the cache's repair replays.
    """
    reps, extents, counts, internal_core, nn1 = _summary_features(
        reps, extents, counts, internal_core
    )
    num = reps.shape[0]
    dist = distances(reps, extents, nn1)
    cores = _weighted_cores(
        dist, np.arange(num), counts, internal_core, min_pts, eps
    )
    if num:
        walk = OpticsWalk(
            num,
            lambda obj: dist[obj],
            lambda obj, _dists: float(cores[obj]),
            eps=eps,
            record_trace=record_trace,
        )
        plot = walk.run()
        trace = walk.trace or []
    else:
        plot = ReachabilityPlot(
            ordering=np.empty(0, dtype=np.int64),
            reachability=np.empty(0),
            core_distances=np.empty(0),
        )
        trace = []
    return SummaryOrdering(
        reps, extents, counts, internal_core, nn1, dist, cores, plot,
        trace, _virtual_reachability(cores, extents),
    )


@dataclass(frozen=True)
class BubbleOpticsResult(SummaryExpansion):
    """A bubble-level cluster ordering plus what is needed to expand it.

    Attributes:
        plot: the reachability plot over *compact indices* (0..K-1 over the
            non-empty bubbles that were clustered).
        bubble_ids: compact index → original bubble id.
        counts: per compact index, how many points the bubble summarizes.
        virtual_reachability: per compact index, the reachability estimate
            for the bubble's interior points.
    """

    plot: ReachabilityPlot
    bubble_ids: np.ndarray
    counts: np.ndarray
    virtual_reachability: np.ndarray


class BubbleOptics:
    """OPTICS configured for :class:`~repro.core.bubble_set.BubbleSet`.

    Args:
        min_pts: MinPts in *points* (summed over bubbles).
        eps: generating distance over bubble distances; ``inf`` for the
            complete ordering (the evaluation's setting).

    Example:
        >>> # bubbles: a BubbleSet from BubbleBuilder
        >>> result = BubbleOptics(min_pts=25).fit(bubbles)  # doctest: +SKIP
        >>> expanded = result.expanded()                    # doctest: +SKIP
    """

    def __init__(self, min_pts: int = 25, eps: float = np.inf) -> None:
        if min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {min_pts}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self._min_pts = int(min_pts)
        self._eps = float(eps)

    @property
    def min_pts(self) -> int:
        """The MinPts parameter (in points)."""
        return self._min_pts

    def fit(self, bubbles: BubbleSet) -> BubbleOpticsResult:
        """Order the non-empty bubbles of ``bubbles``.

        Empty bubbles summarize nothing and are skipped; they reappear the
        moment the maintainer recycles them.

        Raises:
            ValueError: when every bubble is empty.
        """
        non_empty = bubbles.non_empty_ids()
        if not non_empty:
            raise ValueError("cannot cluster a summary with no points")
        bubble_ids = np.asarray(non_empty, dtype=np.int64)
        ordering = order_summaries(
            *_bubble_features(bubbles, bubble_ids, self._min_pts),
            min_pts=self._min_pts,
            eps=self._eps,
        )
        return BubbleOpticsResult(
            plot=ordering.plot,
            bubble_ids=bubble_ids,
            counts=ordering.counts,
            virtual_reachability=ordering.virtual,
        )

    @staticmethod
    def distance(
        stats_a: SufficientStatistics, stats_b: SufficientStatistics
    ) -> float:
        """Bubble distance between two standalone sufficient statistics.

        Convenience for tests and for users composing their own pipelines;
        semantics identical to the matrix used by :meth:`fit`.
        """
        from ..sufficient import extent as _extent, nn_dist

        rep_a, rep_b = stats_a.mean(), stats_b.mean()
        ext_a, ext_b = _extent(stats_a), _extent(stats_b)
        nn_a = nn_dist(stats_a, 1) if stats_a.n > 1 else ext_a
        nn_b = nn_dist(stats_b, 1) if stats_b.n > 1 else ext_b
        diff = rep_a - rep_b
        d_rep = float(np.sqrt(np.dot(diff, diff)))
        gap = d_rep - (ext_a + ext_b)
        if gap >= 0.0:
            return gap + nn_a + nn_b
        return max(nn_a, nn_b)
