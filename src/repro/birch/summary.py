"""Hierarchical clustering over a CF-tree summary.

The bridge that makes BIRCH's clustering features comparable to data
bubbles within this library: the leaf entries of a
:class:`~repro.birch.cftree.CFTree` are treated as summaries
(representative = centroid, extent = the bubble-style average pairwise
distance derived from the same ``(n, LS, SS)``) and ordered by the shared
summary-level OPTICS. The comparison benchmark then runs the identical
extraction + F-score pipeline over both summary kinds.

This reproduces the methodological setup of Breunig et al. 2001 (and the
premise of the paper under reproduction, Section 1): data bubbles and
clustering features carry the same sufficient statistics — the difference
lies in how the summaries are *formed* (nearest-seed partitioning vs
threshold absorption), which is exactly what the comparison isolates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..clustering.bubble_optics import order_summaries
from ..clustering.reachability import ReachabilityPlot, SummaryExpansion
from ..sufficient import extent as stats_extent, nn_dist
from .cftree import CFTree

__all__ = ["CFSummaryResult", "cluster_cf_tree"]


@dataclass(frozen=True)
class CFSummaryResult(SummaryExpansion):
    """OPTICS output over a CF-tree's leaf entries.

    Attributes:
        plot: reachability plot over leaf-entry indices (tree order).
        counts: per-entry point counts.
        virtual_reachability: per-entry interior reachability estimate.
    """

    plot: ReachabilityPlot
    counts: np.ndarray
    virtual_reachability: np.ndarray

    @property
    def bubble_ids(self) -> np.ndarray:
        """Entry index → itself: leaf entries are identified by position."""
        return np.arange(self.counts.shape[0], dtype=np.int64)


def cluster_cf_tree(
    tree: CFTree, min_pts: int = 25, eps: float = np.inf
) -> CFSummaryResult:
    """Order a CF-tree's leaf entries with summary-level OPTICS.

    Raises:
        ValueError: for an empty tree.
    """
    entries = tree.leaf_entries()
    if not entries:
        raise ValueError("cannot cluster an empty CF-tree")
    ordering = order_summaries(
        np.stack([cf.centroid() for cf in entries]),
        [stats_extent(cf.stats) if cf.n > 1 else 0.0 for cf in entries],
        [cf.n for cf in entries],
        [nn_dist(cf.stats, min_pts) if cf.n > 1 else 0.0 for cf in entries],
        min_pts=min_pts,
        eps=eps,
    )
    return CFSummaryResult(
        plot=ordering.plot,
        counts=ordering.counts,
        virtual_reachability=ordering.virtual,
    )
