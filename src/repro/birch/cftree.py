"""BIRCH clustering features and the CF-tree (Zhang et al. 1996).

BIRCH is the other data summarization the paper discusses at length: it
compresses a database into *clustering features* ``CF = (n, LS, SS)``
arranged in a height-balanced tree, where a leaf entry absorbs a point as
long as its radius stays below a global **threshold** — exactly the
"spatial extent as quality measure" policy that Section 4.1 argues
against. The paper chose data bubbles over CFs because bubbles were shown
(Breunig et al. 2001) to serve hierarchical clustering far better.

This module implements the substrate so that comparison is reproducible
in-repo (see ``benchmarks/test_bench_birch.py``): phase-1 BIRCH — CF-tree
construction by insertion — with the standard mechanics:

* descend to the child whose CF centroid is closest;
* at a leaf, absorb into the closest entry if the resulting **radius**
  (std of distances from the centroid) stays within the threshold,
  otherwise open a new entry;
* split overflowing nodes by farthest-pair seeding, propagating upward
  (the root split grows the tree's height);
* :meth:`CFTree.fit_threshold` reproduces BIRCH's rebuild loop in spirit:
  it doubles the threshold until the leaf-entry count fits a target, which
  is how the comparison benchmark matches the CF summary size to a bubble
  summary's.

The leaf entries ("micro clusters") are then ordered with the same
summary-level OPTICS as data bubbles via
:func:`repro.clustering.bubble_optics.order_summaries`.
"""

from __future__ import annotations

import math

import numpy as np

from ..sufficient import SufficientStatistics
from ..types import Point, PointMatrix

__all__ = ["ClusteringFeature", "CFTree"]


class ClusteringFeature:
    """One clustering feature ``(n, LS, SS)`` with BIRCH's derived radii."""

    __slots__ = ("_stats",)

    def __init__(self, dim: int) -> None:
        self._stats = SufficientStatistics(dim=dim)

    @classmethod
    def of_point(cls, point: Point) -> "ClusteringFeature":
        """A CF summarizing a single point."""
        cf = cls(dim=point.shape[0])
        cf._stats.insert(point)
        return cf

    @property
    def stats(self) -> SufficientStatistics:
        """The underlying sufficient statistics."""
        return self._stats

    @property
    def n(self) -> int:
        """Number of points summarized."""
        return self._stats.n

    @property
    def dim(self) -> int:
        """Dimensionality."""
        return self._stats.dim

    def centroid(self) -> np.ndarray:
        """``LS / n``."""
        return self._stats.mean()

    def radius(self) -> float:
        """BIRCH's radius: std of member distances from the centroid."""
        n = self._stats.n
        if n == 0:
            return 0.0
        mean = self._stats.linear_sum / n
        sq = self._stats.square_sum / n - float(np.dot(mean, mean))
        return math.sqrt(max(sq, 0.0))

    def absorb(self, point: Point) -> None:
        """Add one point to this feature."""
        self._stats.insert(point)

    def radius_if_absorbed(self, point: Point) -> float:
        """The radius this CF would have after absorbing ``point``."""
        n = self._stats.n + 1
        ls = self._stats.linear_sum + point
        ss = self._stats.square_sum + float(np.dot(point, point))
        mean = ls / n
        sq = ss / n - float(np.dot(mean, mean))
        return math.sqrt(max(sq, 0.0))

    def merge(self, other: "ClusteringFeature") -> None:
        """Additive merge (disjoint point sets)."""
        self._stats.merge(other._stats)

    def centroid_distance(self, other: "ClusteringFeature") -> float:
        """Euclidean distance between centroids (BIRCH's D0 metric)."""
        diff = self.centroid() - other.centroid()
        return float(np.sqrt(np.dot(diff, diff)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusteringFeature(n={self.n}, dim={self.dim})"


class _Node:
    """CF-tree node: a leaf holds CFs, an internal node holds children
    with a summarizing CF each."""

    __slots__ = ("is_leaf", "entries", "children")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: list[ClusteringFeature] = []
        self.children: list["_Node"] = []


class CFTree:
    """Phase-1 BIRCH: an insertion-built CF-tree.

    Args:
        threshold: leaf-entry radius cap (the "spatial extent" quality
            parameter).
        branching: maximum children of an internal node.
        leaf_capacity: maximum entries of a leaf node.

    Example:
        >>> import numpy as np
        >>> tree = CFTree(threshold=0.5)
        >>> for p in np.random.default_rng(0).normal(size=(100, 2)):
        ...     tree.insert(p)
        >>> tree.num_points
        100
    """

    def __init__(
        self,
        threshold: float,
        branching: int = 8,
        leaf_capacity: int = 8,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if branching < 2 or leaf_capacity < 2:
            raise ValueError("branching and leaf_capacity must be >= 2")
        self._threshold = float(threshold)
        self._branching = branching
        self._leaf_capacity = leaf_capacity
        self._root = _Node(is_leaf=True)
        self._num_points = 0
        self._dim: int | None = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def threshold(self) -> float:
        """The leaf-entry radius cap."""
        return self._threshold

    @property
    def num_points(self) -> int:
        """Total points summarized by the tree."""
        return self._num_points

    @property
    def num_leaf_entries(self) -> int:
        """How many clustering features the leaves hold (micro clusters)."""
        return len(self.leaf_entries())

    def leaf_entries(self) -> list[ClusteringFeature]:
        """All leaf CFs, left to right."""
        result: list[ClusteringFeature] = []

        def walk(node: _Node) -> None:
            if node.is_leaf:
                result.extend(node.entries)
            else:
                for child in node.children:
                    walk(child)

        walk(self._root)
        return result

    @property
    def height(self) -> int:
        """Tree height (a lone leaf root has height 1)."""
        height = 1
        node = self._root
        while not node.is_leaf:
            height += 1
            node = node.children[0]
        return height

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, point: Point) -> None:
        """Insert one point (phase-1 BIRCH absorption/split mechanics)."""
        point = np.asarray(point, dtype=np.float64)
        if self._dim is None:
            self._dim = int(point.shape[0])
        elif point.shape != (self._dim,):
            raise ValueError(
                f"expected a ({self._dim},) point, got {point.shape}"
            )
        split = self._insert_into(self._root, point)
        if split is not None:
            # Root split: grow a new root above the two halves.
            left, right = split
            new_root = _Node(is_leaf=False)
            new_root.children = [left, right]
            new_root.entries = [
                _summarize_node(left),
                _summarize_node(right),
            ]
            self._root = new_root
        self._num_points += 1

    def insert_many(self, points: PointMatrix) -> None:
        """Insert a batch of points (order preserved)."""
        for point in np.asarray(points, dtype=np.float64):
            self.insert(point)

    def _insert_into(
        self, node: _Node, point: Point
    ) -> tuple[_Node, _Node] | None:
        """Insert below ``node``; returns the two halves if it split."""
        if node.is_leaf:
            return self._insert_into_leaf(node, point)

        # Descend into the child with the closest summarizing centroid.
        idx = _closest_entry(node.entries, point)
        split = self._insert_into(node.children[idx], point)
        if split is None:
            node.entries[idx].absorb(point)
            return None
        # Child split: replace it with the two halves.
        left, right = split
        node.children[idx : idx + 1] = [left, right]
        node.entries[idx : idx + 1] = [
            _summarize_node(left),
            _summarize_node(right),
        ]
        # The inserted point lives in one of the halves already (the
        # recursive call absorbed it), so no further absorption here.
        if len(node.children) > self._branching:
            return self._split_node(node)
        return None

    def _insert_into_leaf(
        self, leaf: _Node, point: Point
    ) -> tuple[_Node, _Node] | None:
        if leaf.entries:
            idx = _closest_entry(leaf.entries, point)
            if leaf.entries[idx].radius_if_absorbed(point) <= self._threshold:
                leaf.entries[idx].absorb(point)
                return None
        leaf.entries.append(ClusteringFeature.of_point(point))
        if len(leaf.entries) > self._leaf_capacity:
            return self._split_node(leaf)
        return None

    def _split_node(self, node: _Node) -> tuple[_Node, _Node]:
        """Split an overflowing node by farthest-pair seeding."""
        centroids = np.stack([cf.centroid() for cf in node.entries])
        # Farthest pair among entries (quadratic in the node size, which
        # is capped by branching/leaf_capacity).
        sq = (
            np.einsum("ij,ij->i", centroids, centroids)[:, None]
            + np.einsum("ij,ij->i", centroids, centroids)[None, :]
            - 2.0 * (centroids @ centroids.T)
        )
        seed_a, seed_b = np.unravel_index(int(np.argmax(sq)), sq.shape)
        to_a = (
            np.linalg.norm(centroids - centroids[seed_a], axis=1)
            <= np.linalg.norm(centroids - centroids[seed_b], axis=1)
        )
        to_a[seed_a] = True
        to_a[seed_b] = False

        left = _Node(is_leaf=node.is_leaf)
        right = _Node(is_leaf=node.is_leaf)
        for i, goes_left in enumerate(to_a):
            target = left if goes_left else right
            target.entries.append(node.entries[i])
            if not node.is_leaf:
                target.children.append(node.children[i])
        return left, right

    # ------------------------------------------------------------------
    # Threshold fitting (the rebuild loop, simplified)
    # ------------------------------------------------------------------
    @classmethod
    def fit_threshold(
        cls,
        points: PointMatrix,
        max_leaf_entries: int,
        initial_threshold: float | None = None,
        branching: int = 8,
        leaf_capacity: int = 8,
        max_rebuilds: int = 32,
    ) -> "CFTree":
        """Build a tree whose leaf-entry count fits ``max_leaf_entries``.

        BIRCH grows the threshold and rebuilds when memory runs out; this
        simplified loop doubles the threshold until the summary fits,
        which is what the bubbles-vs-CFs comparison needs (equal summary
        sizes).
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("fit_threshold expects a non-empty (m, d) matrix")
        if max_leaf_entries < 1:
            raise ValueError("max_leaf_entries must be >= 1")
        if initial_threshold is None:
            spread = points.std(axis=0).mean()
            initial_threshold = max(spread / 100.0, 1e-9)
        threshold = float(initial_threshold)
        for _ in range(max_rebuilds):
            tree = cls(
                threshold=threshold,
                branching=branching,
                leaf_capacity=leaf_capacity,
            )
            tree.insert_many(points)
            if tree.num_leaf_entries <= max_leaf_entries:
                return tree
            threshold *= 2.0
        raise RuntimeError(
            f"could not fit {points.shape[0]} points into "
            f"{max_leaf_entries} leaf entries within {max_rebuilds} rebuilds"
        )


def _closest_entry(entries: list[ClusteringFeature], point: Point) -> int:
    """Index of the entry whose centroid is closest to ``point``."""
    centroids = np.stack([cf.centroid() for cf in entries])
    diff = centroids - point
    return int(np.argmin(np.einsum("ij,ij->i", diff, diff)))


def _summarize_node(node: _Node) -> ClusteringFeature:
    """A fresh CF summarizing everything below ``node``."""
    merged: ClusteringFeature | None = None
    for cf in node.entries:
        if merged is None:
            merged = ClusteringFeature(dim=cf.dim)
        clone = ClusteringFeature(dim=cf.dim)
        clone.stats.merge(cf.stats)
        merged.merge(clone)
    if merged is None:  # pragma: no cover - nodes are never empty
        raise ValueError("cannot summarize an empty node")
    return merged
