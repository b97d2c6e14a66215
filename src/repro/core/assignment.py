"""Assignment of points to their closest bubble seed.

Section 3 of the paper speeds up the construction (and incremental
maintenance) of data bubbles by pruning distance computations with the
triangle inequality:

**Lemma 1.** Let ``p`` be a database point and ``s_B1``, ``s_B2`` seeds of
two bubbles. If ``dist(s_B1, s_B2) >= 2 · dist(p, s_B1)`` then
``dist(p, s_B1) <= dist(p, s_B2)`` — so ``s_B2`` can be discarded without
computing ``dist(p, s_B2)``.

:class:`TriangleInequalityAssigner` implements the pseudocode of Figure 2
verbatim (candidate set, random probing, pruning against the current
candidate), on top of a precomputed seed-to-seed distance matrix. Its
:meth:`~TriangleInequalityAssigner.assign_many` is a *blockwise batch
engine*: whole blocks of points run the Figure 2 loop in lockstep through
vectorised numpy kernels, returning bit-identical assignments — and
identical computed/pruned totals — to the scalar :meth:`assign` loop under
the same RNG (see the class docstring for how that equivalence is kept).

:class:`NaiveAssigner` is the unpruned baseline that compares against every
seed; the complete-rebuild experiments of Figure 11 use it.

Both assigners account every conceptual distance computation either as
*computed* or as *pruned* so the experiments of Figures 10–11 can be
reproduced exactly in the paper's own metric. The cost of building the
seed matrix is tracked separately (:attr:`setup_computed`) because the
paper reports the assignment-phase pruning factor net of that (small)
overhead while still acknowledging it.

:class:`AssignerCache` memoizes one assigner (and therefore its O(B²) seed
matrix) across consecutive batch assignments, invalidating only when the
:class:`~repro.core.bubble_set.BubbleSet` actually mutates; the maintainers
use it so a quiet summary never pays the seed matrix twice.

There is one triangle-inequality assignment path: serial, drawing its
probe order from the main RNG, bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from ..geometry import DistanceCounter, pairwise
from ..geometry.distance import row_norms
from ..observability.spans import maybe_span
from ..types import Point, PointMatrix

__all__ = [
    "Assigner",
    "AssignerCache",
    "NaiveAssigner",
    "TriangleInequalityAssigner",
    "make_assigner",
]

#: Floor for the adaptively sized lockstep blocks of
#: :meth:`TriangleInequalityAssigner.assign_many`. Bigger blocks mean
#: fewer lockstep rounds (round cost is dominated by the rows still
#: alive, not the block width), so the engine prefers the largest block
#: the element budget below allows.
DEFAULT_BLOCK_SIZE = 1024

#: Target float64 element count of the temporary ``(rows, B, d)``
#: difference tensor built by :meth:`NaiveAssigner.assign_many` per block
#: (4M elements = 32 MiB).
_NAIVE_BLOCK_ELEMENTS = 1 << 22

#: Element budget for the triangle-inequality engine's per-block
#: ``(rows, B)`` workspaces (probing permutations + membership masks):
#: 4M int64 elements = 32 MiB of permutation rows.
_TI_BLOCK_ELEMENTS = 1 << 22


class Assigner:
    """Common interface: map points to the index of their closest location.

    Args:
        locations: ``(B, d)`` matrix of bubble seeds/representatives.
            Copied defensively — callers may hand in views of live,
            mutating state (e.g. a :class:`BubbleSet`'s cached
            representative matrix).
        counter: shared :class:`DistanceCounter`; a private one is created
            when omitted.
        obs: observability handle; batch kernels run each block under an
            ``assign_block`` span when span tracing is enabled. Mutable
            (:attr:`obs`) so a cached assigner can follow its owner's
            handle without invalidating the cache.
    """

    def __init__(
        self,
        locations: PointMatrix,
        counter: DistanceCounter | None = None,
        obs=None,
    ) -> None:
        locations = np.array(locations, dtype=np.float64, order="C")
        if locations.ndim != 2 or locations.shape[0] == 0:
            raise ValueError(
                f"locations must be a non-empty (B, d) matrix, got shape "
                f"{locations.shape}"
            )
        self._locations = locations
        self._counter = counter if counter is not None else DistanceCounter()
        self._assign_computed = 0
        self._assign_pruned = 0
        self.obs = obs

    @property
    def num_locations(self) -> int:
        """How many candidate locations the assigner chooses among."""
        return int(self._locations.shape[0])

    @property
    def locations(self) -> np.ndarray:
        """The candidate locations (read-only view)."""
        view = self._locations.view()
        view.flags.writeable = False
        return view

    @property
    def counter(self) -> DistanceCounter:
        """The distance counter receiving this assigner's accounting."""
        return self._counter

    @property
    def assign_computed(self) -> int:
        """Distance computations executed during point assignment."""
        return self._assign_computed

    @property
    def assign_pruned(self) -> int:
        """Distance computations avoided during point assignment."""
        return self._assign_pruned

    @property
    def pruned_fraction(self) -> float:
        """Fraction of assignment-phase computations avoided (Figure 10)."""
        considered = self._assign_computed + self._assign_pruned
        if considered == 0:
            return 0.0
        return self._assign_pruned / considered

    def _validated_points(self, points: PointMatrix) -> np.ndarray:
        """Coerce batch input to float64 and reject anything not ``(m, d)``.

        Shape problems must surface *here*, with the expected shape in the
        message — not as an opaque broadcast error from deep inside a
        kernel after part of the batch was already accounted.
        """
        points = np.asarray(points, dtype=np.float64)
        dim = self._locations.shape[1]
        if points.ndim != 2 or points.shape[1] != dim:
            raise ValueError(
                f"assign_many expects an (m, {dim}) matrix of points "
                f"matching the (B, {dim}) locations; got shape "
                f"{points.shape}"
            )
        return points

    def assign(self, point: Point) -> int:
        """Index of the closest location for one point."""
        raise NotImplementedError

    def assign_many(self, points: PointMatrix) -> np.ndarray:
        """Indices of the closest locations for each row of ``points``.

        Subclasses override this with vectorised batch kernels; the base
        implementation is the per-point reference loop.

        Raises:
            ValueError: ``points`` is not an ``(m, d)`` matrix with ``d``
                matching the locations.
        """
        points = self._validated_points(points)
        result = np.empty(points.shape[0], dtype=np.int64)
        for i, point in enumerate(points):
            result[i] = self.assign(point)
        return result


class NaiveAssigner(Assigner):
    """Full-scan nearest-seed assignment (no pruning).

    The baseline of Section 3: "the distance between p and all the seeds
    has to be determined". Every point costs exactly ``B`` distance
    computations.

    :meth:`assign_many` is vectorised but computes the *exact* blockwise
    distances ``‖p − s‖`` through the same reduction kernel as
    :meth:`assign` — not the expanded norm trick ``‖p‖² + ‖s‖² − 2p·s``,
    whose floating-point cancellation can go slightly negative and break
    argmin ties differently from the exact distances. Batch and scalar
    paths therefore always return the same owner, duplicate and
    equidistant seeds included.
    """

    def assign(self, point: Point) -> int:
        dists = self._counter.point_to_points(point, self._locations)
        self._assign_computed += self._locations.shape[0]
        return int(np.argmin(dists))

    def assign_many(self, points: PointMatrix) -> np.ndarray:
        # Vectorised and identically accounted: m · B computations.
        points = self._validated_points(points)
        num_points = points.shape[0]
        result = np.empty(num_points, dtype=np.int64)
        if num_points == 0:
            return result
        locations = self._locations
        num, dim = locations.shape
        count = num_points * num
        self._counter.record_computed(count)
        self._assign_computed += count
        block = max(1, _NAIVE_BLOCK_ELEMENTS // (num * dim))
        for start in range(0, num_points, block):
            chunk = points[start : start + block]
            with maybe_span(
                self.obs, "assign_block", points=chunk.shape[0]
            ):
                # (rows, B, d) difference tensor, reduced row-by-row
                # through the exact same kernel assign() uses —
                # bit-identical floats, hence bit-identical argmin
                # tie-breaks.
                diff = chunk[:, None, :] - locations[None, :, :]
                dists = row_norms(diff.reshape(-1, dim)).reshape(
                    chunk.shape[0], num
                )
                result[start : start + chunk.shape[0]] = np.argmin(
                    dists, axis=1
                )
        return result


class TriangleInequalityAssigner(Assigner):
    """Lemma 1 pruning assigner — the pseudocode of Figure 2.

    On construction the pairwise distances among all locations are computed
    once (``B·(B-1)/2`` computations, tracked in :attr:`setup_computed`).
    Per point, candidates are pruned against the current best candidate
    ``s_c``: every remaining seed ``s_j`` with
    ``dist(s_j, s_c) >= 2 · minDist`` cannot be closer than ``s_c`` and is
    discarded without a distance computation.

    **Batch engine.** :meth:`assign_many` runs the same Figure 2 loop over
    blocks of points in lockstep: per block it draws each point's random
    probing permutation from the shared RNG (one Fisher–Yates draw per
    point, in point order — exactly the stream the scalar loop consumes,
    so scalar and batch calls interleave reproducibly), then alternates a
    vectorised Lemma-1 prune pass (a row-compare against the cached
    seed-to-seed matrix applied to a by-value candidate membership mask)
    with a vectorised probe pass (one exact distance per surviving point)
    until every point's candidate set is exhausted. Preallocated
    per-block workspaces are reused across blocks and calls. Assignments
    are bit-identical to the scalar loop and the computed/pruned totals —
    accumulated per block, recorded once per block — match the scalar
    accounting exactly (see :meth:`_assign_block_core` for why).

    **Setup accounting contract.** :attr:`setup_computed` *always* reports
    the ``B·(B-1)/2`` cost of the seed matrix, in both ``count_setup``
    modes; the flag only controls whether that cost is *additionally*
    recorded into the shared ``counter``. Figure-10 aggregation relies on
    attribute and counter agreeing when ``count_setup=True`` and on the
    counter staying at zero (pre-assignment) when ``count_setup=False``.

    Args:
        locations: ``(B, d)`` seed matrix.
        counter: shared distance counter.
        rng: randomness source for the random candidate probing of
            Figure 2; a fresh default generator is used when omitted.
        count_setup: whether the seed-matrix construction cost is also
            recorded into ``counter`` (it always shows in
            :attr:`setup_computed`).
        block_size: points processed per lockstep block by
            :meth:`assign_many`; ``None`` (the default) sizes blocks
            adaptively from a fixed workspace element budget. The
            blocking never changes results — only workspace size and
            per-block overhead.
    """

    def __init__(
        self,
        locations: PointMatrix,
        counter: DistanceCounter | None = None,
        rng: np.random.Generator | None = None,
        count_setup: bool = True,
        block_size: int | None = None,
        obs=None,
    ) -> None:
        super().__init__(locations, counter, obs=obs)
        if block_size is not None and block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self._rng = rng if rng is not None else np.random.default_rng()
        self._seed_dists = pairwise(self._locations)
        self._block_size = None if block_size is None else int(block_size)
        self._ws_cand: np.ndarray | None = None
        self._ws_active: np.ndarray | None = None
        self._ws_cursor: np.ndarray | None = None
        b = self._locations.shape[0]
        self._setup_computed = b * (b - 1) // 2
        if count_setup:
            self._counter.record_computed(self._setup_computed)

    @property
    def setup_computed(self) -> int:
        """Distance computations spent on the seed-to-seed matrix.

        Reported unconditionally — the matrix is always built — even when
        ``count_setup=False`` kept the cost out of the shared counter.
        """
        return self._setup_computed

    def assign(self, point: Point) -> int:
        locations = self._locations
        num = locations.shape[0]
        if num == 1:
            self._counter.record_computed(1)
            self._assign_computed += 1
            return 0

        # "set CandidateSeeds to the set of all seeds of data bubbles"
        order = self._rng.permutation(num)
        candidates = order.tolist()

        # "select and remove a random seed s_i ... compute minDist"
        current = candidates.pop()
        min_dist = float(row_norms(locations[current : current + 1] - point)[0])
        computed = 1

        pruned = 0
        remaining = np.asarray(candidates, dtype=np.int64)
        while remaining.size:
            # Prune every s_j with dist(s_j, s_c) >= 2 · minDist (Lemma 1).
            keep_mask = self._seed_dists[current, remaining] < 2.0 * min_dist
            pruned += int(remaining.size - keep_mask.sum())
            remaining = remaining[keep_mask]
            if remaining.size == 0:
                break
            # "select and remove a random seed s_j; compute dist(p, s_j)"
            # `remaining` preserves the initial random permutation, so
            # popping the last element is a uniformly random probe.
            probe = int(remaining[-1])
            remaining = remaining[:-1]
            dist = float(row_norms(locations[probe : probe + 1] - point)[0])
            computed += 1
            if dist < min_dist:
                current = probe
                min_dist = dist

        self._counter.record_computed(computed)
        self._counter.record_pruned(pruned)
        self._assign_computed += computed
        self._assign_pruned += pruned
        return current

    def assign_many(self, points: PointMatrix) -> np.ndarray:
        points = self._validated_points(points)
        num_points = points.shape[0]
        result = np.empty(num_points, dtype=np.int64)
        if num_points == 0:
            # No RNG draw: empty batches are invisible to the stream.
            return result
        num = self._locations.shape[0]
        if num == 1:
            # Matches assign(): one computed distance per point, and the
            # RNG is never consulted (there is nothing to probe).
            self._counter.record_computed(num_points)
            self._assign_computed += num_points
            result[:] = 0
            return result
        block = self._block_size
        if block is None:
            block = max(DEFAULT_BLOCK_SIZE, _TI_BLOCK_ELEMENTS // num)
        for start in range(0, num_points, block):
            chunk = points[start : start + block]
            with maybe_span(
                self.obs, "assign_block", points=chunk.shape[0]
            ):
                result[start : start + chunk.shape[0]] = self._assign_block(
                    chunk
                )
        return result

    def _workspace(
        self, rows: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Preallocated (permutations, membership, cursor) workspaces."""
        if self._ws_cand is None or self._ws_cand.shape[0] < rows:
            num = self._locations.shape[0]
            self._ws_cand = np.empty((rows, num), dtype=np.int64)
            self._ws_active = np.empty((rows, num), dtype=bool)
            self._ws_cursor = np.empty(rows, dtype=np.int64)
        return (
            self._ws_cand[:rows],
            self._ws_active[:rows],
            self._ws_cursor[:rows],
        )

    def _assign_block(self, points: np.ndarray) -> np.ndarray:
        """One lockstep block under the main RNG, accounted at once."""
        indices, computed, pruned = self._assign_block_core(points)
        # Block-granular accounting: totals identical to per-point
        # scalar recording, at two counter calls per block instead of 2m.
        self._counter.record_computed(computed)
        self._counter.record_pruned(pruned)
        self._assign_computed += computed
        self._assign_pruned += pruned
        return indices

    def _assign_block_core(
        self, points: np.ndarray
    ) -> tuple[np.ndarray, int, int]:
        """Figure 2 in lockstep over one block of points.

        Candidate bookkeeping is *by seed value*: each point carries a
        boolean membership mask over seeds plus a cursor into its private
        probing permutation. Because a pruned candidate never returns, a
        seed is still in the scalar loop's candidate list exactly when it
        has passed every Lemma 1 test fired for that point so far —
        membership is a pure conjunction of the tests, independent of the
        order they fired in. A prune pass over the improved rows is
        therefore one row-select from the seed matrix, one compare and
        one masked AND — no index gathers and no list compaction. The
        probe reproduces the scalar loop's pop of the compacted list's
        tail: the surviving seed at the highest permutation position,
        found by stepping each cursor leftwards past removed values (each
        removed value is stepped past at most once per point, so the scan
        costs amortised O(B) per point).

        Accounting matches the scalar loop pass for pass: a prune pass
        counts exactly the members it clears, and probed seeds leave the
        mask at probe time (as the scalar loop pops them from its list)
        so no later pass can recount them. One algebraic shortcut keeps
        the rounds cheap: a prune pass whose ``(current, minDist)`` did
        not change since the previous pass is a provable no-op (every
        member already survived the identical Lemma 1 test), so only rows
        whose probe just *improved* minDist re-enter the prune pass.
        Assignments, accounting and RNG consumption are untouched by the
        skip.

        Returns:
            ``(indices, computed, pruned)`` — the block's assignments
            plus its accounting tallies, which the caller records.
        """
        rows = points.shape[0]
        num = self._locations.shape[0]
        locations = self._locations
        seed_dists = self._seed_dists
        cand, active, cursor = self._workspace(rows)

        # Per-point probing permutations, drawn one Fisher–Yates at a time
        # in point order so the RNG stream is bit-identical to a scalar
        # assign() loop over the same points. ``Generator.permutation(n)``
        # is exactly ``arange(n)`` + ``shuffle`` — shuffling prefilled
        # rows in place consumes the identical draw sequence while
        # skipping one allocation and copy per point.
        cand[:, :] = np.arange(num)
        rng = self._rng
        for i in range(rows):
            rng.shuffle(cand[i])

        # "select and remove a random seed s_i": the scalar loop pops the
        # permutation's last element first.
        row_iota = np.arange(rows)
        current = cand[:, num - 1].copy()
        min_dist = row_norms(locations[current] - points)
        computed = rows
        pruned = 0

        active[:, :] = True
        active[row_iota, current] = False
        cursor[:] = num - 2
        alive = row_iota
        to_prune = alive

        while True:
            if to_prune.size:
                # Lemma 1 by value: members failing the current test leave
                # the mask; already-removed seeds stay removed (AND is
                # monotone) and are never recounted.
                keep = (
                    seed_dists[current[to_prune]]
                    < 2.0 * min_dist[to_prune, None]
                )
                act = active[to_prune]
                pruned += int(np.count_nonzero(act & ~keep))
                active[to_prune] = act & keep

            # Advance each live cursor to its row's rightmost surviving
            # candidate; rows whose cursor runs off the left edge are done
            # (their scalar loop would see an empty candidate list).
            pending = alive
            while pending.size:
                pos = cursor[pending]
                in_range = pos >= 0
                live = pending[in_range]
                lpos = pos[in_range]
                ok = active[live, cand[live, lpos]]
                stuck = live[~ok]
                cursor[stuck] -= 1
                pending = stuck
            alive = alive[cursor[alive] >= 0]
            if alive.size == 0:
                break

            # Probe each survivor's tail candidate (the same uniformly
            # random probe the scalar loop pops).
            pos = cursor[alive]
            probes = cand[alive, pos]
            active[alive, probes] = False
            cursor[alive] = pos - 1
            dists = row_norms(locations[probes] - points[alive])
            computed += alive.size
            better = dists < min_dist[alive]
            improved = alive[better]
            current[improved] = probes[better]
            min_dist[improved] = dists[better]
            to_prune = improved

        return current.copy(), int(computed), int(pruned)


class AssignerCache:
    """Reuses one assigner while the bubble set it reflects is unchanged.

    Building a :class:`TriangleInequalityAssigner` costs the ``B·(B-1)/2``
    seed-to-seed matrix; maintainers that assign several batches against
    an unchanged summary (or run several redistribution steps against the
    same candidate set) should not pay it repeatedly. The cache keys on
    the :attr:`BubbleSet.version <repro.core.bubble_set.BubbleSet.version>`
    mutation counter plus the candidate id subset and the pruning flag, so
    any mutation of any bubble — absorb, release, reseed, clear, restore —
    invalidates it.

    The shared ``counter`` and ``rng`` are captured at construction of the
    cached assigner; callers must pass the same objects on every ``get``
    (the maintainers do — both live for the maintainer's lifetime).
    Accounting note: a cache *hit* spends no setup distance computations,
    and honestly records none.
    """

    __slots__ = ("_key", "_assigner", "hits", "misses")

    def __init__(self) -> None:
        self._key: tuple | None = None
        self._assigner: Assigner | None = None
        self.hits = 0
        self.misses = 0

    def invalidate(self) -> None:
        """Drop the cached assigner unconditionally."""
        self._key = None
        self._assigner = None

    def get(
        self,
        bubbles,
        counter: DistanceCounter,
        use_triangle_inequality: bool = True,
        rng: np.random.Generator | None = None,
        active_ids: np.ndarray | list | None = None,
        obs=None,
    ) -> Assigner:
        """The cached assigner, rebuilt only when the bubble set changed.

        Args:
            bubbles: the :class:`~repro.core.bubble_set.BubbleSet` whose
                representatives are the candidate locations.
            counter, use_triangle_inequality, rng: as for
                :func:`make_assigner`.
            active_ids: optional id subset to assign among (e.g. the
                adaptive maintainer's non-retired bubbles, or a merge's
                everything-but-the-donor set); ``None`` means all bubbles.
            obs: observability handle stamped onto the assigner (hit or
                miss) so block spans follow the caller; deliberately NOT
                part of the cache key — instrumentation must never change
                cache behaviour.
        """
        key = (
            bubbles.version,
            None
            if active_ids is None
            else tuple(int(i) for i in active_ids),
            bool(use_triangle_inequality),
        )
        if self._assigner is not None and key == self._key:
            self.hits += 1
            self._assigner.obs = obs
            return self._assigner
        reps = bubbles.reps()
        if active_ids is not None:
            reps = reps[np.asarray(active_ids, dtype=np.int64)]
        self._assigner = make_assigner(
            reps,
            counter=counter,
            use_triangle_inequality=use_triangle_inequality,
            rng=rng,
            obs=obs,
        )
        self._key = key
        self.misses += 1
        return self._assigner


def make_assigner(
    locations: PointMatrix,
    counter: DistanceCounter | None = None,
    use_triangle_inequality: bool = True,
    rng: np.random.Generator | None = None,
    obs=None,
) -> Assigner:
    """Factory selecting the pruning or naive assigner.

    Single-location sets short-circuit to the naive assigner — with one
    seed there is nothing to prune.
    """
    locations = np.asarray(locations, dtype=np.float64)
    if use_triangle_inequality and locations.shape[0] > 1:
        return TriangleInequalityAssigner(locations, counter, rng, obs=obs)
    return NaiveAssigner(locations, counter, obs=obs)
