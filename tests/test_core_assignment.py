"""Unit tests for the point-to-seed assigners (Section 3 / Figure 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    NaiveAssigner,
    TriangleInequalityAssigner,
    make_assigner,
)
from repro.geometry import DistanceCounter


@pytest.fixture
def seeds(rng) -> np.ndarray:
    return rng.normal(size=(25, 3)) * 10.0


class TestNaiveAssigner:
    def test_assign_finds_nearest(self, seeds, rng):
        assigner = NaiveAssigner(seeds)
        for _ in range(20):
            point = rng.normal(size=3) * 10.0
            expected = int(
                np.argmin(np.linalg.norm(seeds - point, axis=1))
            )
            assert assigner.assign(point) == expected

    def test_assign_counts_all_seeds(self, seeds):
        counter = DistanceCounter()
        assigner = NaiveAssigner(seeds, counter)
        assigner.assign(np.zeros(3))
        assert counter.computed == len(seeds)
        assert counter.pruned == 0

    def test_assign_many_matches_assign(self, seeds, rng):
        points = rng.normal(size=(50, 3)) * 10.0
        bulk = NaiveAssigner(seeds).assign_many(points)
        single = [NaiveAssigner(seeds).assign(p) for p in points]
        assert bulk.tolist() == single

    def test_assign_many_counting(self, seeds):
        counter = DistanceCounter()
        assigner = NaiveAssigner(seeds, counter)
        assigner.assign_many(np.zeros((10, 3)))
        assert counter.computed == 10 * len(seeds)

    def test_assign_many_empty(self, seeds):
        result = NaiveAssigner(seeds).assign_many(np.empty((0, 3)))
        assert result.shape == (0,)

    def test_rejects_empty_locations(self):
        with pytest.raises(ValueError):
            NaiveAssigner(np.empty((0, 2)))

    def test_assign_many_parity_duplicate_and_equidistant_seeds(self):
        # Norm-trick drift regression: with duplicate seeds and points
        # exactly equidistant between seeds, an expanded-norm batch path
        # can produce tiny negative squared distances or break argmin
        # tie-breaks. The batch kernel must pick the same (first) index
        # as the scalar path for every row.
        seeds = np.array(
            [
                [0.0, 0.0],
                [2.0, 0.0],
                [2.0, 0.0],  # duplicate of seed 1
                [0.0, 0.0],  # duplicate of seed 0
                [1.0, 3.0],
            ]
        )
        points = np.array(
            [
                [1.0, 0.0],  # equidistant between seeds 0/3 and 1/2
                [2.0, 0.0],  # exactly on the duplicated seed pair 1/2
                [0.0, 0.0],  # exactly on the duplicated seed pair 0/3
                [1.0, 1.5],  # equidistant between 0, 1 and their twins
            ]
        )
        assigner = NaiveAssigner(seeds)
        bulk = assigner.assign_many(points)
        for i, point in enumerate(points):
            assert bulk[i] == assigner.assign(point), f"row {i}"
        # The TI batch kernel breaks the same ties as its scalar loop
        # under an identically seeded RNG.
        batch, scalar = (
            TriangleInequalityAssigner(seeds, rng=np.random.default_rng(0))
            for _ in range(2)
        )
        assert batch.assign_many(points).tolist() == [
            scalar.assign(p) for p in points
        ]

    def test_assign_many_parity_far_from_origin(self):
        # The expanded norm trick loses the most precision when points sit
        # far from the origin with tiny separations; exact blockwise
        # distances must keep batch == scalar there too.
        offset = np.array([1e8, -1e8, 1e8])
        seeds = offset + np.array(
            [[0.0, 0.0, 0.0], [1e-3, 0.0, 0.0], [0.0, 1e-3, 0.0]]
        )
        rng = np.random.default_rng(7)
        points = offset + rng.normal(scale=1e-3, size=(64, 3))
        assigner = NaiveAssigner(seeds)
        bulk = assigner.assign_many(points)
        for i, point in enumerate(points):
            assert bulk[i] == assigner.assign(point), f"row {i}"


class TestAssignManyValidation:
    """assign_many must fail fast on malformed input, naming (m, d)."""

    @pytest.mark.parametrize("use_ti", [False, True])
    def test_rejects_1d_input(self, seeds, use_ti):
        assigner = make_assigner(seeds, use_triangle_inequality=use_ti)
        with pytest.raises(ValueError, match=r"\(m, 3\)"):
            assigner.assign_many(np.zeros(3))

    @pytest.mark.parametrize("use_ti", [False, True])
    def test_rejects_wrong_dim(self, seeds, use_ti):
        assigner = make_assigner(seeds, use_triangle_inequality=use_ti)
        with pytest.raises(ValueError, match=r"\(m, 3\)"):
            assigner.assign_many(np.zeros((5, 4)))

    @pytest.mark.parametrize("use_ti", [False, True])
    def test_rejects_3d_input(self, seeds, use_ti):
        assigner = make_assigner(seeds, use_triangle_inequality=use_ti)
        with pytest.raises(ValueError, match=r"\(m, 3\)"):
            assigner.assign_many(np.zeros((2, 2, 3)))

    def test_rejects_before_accounting(self, seeds):
        # A shape error must not leave partial accounting behind.
        counter = DistanceCounter()
        assigner = NaiveAssigner(seeds, counter)
        with pytest.raises(ValueError):
            assigner.assign_many(np.zeros((5, 4)))
        assert counter.computed == 0
        assert assigner.assign_computed == 0


class TestTriangleInequalityAssigner:
    def test_always_agrees_with_naive(self, seeds, rng):
        pruning = TriangleInequalityAssigner(
            seeds, rng=np.random.default_rng(0)
        )
        naive = NaiveAssigner(seeds)
        for _ in range(200):
            point = rng.normal(size=3) * 12.0
            assert pruning.assign(point) == naive.assign(point)

    def test_agreement_on_clustered_data(self, rng):
        # Clustered seeds are where pruning is most aggressive.
        seeds = np.vstack(
            [
                rng.normal([0, 0], 0.2, size=(10, 2)),
                rng.normal([50, 50], 0.2, size=(10, 2)),
            ]
        )
        pruning = TriangleInequalityAssigner(
            seeds, rng=np.random.default_rng(1)
        )
        naive = NaiveAssigner(seeds)
        points = np.vstack(
            [
                rng.normal([0, 0], 1.0, size=(100, 2)),
                rng.normal([50, 50], 1.0, size=(100, 2)),
            ]
        )
        assert pruning.assign_many(points).tolist() == naive.assign_many(
            points
        ).tolist()

    def test_accounting_is_complete(self, seeds):
        # computed + pruned must equal B for every assignment: every seed
        # is either probed or discharged by Lemma 1.
        counter = DistanceCounter()
        assigner = TriangleInequalityAssigner(
            seeds, counter, rng=np.random.default_rng(2)
        )
        base = counter.snapshot()
        assigner.assign(np.zeros(3))
        delta = counter.snapshot() - base
        assert delta.computed + delta.pruned == len(seeds)
        assert assigner.assign_computed + assigner.assign_pruned == len(seeds)

    def test_prunes_on_well_separated_seeds(self, rng):
        seeds = np.vstack(
            [
                rng.normal([0, 0], 0.1, size=(20, 2)),
                rng.normal([100, 100], 0.1, size=(20, 2)),
            ]
        )
        assigner = TriangleInequalityAssigner(
            seeds, rng=np.random.default_rng(3)
        )
        points = rng.normal([0, 0], 0.5, size=(100, 2))
        assigner.assign_many(points)
        # Points near the first blob should discharge the entire second
        # blob without distance computations most of the time.
        assert assigner.pruned_fraction > 0.3

    def test_setup_cost_recorded(self, seeds):
        counter = DistanceCounter()
        assigner = TriangleInequalityAssigner(seeds, counter)
        b = len(seeds)
        assert assigner.setup_computed == b * (b - 1) // 2
        assert counter.computed == assigner.setup_computed

    def test_setup_cost_can_be_excluded(self, seeds):
        counter = DistanceCounter()
        TriangleInequalityAssigner(seeds, counter, count_setup=False)
        assert counter.computed == 0

    def test_setup_contract_both_modes(self, seeds):
        # The contract: setup_computed always reports B·(B-1)/2 — the
        # matrix is always built — while count_setup only controls
        # whether that cost also lands in the shared counter.
        b = len(seeds)
        expected = b * (b - 1) // 2

        counted = DistanceCounter()
        a1 = TriangleInequalityAssigner(
            seeds, counted, rng=np.random.default_rng(4), count_setup=True
        )
        assert a1.setup_computed == expected
        assert counted.computed == expected
        assert counted.pruned == 0

        uncounted = DistanceCounter()
        a2 = TriangleInequalityAssigner(
            seeds, uncounted, rng=np.random.default_rng(4), count_setup=False
        )
        assert a2.setup_computed == expected  # attribute unaffected
        assert uncounted.computed == 0
        assert uncounted.pruned == 0

        # After assigning, the two counters differ by exactly the setup
        # cost (identical RNGs -> identical assignment accounting).
        points = np.random.default_rng(11).normal(size=(20, 3)) * 10.0
        a1.assign_many(points)
        a2.assign_many(points)
        assert counted.computed - uncounted.computed == expected
        assert counted.pruned == uncounted.pruned

    def test_single_seed(self):
        assigner = TriangleInequalityAssigner(np.zeros((1, 2)))
        assert assigner.assign(np.array([5.0, 5.0])) == 0

    def test_deterministic_given_rng(self, seeds):
        a = TriangleInequalityAssigner(seeds, rng=np.random.default_rng(9))
        b = TriangleInequalityAssigner(seeds, rng=np.random.default_rng(9))
        points = np.random.default_rng(10).normal(size=(30, 3))
        assert a.assign_many(points).tolist() == b.assign_many(points).tolist()


class TestMakeAssigner:
    def test_selects_pruning_by_default(self, seeds):
        assert isinstance(make_assigner(seeds), TriangleInequalityAssigner)

    def test_naive_when_disabled(self, seeds):
        assigner = make_assigner(seeds, use_triangle_inequality=False)
        assert isinstance(assigner, NaiveAssigner)

    def test_single_location_shortcircuits(self):
        assigner = make_assigner(np.zeros((1, 2)))
        assert isinstance(assigner, NaiveAssigner)

    def test_shared_counter_is_used(self, seeds):
        counter = DistanceCounter()
        assigner = make_assigner(seeds, counter=counter)
        assert assigner.counter is counter
