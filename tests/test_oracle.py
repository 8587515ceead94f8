"""BFS ball enumeration: counts, exact lengths, determinism, budgets, and
distortion profiles."""

from __future__ import annotations

import gc
import weakref

import pytest

from endogrow.ball import distortion_profile, enumerate_ball, exact_length
from endogrow.groups import Free, FreeAbelian, Heisenberg, OutOfBallError
from endogrow.products import Sublattice, semidirect
from endogrow.intmat import IntMatrix


def lattice_ball_count(n):
    # L1 ball in Z^2
    return 2 * n * n + 2 * n + 1


def free2_ball_count(n):
    # 4 * 3^(k-1) new reduced words at each radius k
    return 1 + 2 * (3**n - 1)


class TestCounts:
    def test_lattice_counts_match_closed_form(self):
        census = enumerate_ball(FreeAbelian(2), 10)
        assert census.counts == tuple(lattice_ball_count(n) for n in range(11))

    def test_free_counts_match_closed_form(self):
        census = enumerate_ball(Free(2), 8)
        assert census.counts == tuple(free2_ball_count(n) for n in range(9))

    def test_radius_zero(self):
        census = enumerate_ball(Heisenberg(), 0)
        assert census.counts == (1,)
        assert census.lengths == {(0, 0, 0): 0}

    def test_counts_nondecreasing(self):
        census = enumerate_ball(Heisenberg(2), 8)
        assert all(a <= b for a, b in zip(census.counts, census.counts[1:]))


class TestExactLengths:
    def test_lattice_lengths_are_l1(self):
        census = enumerate_ball(FreeAbelian(2), 10)
        for v, length in census.lengths.items():
            assert length == abs(v[0]) + abs(v[1])

    def test_free_lengths_are_word_lengths(self):
        census = enumerate_ball(Free(2), 8)
        for w, length in census.lengths.items():
            assert length == len(w)

    def test_heisenberg_generator_lengths(self):
        three = enumerate_ball(Heisenberg(3), 2)
        assert exact_length(three, (0, 1, 0)) == 1
        two = enumerate_ball(Heisenberg(2), 4)
        assert exact_length(two, (0, 1, 0)) == 4

    def test_lattice_diagonal(self):
        census = enumerate_ball(FreeAbelian(2), 3)
        assert exact_length(census, (1, 1)) == 2

    def test_out_of_range_is_explicit(self):
        census = enumerate_ball(FreeAbelian(2), 3)
        with pytest.raises(OutOfBallError):
            exact_length(census, (4, 0))

    @pytest.mark.parametrize("group", [FreeAbelian(2), Free(2), Heisenberg(2)])
    def test_lengths_satisfy_triangle_inequality_with_neighbors(self, group):
        census = enumerate_ball(group, 5)
        gens = group.symmetric_generators()
        for g, length in census.lengths.items():
            for s in gens:
                neighbor = group.multiply(g, s)
                other = census.lengths.get(neighbor)
                if other is not None:
                    assert abs(length - other) <= 1


class TestDeterminism:
    def test_two_fresh_runs_agree(self):
        a = enumerate_ball(Free(2), 6)
        b = enumerate_ball(Free(2), 6)
        assert a.counts == b.counts
        assert list(a.lengths.items()) == list(b.lengths.items())
        assert a.lengths is not b.lengths


class TestNoRetainedState:
    def test_census_dies_when_the_caller_drops_it(self):
        census = enumerate_ball(Free(2), 6)
        ref = weakref.ref(census)
        del census
        gc.collect()
        assert ref() is None

    def test_bfs_mode_census_is_freed_with_its_group(self):
        group = FreeAbelian(2, bfs_radius=4)
        assert group.word_length((1, -2)) == 3
        ref = weakref.ref(group._bfs_census)
        del group
        gc.collect()
        assert ref() is None

    def test_bfs_mode_census_is_freed_without_the_cycle_collector(self):
        group = FreeAbelian(2, bfs_radius=4)
        assert group.word_length((1, -2)) == 3
        ref = weakref.ref(group._bfs_census)
        gc.disable()
        try:
            del group
            assert ref() is None
        finally:
            gc.enable()


class TestBudget:
    def test_budget_exhaustion_flags_incomplete(self):
        census = enumerate_ball(Free(2), 8, budget=100)
        assert not census.complete
        assert census.completed_radius < 8
        # completed radii still exact
        assert census.counts == tuple(
            free2_ball_count(n) for n in range(census.completed_radius + 1)
        )
        for w, length in census.lengths.items():
            assert length == len(w) <= census.completed_radius

    def test_environment_variable_overrides_default_budget(self, monkeypatch):
        monkeypatch.setenv("ENDOGROW_BUDGET", "60")
        census = enumerate_ball(Free(2), 7)
        assert not census.complete
        assert census.completed_radius < 7


class TestDistortionProfile:
    def test_undistorted_coordinate_line(self):
        lat = Sublattice(2, IntMatrix.from_rows([[1], [0]]))
        profile = distortion_profile(FreeAbelian(2), lat, 8)
        assert profile.values == tuple(range(9))

    def test_profile_starts_at_zero(self):
        lat = Sublattice(2, IntMatrix.from_rows([[1], [0]]))
        profile = distortion_profile(FreeAbelian(2), lat, 3)
        assert profile.values[0] == 0

    def test_hyperbolic_base_is_distorted(self):
        group = semidirect(FreeAbelian(2), FreeAbelian(1), [[[2, 1], [1, 1]]])
        profile = distortion_profile(group, "base", 5)
        # the conjugate of a base generator by the acting letter certifies
        # an element of base length |A e_1|_1 = 3 within ambient radius 3
        assert profile.values[3] >= 3
        assert all(a <= b for a, b in zip(profile.values, profile.values[1:]))

    def test_unsupported_pair_rejected(self):
        with pytest.raises(ValueError):
            distortion_profile(Heisenberg(), "base", 3)
