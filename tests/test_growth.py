"""Growth tables, exact spectral rates, probes, extension bounds, and
distortion rates, with the two computation routes cross-checked."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from endogrow import ball, growth
from endogrow.endos import (
    HeisenbergEndo,
    MatrixEndo,
    ProductEndo,
    WordEndo,
    identity_endo,
    induce_on_quotient,
)
from endogrow.groups import (
    Free,
    FreeAbelian,
    Heisenberg,
    UnsupportedOperationError,
    lower_central_layer,
)
from endogrow.intmat import IntMatrix, mat_pow, spectral_radius
from endogrow.products import direct_product, semidirect, sublattice
from endogrow.growth import (
    distortion_rate,
    exact_growth_rate,
    extension_bounds,
    growth_table,
    nilpotent_growth_rate,
)

SQRT2 = math.sqrt(2.0)
GOLDEN = (1 + math.sqrt(5)) / 2


def M(rows):
    return IntMatrix.from_rows(rows)


def swap_doubling():
    return MatrixEndo(FreeAbelian(2), M([[0, 2], [1, 0]]))


def fibonacci_word_endo():
    return WordEndo(Free(2), ((1, 2), (1,)))


class TestGrowthTable:
    def test_table_of_the_swap_doubling_map(self):
        est = growth_table(swap_doubling(), 4)
        assert est.table == (2, 2, 4, 4)
        assert est.roots == pytest.approx((2.0, SQRT2, 4 ** (1 / 3), SQRT2))
        assert est.inf_bound == pytest.approx(SQRT2, abs=1e-12)

    def test_identity_is_flat(self):
        est = growth_table(identity_endo(FreeAbelian(3)), 5)
        assert est.table == (1, 1, 1, 1, 1)
        assert est.ratio_estimate == pytest.approx(1.0)
        assert est.status == "converged"

    def test_fibonacci_ratio_estimate(self):
        est = growth_table(fibonacci_word_endo(), 10)
        assert est.table == (2, 3, 5, 8, 13, 21, 34, 55, 89, 144)
        assert abs(est.ratio_estimate - GOLDEN) <= 0.02

    def test_ratios_of_big_lengths_are_the_exact_ratios_rounded_once(self):
        # at m = 1000 the lengths have about 1,700 bits; dividing them as ints
        # gives each ratio's float as Fraction does, so the estimate is the
        # one built from Fraction ratios
        endo = MatrixEndo(FreeAbelian(3), M([[1, 2, 0], [0, 1, 3], [2, 0, 1]]))
        est = growth_table(endo, 1000)
        table = est.table
        assert table[-1].bit_length() > 1000
        ratios = [float(Fraction(b, a)) for a, b in zip(table, table[1:])]
        window = ratios[-(len(ratios) // 2) :]
        assert est.ratio_estimate == math.exp(math.fsum(map(math.log, window)) / len(window))
        assert est.status == "converged"

    def test_trivial_endo(self):
        est = growth_table(MatrixEndo(FreeAbelian(2), M([[0, 1], [0, 0]])), 6)
        assert est.status == "trivial"
        assert est.ratio_estimate == 0.0
        assert est.inf_bound == 0.0

    def test_bfs_truncation(self):
        group = FreeAbelian(2, bfs_radius=8)
        est = growth_table(MatrixEndo(group, M([[2, 0], [0, 2]])), 10)
        assert est.status == "truncated"
        assert est.table == (2, 4, 8)  # 16 exceeds the enumerated radius

    def test_bfs_first_image_outside_the_ball_is_truncated(self):
        # phi(a) = ab already has length 2 > radius 1: no power is recorded,
        # which says nothing about the rate (the golden ratio)
        endo = WordEndo(Free(2, bfs_radius=1), ((1, 2), (1,)))
        est = growth_table(endo, 10)
        assert est.table == ()
        assert est.status == "truncated"
        assert (est.inf_bound, est.ratio_estimate) == (0.0, 0.0)

    def test_bfs_mode_enumerates_its_ball_once(self, monkeypatch):
        runs = []
        real = ball.enumerate_ball

        def counting(*args, **kwargs):
            runs.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ball, "enumerate_ball", counting)
        group = FreeAbelian(2, bfs_radius=8)
        est = growth_table(MatrixEndo(group, M([[2, 0], [0, 2]])), 10)
        assert est.table == (2, 4, 8)
        assert runs == [(group, 8)]

    @pytest.mark.parametrize("max_power", [True, 2.5, "3", -1])
    def test_library_max_power_is_an_int_at_least_one(self, max_power):
        # neither coerced nor left to fail inside the loop
        with pytest.raises(ValueError, match="max_power must be an int >= 1"):
            growth_table(swap_doubling(), max_power)
        group = semidirect(FreeAbelian(2), FreeAbelian(1), [[[2, 1], [1, 1]]])
        with pytest.raises(ValueError, match="max_power must be an int >= 1"):
            distortion_rate(group, max_power)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(0, 6), max_power=st.integers(1, 25))
    def test_matrix_table_is_the_max_row_norm_of_each_power(self, data, n, max_power):
        # the matrix step sums only A's nonzero entries; zero rows and
        # columns are drawn on purpose
        zero_rows = data.draw(st.sets(st.integers(0, n - 1))) if n else set()
        zero_cols = data.draw(st.sets(st.integers(0, n - 1))) if n else set()
        rows = [
            [0 if i in zero_rows or j in zero_cols else data.draw(st.integers(-3, 3))
             for j in range(n)]
            for i in range(n)
        ]
        a = M(rows)
        expected = []
        for k in range(1, max_power + 1):
            power = mat_pow(a, k)
            expected.append(max((sum(map(abs, power.row(i))) for i in range(n)), default=0))
            if expected[-1] == 0:
                break  # a power that kills every generator ends the table
        assert growth_table(MatrixEndo(FreeAbelian(n), a), max_power).table == tuple(expected)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                         min_size=2, max_size=2),
           max_power=st.integers(1, 25))
    @example(rows=[[2, 1], [1, 1]], max_power=25)
    def test_bfs_matrix_table_reads_the_census_until_it_runs_out(self, rows, max_power):
        # the matrix step in a bfs-mode lattice: the table of the images by
        # _apply, looked up in the census, cut where an image leaves the ball
        group = FreeAbelian(2, bfs_radius=6)
        endo = MatrixEndo(group, M(rows))
        lengths = ball.enumerate_ball(FreeAbelian(2), 6).lengths
        images = list(group.generators)
        expected = []
        for _ in range(max_power):
            images = [endo._apply(g) for g in images]
            if any(g not in lengths for g in images):
                break
            expected.append(max(lengths[g] for g in images))
            if expected[-1] == 0:
                break
        assert growth_table(endo, max_power).table == tuple(expected)

    def test_fekete_submultiplicativity_exact(self):
        for endo, mp in ((swap_doubling(), 12), (fibonacci_word_endo(), 12)):
            table = growth_table(endo, mp).table
            for i in range(1, len(table) + 1):
                for j in range(1, len(table) + 1 - i):
                    assert table[i + j - 1] <= table[i - 1] * table[j - 1]

    def test_generator_bound_exact_integers(self):
        rng = random.Random(20250811)
        group = Free(2)
        for _ in range(50):
            images = []
            for _ in range(2):
                length = rng.randint(1, 4)
                word = []
                for _ in range(length):
                    letter = rng.choice([-2, -1, 1, 2])
                    if word and word[-1] == -letter:
                        letter = -letter
                    word.append(letter)
                images.append(tuple(word))
            endo = WordEndo(group, tuple(images))
            table = growth_table(endo, 7).table
            k1 = table[0]
            for m, km in enumerate(table, start=1):
                assert km <= k1**m


class TestExactRates:
    def test_swap_doubling_rate(self):
        assert exact_growth_rate(swap_doubling()) == pytest.approx(SQRT2, abs=1e-11)

    def test_rank_one_multiplier(self):
        endo = MatrixEndo(FreeAbelian(1), M([[3]]))
        assert exact_growth_rate(endo) == 3.0
        assert growth_table(endo, 10).table == tuple(3**m for m in range(1, 11))

    def test_diagonal(self):
        assert exact_growth_rate(MatrixEndo(FreeAbelian(2), M([[2, 0], [0, 3]]))) == pytest.approx(3.0)

    def test_zero_size_blocks_read_through_spectral_radius(self):
        # the empty matrix's char poly is 1, so its spectral radius is 0.0
        assert exact_growth_rate(identity_endo(FreeAbelian(0))) == 0.0
        # Z^2 / 3Z^2 has no free part: the torsion orbits alone give the rate
        lattice = sublattice(FreeAbelian(2), [[3, 0], [0, 3]])
        for rows, rate in (([[1, 0], [0, 1]], 1.0), ([[3, 0], [0, 3]], 0.0)):
            induced = induce_on_quotient(MatrixEndo(FreeAbelian(2), M(rows)), lattice)
            assert induced.group.free_rank == 0
            assert exact_growth_rate(induced) == rate

    def test_word_endos_have_no_exact_route(self):
        with pytest.raises(UnsupportedOperationError):
            exact_growth_rate(fibonacci_word_endo())

    def test_estimates_agree_with_exact_for_random_matrices(self):
        rng = random.Random(85)
        done = 0
        while done < 20:
            n = rng.choice([2, 3])
            mat = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            exact = spectral_radius(mat)
            if exact < 1.0:
                continue
            est = growth_table(MatrixEndo(FreeAbelian(n), mat), 30)
            assert abs(est.ratio_estimate - exact) <= 0.05
            assert est.inf_bound >= exact - 1e-9
            done += 1

    def test_heisenberg_quasi_and_bfs_routes_agree(self):
        quasi_est = growth_table(HeisenbergEndo(Heisenberg(3), 2, 2), 14)
        bfs_group = Heisenberg(2, bfs_radius=16)
        bfs_est = growth_table(HeisenbergEndo(bfs_group, 2, 2), 4)
        assert abs(quasi_est.ratio_estimate - bfs_est.ratio_estimate) <= 0.1


class TestNilpotentRate:
    def test_two_two(self):
        rate = nilpotent_growth_rate(HeisenbergEndo(Heisenberg(), 2, 2))
        assert rate.layer_rates == pytest.approx((2.0, 4.0))
        assert rate.combined == pytest.approx(2.0)
        assert rate.no_exponent_max == pytest.approx(4.0)

    def test_identity(self):
        rate = nilpotent_growth_rate(HeisenbergEndo(Heisenberg(), 1, 1))
        assert rate.combined == pytest.approx(1.0)

    def test_one_three(self):
        rate = nilpotent_growth_rate(HeisenbergEndo(Heisenberg(), 1, 3))
        assert rate.layer_rates == pytest.approx((3.0, 3.0))
        assert rate.combined == pytest.approx(3.0)


class TestExtensionBounds:
    def test_scaled_lattice_values(self):
        endo = MatrixEndo(FreeAbelian(2), M([[2, 0], [0, 3]]))
        lat = sublattice(FreeAbelian(2), [[2, 0], [0, 1]])
        report = extension_bounds(endo, lat)
        assert report.full == pytest.approx(3.0)
        assert report.restricted == pytest.approx(3.0)
        assert report.quotient == pytest.approx(0.0)
        assert report.quotient <= report.full + 1e-9
        assert report.full <= max(report.restricted, report.quotient) + 1e-9

    def test_trivial_subgroup_gives_equality(self):
        endo = MatrixEndo(FreeAbelian(2), M([[2, 1], [1, 1]]))
        trivial = sublattice(FreeAbelian(2), [[], []])
        report = extension_bounds(endo, trivial)
        assert report.quotient == report.full
        assert report.quotient <= report.full + 1e-9
        assert report.full <= max(report.restricted, report.quotient) + 1e-9

    def test_heisenberg_center_strict_inequality(self):
        endo = HeisenbergEndo(Heisenberg(), 2, 2)
        layer = lower_central_layer(Heisenberg(), 2)
        report = extension_bounds(endo, layer)
        assert report.full == pytest.approx(2.0)
        assert report.restricted == pytest.approx(4.0)
        assert report.quotient == pytest.approx(2.0)
        assert report.quotient <= report.full + 1e-9
        assert report.full <= max(report.restricted, report.quotient) + 1e-9
        assert report.full < max(report.restricted, report.quotient) - 0.5


class TestDistortionRate:
    def test_hyperbolic_action(self):
        group = semidirect(FreeAbelian(2), FreeAbelian(1), [[[2, 1], [1, 1]]])
        rate = distortion_rate(group, 10)
        expected = (3 + math.sqrt(5)) / 2
        assert rate.spectral_value == pytest.approx(expected, abs=1e-9)
        assert rate.sqrt_spectral == pytest.approx(math.sqrt(expected), abs=1e-9)
        assert rate.table == (3, 8, 21, 55, 144, 377, 987, 2584, 6765, 17711)
        assert abs(rate.estimate.ratio_estimate - expected) <= 0.01

    def test_trivial_action_is_undistorted(self):
        group = semidirect(FreeAbelian(2), FreeAbelian(1), [[[1, 0], [0, 1]]])
        rate = distortion_rate(group, 6)
        assert rate.spectral_value == pytest.approx(1.0)
        assert rate.table == (1,) * 6

    def test_finite_order_action_is_undistorted(self):
        group = semidirect(FreeAbelian(2), FreeAbelian(1), [[[0, -1], [1, 0]]])
        rate = distortion_rate(group, 6)
        assert rate.spectral_value == pytest.approx(1.0)

    def test_rank_two_table_matches_the_exponent_vectors(self):
        # the walk against a direct max over the exponent vectors e with
        # |e|_1 <= m of m's parity, each action built by action_of
        a, b = [[2, 1], [1, 1]], [[3, 2], [2, 1]]  # b = a^2 - a commutes with a
        group = semidirect(FreeAbelian(2), FreeAbelian(2), [a, b])
        expected = []
        for m in range(1, 6):
            expected.append(max(
                max(sum(map(abs, col)) for col in group.action_of((i, j)).columns)
                for i in range(-m, m + 1) for j in range(-m, m + 1)
                if abs(i) + abs(j) <= m and (m - abs(i) - abs(j)) % 2 == 0
            ))
        assert distortion_rate(group, 5).table == tuple(expected)

    def test_table_takes_the_max_over_shorter_exponents_of_the_same_parity(self):
        # A has order 3: A(e) stretches 2 at e = +-1, +-2 and 1 at e = +-3,
        # and S_3 = {+-1, +-3} still holds a stretch of 2
        group = semidirect(FreeAbelian(2), FreeAbelian(1), [[[0, 1], [-1, -1]]])
        assert distortion_rate(group, 6).table == (2,) * 6

    def test_trivial_base_stretches_nothing(self):
        # a 0x0 action has no columns to stretch, so the table is all zeros
        group = semidirect(FreeAbelian(0), FreeAbelian(1), [[]])
        assert distortion_rate(group, 3).table == (0, 0, 0)

    def test_acting_rank_over_three_is_unsupported(self):
        group = semidirect(FreeAbelian(1), FreeAbelian(4), [[[1]]] * 4)
        with pytest.raises(UnsupportedOperationError, match="capped at rank 3"):
            distortion_rate(group, 2)


class TestProductRates:
    def test_direct_product_takes_the_max(self):
        product = direct_product(FreeAbelian(1), FreeAbelian(1))
        endo = ProductEndo(
            product,
            (MatrixEndo(FreeAbelian(1), M([[2]])), MatrixEndo(FreeAbelian(1), M([[3]]))),
        )
        assert exact_growth_rate(endo) == pytest.approx(3.0, abs=1e-12)
        est = growth_table(endo, 12)
        assert abs(est.ratio_estimate - 3.0) <= 0.05
