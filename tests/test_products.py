"""Products, sublattices and quotients."""

from __future__ import annotations

import random

import pytest

from endogrow import intmat, products
from endogrow.ball import enumerate_ball
from endogrow.endos import MatrixEndo, induce_on_quotient
from endogrow.groups import EXACT, Free, FreeAbelian, Heisenberg, KindMismatchError
from endogrow.intmat import IntMatrix
from endogrow.products import (
    AbelianQuotient,
    Semidirect,
    Sublattice,
    abelian_quotient,
    direct_product,
    free_product,
    semidirect,
    sublattice,
)


def M(rows):
    return IntMatrix.from_rows(rows)


class TestDirectProduct:
    def test_z_times_z_matches_rank_two_lattice(self):
        product = direct_product(FreeAbelian(1), FreeAbelian(1))
        census = enumerate_ball(product, 4)
        reference = enumerate_ball(FreeAbelian(2), 4)
        assert census.counts == reference.counts

    def test_length_is_additive(self):
        product = direct_product(Free(1), Free(1))
        g = ((1, 1), (1, 1, 1))  # square of one factor letter, cube of the other
        assert product.word_length(g) == 5

    def test_heisenberg_times_z_length_on_ball(self):
        h = Heisenberg(3, bfs_radius=6)
        product = direct_product(h, FreeAbelian(1))
        census = enumerate_ball(product, 6)
        h_census = enumerate_ball(h, 6)
        for (hg, n), length in census.lengths.items():
            assert length == h_census.lengths[hg] + abs(n[0])

    def test_componentwise_ops(self):
        product = direct_product(FreeAbelian(1), Heisenberg())
        g = ((2,), (1, 0, 1))
        k = ((-1,), (0, 1, 0))
        assert product.multiply(g, k) == ((1,), (1, 1, 1))
        assert product.multiply(g, product.invert(g)) == product.identity()


class TestFreeProduct:
    def test_z_star_z_matches_free_of_rank_two(self):
        fp = free_product(FreeAbelian(1), FreeAbelian(1))
        assert enumerate_ball(fp, 5).counts == enumerate_ball(Free(2), 5).counts

    def test_syllable_length(self):
        fp = free_product(FreeAbelian(1), FreeAbelian(1))
        word = ((0, (2,)), (1, (3,)), (0, (-1,)))  # a^2 b^3 a^-1
        assert fp.word_length(word) == 6

    def test_syllable_cancellation_cascades(self):
        fp = free_product(FreeAbelian(1), FreeAbelian(1))
        left = ((0, (2,)), (1, (1,)))  # a^2 b
        right = ((1, (-1,)), (0, (1,)))  # b^-1 a
        assert fp.multiply(left, right) == ((0, (3,)),)

    def test_free_factor_words(self):
        fp = free_product(Free(2), FreeAbelian(1))
        w = ((0, (1, 2)), (1, (4,)))
        assert fp.word_length(w) == 6
        assert fp.multiply(w, fp.invert(w)) == ()

    def test_rejects_unsupported_factors(self):
        with pytest.raises(ValueError):
            free_product(FreeAbelian(2), FreeAbelian(1))
        with pytest.raises(ValueError):
            free_product(Heisenberg(), Free(1))

    def test_associativity_random(self):
        fp = free_product(Free(1), Free(1))
        rng = random.Random(41)
        gens = fp.symmetric_generators()

        def rand_word():
            g = fp.identity()
            for _ in range(rng.randint(0, 6)):
                g = fp.multiply(g, rng.choice(gens))
            return g

        for _ in range(1000):
            g, h, k = rand_word(), rand_word(), rand_word()
            assert fp.multiply(fp.multiply(g, h), k) == fp.multiply(g, fp.multiply(h, k))


class TestSemidirect:
    def setup_method(self):
        self.group = semidirect(FreeAbelian(2), FreeAbelian(1), [[[2, 1], [1, 1]]])

    def test_action_convention(self):
        g1 = ((1, 0), (0,))
        t = ((0, 0), (1,))
        moved = self.group.multiply(self.group.multiply(g1, t), g1)
        assert moved == ((3, 1), (1,))

    def test_action_is_built_only_for_a_nonzero_base_part(self, monkeypatch):
        # g (h, t) = (g_H + A(g_Q) h, g_Q + t) reads A(g_Q) only when h != 0
        calls = []
        action_of = Semidirect.action_of
        monkeypatch.setattr(
            Semidirect, "action_of", lambda group, q: calls.append(q) or action_of(group, q)
        )
        g = ((3, -1), (2,))
        assert self.group.multiply(g, ((0, 0), (1,))) == ((3, -1), (3,))
        assert calls == []
        assert self.group.multiply(g, ((1, 0), (1,))) == ((8, 2), (3,))
        assert calls == [(2,)]

    def test_trivial_action_behaves_like_direct_product(self):
        g = semidirect(FreeAbelian(1), FreeAbelian(1), [[[1]]])
        census = enumerate_ball(g, 4)
        assert census.counts == enumerate_ball(FreeAbelian(2), 4).counts

    def test_inverse_closed_form(self):
        inv = self.group.invert(((1, 0), (1,)))
        assert inv == ((-1, 1), (-1,))
        rng = random.Random(43)
        for _ in range(100):
            g = ((rng.randint(-5, 5), rng.randint(-5, 5)), (rng.randint(-3, 3),))
            assert self.group.multiply(g, self.group.invert(g)) == self.group.identity()

    def test_n_fold_product_matches_closed_form(self):
        # prefix-action expansion of a product of n pairs
        rng = random.Random(47)
        group = self.group
        for _ in range(200):
            n = rng.randint(1, 6)
            pairs = [
                ((rng.randint(-2, 2), rng.randint(-2, 2)), (rng.randint(-2, 2),))
                for _ in range(n)
            ]
            stepwise = group.identity()
            for p in pairs:
                stepwise = group.multiply(stepwise, p)
            total_q = (0,)
            total_h = (0, 0)
            prefix = (0,)
            for h, q in pairs:
                moved = group.action_of(prefix).apply_col(h)
                total_h = tuple(a + b for a, b in zip(total_h, moved))
                prefix = tuple(a + b for a, b in zip(prefix, q))
                total_q = prefix
            assert stepwise == (total_h, total_q)

    def test_rejects_non_unimodular_action(self):
        with pytest.raises(ValueError, match="^action matrix is not unimodular$"):
            semidirect(FreeAbelian(2), FreeAbelian(1), [[[2, 0], [0, 1]]])
        # det -1 is unimodular
        swap = semidirect(FreeAbelian(2), FreeAbelian(1), [[[0, 1], [1, 0]]])
        assert swap.generator_power(0, -1) == M([[0, 1], [1, 0]])

    def test_rejects_non_commuting_actions(self):
        a = [[1, 1], [0, 1]]
        b = [[1, 0], [1, 1]]
        with pytest.raises(ValueError):
            semidirect(FreeAbelian(2), FreeAbelian(2), [a, b])

    def test_quasi_length_needs_finite_order(self):
        with pytest.raises(ValueError):
            self.group.word_length(((1, 0), (0,)))

    def test_finite_order_quasi_length(self):
        rot = semidirect(FreeAbelian(2), FreeAbelian(1), [[[0, -1], [1, 0]]])
        assert rot.action_orders == (4,)
        assert rot.word_length(((2, -1), (3,))) == 6
        assert rot.exactness != EXACT

    def test_order_210_action_is_finite(self):
        # -(C(Phi3) + C(Phi5) + C(Phi7)) has order lcm(6, 10, 14) = 210 in GL(12, Z)
        blocks = [[1, 1], [1, 1, 1, 1], [1, 1, 1, 1, 1, 1]]  # Phi_d below its leading 1
        n = sum(map(len, blocks))
        rows = [[0] * n for _ in range(n)]
        at = 0
        for coeffs in blocks:
            k = len(coeffs)
            for i in range(1, k):
                rows[at + i][at + i - 1] = -1
            for i, c in enumerate(coeffs):
                rows[at + i][at + k - 1] = c
            at += k
        group = semidirect(FreeAbelian(n), FreeAbelian(1), [rows])
        assert group.action_orders == (210,)
        assert group.action_is_finite_order

    def test_infinite_order_search_stops_at_the_rank_bound(self, monkeypatch):
        calls = []
        real = products.mat_mul
        monkeypatch.setattr(products, "mat_mul", lambda a, b: calls.append(1) or real(a, b))
        assert self.group.action_orders == (None,)
        assert len(calls) == 6  # max_finite_order(2) == 6 powers tested, one product each

    def test_associativity_random(self):
        rng = random.Random(53)
        group = self.group
        for _ in range(1000):
            g, h, k = (
                ((rng.randint(-3, 3), rng.randint(-3, 3)), (rng.randint(-2, 2),))
                for _ in range(3)
            )
            assert group.multiply(group.multiply(g, h), k) == group.multiply(
                g, group.multiply(h, k)
            )


class TestSublattice:
    def test_index_from_determinant(self):
        assert sublattice(FreeAbelian(2), [[2, 0], [0, 1]]).index == 2
        assert sublattice(FreeAbelian(2), [[1, 1], [0, 2]]).index == 2
        # negative and permuted determinants: the index is |det|
        assert sublattice(FreeAbelian(2), [[0, 1], [1, 0]]).index == 1
        assert sublattice(FreeAbelian(2), [[0, 2], [3, 0]]).index == 6
        assert sublattice(FreeAbelian(2), [[1, 1], [0, -2]]).index == 2

    def test_membership_and_coordinates(self):
        lat = sublattice(FreeAbelian(2), [[2, 0], [0, 3]])
        assert lat.coordinates((2, 3)) is not None
        assert lat.coordinates((2, 3)) == (1, 1)
        assert lat.coordinates((1, 0)) is None

    def test_infinite_index_column(self):
        lat = Sublattice(2, M([[1], [0]]))
        assert lat.index is None
        assert lat.coordinates((5, 0)) is not None and lat.coordinates((0, 1)) is None

    def test_round_trip_coordinates(self):
        lat = sublattice(FreeAbelian(3), [[2, 1, 0], [0, 1, 1], [0, 0, 3]])
        rng = random.Random(59)
        for _ in range(100):
            coords = tuple(rng.randint(-4, 4) for _ in range(3))
            v = lat.basis.apply_col(coords)
            assert lat.coordinates(v) == coords

    def test_dependent_columns_rejected(self):
        with pytest.raises(ValueError):
            Sublattice(2, M([[1, 2], [1, 2]]))

    @pytest.mark.parametrize("v", [(1, "a"), (2, 0.0), (True, 0)])
    def test_coordinates_take_only_int_vectors(self, v):
        # checked as Z^2 checks its elements, not left to the map's arithmetic
        with pytest.raises(KindMismatchError):
            Sublattice(2, M([[2], [0]])).coordinates(v)

    def test_quotient_shares_the_smith_form(self):
        lat = sublattice(FreeAbelian(3), [[2, 1, 0], [0, 1, 1], [0, 0, 3]])
        assert abelian_quotient(FreeAbelian(3), lat).snf is lat.snf

    def test_one_smith_form_per_induced_quotient(self, monkeypatch):
        calls = []
        real = intmat.smith_normal_form

        def counted(a):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(products, "smith_normal_form", counted)
        monkeypatch.setattr(intmat, "smith_normal_form", counted)
        endo = MatrixEndo(FreeAbelian(2), M([[2, 1], [1, 1]]))
        induced = induce_on_quotient(endo, sublattice(FreeAbelian(2), [[2, 0], [0, 2]]))
        assert induced.group.torsion_moduli == (2, 2)
        assert len(calls) == 1


class TestAbelianQuotient:
    def test_mod_two_in_one_coordinate(self):
        q = abelian_quotient(FreeAbelian(2), sublattice(FreeAbelian(2), [[2, 0], [0, 1]]))
        assert q.torsion_moduli == (2,) and q.free_rank == 0

    def test_full_lattice_gives_trivial(self):
        q = abelian_quotient(FreeAbelian(2), sublattice(FreeAbelian(2), [[1, 0], [0, 1]]))
        assert q.identity() == ()

    def test_single_relation_keeps_free_part(self):
        q = AbelianQuotient(2, M([[2], [0]]))
        assert q.torsion_moduli == (2,) and q.free_rank == 1

    def test_torsion_length_uses_minimal_residue(self):
        q = AbelianQuotient(1, M([[6]]))
        assert q.torsion_moduli == (6,)
        assert q.word_length((5,)) == 1
        assert q.word_length((3,)) == 3

    def test_check_rejects_what_is_not_a_normal_form(self):
        q = AbelianQuotient(2, M([[2], [0]]))  # Z/2 x Z
        q.check((1, -5))
        for bad in [(3, 0), (2, 0), (-1, 0), (0, 1.5), ("1", 0)]:
            with pytest.raises(KindMismatchError):
                q.check(bad)
        with pytest.raises(KindMismatchError):
            q.word_length((3, 0))
        with pytest.raises(KindMismatchError):
            q.multiply((3, 0), (0, 0))

    def test_group_laws(self):
        q = AbelianQuotient(2, M([[4, 0], [0, 2]]))
        rng = random.Random(67)
        gens = q.symmetric_generators()
        for _ in range(200):
            g = q.identity()
            for _ in range(rng.randint(0, 12)):
                g = q.multiply(g, rng.choice(gens))
            assert q.multiply(g, q.invert(g)) == q.identity()

