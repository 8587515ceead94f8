"""Endomorphism representations: application, composition, powers,
restriction, and induced quotient maps."""

from __future__ import annotations

import random

import pytest

from endogrow.endos import (
    Endomorphism,
    HeisenbergEndo,
    InvarianceError,
    MatrixEndo,
    ProductEndo,
    QuotientEndo,
    SemidirectEndo,
    WordEndo,
    abelianization,
    identity_endo,
    induce_on_quotient,
    restrict,
)
from endogrow.groups import (
    Free,
    FreeAbelian,
    Group,
    Heisenberg,
    KindMismatchError,
    lower_central_layer,
)
from endogrow.intmat import IntMatrix
from endogrow.products import (
    AbelianQuotient,
    direct_product,
    free_product,
    semidirect,
    sublattice,
)

from test_groups import commutator


def M(rows):
    return IntMatrix.from_rows(rows)


def random_element(group, rng, size=5):
    g = group.identity()
    gens = group.symmetric_generators()
    for _ in range(rng.randint(0, size)):
        g = group.multiply(g, rng.choice(gens))
    return g


class TestApply:
    def test_row_image_convention(self):
        # first generator maps to twice the second
        endo = MatrixEndo(FreeAbelian(2), M([[0, 2], [1, 0]]))
        assert endo.apply((1, 0)) == (0, 2)
        assert endo.apply((0, 1)) == (1, 0)

    def test_identity_endo(self):
        for group in (FreeAbelian(2), Free(2), Heisenberg()):
            endo = identity_endo(group)
            rng = random.Random(3)
            for _ in range(20):
                g = random_element(group, rng)
                assert endo.apply(g) == g

    def test_heisenberg_parameter_map(self):
        endo = HeisenbergEndo(Heisenberg(), 2, 2)
        assert endo.apply((1, 1, 1)) == (2, 4, 2)

    def test_word_image_is_the_product_of_its_letters_images(self):
        # the reference multiplies the letters' images one by one; the random
        # images include empty ones and ones that cancel against each other
        rng = random.Random(29)
        group = Free(2)
        for _ in range(300):
            endo = WordEndo(group, tuple(random_element(group, rng, 4) for _ in range(2)))
            g = random_element(group, rng, 10)
            expected = group.identity()
            for letter in g:
                expected = group.multiply(expected, endo.apply((letter,)))
            assert endo.apply(g) == expected


class TestComposePower:
    def test_matrix_square(self):
        endo = MatrixEndo(FreeAbelian(2), M([[0, 2], [1, 0]]))
        assert endo.power(2).matrix.to_rows() == [[2, 0], [0, 2]]

    def test_power_zero_is_identity(self):
        endo = MatrixEndo(FreeAbelian(2), M([[5, 1], [2, 2]]))
        assert endo.power(0).matrix == IntMatrix.identity(2)
        word = WordEndo(Free(2), ((1, 2), (1,)))
        assert word.power(0).images == ((1,), (2,))

    def test_word_substitution_square(self):
        endo = WordEndo(Free(2), ((1, 2), (1,)))
        squared = endo.power(2)
        assert squared.images == ((1, 2, 1), (1, 2))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MatrixEndo(FreeAbelian(2), M([[1, 2], [0, 1]])),
            lambda: WordEndo(Free(2), ((1, 2), (1,))),
            lambda: HeisenbergEndo(Heisenberg(), 2, 3),
        ],
    )
    def test_power_additivity_on_generators(self, make):
        endo = make()
        group = endo.group
        rng = random.Random(7)
        for _ in range(10):
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            lhs = endo.power(m + n)
            rhs = endo.power(m).compose(endo.power(n))
            for _, g in group.generators:
                assert lhs.apply(g) == rhs.apply(g)

    @pytest.mark.parametrize(
        "endo",
        [
            # a -> ab, b -> b^-1 cancels (phi^2(a) = a b b^-1 = a), so every
            # power stays short
            WordEndo(Free(2), ((1, 2), (-2,))),
            MatrixEndo(FreeAbelian(2), M([[2, 1], [1, -1]])),
        ],
        ids=["cancelling-words", "matrix"],
    )
    def test_power_composes_logarithmically_often(self, endo, monkeypatch):
        # n.bit_length() - 1 squarings and popcount(n) - 1 products into the
        # result; a linear loop composes n - 1 times
        compose = Endomorphism.compose
        calls = []

        def spy(self, other):
            calls.append(None)
            return compose(self, other)

        monkeypatch.setattr(Endomorphism, "compose", spy)
        by_hand = endo
        for n in range(1, 300):
            calls.clear()
            assert endo.power(n) == by_hand
            assert len(calls) == n.bit_length() + bin(n).count("1") - 2
            by_hand = compose(by_hand, endo)

    @pytest.mark.parametrize(
        "endo",
        [
            ProductEndo(direct_product(FreeAbelian(1), Free(2)),
                        (MatrixEndo(FreeAbelian(1), M([[-2]])),
                         WordEndo(Free(2), ((1, 2), (-2,))))),
            ProductEndo(free_product(Free(1), Free(2)),
                        (WordEndo(Free(1), ((1, 1),)), WordEndo(Free(2), ((2, 1), (-1,))))),
            # [[2, 1], [1, 1]] commutes with the action, which it equals
            SemidirectEndo(semidirect(FreeAbelian(2), FreeAbelian(1), [[[2, 1], [1, 1]]]),
                           M([[2, 1], [1, 1]]), M([[1]])),
        ],
        ids=["direct-product", "free-product", "semidirect"],
    )
    def test_square_is_applying_twice(self, endo):
        squared = endo.power(2)
        assert type(squared) is type(endo) and squared.group == endo.group
        rng = random.Random(23)
        for _ in range(100):
            g = random_element(endo.group, rng, size=8)
            assert squared.apply(g) == endo.apply(endo.apply(g))

    def test_the_cancelling_power_case_does_cancel(self):
        assert not WordEndo(Free(2), ((1, 2), (-2,))).is_cancellation_free

    @pytest.mark.parametrize(
        "endo, other",
        [
            (MatrixEndo(FreeAbelian(2), M([[1, 2], [0, 1]])), HeisenbergEndo(Heisenberg(), 2, 3)),
            (MatrixEndo(FreeAbelian(2), M([[1, 2], [0, 1]])), MatrixEndo(FreeAbelian(1), M([[2]]))),
            (WordEndo(Free(2), ((1, 2), (1,))), WordEndo(Free(1), ((1, 1),))),
            (HeisenbergEndo(Heisenberg(), 2, 3), HeisenbergEndo(Heisenberg(2), 2, 3)),
            (identity_endo(AbelianQuotient(1, M([[6]]))), identity_endo(AbelianQuotient(1, M([[4]])))),
            (identity_endo(direct_product(Free(1), Free(1))),
             identity_endo(free_product(Free(1), Free(1)))),
        ],
    )
    def test_compose_needs_the_same_kind_on_the_same_group(self, endo, other):
        with pytest.raises(KindMismatchError):
            endo.compose(other)
        with pytest.raises(KindMismatchError):
            other.compose(endo)


class TestHomomorphismLaw:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: MatrixEndo(FreeAbelian(3), M([[1, -2, 0], [3, 1, 1], [0, 2, 2]])),
            lambda: WordEndo(Free(2), ((1, 2, -1), (2, 2))),
            lambda: HeisenbergEndo(Heisenberg(), 3, -2),
            lambda: ProductEndo(
                direct_product(FreeAbelian(1), FreeAbelian(1)),
                (
                    MatrixEndo(FreeAbelian(1), M([[2]])),
                    MatrixEndo(FreeAbelian(1), M([[-3]])),
                ),
            ),
            lambda: ProductEndo(
                free_product(FreeAbelian(1), FreeAbelian(1)),
                (
                    MatrixEndo(FreeAbelian(1), M([[2]])),
                    MatrixEndo(FreeAbelian(1), M([[3]])),
                ),
            ),
            lambda: SemidirectEndo(
                semidirect(FreeAbelian(2), FreeAbelian(1), [[[0, -1], [1, 0]]]),
                M([[2, 0], [0, 2]]),
                M([[1]]),
            ),
        ],
    )
    def test_thousand_random_pairs(self, make):
        endo = make()
        group = endo.group
        rng = random.Random(11)
        for _ in range(1000):
            g = random_element(group, rng, size=4)
            h = random_element(group, rng, size=4)
            assert endo.apply(group.multiply(g, h)) == group.multiply(
                endo.apply(g), endo.apply(h)
            )

    def test_construction_multiplies_and_maps_nothing(self, monkeypatch):
        # the factor-group and intertwining checks already decide that these
        # maps are homomorphisms, so building one samples no products
        def forbidden(*args):
            raise AssertionError("construction called multiply or apply")

        monkeypatch.setattr(Group, "multiply", forbidden)
        monkeypatch.setattr(Endomorphism, "apply", forbidden)
        words = WordEndo(Free(2), ((1, 2, -1), (2, 2)))
        doubling = MatrixEndo(FreeAbelian(1), M([[2]]))
        ProductEndo(free_product(Free(2), FreeAbelian(1)), (words, doubling))
        inner = ProductEndo(direct_product(Free(2), FreeAbelian(1)), (words, doubling))
        ProductEndo(direct_product(inner.group, FreeAbelian(1)), (inner, doubling))
        group = semidirect(FreeAbelian(2), FreeAbelian(1), [[[0, -1], [1, 0]]])
        SemidirectEndo(group, M([[2, 0], [0, 2]]), M([[1]]))

    def test_heisenberg_commutes_with_commutator(self):
        group = Heisenberg()
        endo = HeisenbergEndo(group, 2, 5)
        rng = random.Random(13)
        for _ in range(300):
            g = random_element(group, rng)
            h = random_element(group, rng)
            assert endo.apply(commutator(group, g, h)) == commutator(
                group, endo.apply(g), endo.apply(h)
            )


class TestRestrict:
    def test_diagonal_on_scaled_lattice(self):
        endo = MatrixEndo(FreeAbelian(2), M([[2, 0], [0, 3]]))
        lat = sublattice(FreeAbelian(2), [[2, 0], [0, 1]])
        restricted = restrict(endo, lat)
        assert restricted.matrix.to_rows() == [[2, 0], [0, 3]]

    def test_restriction_agrees_through_embedding(self):
        endo = MatrixEndo(FreeAbelian(2), M([[2, 2], [0, 4]]))
        lat = sublattice(FreeAbelian(2), [[2, 0], [0, 2]])
        restricted = restrict(endo, lat)
        rng = random.Random(17)
        for _ in range(100):
            coords = (rng.randint(-5, 5), rng.randint(-5, 5))
            ambient = lat.basis.apply_col(coords)
            assert lat.basis.apply_col(restricted.apply(coords)) == endo.apply(ambient)

    def test_center_restriction_multiplies_by_product(self):
        layer = lower_central_layer(Heisenberg(), 2)
        endo = HeisenbergEndo(Heisenberg(), 2, 2)
        assert restrict(endo, layer).matrix.to_rows() == [[4]]

    def test_identity_restricts_to_identity(self):
        endo = identity_endo(FreeAbelian(2))
        lat = sublattice(FreeAbelian(2), [[3, 0], [0, 3]])
        assert restrict(endo, lat).matrix == IntMatrix.identity(2)

    def test_violation_names_generator(self):
        endo = MatrixEndo(FreeAbelian(2), M([[0, 1], [1, 0]]))
        lat = sublattice(FreeAbelian(2), [[3, 0], [0, 1]])
        with pytest.raises(InvarianceError, match="h2"):
            restrict(endo, lat)

    def test_heisenberg_whole_group_and_trivial_layer(self):
        # layer 1 is the whole group, layer 3 the trivial group
        endo = HeisenbergEndo(Heisenberg(), 2, 3)
        assert restrict(endo, lower_central_layer(Heisenberg(), 1)) is endo
        trivial = restrict(endo, lower_central_layer(Heisenberg(), 3))
        assert trivial == MatrixEndo(FreeAbelian(0), IntMatrix.identity(0))


class TestInduceOnQuotient:
    def test_heisenberg_mod_center_is_abelianization(self):
        layer = lower_central_layer(Heisenberg(), 2)
        endo = HeisenbergEndo(Heisenberg(), 2, 2)
        induced = induce_on_quotient(endo, layer)
        assert induced.matrix.to_rows() == [[2, 0], [0, 2]]

    def test_heisenberg_mod_whole_group_and_trivial_layer(self):
        # the quotient by layer 1 is trivial, by layer 3 the group itself
        endo = HeisenbergEndo(Heisenberg(), 2, 3)
        trivial = induce_on_quotient(endo, lower_central_layer(Heisenberg(), 1))
        assert trivial == MatrixEndo(FreeAbelian(0), IntMatrix.identity(0))
        assert induce_on_quotient(endo, lower_central_layer(Heisenberg(), 3)) is endo

    def test_quotient_by_trivial_subgroup(self):
        endo = MatrixEndo(FreeAbelian(2), M([[2, 1], [1, 1]]))
        trivial = sublattice(FreeAbelian(2), [[], []])
        assert induce_on_quotient(endo, trivial) is endo

    def test_mod_two_multiplier(self):
        endo = MatrixEndo(FreeAbelian(2), M([[2, 0], [0, 3]]))
        lat = sublattice(FreeAbelian(2), [[2, 0], [0, 1]])
        induced = induce_on_quotient(endo, lat)
        assert isinstance(induced, QuotientEndo)
        assert induced.group.torsion_moduli == (2,)
        gen = induced.group.generators[0][1]
        assert induced.apply(gen) == induced.group.identity()

    def test_induced_commutes_with_projection(self):
        endo = MatrixEndo(FreeAbelian(3), M([[2, 0, 4], [0, 1, 2], [0, 0, 3]]))
        lat = sublattice(FreeAbelian(3), [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        induced = induce_on_quotient(endo, lat)
        quotient = induced.group
        snf = quotient.snf

        def project(v):
            """Z^3 -> quotient: U v, torsion rows mod their d_i, then free rows."""
            w = snf.u.apply_col(v)
            diag = snf.diagonal + (0,) * (len(w) - len(snf.diagonal))
            torsion = [x % d for x, d in zip(w, diag) if d > 1]
            return tuple(torsion + [x for x, d in zip(w, diag) if d == 0])

        rng = random.Random(19)
        for _ in range(200):
            v = tuple(rng.randint(-9, 9) for _ in range(3))
            assert induced.apply(project(v)) == project(endo.apply(v))

    def test_invariance_required(self):
        endo = MatrixEndo(FreeAbelian(2), M([[0, 1], [1, 0]]))
        lat = sublattice(FreeAbelian(2), [[3, 0], [0, 1]])
        with pytest.raises(InvarianceError):
            induce_on_quotient(endo, lat)


class TestQuotientEndo:
    def test_components_drop_the_unit_smith_rows(self):
        # Z^3 / <(3, 0, 0)>: one Z/3 and two free components, no d = 1 row
        endo = MatrixEndo(FreeAbelian(3), M([[2, 0, 0], [1, 1, 1], [1, 1, 2]]))
        induced = induce_on_quotient(endo, sublattice(FreeAbelian(3), [[3], [0], [0]]))
        assert induced.smith_matrix.rows == induced.smith_matrix.cols == 3
        # Z^2 / <(2, 0), (0, 1)> = Z/2: the d = 1 row is cut
        endo = MatrixEndo(FreeAbelian(2), M([[3, 1], [0, 1]]))
        induced = induce_on_quotient(endo, sublattice(FreeAbelian(2), [[2, 0], [0, 1]]))
        assert (induced.smith_matrix.rows, induced.smith_matrix.cols) == (1, 1)
        assert induced.apply((1,)) == (1,)
        assert identity_endo(induced.group).smith_matrix == IntMatrix.identity(1)

    def test_rejects_a_map_that_breaks_a_relation(self):
        q = AbelianQuotient(2, M([[2], [0]]))  # Z/2 x Z
        with pytest.raises(InvarianceError, match="c1"):
            QuotientEndo(q, M([[1, 0], [1, 0]]))  # t -> (1, 1), of infinite order

    def test_rejects_a_matrix_of_the_wrong_size(self):
        q = AbelianQuotient(2, M([[2], [0]]))
        with pytest.raises(KindMismatchError):
            QuotientEndo(q, IntMatrix.identity(3))

    def test_accepted_matrix_is_a_homomorphism(self):
        q = AbelianQuotient(2, M([[2], [0]]))
        endo = QuotientEndo(q, M([[1, 1], [0, 3]]))  # t -> t, f -> t + 3f
        rng = random.Random(23)
        for _ in range(100):
            g, h = random_element(q, rng), random_element(q, rng)
            assert endo.apply(q.multiply(g, h)) == q.multiply(endo.apply(g), endo.apply(h))


class TestAbelianization:
    def test_diagonal_parameters(self):
        endo = HeisenbergEndo(Heisenberg(), 2, 2)
        assert abelianization(endo).matrix.to_rows() == [[2, 0], [0, 2]]

    def test_identity(self):
        endo = HeisenbergEndo(Heisenberg(), 1, 1)
        assert abelianization(endo).matrix == IntMatrix.identity(2)

    def test_center_multiplier_is_product(self):
        endo = HeisenbergEndo(Heisenberg(), 3, 5)
        assert abelianization(endo).matrix.to_rows() == [[3, 0], [0, 5]]
        assert endo.apply((0, 1, 0)) == (0, 15, 0)


class TestSemidirectEndo:
    def test_compatibility_witness_accepts_commuting_block(self):
        group = semidirect(FreeAbelian(2), FreeAbelian(1), [[[0, -1], [1, 0]]])
        endo = SemidirectEndo(group, M([[2, 0], [0, 2]]), M([[1]]))
        assert endo.apply(((1, 2), (3,))) == ((2, 4), (3,))

    def test_compatibility_witness_rejects_mismatch(self):
        group = semidirect(FreeAbelian(2), FreeAbelian(1), [[[2, 1], [1, 1]]])
        with pytest.raises(InvarianceError):
            SemidirectEndo(group, M([[2, 0], [0, 3]]), M([[1]]))

    def test_klein_bottle_style_compatibility(self):
        # base multiplier 2 intertwines with the sign action when the
        # quotient multiplier is odd
        group = semidirect(FreeAbelian(1), FreeAbelian(1), [[[-1]]])
        endo = SemidirectEndo(group, M([[2]]), M([[3]]))
        g = ((1,), (1,))
        assert endo.apply(g) == ((2,), (3,))
        with pytest.raises(InvarianceError):
            SemidirectEndo(group, M([[2]]), M([[2]]))
