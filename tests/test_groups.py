"""Group normal forms: multiplication, inversion, lengths, commutators, and
the lower central series on the kinds that carry one."""

from __future__ import annotations

import random

import pytest

from endogrow.ball import enumerate_ball
from endogrow.endos import HeisenbergEndo, MatrixEndo, QuotientEndo, SemidirectEndo
from endogrow.groups import (
    EXACT,
    QUASI_EQUIVALENT,
    Free,
    FreeAbelian,
    Heisenberg,
    KindMismatchError,
    UnsupportedOperationError,
    lower_central_layer,
)
from endogrow.intmat import IntMatrix
from endogrow.products import (
    AbelianQuotient,
    DirectProduct,
    FreeProduct,
    Semidirect,
    Sublattice,
    semidirect,
    sublattice,
)


def random_element(group, rng, size=6):
    g = group.identity()
    gens = group.symmetric_generators()
    for _ in range(rng.randint(0, size)):
        g = group.multiply(g, rng.choice(gens))
    return g


def commutator(group, g, h):
    """g h g^-1 h^-1 in normal form."""
    return group.multiply(group.multiply(group.multiply(g, h), group.invert(g)), group.invert(h))


class TestMultiplyInvert:
    def test_heisenberg_product_formula(self):
        h = Heisenberg()
        assert h.multiply((1, 0, 0), (0, 0, 1)) == (1, 1, 1)

    def test_identity_neutral_everywhere(self):
        for group in (FreeAbelian(2), Free(2), Heisenberg()):
            rng = random.Random(5)
            for _ in range(20):
                g = random_element(group, rng)
                assert group.multiply(g, group.identity()) == g
                assert group.multiply(group.identity(), g) == g

    def test_free_cancellation(self):
        f = Free(2)
        assert f.multiply((1, 2), (-2, 1)) == (1, 1)

    def test_heisenberg_inverse_closed_form(self):
        h = Heisenberg()
        assert h.invert((1, 1, 1)) == (-1, 0, -1)
        # derived from solving (a,b,c)(x,y,z) = identity
        for g in ((3, -9, 3), (2, 5, -1), (0, 7, 0)):
            assert h.multiply(g, h.invert(g)) == (0, 0, 0)

    def test_identity_inverse(self):
        for group in (FreeAbelian(3), Free(2), Heisenberg()):
            assert group.invert(group.identity()) == group.identity()

    def test_lattice_inverse_is_negation(self):
        assert FreeAbelian(2).invert((3, -2)) == (-3, 2)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            FreeAbelian(2).multiply((1, 2, 3), (0, 0))
        with pytest.raises(KindMismatchError):
            Free(2).check((1, 3))  # letter outside rank
        with pytest.raises(KindMismatchError):
            Free(2).check((1, -1))  # unreduced

    def test_non_integer_component_is_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            FreeAbelian(2).multiply(((1,), (2,)), (0, 0))
        with pytest.raises(KindMismatchError):
            Heisenberg(3).word_length(("x", 0, 0))


class TestWordLength:
    def test_lattice_l1(self):
        group = FreeAbelian(2)
        assert group.word_length((3, -2)) == 5 and group.exactness == EXACT

    def test_free_reduced_length(self):
        group = Free(2)
        assert group.word_length((1, 2, -1)) == 3 and group.exactness == EXACT

    def test_heisenberg_commutator_length_two_generators(self):
        h = Heisenberg(2, bfs_radius=6)
        # equals the four-letter commutator of the two generators
        assert h.word_length((0, 1, 0)) == 4 and h.exactness == EXACT

    def test_exact_length_axioms_random(self):
        rng = random.Random(13)
        for group in (FreeAbelian(3), Free(2)):
            assert group.word_length(group.identity()) == 0
            for _ in range(300):
                g = random_element(group, rng)
                h = random_element(group, rng)
                lg = group.word_length(g)
                assert group.word_length(group.invert(g)) == lg
                product = group.word_length(group.multiply(g, h))
                assert product <= lg + group.word_length(h)


@pytest.mark.parametrize(
    "group, expected",
    [
        pytest.param(FreeAbelian(2), EXACT, id="Z^2"),
        pytest.param(Free(2), EXACT, id="F_2"),
        pytest.param(sublattice(FreeAbelian(2), [[2], [0]]).quotient, EXACT, id="quotient"),
        pytest.param(Heisenberg(), QUASI_EQUIVALENT, id="heisenberg-quasi"),
        pytest.param(Heisenberg(2, bfs_radius=4), EXACT, id="heisenberg-bfs"),
        pytest.param(semidirect(FreeAbelian(2), FreeAbelian(1), [[[1, 0], [0, 1]]]), EXACT,
                     id="semidirect-quasi-trivial"),
        pytest.param(semidirect(FreeAbelian(2), FreeAbelian(1), [[[0, -1], [1, 0]]]),
                     QUASI_EQUIVALENT, id="semidirect-quasi-rotation"),
        pytest.param(semidirect(FreeAbelian(2), FreeAbelian(1), [[[2, 1], [1, 1]]],
                                bfs_radius=4), EXACT, id="semidirect-bfs"),
        pytest.param(DirectProduct(Heisenberg(), FreeAbelian(1)), QUASI_EQUIVALENT,
                     id="heisenberg-x-Z"),
        pytest.param(DirectProduct(FreeAbelian(1), FreeAbelian(1)), EXACT, id="Z-x-Z"),
        pytest.param(FreeProduct(Free(2), FreeAbelian(1)), EXACT, id="free-product"),
    ],
)
def test_exactness_is_the_groups_and_every_length_carries_it(group, expected):
    # a length is a plain int; how literally it reads is the group's label
    assert group.exactness == expected
    for generator in group.generators:
        assert type(group.word_length(generator)) is int


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: FreeAbelian(2.5), id="FreeAbelian-float"),
        pytest.param(lambda: FreeAbelian(True), id="FreeAbelian-bool"),
        pytest.param(lambda: Free(2.0), id="Free-float"),
        pytest.param(lambda: Free(True), id="Free-bool"),
        pytest.param(lambda: Heisenberg(2.0), id="Heisenberg-float"),
        pytest.param(lambda: Semidirect(True, 1, (IntMatrix.from_rows([[1]]),)),
                     id="Semidirect-base-bool"),
        pytest.param(lambda: Semidirect(1, True, (IntMatrix.from_rows([[1]]),)),
                     id="Semidirect-quotient-bool"),
        pytest.param(lambda: Sublattice(2.0, IntMatrix.from_rows([[1], [0]])),
                     id="Sublattice-float"),
        pytest.param(lambda: AbelianQuotient(2.0, IntMatrix.from_rows([[2], [0]])),
                     id="AbelianQuotient-float"),
        pytest.param(lambda: HeisenbergEndo(Heisenberg(), True, 2), id="HeisenbergEndo-bool"),
    ],
)
def test_public_constructors_take_int_counts_only(build):
    # a float or bool count used to construct and fail later, or count as 1
    with pytest.raises(ValueError):
        build()


_ONE = IntMatrix.from_rows([[1]])


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: MatrixEndo(FreeAbelian(1), [[1]]), id="MatrixEndo"),
        pytest.param(lambda: SemidirectEndo(Semidirect(1, 1, (_ONE,)), [[1]], _ONE),
                     id="SemidirectEndo-base"),
        pytest.param(lambda: SemidirectEndo(Semidirect(1, 1, (_ONE,)), _ONE, [[1]]),
                     id="SemidirectEndo-quotient"),
        pytest.param(lambda: QuotientEndo(AbelianQuotient(1, IntMatrix.from_rows([[2]])), [[1]]),
                     id="QuotientEndo"),
        pytest.param(lambda: Semidirect(1, 1, ([[1]],)), id="Semidirect-matrix"),
        pytest.param(lambda: Semidirect(1, 1, [_ONE]), id="Semidirect-list-action"),
        pytest.param(lambda: Sublattice(2, [[1], [0]]), id="Sublattice"),
        pytest.param(lambda: AbelianQuotient(2, [[2], [0]]), id="AbelianQuotient"),
    ],
)
def test_public_constructors_take_int_matrices_only(build):
    # a nested list used to raise AttributeError, and a list action built an
    # unhashable group unequal to the same group with a tuple action
    with pytest.raises(ValueError, match="must be of type"):
        build()


@pytest.mark.parametrize("radius", [True, 2.5, "3", -1])
def test_bfs_length_mode_radius_is_a_positive_int(radius):
    # every public constructor that takes a bfs_radius checks it when it
    # builds the group, not at the first length measured; 0 is the own metric
    builds = (
        lambda: FreeAbelian(2, bfs_radius=radius),
        lambda: Free(2, bfs_radius=radius),
        lambda: Heisenberg(3, bfs_radius=radius),
        lambda: Semidirect(1, 1, (_ONE,), bfs_radius=radius),
        lambda: semidirect(FreeAbelian(1), FreeAbelian(1), [[[1]]], bfs_radius=radius),
    )
    for build in builds:
        with pytest.raises(ValueError, match="bfs_radius"):
            build()


class TestQuasiLength:
    def test_identity_zero_and_symmetry_exact(self):
        h = Heisenberg()
        assert h.word_length((0, 0, 0)) == 0
        rng = random.Random(17)
        for _ in range(500):
            g = (rng.randint(-40, 40), rng.randint(-900, 900), rng.randint(-40, 40))
            assert h.word_length(g) == h.word_length(h.invert(g))

    def test_flagged_quasi_equivalent(self):
        assert Heisenberg().exactness == QUASI_EQUIVALENT

    def test_triangle_defect_is_bounded(self):
        # not a word metric: record the multiplicative triangle constant
        h = Heisenberg()
        rng = random.Random(19)
        worst = 0.0
        for _ in range(500):
            g = (rng.randint(-9, 9), rng.randint(-80, 80), rng.randint(-9, 9))
            k = (rng.randint(-9, 9), rng.randint(-80, 80), rng.randint(-9, 9))
            lhs = h.word_length(h.multiply(g, k))
            rhs = h.word_length(g) + h.word_length(k)
            if lhs > rhs:
                worst = max(worst, lhs / max(rhs, 1))
        # measured constant: stays below 2 on this sample
        assert worst <= 2.0

    def test_bilipschitz_sandwich_against_bfs(self):
        h = Heisenberg(3)

        def constants(radius):
            census = enumerate_ball(h, radius)
            c_lower, c_upper = float("inf"), 0.0
            for g, length in census.lengths.items():
                q = h.word_length(g)
                if q > 0:
                    c_lower = min(c_lower, length / q)
                c_upper = max(c_upper, length / (q + 1))
            return c_lower, c_upper

        c1_prev, c2_prev = constants(9)
        c1, c2 = constants(10)
        for value in (c1_prev, c2_prev, c1, c2):
            assert 0 < value < float("inf")
        # c1 is a min over a growing set, c2 a max: monotone, and stable
        assert c1 <= c1_prev and c2 >= c2_prev
        assert c1 >= 0.75 * c1_prev
        assert c2 <= 1.34 * c2_prev


class TestCommutator:
    def test_heisenberg_generators(self):
        h = Heisenberg()
        assert commutator(h, (1, 0, 0), (0, 0, 1)) == (0, 1, 0)

    def test_with_identity(self):
        for group in (FreeAbelian(2), Free(2), Heisenberg()):
            rng = random.Random(23)
            g = random_element(group, rng)
            assert commutator(group, g, group.identity()) == group.identity()

    def test_abelian_commutators_vanish(self):
        z2 = FreeAbelian(2)
        rng = random.Random(29)
        for _ in range(50):
            u = random_element(z2, rng)
            v = random_element(z2, rng)
            assert commutator(z2, u, v) == (0, 0)


class TestAssociativity:
    @pytest.mark.parametrize("group", [FreeAbelian(3), Free(2), Heisenberg()])
    def test_thousand_random_triples(self, group):
        rng = random.Random(31)
        for _ in range(1000):
            g = random_element(group, rng, size=4)
            h = random_element(group, rng, size=4)
            k = random_element(group, rng, size=4)
            assert group.multiply(group.multiply(g, h), k) == group.multiply(
                g, group.multiply(h, k)
            )

    @pytest.mark.parametrize("group", [FreeAbelian(3), Free(2), Heisenberg()])
    def test_inverse_law_random(self, group):
        rng = random.Random(37)
        for _ in range(300):
            g = random_element(group, rng)
            assert group.multiply(g, group.invert(g)) == group.identity()


class TestLowerCentralSeries:
    def test_heisenberg_center(self):
        layer = lower_central_layer(Heisenberg(), 2)
        assert isinstance(layer.subgroup, FreeAbelian) and layer.subgroup.rank == 1
        assert layer.quotient.rank == 1

    def test_heisenberg_terminates(self):
        layer = lower_central_layer(Heisenberg(), 3)
        assert layer.subgroup.rank == 0 and layer.quotient.rank == 0

    def test_abelian_trivial_layer(self):
        layer = lower_central_layer(FreeAbelian(2), 2)
        assert layer.subgroup.rank == 0

    def test_whole_group_at_one(self):
        h = Heisenberg()
        assert lower_central_layer(h, 1).subgroup == h
        z3 = FreeAbelian(3)
        layer = lower_central_layer(z3, 1)
        assert (layer.subgroup, layer.quotient) == (z3, z3)

    def test_unsupported(self):
        with pytest.raises(UnsupportedOperationError):
            lower_central_layer(Heisenberg(), 4)
        with pytest.raises(UnsupportedOperationError):
            lower_central_layer(Free(2), 2)
