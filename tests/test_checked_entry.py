"""Elements are checked once, at the public entry.  `growth_table` steps
through the unchecked kernels, so its table must equal one built through
the public, checked `apply` and `word_length`, and it must make no `check`
call per power.  A product endo's table comes from its factors' lengths, so
it must equal the table of the product images, and a factor endo must act
on the product's own factor group."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from endogrow.endos import (
    HeisenbergEndo,
    MatrixEndo,
    ProductEndo,
    SemidirectEndo,
    WordEndo,
    induce_on_quotient,
)
from endogrow.groups import (
    EXACT,
    Free,
    FreeAbelian,
    Heisenberg,
    KindMismatchError,
    OutOfBallError,
)
from endogrow.growth import GrowthEstimate, growth_table
from endogrow.intmat import IntMatrix, mat_pow
from endogrow.products import (
    AbelianQuotient,
    DirectProduct,
    FreeProduct,
    direct_product,
    semidirect,
    sublattice,
)

MAX_POWER = 6
FIBONACCI = ((1, 2), (1,))
CANCELLING = ((1, 2), (-2, 1))  # a -> ab, b -> b^-1 a


def z1_times(k):
    return MatrixEndo(FreeAbelian(1), IntMatrix.from_rows([[k]]))


ROTATION = [[0, -1], [1, 0]]
HYPERBOLIC = [[2, 1], [1, 1]]


def free_reduce(letters) -> tuple[int, ...]:
    """Cancel adjacent s s^-1 pairs: the reduced word the strategies draw."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def reference_table(endo, max_power):
    """growth_table's table and exactness, through the public operations: the
    exactness is the group's label, and an empty table measured nothing."""
    group = endo.group
    current = list(group.generators)
    table = []
    for _ in range(max_power):
        current = [endo.apply(g) for g in current]
        try:
            table.append(max(map(group.word_length, current), default=0))
        except OutOfBallError:
            break
        if table[-1] == 0:
            break
    return tuple(table), group.exactness if table else EXACT


small = st.integers(-2, 2)


@st.composite
def words_on(draw, group):
    """A WordEndo on a free group: random images, cancelling ones included."""
    letters = st.sampled_from([x for i in range(1, group.rank + 1) for x in (i, -i)])
    images = tuple(
        free_reduce(draw(st.lists(letters, max_size=3))) for _ in range(group.rank)
    )
    return WordEndo(group, images)


@st.composite
def matrix_on(draw, group):
    n = group.rank
    rows = [[draw(small) for _ in range(n)] for _ in range(n)]
    return MatrixEndo(group, IntMatrix.from_rows(rows))


@st.composite
def matrix_endos(draw):
    return draw(matrix_on(FreeAbelian(draw(st.integers(1, 3)))))


@st.composite
def word_endos(draw):
    radius = draw(st.sampled_from([0, 5]))
    return draw(words_on(Free(draw(st.integers(1, 3)), bfs_radius=radius)))


@st.composite
def heisenberg_endos(draw):
    radius = draw(st.sampled_from([0, 4]))
    group = Heisenberg(draw(st.sampled_from([2, 3])), bfs_radius=radius)
    return HeisenbergEndo(group, draw(small), draw(small))


@st.composite
def direct_product_endos(draw, depth=1):
    # an exact lattice factor next to a bfs-mode free factor, an exact free
    # factor (whose words may take letter counts), a quasi Heisenberg factor
    # or a nested direct product
    kinds = ["bfs-free", "free", "heisenberg"] + (["nested"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "bfs-free":
        left_endo = draw(words_on(Free(2, bfs_radius=5)))
    elif kind == "free":
        left_endo = draw(words_on(Free(2)))
    elif kind == "heisenberg":
        group = Heisenberg(draw(st.sampled_from([2, 3])))
        left_endo = HeisenbergEndo(group, draw(small), draw(small))
    else:
        left_endo = draw(direct_product_endos(depth - 1))
    right = FreeAbelian(draw(st.integers(1, 2)))
    group = DirectProduct(left_endo.group, right)
    return ProductEndo(group, (left_endo, draw(matrix_on(right))))


@st.composite
def free_product_endos(draw):
    left = draw(st.sampled_from([Free(2), FreeAbelian(1)]))
    right = FreeAbelian(1)
    factor = words_on(left) if isinstance(left, Free) else matrix_on(left)
    return ProductEndo(FreeProduct(left, right), (draw(factor), draw(matrix_on(right))))


@st.composite
def semidirect_endos(draw):
    # base blocks k * A^j commute with the action A, so they intertwine with
    # a quotient block that fixes the generator's action
    if draw(st.booleans()):
        action, quotient, radius = ROTATION, draw(st.sampled_from([1, 5, -3])), 0
    else:
        action, quotient, radius = HYPERBOLIC, 1, 5
    group = semidirect(FreeAbelian(2), FreeAbelian(1), [action], bfs_radius=radius)
    power = mat_pow(IntMatrix.from_rows(action), draw(st.integers(0, 3)))
    k = draw(small)
    base = IntMatrix(2, 2, tuple(k * x for x in power.entries))
    return SemidirectEndo(group, base.transpose(), IntMatrix.from_rows([[quotient]]))


@st.composite
def quotient_endos(draw):
    k = draw(st.integers(2, 4))
    if draw(st.booleans()):
        basis = [[k, 0], [0, k]]  # k Z^2 is invariant; the quotient is torsion
        rows = [[draw(small), draw(small)], [draw(small), draw(small)]]
    else:
        basis = [[k], [0]]  # Z/k x Z; invariant when the first row is (a, 0)
        rows = [[draw(small), 0], [draw(small), draw(small)]]
    endo = MatrixEndo(FreeAbelian(2), IntMatrix.from_rows(rows))
    return induce_on_quotient(endo, sublattice(FreeAbelian(2), basis))


ENDOS = st.one_of(
    matrix_endos(),
    word_endos(),
    heisenberg_endos(),
    direct_product_endos(),
    free_product_endos(),
    semidirect_endos(),
    quotient_endos(),
)


@settings(max_examples=150, deadline=None)
@given(ENDOS, st.integers(1, MAX_POWER))
def test_growth_table_equals_the_table_built_through_public_operations(endo, m):
    est = growth_table(endo, MAX_POWER)
    assert (est.table, est.exactness) == reference_table(endo, MAX_POWER)
    # a shorter table is a prefix: the powers are taken one at a time
    assert growth_table(endo, m).table == est.table[:m]


@pytest.mark.parametrize(
    "endo",
    [
        WordEndo(Free(2), CANCELLING),
        WordEndo(Free(2, bfs_radius=6), CANCELLING),
        ProductEndo(
            DirectProduct(Free(2, bfs_radius=6), FreeAbelian(1)),
            (WordEndo(Free(2, bfs_radius=6), FIBONACCI), z1_times(2)),
        ),
        ProductEndo(
            FreeProduct(Free(2), FreeAbelian(1)),
            (WordEndo(Free(2), CANCELLING), z1_times(0)),
        ),
        ProductEndo(
            DirectProduct(Free(2), FreeAbelian(1)),
            (WordEndo(Free(2), FIBONACCI), z1_times(0)),
        ),
        ProductEndo(
            DirectProduct(FreeAbelian(2), FreeAbelian(1)),
            (MatrixEndo(FreeAbelian(2), IntMatrix.zero(2, 2)), z1_times(0)),
        ),
        ProductEndo(
            DirectProduct(FreeAbelian(1), Free(2, bfs_radius=6)),
            (z1_times(3), WordEndo(Free(2, bfs_radius=6), FIBONACCI)),
        ),
        ProductEndo(
            DirectProduct(Free(2, bfs_radius=1), Heisenberg(3)),
            (WordEndo(Free(2, bfs_radius=1), FIBONACCI), HeisenbergEndo(Heisenberg(3), 2, 3)),
        ),
    ],
    ids=[
        "cancelling-words",
        "bfs-free",
        "direct-bfs-factor",
        "free-product",
        "zero-matrix-factor",
        "zero-matrix-factors",
        "bfs-truncates-the-smaller-factor",
        "bfs-empty-beside-quasi",
    ],
)
def test_growth_table_equals_reference_on_named_endos(endo):
    est = growth_table(endo, 10)
    assert (est.table, est.exactness) == reference_table(endo, 10)


def test_growth_table_check_calls_do_not_grow_with_the_power(monkeypatch):
    calls = []
    check = Free.check

    def counting_check(self, g):
        calls.append(g)
        return check(self, g)

    monkeypatch.setattr(Free, "check", counting_check)
    fibonacci = WordEndo(Free(2), FIBONACCI)
    counts = []
    for m in (4, 12, 20):
        calls.clear()
        growth_table(fibonacci, m)
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2]


@pytest.mark.parametrize(
    "endo",
    [
        HeisenbergEndo(Heisenberg(3), 2, 3),
        SemidirectEndo(
            semidirect(FreeAbelian(2), FreeAbelian(1), [ROTATION]),
            IntMatrix.from_rows([[2, 0], [0, 2]]),
            IntMatrix.from_rows([[5]]),
        ),
        induce_on_quotient(
            MatrixEndo(FreeAbelian(2), IntMatrix.from_rows(HYPERBOLIC)),
            sublattice(FreeAbelian(2), [[3, 0], [0, 3]]),
        ),
    ],
    ids=["heisenberg", "semidirect", "quotient"],
)
def test_growth_table_builds_no_length_value(endo, monkeypatch):
    # a length inside the table loop is the kernel's int: the loop calls no
    # public word_length, which would check each image
    calls = []
    cls = type(endo.group)
    public = cls.word_length
    monkeypatch.setattr(cls, "word_length", lambda self, g: calls.append(g) or public(self, g))
    est = growth_table(endo, 12)
    assert est.table and calls == []


def test_word_factor_of_a_product_builds_no_words(monkeypatch):
    # a -> abb, b -> a is positive, so its table comes from letter counts,
    # also inside a product
    group = DirectProduct(Free(2), FreeAbelian(1))
    endo = ProductEndo(group, (WordEndo(Free(2), ((1, 2, 2), (1,))), z1_times(2)))
    calls = []
    step = WordEndo._next_images
    monkeypatch.setattr(
        WordEndo, "_next_images", lambda endo, images: calls.append(images) or step(endo, images)
    )
    est = growth_table(endo, 18)
    assert calls == []
    assert est.table[-1] == 349525  # |phi^m(a)| = (2^(m+2) - (-1)^m) / 3


def test_truncated_factor_cuts_the_later_factors_tables(monkeypatch):
    # Fibonacci words leave the radius-6 ball after 3 powers; the matrix
    # factor beside them is built to that cut, not to m = 1000
    group = DirectProduct(Free(2, bfs_radius=6), FreeAbelian(4))
    rows = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]
    endo = ProductEndo(
        group,
        (WordEndo(Free(2, bfs_radius=6), FIBONACCI), MatrixEndo(FreeAbelian(4), IntMatrix.from_rows(rows))),
    )
    calls = []
    step = MatrixEndo._next_images
    monkeypatch.setattr(
        MatrixEndo, "_next_images", lambda endo, images: calls.append(images) or step(endo, images)
    )
    est = growth_table(endo, 1000)
    assert est == GrowthEstimate(
        (2, 4, 8), (2.0, 2.0, 2.0), 2.0, 2.0, "lengths:exact", "exact", "truncated"
    )
    assert len(calls) == len(est.table)  # one step per power


def _matrix_beside(truncating, monkeypatch):
    """The 4x4 matrix endo above beside a truncating endo, in either order:
    both orders give one estimate, and with the matrix first its table is
    still built only to the cut."""
    rows = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]
    matrix = MatrixEndo(FreeAbelian(4), IntMatrix.from_rows(rows))
    truncating_first = ProductEndo(
        DirectProduct(truncating.group, matrix.group), (truncating, matrix)
    )
    matrix_first = ProductEndo(DirectProduct(matrix.group, truncating.group), (matrix, truncating))
    calls = []
    step = MatrixEndo._next_images

    def spy(endo, images):
        if endo is matrix:
            calls.append(images)
        return step(endo, images)

    monkeypatch.setattr(MatrixEndo, "_next_images", spy)
    est = growth_table(matrix_first, 1000)
    assert len(calls) == len(est.table)
    assert est == growth_table(truncating_first, 1000)


def test_truncating_factor_placed_second_still_cuts_the_first(monkeypatch):
    # the product above with its factors swapped: the bfs factor is built
    # first, so the matrix factor still stops at the cut
    _matrix_beside(WordEndo(Free(2, bfs_radius=6), FIBONACCI), monkeypatch)


def test_product_with_a_truncating_factor_inside_is_built_first(monkeypatch):
    # the bfs factor one product further down still cuts the matrix factor
    words = WordEndo(Free(2, bfs_radius=6), FIBONACCI)
    _matrix_beside(
        ProductEndo(DirectProduct(words.group, FreeAbelian(1)), (words, z1_times(1))), monkeypatch
    )


@pytest.mark.parametrize("bfs_first", [True, False], ids=["bfs-first", "exact-first"])
def test_product_table_stops_with_its_bfs_factor(bfs_first, monkeypatch):
    # 2^m leaves the radius-8 ball at m = 4, so the table is the exact
    # factor's 3^m cut at m = 3; stepping the exact factor first would
    # build its fourth power before the bfs factor ends
    truncating = MatrixEndo(FreeAbelian(1, bfs_radius=8), IntMatrix.from_rows([[2]]))
    exact = z1_times(3)
    factors = (truncating, exact) if bfs_first else (exact, truncating)
    endo = ProductEndo(direct_product(*(f.group for f in factors)), factors)
    calls = []
    step = MatrixEndo._next_images

    def spy(stepped, images):
        if stepped is exact:
            calls.append(images)
        return step(stepped, images)

    monkeypatch.setattr(MatrixEndo, "_next_images", spy)
    est = growth_table(endo, 20)
    assert (est.table, est.status) == ((3, 9, 27), "truncated")
    assert len(calls) == 3


@pytest.mark.parametrize(
    "left_endo",
    [WordEndo(Free(2, bfs_radius=6), FIBONACCI), MatrixEndo(FreeAbelian(2), IntMatrix.identity(2))],
    ids=["other-length-mode", "other-rank"],
)
def test_product_endo_rejects_a_factor_on_another_group(left_endo):
    with pytest.raises(KindMismatchError, match="factor endo 0"):
        ProductEndo(DirectProduct(Free(2), FreeAbelian(1)), (left_endo, z1_times(2)))


@pytest.mark.parametrize(
    "group, g, h",
    [
        (FreeAbelian(2), (True, False), (0, 0)),
        (Free(2), (True,), (2,)),
        (Heisenberg(), (True, 0, 0), (0, 0, 0)),
        (AbelianQuotient(2, IntMatrix.from_rows([[2], [0]])), (True, 0), (0, 0)),
    ],
    ids=["free_abelian", "free", "heisenberg", "abelian_quotient"],
)
def test_bool_components_are_rejected(group, g, h):
    # bool is an int subclass, but True is not a normal-form component
    with pytest.raises(KindMismatchError):
        group.multiply(g, h)
