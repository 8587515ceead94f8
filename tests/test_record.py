"""The value classes behave as frozen dataclasses did: the same repr text,
equality and hashing on the fields, no assignment after construction, and
constructor arguments checked.  The expected texts were taken from the
``@dataclass(frozen=True)`` classes these replace."""

from __future__ import annotations

import pytest

from endogrow.endos import HeisenbergEndo, MatrixEndo
from endogrow.groups import Free, FreeAbelian, Heisenberg
from endogrow.growth import growth_table
from endogrow.intmat import IntMatrix
from endogrow.products import Semidirect
from endogrow.record import asdict, replace

M = IntMatrix.from_rows
HYPERBOLIC = Semidirect(2, 1, (M([[2, 1], [1, 1]]),))
SWAP = MatrixEndo(FreeAbelian(2), M([[0, 2], [1, 0]]))


@pytest.mark.parametrize(
    "value, text",
    [
        (FreeAbelian(2), "FreeAbelian(rank=2, bfs_radius=0)"),
        (Heisenberg(2, bfs_radius=3), "Heisenberg(generator_count=2, bfs_radius=3)"),
        (IntMatrix.identity(2), "IntMatrix(rows=2, cols=2, entries=(1, 0, 0, 1))"),
        (HYPERBOLIC, "Semidirect(base_rank=2, quotient_rank=1, "
                     "action=(IntMatrix(rows=2, cols=2, entries=(2, 1, 1, 1)),), "
                     "bfs_radius=0)"),
        (growth_table(SWAP, 4),
         "GrowthEstimate(table=(2, 2, 4, 4), roots=(2.0, 1.414213562373095, "
         "1.5874010519681994, 1.414213562373095), inf_bound=1.414213562373095, "
         "ratio_estimate=1.0, method='lengths:exact', exactness='exact', "
         "status='truncated')"),
    ],
)
def test_repr_is_the_dataclass_text(value, text):
    assert repr(value) == text


@pytest.mark.parametrize(
    "make",
    [
        lambda: FreeAbelian(2),
        lambda: Semidirect(2, 1, (M([[2, 1], [1, 1]]),)),
        lambda: MatrixEndo(FreeAbelian(2), M([[0, 2], [1, 0]])),
        lambda: HeisenbergEndo(Heisenberg(), 2, 3),
        lambda: FreeAbelian(2, bfs_radius=3),
    ],
)
def test_equal_values_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_values_differ_by_field_and_by_class():
    assert FreeAbelian(2) != FreeAbelian(3)
    assert FreeAbelian(2) != FreeAbelian(2, bfs_radius=2)
    assert HeisenbergEndo(Heisenberg(), 2, 3) != HeisenbergEndo(Heisenberg(), 3, 2)
    # same field values, another class
    assert FreeAbelian(2) != Free(2)
    assert FreeAbelian(2) != (2, 0)
    assert hash(FreeAbelian(2)) == hash((2, 0))


def test_fields_cannot_be_assigned_or_deleted():
    group = FreeAbelian(2)
    with pytest.raises(AttributeError):
        group.rank = 3
    with pytest.raises(AttributeError):
        del group.rank
    with pytest.raises(AttributeError):
        group.extra = 1
    with pytest.raises(AttributeError):
        HYPERBOLIC.bfs_radius = 4
    assert group.rank == 2


def test_cached_properties_still_fill_in():
    first = HYPERBOLIC.base
    assert HYPERBOLIC.base is first
    assert HYPERBOLIC == Semidirect(2, 1, (M([[2, 1], [1, 1]]),))


def test_constructor_arguments_are_checked():
    assert FreeAbelian(rank=2) == FreeAbelian(2)
    assert Heisenberg(bfs_radius=3, generator_count=2) == Heisenberg(2, 3)
    with pytest.raises(TypeError):
        FreeAbelian()  # missing
    with pytest.raises(TypeError):
        FreeAbelian(2, width=3)  # unknown
    with pytest.raises(TypeError):
        FreeAbelian(2, rank=2)  # repeated
    with pytest.raises(TypeError):
        FreeAbelian(2, 3, 4)  # too many
    with pytest.raises(TypeError):
        IntMatrix(2, 2)


def test_replace_runs_the_constructor_checks_again():
    assert replace(FreeAbelian(2), bfs_radius=2) == FreeAbelian(2, bfs_radius=2)
    assert replace(FreeAbelian(2), bfs_radius=2).rank == 2
    with pytest.raises(ValueError):
        replace(FreeAbelian(2), bfs_radius=-1)
    with pytest.raises(TypeError):
        replace(FreeAbelian(2), width=1)


def test_asdict_is_flat_and_in_field_order():
    group = FreeAbelian(2)
    assert asdict(group) == {"rank": 2, "bfs_radius": 0}
    assert list(asdict(growth_table(SWAP, 4))) == [
        "table", "roots", "inf_bound", "ratio_estimate", "method", "exactness",
        "status",
    ]
