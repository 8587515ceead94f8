"""The letter-count route: a word endo whose generator iterates never cancel
gets its growth table from powers of its letter matrix, without building a
word.  Every table must equal the one built through the public operations,
on the endos that take the route and on those that decline it."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from endogrow.endos import WordEndo
from endogrow.groups import Free
from endogrow.growth import growth_table

from test_checked_entry import CANCELLING, FIBONACCI, free_reduce, reference_table

MAX_POWER = 7
A_TO_BA = ((2, 1), (1,))  # a -> ba, b -> a: positive, yet phi(a b^-1) = b cancels


@st.composite
def word_endos(draw):
    """Random images of length 0-4 on Free(1..3): cancelling endos and empty
    images included."""
    rank = draw(st.integers(1, 3))
    letters = st.sampled_from([x for i in range(1, rank + 1) for x in (i, -i)])
    images = tuple(
        free_reduce(draw(st.lists(letters, max_size=4))) for _ in range(rank)
    )
    return WordEndo(Free(rank), images)


@settings(max_examples=300, deadline=None)
@given(word_endos())
def test_table_equals_the_built_table(endo):
    est = growth_table(endo, MAX_POWER)
    assert (est.table, est.exactness) == reference_table(endo, MAX_POWER)


@pytest.fixture
def apply_calls(monkeypatch):
    """The images a word endo stepped as words; the letter-matrix route
    steps none."""
    calls = []
    next_images = WordEndo._next_images

    def spy(self, images):
        calls.append(images)
        return next_images(self, images)

    monkeypatch.setattr(WordEndo, "_next_images", spy)
    return calls


@pytest.mark.parametrize(
    "endo, takes_route",
    [
        (WordEndo(Free(2), A_TO_BA), True),
        (WordEndo(Free(2), CANCELLING), False),  # phi^2(a) = ab.b^-1 a
        (WordEndo(Free(2, bfs_radius=6), FIBONACCI), False),
        (WordEndo(Free(2), ((1, 2), ())), False),  # an empty image
    ],
    ids=["a-to-ba", "cancelling", "bfs-free", "empty-image"],
)
def test_route_taken_only_when_no_iterate_cancels(apply_calls, endo, takes_route):
    est = growth_table(endo, 8)
    assert (not apply_calls) == takes_route
    assert (est.table, est.exactness) == reference_table(endo, 8)


def test_fibonacci_builds_no_word(apply_calls):
    est = growth_table(WordEndo(Free(2), FIBONACCI), 30)
    assert not apply_calls
    assert est.table[-1] == 2_178_309
    assert est.method == "lengths:exact"


def test_letter_matrix_counts_letters_of_either_sign():
    endo = WordEndo(Free(3), ((1, -2, 1), (), (-3, -1)))
    assert endo.letter_matrix.to_rows() == [[2, 1, 0], [0, 0, 0], [1, 0, 1]]


@pytest.mark.parametrize(
    "images, free",
    [
        (A_TO_BA, True),
        (FIBONACCI, True),
        (CANCELLING, False),
        (((1, 2), (1, -2)), False),  # phi^3(a) holds b^-1 a, and phi(b^-1 a) = ba^-1.ab
        (((-1,), (2,)), True),  # a -> a^-1: the orbit a, a^-1, a, ... never cancels
        (((2,), (2,)), True),
        (((2,), ()), False),  # b is reachable and has an empty image
        (((1,), (), (3, 1)), False),  # every generator starts an orbit, b too
    ],
)
def test_cancellation_free_is_decided_on_the_orbit(images, free):
    assert WordEndo(Free(len(images)), images).is_cancellation_free == free
