"""Differential oracle for the exact matrix layer: characteristic polynomials
and Smith diagonals against sympy on seeded random integer matrices."""

from __future__ import annotations

import random

import pytest

from endogrow.intmat import IntMatrix, char_poly, mat_mul, smith_normal_form

sympy = pytest.importorskip("sympy")
normalforms = pytest.importorskip("sympy.matrices.normalforms")


def random_rows(rng, m, n, bound):
    """Entries in [-bound, bound], about a third of them zero."""
    return [[rng.randint(-bound, bound) if rng.random() < 0.67 else 0 for _ in range(n)]
            for _ in range(m)]


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("bound", [3, 10**6])
def test_char_poly_matches_sympy(n, bound):
    rows = random_rows(random.Random(f"charpoly {n} {bound}"), n, n, bound)
    descending = sympy.Matrix(rows).charpoly().all_coeffs()
    expected = tuple(int(c) for c in reversed(descending))
    assert char_poly(IntMatrix.from_rows(rows)).coefficients == expected


@pytest.mark.parametrize("seed", range(16))
def test_smith_diagonal_matches_sympy(seed):
    rng = random.Random(f"smith {seed}")
    m, n = rng.randint(1, 12), rng.randint(1, 12)
    if seed % 2:
        a = IntMatrix.from_rows(random_rows(rng, m, n, 9))
    else:
        # a product through rank r <= min(m, n): rank-deficient, non-trivial divisors
        r = rng.randint(1, min(m, n))
        a = mat_mul(IntMatrix.from_rows(random_rows(rng, m, r, 3)),
                    IntMatrix.from_rows(random_rows(rng, r, n, 3)))
    d = normalforms.smith_normal_form(sympy.Matrix(a.to_rows()), domain=sympy.ZZ)
    expected = tuple(int(d[i, i]) for i in range(min(m, n)))
    assert smith_normal_form(a).diagonal == expected

