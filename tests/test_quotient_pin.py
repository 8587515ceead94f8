"""The outputs of induced quotient endos are pinned by digest.

A seeded corpus of matrix endos on Z^n (n = 2..4) with invariant
sublattices, scalar ones k Z^n and block-triangular ones conjugated by a
unimodular change of basis, is induced on the quotient.  For each quotient
endo the digest covers its group's generators, the growth table and status
for m <= 12, the exact growth rate, the cube's growth table and the images
of the generators.  The benchmark's quotient case is pinned by its own
table digest at m = 300.
"""

from __future__ import annotations

import hashlib
import random

from endogrow import (
    FreeAbelian,
    IntMatrix,
    MatrixEndo,
    exact_growth_rate,
    growth_table,
    induce_on_quotient,
    sublattice,
)
from endogrow.intmat import RootConvergenceError, inverse_unimodular, mat_mul

CORPUS_SEED = 20260411
CORPUS_SIZE = 200
CORPUS_DIGEST = "66b86d7dfc6f4479902af1812c64bc620c3b1b394587320e498f0c2002a8f79c"

# bench/checks.py's QUOTIENT_CASE and its stored quotient_table digest
BENCH_ROWS = [[2, 0, 0], [1, 1, 1], [1, 1, 2]]
BENCH_BASIS = [[3], [0], [0]]
BENCH_MAX_M = 300
BENCH_DIGEST = "24474ed8b3231e80d6b28f9b458713f600dd9fb35ab9b9ac362b065ca25eb829"


def _unimodular(rng, n):
    """A product of a few random elementary column operations."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n + 1):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in p:
            row[j] += c * row[i]
    return IntMatrix.from_rows(p)


def _case(rng):
    """A matrix endo on Z^n and a sublattice it keeps invariant."""
    n = rng.randint(2, 4)
    if rng.random() < 0.3:
        k = rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        basis = [[k * (i == j) for j in range(n)] for i in range(n)]
        return FreeAbelian(n), IntMatrix.from_rows(rows), IntMatrix.from_rows(basis)
    # columns k_j e_j for j < r span a lattice that the column-convention
    # matrix C keeps when C[i][j] = 0 for i >= r > j and k_i divides C[i][j]
    r = rng.randint(1, n)
    scales = [rng.randint(1, 4) for _ in range(r)]
    c = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    for j in range(r):
        for i in range(n):
            c[i][j] = c[i][j] * scales[i] if i < r else 0
    basis = [[scales[j] * (i == j) for j in range(r)] for i in range(n)]
    p = _unimodular(rng, n)
    column_form = mat_mul(mat_mul(p, IntMatrix.from_rows(c)), inverse_unimodular(p))
    moved = mat_mul(p, IntMatrix(n, r, tuple(x for row in basis for x in row)))
    return FreeAbelian(n), column_form.transpose(), moved


def _record(endo) -> str:
    group = endo.group
    gens = list(group.generators)
    est = growth_table(endo, 12)
    try:
        rate = repr(exact_growth_rate(endo))
    except RootConvergenceError:
        rate = "unsolved"
    cube = growth_table(endo.power(3), 12)
    images = [endo.apply(g) for g in gens]
    return repr((gens, est.table, est.status, rate, cube.table, cube.status, images))


def corpus_digest() -> str:
    rng = random.Random(CORPUS_SEED)
    h = hashlib.sha256()
    for _ in range(CORPUS_SIZE):
        ambient, matrix, basis = _case(rng)
        endo = MatrixEndo(ambient, matrix)
        induced = induce_on_quotient(endo, sublattice(ambient, basis))
        h.update(_record(induced).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_induced_quotient_corpus_matches_its_digest():
    assert corpus_digest() == CORPUS_DIGEST


def test_benchmark_quotient_table_matches_its_digest():
    endo = MatrixEndo(FreeAbelian(3), IntMatrix.from_rows(BENCH_ROWS))
    induced = induce_on_quotient(endo, sublattice(FreeAbelian(3), BENCH_BASIS))
    table = growth_table(induced, BENCH_MAX_M).table
    digest = hashlib.sha256(",".join(map(str, table)).encode()).hexdigest()
    assert digest == BENCH_DIGEST
