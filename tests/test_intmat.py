"""Exact matrix layer: products, powers, characteristic polynomials, Smith
forms, and the root-solver-backed spectral radius."""

from __future__ import annotations

import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from endogrow import intmat
from endogrow.intmat import (
    DimensionError,
    IntMatrix,
    RootConvergenceError,
    aberth_roots,
    char_poly,
    inverse_unimodular,
    mat_mul,
    mat_pow,
    max_finite_order,
    smith_normal_form,
    spectral_radius,
)
from endogrow.products import Sublattice

from charpoly_reference import faddeev_char_poly

SQRT2 = math.sqrt(2.0)
P1 = (1 << 60) - 93  # the largest prime below 2**60


def M(rows):
    return IntMatrix.from_rows(rows)


def random_rows(seed, n, bound):
    """A seeded n x n matrix with entries in [-bound, bound]."""
    rng = random.Random(seed)
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def smith_corpus():
    """Seeded matrices for pinning the Smith transforms: empty shapes, small
    rectangular ones, rank-deficient products, and the sizes of the
    benchmark's spectral workload."""
    rng = random.Random("smith transforms")

    def rand(m, n, bound):
        return IntMatrix(m, n, tuple(rng.randint(-bound, bound) for _ in range(m * n)))

    yield from (IntMatrix.zero(m, n) for m, n in [(0, 0), (0, 3), (3, 0), (2, 2)])
    for _ in range(120):
        yield rand(rng.randint(0, 7), rng.randint(0, 7), rng.choice([1, 9, 1000]))
    for _ in range(30):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        r = rng.randint(1, min(m, n))
        yield mat_mul(rand(m, r, 4), rand(r, n, 4))
    for n in (4, 8, 12, 16, 20, 24):
        for bound in (1, 3, 5):
            yield rand(n, n, bound)


# SHA-256 of the shapes and hex entries of d, u and v over smith_corpus(),
# recorded with the two-matrix elimination that the block-matrix one replaced
SMITH_CORPUS_SHA256 = "199f36d1eca2b94cbe986e5bddda8081e2976283c0918e2058b0b9156d4b5027"


def small_matrices(max_dim=4, lo=-5, hi=5):
    return st.integers(2, max_dim).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ).map(IntMatrix.from_rows)


def naive_product(a, b):
    return IntMatrix(
        a.rows,
        b.cols,
        tuple(
            sum(a.get(i, k) * b.get(k, j) for k in range(a.cols))
            for i in range(a.rows)
            for j in range(b.cols)
        ),
    )


def shaped_matrix(rows, cols):
    return st.lists(
        st.integers(-(2**70), 2**70), min_size=rows * cols, max_size=rows * cols
    ).map(lambda entries: IntMatrix(rows, cols, tuple(entries)))


# (m x k, k x n) pairs, empty shapes included
product_pairs = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda mkn: st.tuples(shaped_matrix(mkn[0], mkn[1]), shaped_matrix(mkn[1], mkn[2]))
)


class TestFromRows:
    @pytest.mark.parametrize("entry", [1.7, 1.0, True, "1"])
    def test_rejects_an_entry_that_is_not_an_int(self, entry):
        # int(x) would truncate 1.7 to 1 and read True as 1
        with pytest.raises(ValueError, match="not an int"):
            IntMatrix.from_rows([[2, 0], [0, entry]])


class TestMatMul:
    def test_doubling_swap_squares_to_twice_identity(self):
        a = M([[0, 2], [1, 0]])
        assert mat_mul(a, a).to_rows() == [[2, 0], [0, 2]]

    def test_identity_neutral(self):
        a = M([[3, -1], [4, 7]])
        assert mat_mul(IntMatrix.identity(2), a) == a
        assert mat_mul(a, IntMatrix.identity(2)) == a

    def test_hand_multiplied_square(self):
        a = M([[2, 1], [1, 1]])
        assert mat_mul(a, a).to_rows() == [[5, 3], [3, 2]]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mat_mul(M([[1, 2]]), M([[1, 2]]))

    @settings(max_examples=120, deadline=None)
    @given(product_pairs, st.data())
    def test_kernels_match_a_naive_triple_loop(self, pair, data):
        a, b = pair
        assert mat_mul(a, b) == naive_product(a, b)
        col = data.draw(shaped_matrix(a.cols, 1))
        row = data.draw(shaped_matrix(1, b.rows))
        assert a.apply_col(col.entries) == naive_product(a, col).entries
        assert b.apply_row(row.entries) == naive_product(row, b).entries


class TestMatPow:
    def test_fourth_power_of_swap(self):
        assert mat_pow(M([[0, 2], [1, 0]]), 4).to_rows() == [[4, 0], [0, 4]]

    def test_zeroth_power(self):
        assert mat_pow(M([[9, 9], [9, 9]]), 0) == IntMatrix.identity(2)

    def test_cube_against_repeated_multiplication(self):
        a = M([[2, 1], [1, 1]])
        by_hand = mat_mul(mat_mul(a, a), a)
        assert mat_pow(a, 3) == by_hand
        assert by_hand.to_rows() == [[13, 8], [8, 5]]

    def test_power_additivity_random(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.choice([2, 3])
            a = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            m, k = rng.randint(0, 6), rng.randint(0, 6)
            assert mat_pow(a, m + k) == mat_mul(mat_pow(a, m), mat_pow(a, k))

    def test_binary_powering_makes_logarithmically_many_products(self, monkeypatch):
        # n.bit_length() - 1 squarings and popcount(n) - 1 products into the
        # result, read through the module's mat_mul; a linear loop makes n - 1
        calls = []

        def spy(x, y):
            calls.append(None)
            return mat_mul(x, y)

        monkeypatch.setattr(intmat, "mat_mul", spy)
        a = M([[2, 1], [1, -1]])
        by_hand = a
        for n in range(1, 300):
            calls.clear()
            assert mat_pow(a, n) == by_hand
            assert len(calls) == n.bit_length() + bin(n).count("1") - 2
            by_hand = mat_mul(by_hand, a)


class TestMaxFiniteOrder:
    def test_first_twelve_ranks(self):
        expected = [2, 6, 6, 12, 12, 30, 30, 60, 60, 120, 120, 210]
        assert [max_finite_order(n) for n in range(1, 13)] == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_subset_search(self, n):
        # every set of d <= 2 n^2 whose cyclotomic degrees fit in n
        phi = {d: sum(math.gcd(k, d) == 1 for k in range(1, d + 1)) for d in range(1, 2 * n * n + 1)}
        cands = [d for d in phi if phi[d] <= n]
        best = 1

        def search(i, room, order):
            nonlocal best
            best = max(best, order)
            for j in range(i, len(cands)):
                d = cands[j]
                if phi[d] <= room:
                    search(j + 1, room - phi[d], math.lcm(order, d))

        search(0, n, 1)
        assert max_finite_order(n) == best


class TestCharPoly:
    def test_swap_doubling(self):
        assert char_poly(M([[0, 2], [1, 0]])).coefficients == (-2, 0, 1)

    def test_identity(self):
        assert char_poly(IntMatrix.identity(2)).coefficients == (1, -2, 1)

    def test_fibonacci_like(self):
        # det(xI - A) expanded by hand: x^2 - 3x + 1
        assert char_poly(M([[2, 1], [1, 1]])).coefficients == (1, -3, 1)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_cayley_hamilton_exact(self, a):
        p = char_poly(a)
        assert p.coefficients[-1] == 1
        # p(a) by Horner's rule: acc <- acc * a + c * I, the zero matrix iff
        # Cayley-Hamilton holds
        n = a.rows
        acc = IntMatrix.zero(n, n)
        for c in reversed(p.coefficients):
            entries = list(mat_mul(acc, a).entries)
            for i in range(0, n * n, n + 1):
                entries[i] += c
            acc = IntMatrix(n, n, tuple(entries))
        assert not any(acc.entries)

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(0, 24).flatmap(
            lambda n: st.lists(
                st.integers(-(10**6), 10**6) | st.just(0), min_size=n * n, max_size=n * n
            ).map(lambda entries: IntMatrix(n, n, tuple(entries)))
        )
    )
    def test_matches_faddeev_leverrier(self, a):
        assert char_poly(a) == faddeev_char_poly(a)

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param([], id="n=0"),
            pytest.param([[7]], id="n=1"),
            pytest.param([[0] * 5 for _ in range(5)], id="zero-matrix"),
            pytest.param([[0, 1, 2, 3], [0, 0, 4, 5], [0, 0, 0, 6], [0, 0, 0, 0]], id="nilpotent"),
            pytest.param([[1, 2, 3], [P1, 4, 5], [6, 7, 8]], id="first-pivot-zero-mod-p1"),
            pytest.param([[1, 2, 3], [P1, 4, 5], [-2 * P1, 7, 8]], id="no-pivot-mod-p1"),
            pytest.param(
                [[P1 * x for x in row] for row in [[3, -1, 4], [1, -5, 9], [2, 6, -5]]],
                id="all-multiples-of-p1",
            ),
            pytest.param([[0, 2**10000], [1, 0]], id="past-the-literal-primes"),
            pytest.param(random_rows("8x8 200-bit", 8, 2**200), id="n=8-200-bit-entries"),
            pytest.param(random_rows("32x32", 32, 5), id="n=32-entries-to-5"),
        ],
    )
    def test_named_cases_match_faddeev_leverrier(self, rows):
        a = IntMatrix(len(rows), len(rows), tuple(x for row in rows for x in row))
        assert char_poly(a) == faddeev_char_poly(a)

    def test_named_case_values(self):
        assert char_poly(IntMatrix(0, 0, ())).coefficients == (1,)
        assert char_poly(M([[7]])).coefficients == (-7, 1)
        assert char_poly(IntMatrix.zero(5, 5)).coefficients == (0, 0, 0, 0, 0, 1)
        # a nilpotent matrix that is not triangular: N conjugated by a unimodular U
        u = M([[1, 0, 0], [1, 1, 0], [2, 1, 1]])
        n = mat_mul(mat_mul(u, M([[0, 1, 2], [0, 0, 3], [0, 0, 0]])), inverse_unimodular(u))
        assert char_poly(n).coefficients == (0, 0, 0, 1)
        # a 10001-bit coefficient
        assert char_poly(M([[0, 2**10000], [1, 0]])).coefficients == (-(2**10000), 0, 1)


class TestSpectralRadius:
    def test_sqrt_two(self):
        assert spectral_radius(M([[0, 2], [1, 0]])) == pytest.approx(SQRT2, abs=1e-11)

    def test_identity_is_one(self):
        for n in (1, 2, 3, 5):
            assert spectral_radius(IntMatrix.identity(n)) == pytest.approx(1.0, abs=1e-11)

    def test_golden_square(self):
        # quadratic formula on x^2 - 3x + 1
        expected = (3 + math.sqrt(5)) / 2
        assert spectral_radius(M([[2, 1], [1, 1]])) == pytest.approx(expected, abs=1e-11)

    def test_nilpotent_is_zero(self):
        assert spectral_radius(M([[0, 1], [0, 0]])) == 0.0
        assert spectral_radius(M([[0, 1, 2], [0, 0, 3], [0, 0, 0]])) == 0.0

    def test_power_compatibility(self):
        # the spectral face of rate(endo^n) = rate(endo)^n
        rng = random.Random(3)
        tol = 1e-12  # the root solver's tolerance
        for _ in range(25):
            n = rng.choice([2, 3])
            a = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            rho = spectral_radius(a)
            for p in (2, 3):
                lhs = spectral_radius(mat_pow(a, p))
                assert abs(lhs - rho**p) <= max(p * tol * (1 + rho) ** p, 1e-9)

    def test_cross_validates_big_integer_power_growth(self):
        # independent route: exact bigint norms of A^40 applied to the basis
        rng = random.Random(0)
        done = 0
        while done < 20:
            n = rng.choice([2, 3])
            a = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            rho = spectral_radius(a)
            if rho < 1.0:
                continue
            power = mat_pow(a, 40)
            growth = 0
            for j in range(n):
                v = tuple(1 if i == j else 0 for i in range(n))
                growth = max(growth, sum(abs(x) for x in power.apply_col(v)))
            estimate = math.exp(math.log(growth) / 40)
            assert abs(estimate - rho) <= 0.05 * rho
            done += 1

    def test_nonconvergence_is_an_explicit_failure(self):
        with pytest.raises(RootConvergenceError):
            aberth_roots([-2, 0, 0, 0, 0, 1], tol=1e-12, max_iter=1)

    def test_non_finite_iterate_stops_the_iteration(self):
        # x^2 - 2^1100: the roots fit in a float, the ratio in Fujiwara's bound does not
        with pytest.raises(RootConvergenceError, match="finite"):
            aberth_roots([-(2**1100), 0, 1])

    def test_coefficients_beyond_the_float_range_fail_explicitly(self):
        with pytest.raises(RootConvergenceError):
            spectral_radius(M([[0, 2**2000], [1, 0]]))

    @pytest.mark.parametrize("power", [520, 600])
    def test_coefficients_over_512_bits(self, power):
        assert spectral_radius(M([[0, 2**power], [1, 0]])) == 2.0 ** (power // 2)

    @pytest.mark.parametrize("n, seed", [(20, 20), (24, 24)])
    def test_large_matrices_match_numpy(self, n, seed):
        np = pytest.importorskip("numpy")
        rng = random.Random(seed)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        expected = float(max(abs(np.linalg.eigvals(np.array(rows, dtype=float)))))
        assert spectral_radius(M(rows)) == pytest.approx(expected, rel=1e-9)


class TestSmithNormalForm:
    def test_diag_2_3(self):
        assert smith_normal_form(M([[2, 0], [0, 3]])).diagonal == (1, 6)

    def test_identity(self):
        s = smith_normal_form(IntMatrix.identity(3))
        assert s.diagonal == (1, 1, 1)

    def test_rank_deficient(self):
        assert smith_normal_form(M([[2, 0], [0, 0]])).diagonal == (2, 0)

    def test_transforms_are_pinned(self):
        # quotient coordinates and lengths read U, so the exact D, U and V
        # are pinned, not only the diagonal
        digest = hashlib.sha256()
        for a in smith_corpus():
            s = smith_normal_form(a)
            for x in (s.d, s.u, s.v):
                digest.update(f"{x.rows}x{x.cols}:{','.join(map(hex, x.entries))};".encode())
        assert digest.hexdigest() == SMITH_CORPUS_SHA256

    @pytest.mark.parametrize(
        "rows", [[[2], [3]], [[2, 3]]], ids=["row-step", "column-step-only"]
    )
    def test_transform_check_raises_on_a_wrong_bezout_triple(self, monkeypatch, rows):
        # x + 1 breaks a*x + b*y == g, so the 2 x 2 block of the row step
        # (which builds U) or of the column step (which builds V) has
        # determinant other than 1; [[2, 3]] takes a column step alone, and a
        # check on U alone passes it with det V == 3
        honest = intmat._ext_gcd

        def wrong(a, b):
            g, x, y = honest(a, b)
            return g, x + 1, y

        monkeypatch.setattr(intmat, "_ext_gcd", wrong)
        with pytest.raises(ArithmeticError):
            smith_normal_form(M(rows))

    @settings(max_examples=80, deadline=None)
    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
            lambda mn: st.lists(
                st.lists(st.integers(-6, 6), min_size=mn[1], max_size=mn[1]),
                min_size=mn[0],
                max_size=mn[0],
            )
        ).map(IntMatrix.from_rows)
    )
    def test_invariants(self, a):
        s = smith_normal_form(a)
        # transform identity, exactly
        assert mat_mul(mat_mul(s.u, a), s.v) == s.d
        # unimodular transforms: U's inverse by Cayley-Hamilton, and
        # det V = +-1 as the char poly's constant term
        ident = IntMatrix.identity(a.rows)
        u_inv = inverse_unimodular(s.u)
        assert mat_mul(s.u, u_inv) == ident
        assert mat_mul(u_inv, s.u) == ident
        assert abs(char_poly(s.v).coefficients[0]) == 1
        diag = s.diagonal
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert (y % x == 0) if x else y == 0
        # off-diagonal zero
        for i in range(s.d.rows):
            for j in range(s.d.cols):
                if i != j:
                    assert s.d.get(i, j) == 0


@st.composite
def unimodular_products(draw):
    """An n x n product of up to 8 elementary add, row swap and sign
    matrices, n = 0..5."""
    n = draw(st.integers(0, 5))
    a = IntMatrix.identity(n)
    for _ in range(draw(st.integers(0, 8)) if n else 0):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["add", "swap", "sign"]))
        if kind == "sign":
            rows[i][i] = -1
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif i != j:
            rows[i][j] = draw(st.integers(-3, 3))
        a = mat_mul(a, M(rows))
    return a


class TestSolveAndInverse:
    def test_solve_round_trip(self):
        # random bases of shapes 2x2, 3x2 and 3x3 with entries in [-4, 4]:
        # a sublattice's coordinates recover x from B x; the one draw with
        # dependent columns is no sublattice
        rng = random.Random(11)
        dependent = 0
        for _ in range(50):
            m_, n_ = rng.choice([(2, 2), (3, 2), (3, 3)])
            a = M([[rng.randint(-4, 4) for _ in range(n_)] for _ in range(m_)])
            x = tuple(rng.randint(-5, 5) for _ in range(n_))
            try:
                lattice = Sublattice(m_, a)
            except ValueError:
                dependent += 1
                continue
            assert lattice.coordinates(a.apply_col(x)) == x
        assert dependent == 1

    def test_solve_reports_no_solution(self):
        assert Sublattice(2, M([[2, 0], [0, 3]])).coordinates((3, 9)) is None

    def test_unimodular_inverse(self):
        a = M([[2, 1], [1, 1]])
        inv = inverse_unimodular(a)
        assert mat_mul(a, inv) == IntMatrix.identity(2)
        assert mat_mul(inv, a) == IntMatrix.identity(2)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            inverse_unimodular(M([[2, 0], [0, 1]]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            inverse_unimodular(M([[1, 0, 0], [0, 1, 0]]))

    @settings(max_examples=60, deadline=None)
    @given(unimodular_products())
    def test_inverse_matches_the_smith_transforms(self, a):
        # A = U^-1 D V^-1 with D = I, so A^-1 = V U: an elimination that
        # shares no code with the Cayley-Hamilton inverse
        s = smith_normal_form(a)
        assert inverse_unimodular(a) == mat_mul(s.v, s.u)
