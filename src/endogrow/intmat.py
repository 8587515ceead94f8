"""Exact arbitrary-precision integer matrices.

Everything inside a matrix operation is exact (Python ints); floating point
enters only at the very end, in the polynomial root solver that turns an
exact characteristic polynomial into a spectral radius.

The characteristic polynomial comes from Berkowitz's recurrence, which
uses ring operations alone, so its integer coefficients are exact at any
entry size with no division, modulus or bound.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from math import gcd
from operator import mul

from endogrow.record import record


class DimensionError(ValueError):
    """Matrix dimensions incompatible with the requested operation."""


class RootConvergenceError(RuntimeError):
    """The simultaneous root iteration failed to reach its tolerance."""


@record
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        # written out: the most often built record
        if rows < 0 or cols < 0:
            raise DimensionError("negative dimensions")
        if len(entries) != rows * cols:
            raise DimensionError(f"expected {rows * cols} entries, got {len(entries)}")
        d = self.__dict__
        d["rows"] = rows
        d["cols"] = cols
        d["entries"] = entries

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise DimensionError("ragged rows")
        entries = tuple(x for r in rows for x in r)
        for x in entries:
            if type(x) is not int:
                raise ValueError(f"matrix entry {x!r} is not an int")
        return IntMatrix(m, n, entries)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zero(m: int, n: int) -> "IntMatrix":
        return IntMatrix(m, n, (0,) * (m * n))

    def get(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Every column, sliced once per matrix."""
        return tuple(self.column(j) for j in range(self.cols))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.get(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def apply_col(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise DimensionError("vector length mismatch")
        return tuple(sum(map(mul, self.row(i), vec)) for i in range(self.rows))

    def apply_row(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """Row vector times matrix (images-in-rows convention)."""
        if len(vec) != self.rows:
            raise DimensionError("vector length mismatch")
        return tuple(sum(map(mul, vec, col)) for col in self.columns)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product."""
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    rows = [a.row(i) for i in range(a.rows)]
    cols = [b.column(j) for j in range(b.cols)]
    return IntMatrix(a.rows, b.cols, tuple(sum(map(mul, r, c)) for r in rows for c in cols))


def mat_pow(a: IntMatrix, n: int) -> IntMatrix:
    """Exact n-th power by binary exponentiation; a**0 is the identity."""
    if not a.is_square:
        raise DimensionError("power of non-square matrix")
    if n < 0:
        raise ValueError("negative power (use inverse_unimodular for unimodular matrices)")
    # mat_mul is read at call time, so a wrapper bound to the name sees each product
    return _binary_power(a, n, mat_mul) if n else IntMatrix.identity(a.rows)


def _binary_power(x, n: int, times):
    """x to the n-th power under the product `times`, for n >= 1, by binary
    powering: n.bit_length() + popcount(n) - 2 products."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else times(result, x)
        n >>= 1
        if not n:
            return result
        x = times(x, x)


def _totient(d: int) -> int:
    out, m, p = d, d, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    return out - out // m if m > 1 else out


def max_finite_order(n: int) -> int:
    """The largest finite multiplicative order of a matrix in GL(n, Z).

    A finite-order matrix's minimal polynomial is a product of distinct
    cyclotomic polynomials Phi_d, so its order is lcm(S) for a set S of
    d >= 1 with sum(phi(d) for d in S) <= n.  This returns the largest such
    lcm; phi(d) >= sqrt(d / 2) bounds the d worth trying by 2 n^2.
    """
    reach = {0: {1}}  # phi-degree spent -> the lcms reachable with it
    for d in range(1, 2 * n * n + 1):
        cost = _totient(d)
        if cost > n:
            continue
        # most spent first, so no set takes the same d twice
        for spent in sorted(reach, reverse=True):
            if spent + cost <= n:
                reach.setdefault(spent + cost, set()).update(
                    math.lcm(x, d) for x in reach[spent]
                )
    return max(max(lcms) for lcms in reach.values())


@record
class CharPoly:
    """Monic characteristic polynomial; coefficients ascending, so
    coefficients[k] multiplies x**k and coefficients[-1] == 1."""

    coefficients: tuple[int, ...]


def char_poly(a: IntMatrix) -> CharPoly:
    """Characteristic polynomial det(xI - A) by Berkowitz's recurrence.

    With A_r the leading r x r block, R = A[r][:r], C = A[:r][r] and
    a = A[r][r], det(xI - A_{r+1}) is the lower triangular Toeplitz matrix
    with first column 1, -a, -R C, -R A_r C, ..., -R A_r^(r-1) C times the
    coefficients of det(xI - A_r), highest first.  Only ring operations on
    Python ints occur, so the result is exact; the cost is O(n^4).
    """
    if not a.is_square:
        raise DimensionError("characteristic polynomial of non-square matrix")
    poly = [1]  # det(xI - A_r), highest degree first
    for r in range(a.rows):
        block = [a.row(i)[:r] for i in range(r)]
        row = a.row(r)[:r]
        col = [a.get(i, r) for i in range(r)]  # A_r^k C, from k = 0
        toeplitz = [1, -a.get(r, r)]
        for k in range(r):
            toeplitz.append(-sum(map(mul, row, col)))
            if k < r - 1:
                col = [sum(map(mul, b, col)) for b in block]
        poly = [sum(map(mul, toeplitz[i::-1], poly)) for i in range(r + 2)]
    return CharPoly(tuple(reversed(poly)))


# -- integer polynomial helpers (ascending coefficient tuples) --------------


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_content(c) -> int:
    g = 0
    for x in c:
        g = gcd(g, abs(x))
    return g or 1


def _poly_primitive(c):
    c = _poly_trim(c)
    if not c:
        return c
    g = _poly_content(c)
    if c[-1] < 0:
        g = -g
    return [x // g for x in c]


def _poly_derivative(c):
    return [k * c[k] for k in range(1, len(c))]


def _poly_pseudo_rem(a, b):
    """Pseudo-remainder of a by b; scales a by lead(b) as needed."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while True:
        a = _poly_trim(a)
        if len(a) - 1 < db or not a:
            return a
        coef = a[-1]
        da = len(a) - 1
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[da - db + i] -= coef * bc


def _poly_gcd(a, b):
    """Primitive gcd of integer polynomials (primitive PRS)."""
    a = _poly_primitive(a)
    b = _poly_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _poly_primitive(_poly_pseudo_rem(a, b))
        a, b = b, r
    return _poly_primitive(a)


def _poly_exact_div(num, den):
    """Exact division of integer polynomials; raises if not exact."""
    num = _poly_trim(num)
    den = _poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if len(num) < len(den):
        if not num:
            return []
        raise ArithmeticError("inexact polynomial division")
    out = [0] * (len(num) - len(den) + 1)
    work = list(num)
    ld = den[-1]
    for k in reversed(range(len(out))):
        c = work[k + len(den) - 1]
        q, r = divmod(c, ld)
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[k] = q
        for i, dc in enumerate(den):
            work[k + i] -= q * dc
    if any(work):
        raise ArithmeticError("inexact polynomial division")
    return out


def _poly_square_free(c):
    """Square-free part: same roots, all simple. Exact integer computation."""
    c = _poly_trim(c)
    if len(c) <= 2:
        return c
    g = _poly_gcd(c, _poly_derivative(c))
    if len(g) <= 1:
        return c
    return _poly_exact_div(c, g)


def _scaled_float_coeffs(c):
    """Convert huge integer coefficients to floats after a common power-of-two
    rescaling (which leaves the roots unchanged)."""
    bits = max(x.bit_length() for x in c if x) if any(c) else 0
    shift = max(0, bits - 512)
    return [x / (1 << shift) for x in c]


def aberth_roots(coeffs, tol: float = 1e-12, max_iter: int = 10000) -> tuple[complex, ...]:
    """All roots of an integer polynomial by Aberth-Ehrlich simultaneous
    iteration.

    Convergence is declared when every root has backward error
    |p(z)| <= tol * sum_k |c_k||z|^k.  Feed square-free input for fast
    convergence; on failure, including an iterate that is no longer finite,
    raises RootConvergenceError rather than returning an unreliable value.
    """
    c = _poly_trim(coeffs)
    n = len(c) - 1
    if n <= 0:
        return ()
    fc = _scaled_float_coeffs(c)
    if not fc[-1]:
        raise RootConvergenceError("coefficients span more than the floating-point range")
    if n == 1:
        root = complex(-fc[0] / fc[1])
        if not cmath.isfinite(root):
            raise RootConvergenceError("the root lies outside the floating-point range")
        return (root,)
    dfc = [k * fc[k] for k in range(1, n + 1)]
    # start on Fujiwara's bound, which holds every root and is at most 2n
    # times the largest modulus, so z**n stays finite where the roots do
    radius = 2.0 * max(abs(fc[n - k] / fc[n]) ** (1.0 / k) for k in range(1, n + 1))
    roots = [
        radius * cmath.exp(2j * math.pi * k / n + 0.4j) for k in range(n)
    ]

    def horner(cs, z):
        acc = 0j
        for a in reversed(cs):
            acc = acc * z + a
        return acc

    def backward_error_ok(z):
        p = horner(fc, z)
        scale = 0.0
        az = abs(z)
        pw = 1.0
        for a in fc:
            scale += abs(a) * pw
            pw *= az
        return abs(p) <= tol * max(scale, 1e-300)

    for _ in range(max_iter):
        converged = True
        for i in range(n):
            z = roots[i]
            p = horner(fc, z)
            if p == 0:
                continue
            dp = horner(dfc, z)
            if dp == 0:
                roots[i] = z + (1e-8 + 1e-8j)
                converged = False
                continue
            newton = p / dp
            repulsion = sum(1.0 / (z - roots[j]) for j in range(n) if j != i)
            denom = 1.0 - newton * repulsion
            if denom == 0:
                roots[i] = z + (1e-8 + 1e-8j)
                converged = False
                continue
            step = newton / denom
            roots[i] = z - step
            if not cmath.isfinite(roots[i]):
                raise RootConvergenceError("root iteration left the finite floating-point range")
            if abs(step) > tol * max(1.0, abs(z)):
                converged = False
        if converged and all(backward_error_ok(z) for z in roots):
            return tuple(roots)
    raise RootConvergenceError(
        f"root iteration did not reach tolerance {tol} within {max_iter} iterations"
    )


def spectral_radius(a: IntMatrix) -> float:
    """Largest root modulus of the characteristic polynomial.

    Zero roots are factored out exactly and the remaining polynomial is
    reduced to its square-free part before the Aberth iteration, so repeated
    eigenvalues cost nothing in accuracy.  Nilpotent matrices give 0.0.
    """
    p = list(char_poly(a).coefficients)
    while p and p[0] == 0:
        p.pop(0)
    if len(p) <= 1:
        return 0.0
    roots = aberth_roots(_poly_square_free(p))
    return max(abs(z) for z in roots)


@record
class SmithForm:
    """U * A * V = D with U, V unimodular and D diagonal, d_i | d_{i+1} >= 0."""

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        k = min(self.d.rows, self.d.cols)
        return tuple(self.d.get(i, i) for i in range(k))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)

    @cached_property
    def padded_diagonal(self) -> tuple[int, ...]:
        """D's diagonal, padded with zeros to one entry per row of U."""
        return self.diagonal + (0,) * (self.u.rows - len(self.diagonal))


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y == g > 0 (for a, b not both zero)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _bezout_block(a: int, b: int) -> tuple[int, int, int, int]:
    """x, y, p, q with (a, b) == g (p, q), so [[x, y], [-q, p]] takes (a, b)
    to (g, 0); its determinant x p + y q is checked to be 1."""
    g, x, y = _ext_gcd(a, b)
    p, q = a // g, b // g
    if x * p + y * q != 1:
        raise ArithmeticError("Smith normal form step is not unimodular")
    return x, y, p, q


def _divides(a: int, b: int) -> bool:
    if a == 0:
        return b == 0
    return b % a == 0


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Smith normal form with unimodular transforms, fully exact.

    Works on any integer matrix (rectangular included).  The returned
    transforms satisfy U*A*V == D identically; the diagonal is nonnegative
    with each entry dividing the next.

    The elimination runs on the block matrix [[A, I_m], [I_n, 0]], so an
    operation on its first m rows also builds U and one on its first n
    columns also builds V; D, U and V end as its top-left, top-right and
    bottom-left blocks.  Every step is a swap, an exact-division add, a
    negation or an extended-gcd 2x2 block whose determinant is checked to
    be 1, so U and V are unimodular by construction.
    """
    m, n = a.rows, a.cols
    b = [list(a.row(i)) + [int(i == k) for k in range(m)] for i in range(m)]
    b += [[int(j == k) for k in range(n)] + [0] * m for j in range(n)]

    def add_col(dst, src, k):
        # column dst += k * column src
        for row in b:
            row[dst] += k * row[src]

    def diagonalize_from(t):
        while t < min(m, n):
            # the first smallest nonzero |entry| of the trailing block, row-major
            cells = ((abs(b[i][j]), i, j) for i in range(t, m) for j in range(t, n) if b[i][j])
            pivot = min(cells, default=None)
            if pivot is None:
                break
            _, pi, pj = pivot
            b[t], b[pi] = b[pi], b[t]
            if pj != t:
                for row in b:
                    row[t], row[pj] = row[pj], row[t]
            # clear column t with row operations (gcd steps strictly shrink
            # the pivot, so this terminates), then row t with column ops
            while True:
                for i in range(t + 1, m):
                    if b[i][t]:
                        q, r = divmod(b[i][t], b[t][t])
                        if r == 0:
                            b[i] = [x - q * y for x, y in zip(b[i], b[t])]
                            continue
                        # rows t, i := unimodular combinations making b[i][t] == 0
                        x, y, p, q = _bezout_block(b[t][t], b[i][t])
                        b[t], b[i] = (
                            [x * rt + y * ri for rt, ri in zip(b[t], b[i])],
                            [-q * rt + p * ri for rt, ri in zip(b[t], b[i])],
                        )
                for j in range(t + 1, n):
                    if b[t][j]:
                        q, r = divmod(b[t][j], b[t][t])
                        if r == 0:
                            add_col(j, t, -q)
                            continue
                        # columns t, j := unimodular combinations making b[t][j] == 0
                        x, y, p, q = _bezout_block(b[t][t], b[t][j])
                        for row in b:
                            ct, cj = row[t], row[j]
                            row[t], row[j] = x * ct + y * cj, -q * ct + p * cj
                if not any(b[i][t] for i in range(t + 1, m)) and not any(
                    b[t][j] for j in range(t + 1, n)
                ):
                    break
            t += 1

    diagonalize_from(0)
    # enforce the divisibility chain, re-diagonalizing after each disturbance
    r = min(m, n)
    while True:
        broken = next((i for i in range(r - 1) if not _divides(b[i][i], b[i + 1][i + 1])), None)
        if broken is None:
            break
        add_col(broken, broken + 1, 1)
        diagonalize_from(broken)
    for i in range(r):
        if b[i][i] < 0:
            b[i] = [-x for x in b[i]]

    d = IntMatrix(m, n, tuple(x for row in b[:m] for x in row[:n]))
    u = IntMatrix(m, m, tuple(x for row in b[:m] for x in row[n:]))
    v = IntMatrix(n, n, tuple(x for row in b[m:] for x in row[:n]))
    if mat_mul(mat_mul(u, a), v).entries != d.entries:
        raise ArithmeticError("Smith normal form transform check failed")
    return SmithForm(d, u, v)


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix by Cayley-Hamilton.

    With det(xI - A) = x^n + c_(n-1) x^(n-1) + ... + c_0 and c_0 = +-1,
    A^-1 = -c_0 (A^(n-1) + c_(n-1) A^(n-2) + ... + c_1 I), summed by Horner's
    rule; A A^-1 == I is checked exactly.
    """
    if not a.is_square:
        raise DimensionError("inverse of non-square matrix")
    n = a.rows
    c = char_poly(a).coefficients
    if abs(c[0]) != 1:
        raise ValueError("matrix is not unimodular")
    acc = ident = IntMatrix.identity(n)
    for k in range(n - 1, 0, -1):
        step = mat_mul(a, acc).entries
        acc = IntMatrix(n, n, tuple(x + c[k] * e for x, e in zip(step, ident.entries)))
    inv = IntMatrix(n, n, tuple(-c[0] * x for x in acc.entries))
    if mat_mul(a, inv) != ident:
        raise ArithmeticError("unimodular inverse check failed")
    return inv
