"""Reference characteristic polynomial for the tests: the Faddeev-LeVerrier
recurrence over the integers, O(n^4) with big-int matrix products and exact
divisions, kept to cross-check `endogrow.intmat.char_poly`, which runs
Berkowitz's division-free recurrence."""

from __future__ import annotations

from endogrow.intmat import CharPoly, DimensionError, IntMatrix, mat_mul


def faddeev_char_poly(a: IntMatrix) -> CharPoly:
    """Characteristic polynomial via the Faddeev-LeVerrier recurrence.

    All divisions in the recurrence are exact over the integers, so the
    coefficients come out exact at any size.
    """
    if not a.is_square:
        raise DimensionError("characteristic polynomial of non-square matrix")
    n = a.rows
    if n == 0:
        return CharPoly((1,))
    coeffs_desc = [1]
    m = IntMatrix.identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        t = sum(am.entries[:: n + 1])
        q, r = divmod(-t, k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier division was not exact")
        coeffs_desc.append(q)
        entries = list(am.entries)
        for i in range(0, n * n, n + 1):  # the diagonal: m = am + q*I
            entries[i] += q
        m = IntMatrix(n, n, tuple(entries))
    # m is now a*N_{n-1} + c_0*I which must vanish identically
    if any(m.entries):
        raise ArithmeticError("Faddeev-LeVerrier closure check failed")
    return CharPoly(tuple(reversed(coeffs_desc)))
