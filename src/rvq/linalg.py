"""Exact integer matrix helpers (arbitrary precision, no floating point).

Matrices are tuples of tuples of ints; vectors are tuples of ints.
"""

from __future__ import annotations

import functools
import operator

Matrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in bt)
                 for row in a)


@functools.lru_cache(maxsize=64)
def _is_alternating(form: Matrix, p: int) -> bool:
    """Zero diagonal and formᵀ = -form, mod p when p is nonzero; kept per
    form, since a caller checks many matrices against the same one."""
    off = (lambda x: x % p) if p else bool
    return not any(off(row[i]) or any(off(x + y) for x, y in zip(row, col))
                   for i, (row, col) in enumerate(zip(form, zip(*form))))


def preserves_form(m: Matrix, form: Matrix, p: int = 0) -> bool:
    """Whether m·form·mᵀ = form, or with a prime p, whether they agree mod p;
    False unless m is square of the form's size.

    ``form`` must be alternating: zero diagonal and formᵀ = -form (mod p
    when p is given), else ValueError.  Then m·form·mᵀ is alternating too,
    so its strict upper triangle decides the equality, and only that
    triangle of the second product is formed.
    """
    if not _is_alternating(form, p):
        raise ValueError("form is not alternating")
    n = len(form)
    off = (lambda x: x % p) if p else bool
    mf = mul(m, form)
    return {len(m), *map(len, m)} == {n} and not any(
        off(sum(map(operator.mul, mf[i], m[j])) - form[i][j])
        for i in range(n) for j in range(i + 1, n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_mod(a: Matrix, p: int) -> Matrix:
    return tuple(tuple(x % p for x in row) for row in a)


def det(a: Matrix) -> int:
    """Bareiss fraction-free determinant; 1 for the 0 x 0 matrix."""
    n = len(a)
    if not n:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def hermite_with_transform(a: Matrix) -> tuple[Matrix, Matrix]:
    """Row Hermite-style reduction: returns (H, U) with U unimodular, H = U a.

    Pivots are chosen left to right; the reduction is fully deterministic so
    downstream basis choices are reproducible.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    h = [list(row) for row in a]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    r = 0
    for c in range(cols):
        # gcd-reduce column c below row r
        while True:
            nz = [i for i in range(r, rows) if h[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][c]), i))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                u[r], u[i0] = u[i0], u[r]
            done = True
            for i in range(r + 1, rows):
                if h[i][c]:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if h[i][c]:
                        done = False
            if done:
                break
        if any(h[i][c] for i in range(r, rows)):
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            r += 1
            if r == rows:
                break
    return tuple(tuple(row) for row in h), tuple(tuple(row) for row in u)


def rank(a: Matrix) -> int:
    """Rank over the rationals: the number of nonzero echelon rows."""
    h, _ = hermite_with_transform(a)
    return sum(1 for row in h if any(row))


def invert_integer(a: Matrix) -> Matrix:
    """Inverse of an integer matrix whose inverse is integral.

    The echelon form H = U a of an invertible square matrix is upper
    triangular with a positive diagonal, and the inverse is integral exactly
    when that diagonal is all ones; clearing H above the diagonal with the
    same row operations on U then leaves U = a^-1.  Raises ZeroDivisionError
    if ``a`` is singular and ValueError if its inverse is not integral.
    """
    h, u = hermite_with_transform(a)
    u = list(u)
    n = len(h)
    if any(h[c][c] == 0 for c in range(n)):
        raise ZeroDivisionError("matrix is singular")
    if any(h[c][c] != 1 for c in range(n)):
        raise ValueError("inverse is not integral")
    # once the columns right of c are cleared, row c of H is e_c, so
    # clearing column c changes no other entry of H
    for c in range(n - 1, 0, -1):
        for i in range(c):
            q = h[i][c]
            if q:
                u[i] = tuple(x - q * y for x, y in zip(u[i], u[c]))
    return tuple(u)
