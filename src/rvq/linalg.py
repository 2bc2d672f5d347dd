"""Exact integer matrix helpers (arbitrary precision, no floating point).

Matrices are tuples of tuples of ints; vectors are tuples of ints.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def vec_mat(v: Vector, a: Matrix) -> Vector:
    """Row vector times matrix."""
    n = len(a[0])
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) for j in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_mod(a: Matrix, p: int) -> Matrix:
    return tuple(tuple(x % p for x in row) for row in a)


def det(a: Matrix) -> int:
    """Bareiss fraction-free determinant."""
    n = len(a)
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


def rank(a: Matrix) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    if not a:
        return 0
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, rows):
            if m[i][c]:
                f = Fraction(m[i][c], m[r][c])
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


def invert(a: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse over the rationals (raises ZeroDivisionError if singular)."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return tuple(tuple(row[n:]) for row in m)


def invert_integer(a: Matrix) -> Matrix:
    """Inverse of an integer matrix whose inverse is integral."""
    inv = invert(a)
    out = []
    for row in inv:
        irow = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("inverse is not integral")
            irow.append(int(x))
        out.append(tuple(irow))
    return tuple(out)


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


def is_zero_row(row) -> bool:
    return all(x == 0 for x in row)
