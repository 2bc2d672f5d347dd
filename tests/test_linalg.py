"""`rank` and `invert_integer` against Fraction Gauss-Jordan elimination.

The oracle is the rational elimination the library used before both were
read off `hermite_with_transform`; it is kept here, exceptions included.
"""
import random
from fractions import Fraction

import pytest

from conftest import small_gps
from rvq import linalg
from rvq.components import table1
from rvq.errors import MoveUndefined, ReverseArrowMissing
from rvq.gp import parse_gp
from rvq.homology import intersection_form, kz_walk
from rvq.induction import apply_arrow, invert_arrow

WALK_BASES = (parse_gp("1 2 / 2 1"), parse_gp("1 2 3 4 / 4 3 2 1"),
              parse_gp("1 2 3 A A 4 / 4 3 B B 2 1"), table1(1), table1(7))


def _fraction_rank(a):
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


def _fraction_invert(a):
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


def _fraction_invert_integer(a):
    out = []
    for row in _fraction_invert(a):
        if any(x.denominator != 1 for x in row):
            raise ValueError("inverse is not integral")
        out.append(tuple(int(x) for x in row))
    return tuple(out)


def _outcome(f, a):
    """The result of ``f(a)``, or the class of the exception it raises."""
    try:
        return f(a)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)


def _check_inverse(a):
    want = _outcome(_fraction_invert_integer, a)
    assert _outcome(linalg.invert_integer, a) == want, a
    return want


def _mixed_walk(base, rng, maxlen):
    cur, walk = base, []
    for _ in range(rng.randint(1, maxlen)):
        ops = list("tbTB")
        rng.shuffle(ops)
        for op in ops:
            try:
                if op in "tb":
                    cur = apply_arrow(cur, op).target
                else:
                    cur = invert_arrow(cur, op.lower()).source
            except (MoveUndefined, ReverseArrowMissing):
                continue
            walk.append(op)
            break
    return "".join(walk)


def _random_matrix(rng, rows, cols, lo=-3, hi=3):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols))
                 for _ in range(rows))


def test_walk_matrices():
    rng = random.Random(3)
    for base in WALK_BASES:
        for _ in range(40):
            mat, _ = kz_walk(base, _mixed_walk(base, rng, 30))
            assert linalg.rank(mat) == _fraction_rank(mat) == len(mat)
            inv = _check_inverse(mat)
            assert linalg.mul(mat, inv) == linalg.identity(len(mat))


def test_intersection_forms():
    seen = set()
    for gp in small_gps():
        if not gp.satisfies_convention():
            continue
        om = intersection_form(gp)
        assert linalg.rank(om) == _fraction_rank(om), gp.encode()
        want = _check_inverse(om)
        seen.add(want if isinstance(want, type) else tuple)
    # a nondegenerate intersection form is symplectic, so unimodular
    assert seen == {ZeroDivisionError, tuple}


@pytest.mark.parametrize("rows", range(1, 7))
def test_random_small_matrices(rows):
    rng = random.Random(rows)
    for cols in range(1, 7):
        for _ in range(60):
            a = _random_matrix(rng, rows, cols)
            assert linalg.rank(a) == _fraction_rank(a), a
            if rows == cols:
                _check_inverse(a)


def test_random_square_matrices():
    """Unimodular, non-unimodular and singular square matrices."""
    rng = random.Random(11)
    kinds = {ZeroDivisionError: 0, ValueError: 0, tuple: 0}
    for n in range(1, 8):
        for _ in range(40):
            u = linalg.identity(n)
            for _ in range(3 * n):
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                e = [list(row) for row in linalg.identity(n)]
                e[i][j] = rng.choice((-2, -1, 1, 2)) if i != j else -1
                u = linalg.mul(tuple(map(tuple, e)), u)
            scaled = tuple(tuple(rng.choice((1, 2, 3)) * x for x in row)
                           for row in u)
            dependent = u[:-1] + (tuple(
                sum(rng.randint(-2, 2) * row[k] for row in u[:-1])
                for k in range(n)),)
            for a in (u, scaled, dependent, _random_matrix(rng, n, n)):
                assert linalg.rank(a) == _fraction_rank(a), a
                want = _check_inverse(a)
                kinds[want if isinstance(want, type) else tuple] += 1
    assert all(kinds.values()), kinds


def test_empty_matrix():
    assert linalg.rank(()) == _fraction_rank(()) == 0
    assert linalg.invert_integer(()) == _fraction_invert_integer(()) == ()
