"""`rank` and `invert_integer` against Fraction Gauss-Jordan elimination,
and `mul` and `preserves_form` against triple-loop products.

The elimination oracle is the rational one the library used before both were
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
from rvq.groups import arrow_cycles
from rvq.homology import intersection_form, kz_walk
from rvq.induction import apply_arrow, enumerate_class, invert_arrow

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
    assert linalg.det(()) == 1


def test_det_with_a_zero_column_below_the_pivot():
    # no row has a nonzero entry in column 0 to swap in
    assert linalg.det(((0, 1), (0, 1))) == 0


def _loop_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


def _loop_preserves(m, form, p=0):
    """m·form·mᵀ == form entry by entry, over Z or mod p."""
    mt = tuple(zip(*m))
    full = _loop_mul(_loop_mul(m, form), mt)
    return all((x - y) % p == 0 if p else x == y
               for row, frow in zip(full, form) for x, y in zip(row, frow))


def test_mul_equals_the_triple_loop():
    rng = random.Random(5)
    for rows, inner, cols in [(1, 6, 1), (6, 1, 6), (1, 1, 1), (1, 5, 3),
                              (4, 3, 1)] + [tuple(rng.randint(1, 7)
                                                  for _ in range(3))
                                            for _ in range(40)]:
        a = _random_matrix(rng, rows, inner, -9, 9)
        b = _random_matrix(rng, inner, cols, -9, 9)
        assert linalg.mul(a, b) == _loop_mul(a, b), (a, b)


@pytest.mark.parametrize("base", [
    parse_gp("1 2 / 2 1"), parse_gp("1 2 3 4 / 4 3 2 1"),
    parse_gp("1 2 3 4 5 / 5 4 3 2 1"), parse_gp("0 A A 1 / 1 B B 0")],
    ids=["torus", "H(2)", "H(1,1)", "0AA1"])
def test_preserves_form_equals_the_full_product(base):
    # closed-walk matrices preserve the form; a bump by ±1 or ±2 mostly does
    # not, and a bump by p·E is invisible mod p only
    form = intersection_form(base)
    n = len(form)
    rng = random.Random(n)

    def bump(mat, step):
        i, j = rng.randrange(n), rng.randrange(n)
        return tuple(tuple(x + step * (r == i and c == j)
                           for c, x in enumerate(row))
                     for r, row in enumerate(mat))

    caught = {0: 0, 2: 0, 3: 0, 5: 0}
    for walk in arrow_cycles(enumerate_class(base), cap=30):
        mat, end = kz_walk(base, walk)
        assert end == base
        bumped = bump(mat, rng.choice((-2, -1, 1, 2)))
        for q in (0, 2, 3, 5):
            assert linalg.preserves_form(mat, form, q)
            assert _loop_preserves(mat, form, q)
            want = _loop_preserves(bumped, form, q)
            assert linalg.preserves_form(bumped, form, q) == want, bumped
        caught[0] += not _loop_preserves(bumped, form)
        for p in (2, 3, 5):
            bumped = bump(mat, p)
            assert linalg.preserves_form(bumped, form, p)
            want = _loop_preserves(bumped, form)
            assert linalg.preserves_form(bumped, form) == want, bumped
            caught[p] += not want
    assert all(caught.values()), caught


@pytest.mark.parametrize("m", [((1,), (0, 1)), ((1, 0, 5), (0, 1, 7)),
                               ((1, 0, 0), (0, 1, 0)), ((1, 0),), ()],
                         ids=["short-row", "long-rows", "2x3", "one-row",
                              "empty"])
def test_a_matrix_that_is_not_square_of_the_forms_size_preserves_nothing(m):
    # the products zip the rows, cut to the form's size: only the shape
    # check refuses the first three
    form = ((0, 1), (-1, 0))
    for p in (0, 2, 3):
        assert not linalg.preserves_form(m, form, p)
    assert linalg.preserves_form(linalg.identity(2), form)


def test_preserves_form_refuses_a_form_that_is_not_alternating():
    m = linalg.identity(2)
    for p in (0, 2, 3, 5):
        with pytest.raises(ValueError, match="not alternating"):
            linalg.preserves_form(m, ((1, 1), (-1, 0)), p)
    symmetric = ((0, 1), (1, 0))
    for p in (0, 3):
        with pytest.raises(ValueError, match="not alternating"):
            linalg.preserves_form(m, symmetric, p)
    # alternating mod 2
    assert linalg.preserves_form(m, symmetric, 2)
    assert linalg.preserves_form(((1, 1), (0, 1)), symmetric, 2)
    assert not linalg.preserves_form(((1, 0), (0, 0)), symmetric, 2)
