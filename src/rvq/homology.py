"""Intersection forms and transition matrices of the induction in homology.

All matrices act on row vectors and are indexed by an explicit letter order
(the base vertex's alphabet by default).  Entries are exact Python integers;
they grow exponentially in walk length, so no fixed-width arithmetic is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import linalg
from .errors import MoveUndefined, NotOmegaPreserving
from .gp import GeneralizedPermutation
from .induction import Arrow, resolve_walk
from .linalg import Matrix

_form_cache: dict[tuple, Matrix] = {}


def intersection_form(gp: GeneralizedPermutation,
                      order: Optional[Sequence[str]] = None) -> Matrix:
    """The alternating form of the mid-side curve system, indexed by ``order``.

    The sign of the (alpha, beta) entry is decided by how the two occurrence
    pairs nest or link, split by which rows they sit in.
    """
    order = tuple(order) if order is not None else gp.alphabet
    key = (gp.top, gp.bottom, order)
    cached = _form_cache.get(key)
    if cached is not None:
        return cached
    ell = gp.ell
    pos = gp.position_table()

    def entry(a, b):
        ia, ja = pos[a]
        ib, jb = pos[b]
        if ia < ib <= ell and ja > jb > ell:
            return 1
        if ia < ib < ja < jb <= ell:
            return 1
        if ib < ia < jb <= ell < ja:
            return 1
        if ja > jb > ia > ell and ia > ib:
            return 1
        if ib < ia <= ell and jb > ja > ell:
            return -1
        if ib < ia < jb < ja <= ell:
            return -1
        if ia < ib < ja <= ell < jb:
            return -1
        if jb > ja > ib > ell and ib > ia:
            return -1
        return 0

    form = tuple(tuple(entry(a, b) if a != b else 0 for b in order)
                 for a in order)
    _form_cache[key] = form
    return form


def minus_form(gp: GeneralizedPermutation,
               order: Optional[Sequence[str]] = None) -> Matrix:
    """The +-2/0 alternating form on the letters occurring in both rows."""
    order = tuple(order) if order is not None else gp.both_rows_letters()
    pos = gp.position_table()

    def entry(a, b):
        ia, ja = pos[a]
        ib, jb = pos[b]
        if ia < ib and ja > jb:
            return 2
        if ib < ia and jb > ja:
            return -2
        return 0

    return tuple(tuple(entry(a, b) if a != b else 0 for b in order)
                 for a in order)


# ---------------------------------------------------------------------------
# "plus" transition matrices
# ---------------------------------------------------------------------------

def _indices(order, arrow: Arrow) -> tuple[int, int]:
    return order.index(arrow.loser), order.index(arrow.winner)


def kz_plus(arrow: Arrow, order: Optional[Sequence[str]] = None) -> Matrix:
    """Transition matrix of one arrow, evaluated at the source vertex."""
    order = tuple(order) if order is not None else arrow.source.alphabet
    omega = intersection_form(arrow.source, order)
    li, wi = _indices(order, arrow)
    n = len(order)
    if omega[li][wi] != 0:
        return linalg.add(linalg.identity(n), linalg.elementary(n, li, wi))
    m = linalg.add(linalg.identity(n),
                   linalg.scale(linalg.elementary(n, li, wi), -1))
    return linalg.add(m, linalg.scale(linalg.elementary(n, li, li), -2))


def kz_plus_inverse(arrow: Arrow, order: Optional[Sequence[str]] = None) -> Matrix:
    """Closed-form inverse: Id+E inverts to Id-E; the reflection case is an
    involution."""
    order = tuple(order) if order is not None else arrow.source.alphabet
    omega = intersection_form(arrow.source, order)
    li, wi = _indices(order, arrow)
    n = len(order)
    if omega[li][wi] != 0:
        return linalg.add(linalg.identity(n),
                          linalg.scale(linalg.elementary(n, li, wi), -1))
    return kz_plus(arrow, order)


def kz_walk(base: GeneralizedPermutation, walk: str,
            order: Optional[Sequence[str]] = None
            ) -> tuple[Matrix, GeneralizedPermutation]:
    """Ordered product of arrow matrices along a walk; also returns the end.

    The product is taken last step first, so for a cycle the result maps the
    end basis back through the walk; reversed steps contribute inverses.
    Every factor is elementary, so the product is accumulated by O(d) row
    updates rather than full multiplications.
    """
    order = tuple(order) if order is not None else base.alphabet
    steps = resolve_walk(base, walk)
    mat = [list(row) for row in linalg.identity(len(order))]
    cur = base
    for arrow, direction in steps:
        omega = intersection_form(arrow.source, order)
        li = order.index(arrow.loser)
        wi = order.index(arrow.winner)
        reflide = omega[li][wi] == 0
        if reflide:
            # self-inverse factor
            mat[li] = [-a - b for a, b in zip(mat[li], mat[wi])]
        elif direction > 0:
            mat[li] = [a + b for a, b in zip(mat[li], mat[wi])]
        else:
            mat[li] = [a - b for a, b in zip(mat[li], mat[wi])]
        cur = arrow.target if direction > 0 else arrow.source
    return tuple(tuple(row) for row in mat), cur


# ---------------------------------------------------------------------------
# "minus" transition matrices
# ---------------------------------------------------------------------------

class DuplicateWinner(MoveUndefined):
    """An arrow whose winner is a duplicate letter is not admissible here."""


def kz_minus(arrow: Arrow, order: Sequence[str]) -> Matrix:
    """Transition matrix on the both-rows letters; requires a non-duplicate
    winner (equivalently, a type-preserving arrow)."""
    order = tuple(order)
    if arrow.winner not in order or arrow.type_change:
        raise DuplicateWinner(
            "winner %r is a duplicate letter" % (arrow.winner,))
    n = len(order)
    if arrow.loser in order:
        li = order.index(arrow.loser)
        wi = order.index(arrow.winner)
        return linalg.add(linalg.identity(n), linalg.elementary(n, li, wi))
    return linalg.identity(n)


def kz_minus_inverse(arrow: Arrow, order: Sequence[str]) -> Matrix:
    order = tuple(order)
    if arrow.winner not in order or arrow.type_change:
        raise DuplicateWinner(
            "winner %r is a duplicate letter" % (arrow.winner,))
    n = len(order)
    if arrow.loser in order:
        li = order.index(arrow.loser)
        wi = order.index(arrow.winner)
        return linalg.add(linalg.identity(n),
                          linalg.scale(linalg.elementary(n, li, wi), -1))
    return linalg.identity(n)


def kz_minus_walk(base: GeneralizedPermutation, walk: str,
                  order: Optional[Sequence[str]] = None
                  ) -> tuple[Matrix, GeneralizedPermutation]:
    """Product of minus matrices along a walk with no duplicate-letter winner.

    The both-rows letter set is constant along admissible walks, so the index
    set is pinned at the base vertex.
    """
    order = tuple(order) if order is not None else base.both_rows_letters()
    steps = resolve_walk(base, walk)
    mat = [list(row) for row in linalg.identity(len(order))]
    cur = base
    for arrow, direction in steps:
        if arrow.winner not in order or arrow.type_change:
            raise DuplicateWinner(
                "winner %r is a duplicate letter" % (arrow.winner,))
        if arrow.loser in order:
            li = order.index(arrow.loser)
            wi = order.index(arrow.winner)
            if direction > 0:
                mat[li] = [a + b for a, b in zip(mat[li], mat[wi])]
            else:
                mat[li] = [a - b for a, b in zip(mat[li], mat[wi])]
        cur = arrow.target if direction > 0 else arrow.source
        assert set(cur.both_rows_letters()) == set(order)
    return tuple(tuple(row) for row in mat), cur


# ---------------------------------------------------------------------------
# quotient by the kernel of the form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientData:
    """A fixed integral basis of the quotient lattice by ker of the form.

    ``basis`` rows span a complement of the kernel; ``kernel`` rows span the
    kernel; ``unimodular`` stacks both (basis first) and is invertible over
    the integers.
    """
    basis: Matrix
    kernel: Matrix
    unimodular: Matrix
    inverse: Matrix
    reduced_form: Matrix


def quotient_data(gp: GeneralizedPermutation,
                  order: Optional[Sequence[str]] = None,
                  form: Optional[Matrix] = None) -> QuotientData:
    order = tuple(order) if order is not None else gp.alphabet
    omega = form if form is not None else intersection_form(gp, order)
    h, u = linalg.hermite_with_transform(omega)
    nonzero = [i for i, row in enumerate(h) if not linalg.is_zero_row(row)]
    zero = [i for i, row in enumerate(h) if linalg.is_zero_row(row)]
    if not zero:
        # trivial kernel: the quotient is the whole space in its own basis
        basis = linalg.identity(len(omega))
        kernel: Matrix = ()
    else:
        basis = tuple(u[i] for i in nonzero)
        kernel = tuple(u[i] for i in zero)
    uni = basis + kernel
    inv = linalg.invert_integer(uni)
    r = len(basis)
    full = linalg.mul(linalg.mul(uni, omega), linalg.transpose(uni))
    reduced = tuple(tuple(full[i][j] for j in range(r)) for i in range(r))
    return QuotientData(basis=basis, kernel=kernel, unimodular=uni,
                        inverse=inv, reduced_form=reduced)


def quotient_action(gp: GeneralizedPermutation, matrix: Matrix,
                    order: Optional[Sequence[str]] = None,
                    data: Optional[QuotientData] = None
                    ) -> tuple[Matrix, Matrix]:
    """Push a form-preserving matrix down to the quotient by ker of the form.

    Returns the induced 2g x 2g matrix together with the chosen basis rows.
    Raises NotOmegaPreserving when conjugation does not fix the form.
    """
    order = tuple(order) if order is not None else gp.alphabet
    omega = intersection_form(gp, order)
    if linalg.mul(linalg.mul(matrix, omega), linalg.transpose(matrix)) != omega:
        raise NotOmegaPreserving("matrix does not preserve the form")
    qd = data if data is not None else quotient_data(gp, order)
    conj = linalg.mul(linalg.mul(qd.unimodular, matrix), qd.inverse)
    r = len(qd.basis)
    # the kernel is invariant, so its rows cannot leak into quotient coords
    for i in range(r, len(conj)):
        for j in range(r):
            assert conj[i][j] == 0, "kernel is not invariant"
    reduced = tuple(tuple(conj[i][j] for j in range(r)) for i in range(r))
    return reduced, qd.basis
