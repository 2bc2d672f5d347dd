"""Intersection forms and transition matrices of the induction in homology.

All matrices act on row vectors and are indexed by an explicit letter order
(the base vertex's :func:`letters` by default).  Entries are exact Python
integers; they grow exponentially in walk length, so no fixed-width
arithmetic is used.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from . import linalg
from .errors import MoveUndefined, NotOmegaPreserving
from .gp import GeneralizedPermutation, letter_positions
from .induction import TOP, Arrow, resolve_walk
from .linalg import Matrix


def intersection_form(gp: GeneralizedPermutation,
                      order: Optional[Sequence[str]] = None) -> Matrix:
    """The alternating form of the mid-side curve system, indexed by ``order``.

    Read the boundary ``top + bottom[::-1]`` once around: each letter is a
    chord between its two copies (ia < ja).  The (alpha, beta) entry is +1
    when the chords cross with alpha's first (ia < ib < ja < jb), -1 when
    they cross the other way, 0 when they do not cross, times a sign -1 for
    each of the two letters that has one copy in each row.
    """
    return _intersection_form(
        gp.top, gp.bottom, tuple(order) if order is not None else gp.alphabet)


@lru_cache(maxsize=1 << 16)
def _intersection_form(top: tuple[str, ...], bottom: tuple[str, ...],
                       order: tuple[str, ...]) -> Matrix:
    ell = len(top)
    ends = letter_positions(top + bottom[::-1])
    sign = {x: -1 if i <= ell < j else 1 for x, (i, j) in ends.items()}

    def entry(a, b):
        ia, ja = ends[a]
        ib, jb = ends[b]
        return sign[a] * sign[b] * ((ia < ib < ja < jb) - (ib < ia < jb < ja))

    return tuple(tuple(entry(a, b) for b in order) for a in order)


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------

def _factor(mat: list[list[int]], li: int, wi: int, reflection: bool,
            inverse: bool) -> None:
    """Left-multiply the rows ``mat`` by one cocycle factor, or its inverse.

    Every factor is elementary: Id + E_lw (inverse Id - E_lw), or for the
    reflection Id - E_lw - 2 E_ll, which is its own inverse.  Only row
    ``li`` (the loser's) changes, by a multiple of row ``wi`` (the winner's).
    A shared last letter that wins against itself (a fixed-point loop, only
    at reducible vertices) has no invertible factor and is refused.
    """
    if li == wi:
        raise MoveUndefined("the winner is also the loser: a fixed-point "
                            "loop has no cocycle")
    if reflection:
        mat[li] = [-a - b for a, b in zip(mat[li], mat[wi])]
    elif inverse:
        mat[li] = [a - b for a, b in zip(mat[li], mat[wi])]
    else:
        mat[li] = [a + b for a, b in zip(mat[li], mat[wi])]


class DuplicateWinner(MoveUndefined):
    """An arrow with no factor on the letters of a walk: its winner is not
    among them.  On the both-rows letters that is a duplicate winner, which
    every arrow that changes the type has."""


def letters(gp: GeneralizedPermutation,
            minus: bool = False) -> tuple[str, ...]:
    """The letters that index the cocycle at ``gp``: its alphabet, or with
    ``minus`` the letters occurring in both rows."""
    return gp.both_rows_letters() if minus else gp.alphabet


def _pairs_with_winner(arrow: Arrow) -> bool:
    """Whether the loser and the winner of ``arrow`` pair at its source
    (a nonzero entry of the intersection form there), read off the move.

    It is the crossing rule of :func:`intersection_form` at the two row
    ends.  The winner w ends the acting row ``own`` and the loser l the
    other row, so their end copies sit side by side on the boundary, and
    the two chords cross when, reading the boundary from l away from w
    (``other`` backwards, then ``own`` forwards), w's twin comes before
    l's.  When the move keeps the type, w's twin sits in ``other``: it
    comes first when l has a copy in ``own`` or w's twin comes after l's
    first copy.  When it changes the type, w's twin sits in ``own``: it
    comes first when l has a copy in ``own`` after it.
    """
    source, w, l = arrow.source, arrow.winner, arrow.loser
    own, other = ((source.top, source.bottom) if arrow.kind == TOP
                  else (source.bottom, source.top))
    if arrow.type_change:
        return l in own[own.index(w) + 1:]
    return l in own or other.index(w) > other.index(l)


def arrow_factor(arrow: Arrow, order: Sequence[str]) -> tuple:
    """The arrow's factor on the letters ``order``, as :func:`_factor` takes
    it: the loser's and the winner's index and whether it is the reflection,
    which it is when they do not pair at the source.  The pairing is read
    off the move, with no form built.  A fixed-point loop (the winner is the
    loser) is flagged a reflection, as the form's zero diagonal reads, and
    :func:`_factor` refuses it.  A loser outside ``order`` gives ``()``
    (the identity); a winner outside it has no factor and raises
    DuplicateWinner.  Two both-rows letters always pair, so on them no
    factor is the reflection."""
    if arrow.winner not in order:
        raise DuplicateWinner("the %s-arrow from %s has no minus factor"
                              % (arrow.kind, arrow.source.encode()))
    if arrow.loser not in order:
        return ()
    li, wi = order.index(arrow.loser), order.index(arrow.winner)
    return li, wi, li == wi or not _pairs_with_winner(arrow)


def kz_walk(base: GeneralizedPermutation, walk: str, *, minus: bool = False
            ) -> tuple[Matrix, GeneralizedPermutation]:
    """Ordered product of arrow matrices along a walk; also returns the end.

    Rows and columns follow ``letters(base, minus)``: with ``minus`` every
    winner must be a both-rows letter (see :func:`arrow_factor`), and the
    both-rows letters, constant along such walks, are pinned at the base.
    The product is taken last step first, so for a cycle the result maps the
    end basis back through the walk; reversed steps contribute inverses.
    Every factor is elementary, so the product is accumulated by O(d) row
    updates rather than full multiplications.
    """
    order = letters(base, minus)
    steps = resolve_walk(base, walk)
    mat = [list(row) for row in linalg.identity(len(order))]
    cur = base
    for arrow, direction in steps:
        factor = arrow_factor(arrow, order)
        if factor:
            _factor(mat, *factor, direction < 0)
        cur = arrow.target if direction > 0 else arrow.source
    return tuple(tuple(row) for row in mat), cur


# ---------------------------------------------------------------------------
# quotient by the kernel of the form
# ---------------------------------------------------------------------------

class QuotientData(NamedTuple):
    """A fixed integral basis of the quotient lattice by ker of the form.

    The first r = ``len(reduced_form)`` rows of ``unimodular`` span a
    complement of the kernel and the rest span the kernel; ``unimodular`` is
    invertible over the integers, ``inverse`` is its inverse and
    ``reduced_form`` the form on the first r rows.  ``form`` is the form the
    basis was built for; the kernel is trivial exactly when r is its size.
    """
    form: Matrix
    unimodular: Matrix
    inverse: Matrix
    reduced_form: Matrix


def quotient_data(gp: GeneralizedPermutation, *,
                  minus: bool = False) -> QuotientData:
    """The quotient by the kernel of the intersection form of ``gp`` on
    ``letters(gp, minus)``.  On the both-rows letters that form is half the
    form of the anti-invariant homology of the orientation double cover."""
    omega = intersection_form(gp, letters(gp, minus))
    h, u = linalg.hermite_with_transform(omega)
    nonzero = [u[i] for i, row in enumerate(h) if any(row)]
    zero = [u[i] for i, row in enumerate(h) if not any(row)]
    # trivial kernel: the quotient is the whole space in its own basis
    uni = tuple(nonzero + zero) if zero else linalg.identity(len(omega))
    inv = linalg.invert_integer(uni)
    r = len(nonzero)
    full = linalg.mul(linalg.mul(uni, omega), linalg.transpose(uni))
    reduced = tuple(tuple(full[i][j] for j in range(r)) for i in range(r))
    return QuotientData(form=omega, unimodular=uni, inverse=inv,
                        reduced_form=reduced)


def quotient_action(matrix: Matrix, qd: QuotientData) -> Matrix:
    """Push a matrix that preserves ``qd.form`` down to the quotient by its
    kernel: the induced matrix in the basis of ``qd``, the matrix itself when
    the kernel is trivial (the basis is then the standard one).  Raises
    NotOmegaPreserving when the matrix does not fix the form or the kernel.
    """
    if not linalg.preserves_form(matrix, qd.form):
        raise NotOmegaPreserving("matrix does not preserve the form")
    r = len(qd.reduced_form)
    if r == len(qd.form):
        return matrix
    conj = linalg.mul(linalg.mul(qd.unimodular, matrix), qd.inverse)
    # an invariant kernel's rows cannot leak into quotient coordinates
    if any(row[j] for row in conj[r:] for j in range(r)):
        raise NotOmegaPreserving("kernel is not invariant")
    return tuple(tuple(conj[i][j] for j in range(r)) for i in range(r))
