"""Single-letter extensions, certified singularity splitting, and the
induced map from arrows at the small permutation to walks at the big one.
Through a chain of extensions it lifts cycles at tau to closed walks at pi,
so tau's Rauzy-Veech group lies in pi's, with no class of pi enumerated.

An extension inserts one fresh letter twice, never at the end of a row and
not at both row starts; erasing the letter recovers the base.
Splitting a conical point tries the legal insertions in a fixed order and
returns the first one certified by its turning orbits: the chosen orbit has
severed into two orbits of the prescribed orders, every other orbit is
unchanged, and the result is irreducible and keeps the both-rows convention,
so it has a stratum.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (AlphabetMismatch, BudgetExceeded, CaseUnmatched,
                     IllegalPosition, MoveUndefined, NotSplittable, OpenWalk,
                     ParityError)
from .gp import (GeneralizedPermutation, _trusted, erase_letters,
                 is_irreducible, is_suspendable)
from .induction import DEFAULT_BUDGET, apply_arrow
from .strata import orbit_order, stratum_signature, turning_orbits

RowSlot = tuple[str, int]  # ('top'|'bottom', 1-based index in the result row)


class ExtensionWitness(NamedTuple):
    base: GeneralizedPermutation
    extended: GeneralizedPermutation
    letter: str


def _legal(top: tuple[str, ...], bottom: tuple[str, ...], letter: str) -> bool:
    """The position rule, read off the result rows: ``letter`` ends neither
    row and does not start both."""
    return (letter not in (top[-1], bottom[-1])
            and (top[0], bottom[0]) != (letter, letter))


def _placed(tau: GeneralizedPermutation, letter: str, pos_a: RowSlot,
            pos_b: RowSlot) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The rows of ``tau`` with ``letter`` at the result slots ``pos_a`` and
    ``pos_b`` (distinct, in range)."""
    rows = {'top': tau.top, 'bottom': tau.bottom}
    for row, k in sorted((pos_a, pos_b)):  # a row's lower slot first
        rows[row] = rows[row][:k - 1] + (letter,) + rows[row][k - 1:]
    return rows['top'], rows['bottom']


def insert_letter(tau: GeneralizedPermutation, letter: str,
                  pos_a: RowSlot, pos_b: RowSlot) -> ExtensionWitness:
    """Insert ``letter`` at the two result slots; checks the position rules."""
    if letter in tau.alphabet:
        raise IllegalPosition("letter %r already present" % (letter,))
    lengths = {'top': tau.ell, 'bottom': tau.m}
    for row, k in (pos_a, pos_b):
        if row not in lengths:
            raise IllegalPosition("unknown row %r" % (row,))
        lengths[row] += 1
    if pos_a == pos_b or not all(1 <= k <= lengths[row]
                                 for row, k in (pos_a, pos_b)):
        raise IllegalPosition("the two copies need distinct slots in range")
    top, bottom = _placed(tau, letter, pos_a, pos_b)
    if not _legal(top, bottom, letter):
        raise IllegalPosition("a copy ends a row or the copies start both")
    return ExtensionWitness(tau, GeneralizedPermutation(top, bottom), letter)


def is_simple_extension(pi: GeneralizedPermutation,
                        tau: GeneralizedPermutation) -> Optional[str]:
    """The inserted letter when ``pi`` extends ``tau`` legally, else None."""
    extra = pi.pairs.keys() - tau.pairs.keys()
    if len(extra) != 1 or tau.pairs.keys() - pi.pairs.keys():
        raise AlphabetMismatch("alphabets must differ by exactly one letter")
    letter = extra.pop()
    rows = tuple(tuple(x for x in row if x != letter)  # may empty a row
                 for row in (pi.top, pi.bottom))
    if rows != (tau.top, tau.bottom):
        return None
    return letter if _legal(pi.top, pi.bottom, letter) else None


def fresh_letter(taken: Iterable[str]) -> str:
    taken = set(taken)
    for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ":
        if c not in taken:
            return c
    k = 0
    while "x%d" % k in taken:
        k += 1
    return "x%d" % k


# ---------------------------------------------------------------------------
# singularity splitting
# ---------------------------------------------------------------------------

class SplitResult(NamedTuple):
    witness: ExtensionWitness
    orders: tuple[int, int]           # (m11, m12)
    orbit_reps: tuple[int, int]       # a position inside each new orbit


def _find_orbit(gp: GeneralizedPermutation, pos: int) -> tuple[int, ...]:
    """The turning orbit that holds position ``pos``."""
    for orb in turning_orbits(gp):
        if pos in orb:
            return orb
    raise NotSplittable("position %r outside 1..%d" % (pos, gp.ell + gp.m))


def split_singularity(tau: GeneralizedPermutation, at: int,
                      m11: int, m12: int) -> SplitResult:
    """Split the conical point selected by ``at`` into orders (m11, m12).

    ``at`` is a position, 1..l+m, selecting the turning orbit that holds it;
    m11 + m12 must equal its order, which is checked before any candidate
    is built. Every legal single insertion is tried in the order of
    ``_all_single_insertions``. The first one is returned whose turning
    orbits show the chosen orbit severed into orbits of orders m11 and m12,
    with every other orbit unchanged, and whose result is irreducible and
    satisfies the convention. That certificate is what makes the answer
    correct; no candidate is constructed from the orbit.
    """
    return _split(tau, at, m11, m12)


def _parts(tau, at, parts):
    """The turning orbit at ``at``, once ``parts`` split it: its order is at
    least 1 (0 on the torus), the parts sum to it, each part is at least -1
    and none is 0.  Both splits check this before any candidate is built."""
    orbit = _find_orbit(tau, at)
    order = orbit_order(tau, orbit)
    if order < 1 and not (tau.is_genuine and tau.d == 2 and order == 0):
        raise NotSplittable("singularity order %d < 1" % order)
    if sum(parts) != order:
        raise NotSplittable("parts must sum to the order %d" % order)
    if min(parts) < -1:
        raise NotSplittable("parts must be >= -1")
    if 0 in parts:
        raise NotSplittable("splitting off a marked point is not supported")
    return orbit


def _split(tau, at, m11, m12, row=None):
    """``split_singularity``, restricted to insertions with both copies in
    ``row`` when it is given.  The top-row half of :func:`split_even_zero`
    is intermediate by design, so its result need not keep the convention."""
    orbit = _parts(tau, at, (m11, m12))
    old_orbits = [frozenset(o) for o in turning_orbits(tau)
                  if set(o) != set(orbit)]
    for witness in _all_single_insertions(tau, row):
        result = _certify_split(tau, witness, old_orbits, m11, m12,
                                convention=row != 'top')
        if result is not None:
            return result
    raise NotSplittable("no single insertion realizes the (%d, %d) split"
                        % (m11, m12))


def _certify_split(tau, witness, old_orbits, m11, m12, convention):
    """The split when the orbit partition changed exactly as requested and
    the result is suspendable (only irreducible, without ``convention``);
    else None."""
    pi = witness.extended
    # each old position moves to where its letter's copy sits in pi
    pmap = {p: q for x, old in tau.pairs.items()
            for p, q in zip(old, pi.pairs[x])}
    expected_old = {frozenset(pmap[p] for p in o) for o in old_orbits}
    new_orbits = turning_orbits(pi)
    fresh = [o for o in new_orbits if frozenset(o) not in expected_old]
    if len(fresh) != 2:
        return None
    sizes = sorted(orbit_order(pi, o) for o in fresh)
    if sizes != sorted((m11, m12)) or not (
            is_suspendable(pi) if convention else is_irreducible(pi)):
        return None
    if orbit_order(pi, fresh[0]) != m11:
        fresh.reverse()
    return SplitResult(witness=witness, orders=(m11, m12),
                       orbit_reps=(fresh[0][0], fresh[1][0]))


def split_even_zero(tau: GeneralizedPermutation, at: int,
                    m11: int, m12: int, m13: int) -> GeneralizedPermutation:
    """Split an even conical point of a genuine permutation three ways.

    Two certified splits as in ``split_singularity``: the first insertion
    puts both copies of its letter in the top row, the second in the bottom
    row, and only the second is certified to keep the convention, so the
    result carries duplicates in both rows. m11 and m12 must be odd, and
    the three parts must split the (even) order of the chosen point.
    """
    if not tau.is_genuine:
        raise NotSplittable("base must be a genuine permutation")
    if m11 % 2 == 0 or m12 % 2 == 0:
        raise ParityError("the first two parts must be odd")
    _parts(tau, at, (m11, m12, m13))
    first = _split(tau, at, m11, m12 + m13, row='top')
    second = _split(first.witness.extended, first.orbit_reps[1], m12, m13,
                    row='bottom')
    return second.witness.extended


# ---------------------------------------------------------------------------
# the extension map on arrows
# ---------------------------------------------------------------------------

def extend_walk(witness: ExtensionWitness,
                steps: str) -> tuple[str, ExtensionWitness]:
    """The walk that a forward walk at the base induces at the extension,
    and the witness at its end.  Each step moves the base (``MoveUndefined``
    when it cannot), then the extension by the same kind until the letter
    is legal again, at most three times; ``CaseUnmatched`` when that fails
    or the two ends do not differ by the letter alone."""
    base, pi, letter = witness
    out = []
    for kind in steps:
        base = apply_arrow(base, kind).target
        for count in (1, 2, 3):
            try:
                pi = apply_arrow(pi, kind).target
            except MoveUndefined as exc:
                raise CaseUnmatched("lifted move is undefined: %s" % exc)
            if _legal(pi.top, pi.bottom, letter):
                break
        else:
            raise CaseUnmatched("three moves leave the letter illegal")
        if is_simple_extension(pi, base) != letter:
            raise CaseUnmatched("the ends differ by more than the letter")
        out.append(kind * count)
    return "".join(out), ExtensionWitness(base, pi, letter)


def lift_cycles(pi: GeneralizedPermutation, letters: Iterable[str],
                walks: Iterable[str]) -> list[str]:
    """The closed walks at ``pi`` induced by the cycles ``walks`` at tau,
    which is ``pi`` with ``letters`` erased one at a time, the first first.

    Each link of the chain is certified by :func:`is_simple_extension`
    (``IllegalPosition`` when it fails), and each walk is lifted through
    the chain once by :func:`extend_walk`, innermost link first; a lift
    that does not end at ``pi`` raises ``OpenWalk``."""
    chain = []
    upper = pi
    for letter in letters:
        lower = erase_letters(upper, {letter})
        if is_simple_extension(upper, lower) != letter:
            raise IllegalPosition("erasing %r from %s is not a simple "
                                  "extension" % (letter, upper.encode()))
        chain.append(ExtensionWitness(lower, upper, letter))
        upper = lower
    if not chain:
        raise AlphabetMismatch("no letter to erase")
    lifted = []
    for walk in walks:
        for witness in reversed(chain):
            walk, end = extend_walk(witness, walk)
        if end.extended != pi:
            raise OpenWalk("a lift ends at %s" % end.extended.encode())
        lifted.append(walk)
    return lifted


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------

def _all_single_insertions(tau: GeneralizedPermutation,
                           row: Optional[str] = None):
    """Every legal insertion of a fresh letter, with both copies in ``row``
    when it is given."""
    letter = fresh_letter(tau.alphabet)
    slots = [(r, k) for r, n in (('top', tau.ell), ('bottom', tau.m))
             if row in (None, r) for k in range(1, n + 1)]
    for a, (ra, ka) in enumerate(slots):
        for rb, kb in slots[a:]:
            # in one row the second copy lands after the first
            top, bottom = _placed(tau, letter, (ra, ka), (rb, kb + (ra == rb)))
            if _legal(top, bottom, letter):
                yield ExtensionWitness(tau, _trusted(top, bottom), letter)


def search_extensions(vertices: Sequence[GeneralizedPermutation],
                      target: Sequence[int], *,
                      budget: int = DEFAULT_BUDGET
                      ) -> list[list[ExtensionWitness]]:
    """Depth-first scan of two nested single-letter insertions over the
    vertices.

    Returns the witness chains whose final permutation is suspendable and
    has the singularity orders ``target``.  A first insertion is followed
    only when the target splits exactly one of its singularities in two.
    ``budget`` bounds the insertions examined.
    """
    target = tuple(sorted(target, reverse=True))
    found: list[list[ExtensionWitness]] = []
    examined = 0

    def orders(gp):
        return stratum_signature(gp, cross_check=False).orders

    def viable(gp):
        remaining = list(target)
        extra = []
        for o in orders(gp):
            if o in remaining:
                remaining.remove(o)
            else:
                extra.append(o)
        return (len(extra) == 1 and len(remaining) == 2
                and sum(remaining) == extra[0])

    def insertions(gp):
        nonlocal examined
        for w in _all_single_insertions(gp):
            examined += 1
            if examined > budget:
                raise BudgetExceeded("insertion budget hit", partial=found)
            yield w

    for v in vertices:
        for first in insertions(v):
            if not viable(first.extended):
                continue
            for second in insertions(first.extended):
                pi = second.extended
                if is_suspendable(pi) and orders(pi) == target:
                    found.append([first, second])
    return found
