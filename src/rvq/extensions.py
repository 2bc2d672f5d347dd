"""Single-letter extensions, constructive singularity splitting, and the
induced map from arrows at the small permutation to walks at the big one.

An extension inserts one fresh letter twice, never at the end of a row and
with at most one copy at a row start; erasing the letter recovers the base.
Splitting walks the turning orbit of a chosen conical point and inserts the
fresh pair so the orbit severs into two orbits of prescribed sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import (AlphabetMismatch, BudgetExceeded, CaseUnmatched,
                     IllegalPosition, MoveUndefined, NotSplittable,
                     OrbitTooSmall, ParityError)
from .gp import GeneralizedPermutation, erase_letters, is_irreducible
from .induction import Arrow, apply_arrow
from .strata import orbit_order, turning_orbits

RowSlot = tuple[str, int]  # ('top'|'bottom', 1-based index in the result row)


@dataclass(frozen=True)
class ExtensionWitness:
    base: GeneralizedPermutation
    extended: GeneralizedPermutation
    letter: str
    slots: tuple[RowSlot, RowSlot]

    @property
    def convention_ok(self) -> bool:
        return self.extended.satisfies_convention()


def _place(row: tuple[str, ...], letter: str, slots: list[int]) -> tuple[str, ...]:
    n = len(row) + len(slots)
    out = []
    it = iter(row)
    for k in range(1, n + 1):
        out.append(letter if k in slots else next(it))
    return tuple(out)


def insert_letter(tau: GeneralizedPermutation, letter: str,
                  pos_a: RowSlot, pos_b: RowSlot) -> ExtensionWitness:
    """Insert ``letter`` at the two result slots; checks the position rules."""
    if letter in tau.alphabet:
        raise IllegalPosition("letter %r already present" % (letter,))
    slots = sorted([pos_a, pos_b])
    rows = {'top': list(tau.top), 'bottom': list(tau.bottom)}
    by_row: dict[str, list[int]] = {'top': [], 'bottom': []}
    for row, k in (pos_a, pos_b):
        if row not in rows:
            raise IllegalPosition("unknown row %r" % (row,))
        by_row[row].append(k)

    new_rows = {}
    for row in ('top', 'bottom'):
        ks = sorted(by_row[row])
        n = len(rows[row]) + len(ks)
        if len(ks) == 2 and ks[0] == ks[1]:
            raise IllegalPosition("the two copies need distinct slots")
        for k in ks:
            if not 1 <= k <= n:
                raise IllegalPosition("slot %d out of range for %s row" % (k, row))
            if k == n:
                raise IllegalPosition("cannot insert at the end of a row")
        new_rows[row] = _place(tuple(rows[row]), letter, ks)

    starts = sum(1 for row, k in (pos_a, pos_b) if k == 1)
    if len(by_row['top']) == 1 and len(by_row['bottom']) == 1 and starts == 2:
        raise IllegalPosition("both copies at row starts")

    extended = GeneralizedPermutation(new_rows['top'], new_rows['bottom'])
    return ExtensionWitness(base=tau, extended=extended, letter=letter,
                            slots=(tuple(slots[0]), tuple(slots[1])))


def is_simple_extension(pi: GeneralizedPermutation,
                        tau: GeneralizedPermutation) -> Optional[str]:
    """The inserted letter when ``pi`` extends ``tau`` legally, else None."""
    extra = set(pi.alphabet) - set(tau.alphabet)
    if len(extra) != 1 or set(tau.alphabet) - set(pi.alphabet):
        raise AlphabetMismatch("alphabets must differ by exactly one letter")
    letter = extra.pop()
    if erase_letters(pi, {letter}) != tau:
        return None
    if pi.top[-1] == letter or pi.bottom[-1] == letter:
        return None
    i, j = pi.positions(letter)
    at_start = sum(1 for p in (i, j) if p == 1 or p == pi.ell + 1)
    if at_start == 2:
        return None
    return letter


def witness_from(pi: GeneralizedPermutation,
                 tau: GeneralizedPermutation) -> ExtensionWitness:
    letter = is_simple_extension(pi, tau)
    if letter is None:
        raise IllegalPosition("%s is not a simple extension of %s"
                              % (pi.encode(), tau.encode()))
    slots = []
    for p in pi.positions(letter):
        if p <= pi.ell:
            slots.append(('top', p))
        else:
            slots.append(('bottom', p - pi.ell))
    return ExtensionWitness(base=tau, extended=pi, letter=letter,
                            slots=(tuple(slots[0]), tuple(slots[1])))


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

@dataclass(frozen=True)
class SplitResult:
    witness: ExtensionWitness
    orders: tuple[int, int]           # (m11, m12)
    orbit_reps: tuple[int, int]       # a position inside each new orbit


def _letter_position_map(old: GeneralizedPermutation,
                         new: GeneralizedPermutation,
                         letter: str) -> dict[int, int]:
    """Map old raw positions to new raw positions across one fresh insertion."""
    mapping = {}
    for row_old, row_new, off_old, off_new in (
            (old.top, new.top, 0, 0),
            (old.bottom, new.bottom, old.ell, new.ell)):
        k = 0
        for idx, x in enumerate(row_new):
            if x == letter:
                continue
            mapping[off_old + k + 1] = off_new + idx + 1
            k += 1
        assert k == len(row_old)
    return mapping


def _find_orbit(gp: GeneralizedPermutation, at) -> tuple[int, ...]:
    orbits = turning_orbits(gp)
    if isinstance(at, tuple) and len(at) > 1:
        target = set(at)
        for orb in orbits:
            if set(orb) == target:
                return orb
        raise NotSplittable("no turning orbit equals %r" % (at,))
    pos = at[0] if isinstance(at, tuple) else int(at)
    for orb in orbits:
        if pos in orb:
            return orb
    raise NotSplittable("position %r outside 1..l+m" % (at,))


def split_singularity(tau: GeneralizedPermutation, at, m11: int,
                      *, restrict_row: Optional[str] = None,
                      require_same_row: bool = False) -> SplitResult:
    """Split the conical point selected by ``at`` into orders (m11, m1-m11).

    ``at`` is a raw position (or the orbit tuple) selecting a turning orbit.
    The insertion anchor is scanned over the orbit, top-row anchors first;
    ``restrict_row``/``require_same_row`` pin the construction variant used by
    the even-order corollary. The output's orbit partition is remeasured, so
    a successful return is certified.
    """
    orbit = _find_orbit(tau, at)
    m1 = orbit_order(tau, orbit)
    torus_case = tau.is_genuine and tau.d == 2 and m1 == 0
    if m1 < 1 and not torus_case:
        raise NotSplittable("singularity order %d < 1" % m1)
    m12 = m1 - m11
    if m11 < -1 or m12 < -1:
        raise NotSplittable("parts must be >= -1")
    if m11 == 0 or m12 == 0:
        raise NotSplittable("splitting off a marked point is not supported")
    if m11 == -1 and m12 != -1:
        # the pole must be carved out by the consecutive-pair case
        return _split_swapped(tau, orbit, m11, m12, restrict_row,
                              require_same_row)

    return _split_scan(tau, orbit, m11, m12, restrict_row, require_same_row)


def _split_swapped(tau, orbit, m11, m12, restrict_row, require_same_row):
    res = _split_scan(tau, orbit, m12, m11, restrict_row, require_same_row)
    return SplitResult(witness=res.witness, orders=(m11, m12),
                       orbit_reps=(res.orbit_reps[1], res.orbit_reps[0]))


def _top_anchor_candidates(gp, orbit, m11, m12, require_same_row):
    """Insertion witnesses from anchors in the top row of ``gp``.

    Walks the filtered orbit cyclically; the element 1 + m11 steps past the
    anchor decides between the same-row and the straddling shape.
    """
    ell, m = gp.ell, gp.m
    filtered = [k for k in orbit if k not in {1, ell + m}]
    n = len(filtered)
    if n != 2 + m11 + m12:
        raise OrbitTooSmall("orbit size %d does not match order" % n)
    letter = fresh_letter(gp.alphabet)
    for a in range(n):
        j = filtered[a]
        if not 2 <= j <= ell:
            continue
        f_b = filtered[(a + 1 + m11) % n]
        same_row = f_b <= ell
        if require_same_row and not same_row:
            continue
        if same_row:
            i = f_b
            if (i == j) != (m12 == -1):
                continue
            slots = _same_row_slots(gp, 'top', i, j)
        else:
            f_a = filtered[(a + 2 + m11) % n]
            if f_a == j:
                continue
            i = gp.sigma(f_a)
            if i <= ell:
                continue  # splice through an endpoint broke the shape
            slots = _straddle_slots(gp, i, j)
        try:
            yield insert_letter(gp, letter, slots[0], slots[1])
        except IllegalPosition:
            continue


def _transposed_candidates(tau, m1, m11, m12, require_same_row):
    """Anchor in the bottom row: run the construction on the transpose.

    The flip does not act position-by-position on turning orbits (bottom
    sides are tracked by their other endpoint), so every same-order orbit of
    the transpose is tried; certification against the original orbit rejects
    wrong picks.
    """
    rho = tau.transpose()
    for rho_orbit in turning_orbits(rho):
        if orbit_order(rho, rho_orbit) != m1:
            continue
        for w in _top_anchor_candidates(rho, rho_orbit, m11, m12,
                                        require_same_row):
            flip = {'top': 'bottom', 'bottom': 'top'}
            yield ExtensionWitness(
                base=tau, extended=w.extended.transpose(), letter=w.letter,
                slots=tuple(sorted((flip[r], k) for r, k in w.slots)))


def _split_scan(tau, orbit, m11, m12, restrict_row, require_same_row):
    old_orbits = [frozenset(o) for o in turning_orbits(tau)
                  if set(o) != set(orbit)]
    rows = [restrict_row] if restrict_row is not None else ['top', 'bottom']

    for rowname in rows:
        if rowname == 'top':
            candidates = _top_anchor_candidates(tau, orbit, m11, m12,
                                                require_same_row)
        else:
            candidates = _transposed_candidates(tau, m11 + m12, m11, m12,
                                                require_same_row)
        for witness in candidates:
            result = _certify_split(tau, witness, orbit, old_orbits,
                                    m11, m12)
            if result is not None:
                return result
    raise NotSplittable("no insertion anchor realizes the (%d, %d) split"
                        % (m11, m12))


def _same_row_slots(tau, rowname, i, j):
    off = 0 if rowname == 'top' else tau.ell
    if i == j:
        return (rowname, j - off), (rowname, j - off + 1)
    lo, hi = sorted((i - off, j - off))
    return (rowname, lo), (rowname, hi + 1)


def _straddle_slots(tau, i, j):
    pos = []
    for p in (i, j):
        if p <= tau.ell:
            pos.append(('top', p))
        else:
            pos.append(('bottom', p - tau.ell))
    return tuple(pos)


def _certify_split(tau, witness, orbit, old_orbits, m11, m12):
    """Verify the orbit partition changed exactly as requested."""
    pi = witness.extended
    pmap = _letter_position_map(tau, pi, witness.letter)
    expected_old = {frozenset(pmap[p] for p in o) for o in old_orbits}
    new_orbits = turning_orbits(pi)
    fresh = [o for o in new_orbits if frozenset(o) not in expected_old]
    if len(fresh) != 2:
        return None
    sizes = sorted(orbit_order(pi, o) for o in fresh)
    if sizes != sorted((m11, m12)):
        return None
    if orbit_order(pi, fresh[0]) == m11:
        rep_a, rep_b = fresh[0][0], fresh[1][0]
    else:
        rep_a, rep_b = fresh[1][0], fresh[0][0]
    return SplitResult(witness=witness, orders=(m11, m12),
                       orbit_reps=(rep_a, rep_b))


def split_even_zero(tau: GeneralizedPermutation, at,
                    m11: int, m12: int, m13: int) -> GeneralizedPermutation:
    """Split an even conical point of a genuine permutation three ways.

    The first insertion duplicates a letter in the top row, the second in the
    bottom row, so the result carries duplicates in both rows. m11 and m12
    must be odd; the sum must equal the (even) order of the chosen point.
    """
    if not tau.is_genuine:
        raise NotSplittable("base must be a genuine permutation")
    if m11 % 2 == 0 or m12 % 2 == 0:
        raise ParityError("the first two parts must be odd")
    orbit = _find_orbit(tau, at)
    q = orbit_order(tau, orbit)
    torus_case = tau.d == 2 and q == 0
    if q % 2 != 0 or (q < 2 and not torus_case):
        raise NotSplittable("chosen singularity order %d is not even >= 2" % q)
    if m11 + m12 + m13 != q:
        raise NotSplittable("parts must sum to the order %d" % q)

    first = split_singularity(tau, orbit, m11,
                              restrict_row='top', require_same_row=True)
    rest_rep = first.orbit_reps[1]
    second = split_singularity(first.witness.extended, rest_rep, m12,
                               restrict_row='bottom', require_same_row=True)
    out = second.witness.extended
    assert out.satisfies_convention(), "result must carry duplicates in both rows"
    return out


# ---------------------------------------------------------------------------
# the extension map on arrows
# ---------------------------------------------------------------------------

def extend_arrow(witness: ExtensionWitness, eta: Arrow) -> list[Arrow]:
    """Map an arrow at the base to the 1-3 arrow walk at the extension.

    The walk has two arrows of eta's kind when the inserted letter sits
    next-to-last in the opposite row (three when its copies are consecutive
    there), and a single arrow otherwise. The end is again a simple extension
    of eta's end; that is asserted.
    """
    if eta.source != witness.base:
        raise CaseUnmatched("arrow does not start at the witness base")
    pi = witness.extended
    alpha = witness.letter

    next_to_last_bottom = pi.m >= 2 and pi.bottom[-2] == alpha
    next_to_last_top = pi.ell >= 2 and pi.top[-2] == alpha
    if eta.kind == 't' and next_to_last_bottom:
        if next_to_last_top:
            raise CaseUnmatched(
                "inserted letter next-to-last in both rows; not covered")
        consecutive = pi.m >= 3 and pi.bottom[-3] == alpha
        count = 3 if consecutive else 2
    elif eta.kind == 'b' and next_to_last_top:
        if next_to_last_bottom:
            raise CaseUnmatched(
                "inserted letter next-to-last in both rows; not covered")
        consecutive = pi.ell >= 3 and pi.top[-3] == alpha
        count = 3 if consecutive else 2
    else:
        count = 1

    arrows = []
    cur = pi
    for _ in range(count):
        try:
            arrow = apply_arrow(cur, eta.kind)
        except MoveUndefined as exc:
            raise CaseUnmatched("expected arrow is undefined: %s" % exc)
        arrows.append(arrow)
        cur = arrow.target

    if is_simple_extension(cur, eta.target) != alpha:
        raise CaseUnmatched("walk end is not a simple extension of the target")
    return arrows


def extend_walk(witness: ExtensionWitness,
                steps: str) -> tuple[str, ExtensionWitness]:
    """Map a forward walk at the base through the extension, arrow by arrow."""
    cur_w = witness
    out = []
    for step in steps:
        eta = apply_arrow(cur_w.base, step)
        arrows = extend_arrow(cur_w, eta)
        out.append(step * len(arrows))
        cur_w = witness_from(arrows[-1].target, eta.target)
    return "".join(out), cur_w


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------

def _all_single_insertions(tau: GeneralizedPermutation):
    letter = fresh_letter(tau.alphabet)
    ell, m = tau.ell, tau.m
    slots = ([('top', k) for k in range(1, ell + 1)]
             + [('bottom', k) for k in range(1, m + 1)])
    for a in range(len(slots)):
        for b in range(a, len(slots)):
            ra, ka = slots[a]
            rb, kb = slots[b]
            if ra == rb:
                pos = (ra, ka), (rb, kb + 1)
            else:
                pos = (ra, ka), (rb, kb)
            try:
                yield insert_letter(tau, letter, pos[0], pos[1])
            except IllegalPosition:
                continue


def search_extensions(vertices: Sequence[GeneralizedPermutation],
                      predicate: Callable[[GeneralizedPermutation], bool],
                      *, letters: int = 2,
                      stratum_precheck: Optional[Callable] = None,
                      budget: int = 1_000_000) -> list[list[ExtensionWitness]]:
    """Depth-first scan of nested single-letter insertions over the vertices.

    Returns witness chains (length ``letters``) whose final permutation is
    irreducible and satisfies the predicate. ``stratum_precheck`` prunes
    intermediate insertions before the expensive final test.
    """
    found: list[list[ExtensionWitness]] = []
    examined = 0

    def recurse(gp, chain):
        nonlocal examined
        for w in _all_single_insertions(gp):
            examined += 1
            if examined > budget:
                raise BudgetExceeded("insertion budget hit", partial=found)
            if len(chain) + 1 == letters:
                if is_irreducible(w.extended) and predicate(w.extended):
                    found.append(chain + [w])
            elif stratum_precheck is None or stratum_precheck(w.extended):
                recurse(w.extended, chain + [w])

    for v in vertices:
        recurse(v, [])
    return found
