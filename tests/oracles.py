"""Oracles and proof devices that the tests check the library against.

No command and no library module uses these; the tests import them the way
they import ``conftest``:

* ``defined_moves``: the induction moves that exist at a vertex;
* ``reduced_by_relabel``: the reduced labels built through the checked
  ``relabel``, the oracle for ``GeneralizedPermutation.reduced``;
* ``trajectory``: the vertices a walk visits in a class, read off its
  arrow table;
* ``class_record_text``: a class file's text from one ``json.dumps`` of
  the whole record, the oracle for the piecewise
  ``RauzyClass.write_jsonl``;
* ``to_jsonl`` and ``from_jsonl``: a class file's text as a string, written
  and read through ``RauzyClass.write_jsonl`` and ``read_jsonl``;
* ``enumerate_up_to``: a class, or the class truncated at the budget that
  ``enumerate_class`` attaches to its ``BudgetExceeded``;
* ``simple_witness``: the ``ExtensionWitness`` of a simple extension that
  ``is_simple_extension`` accepts;
* ``arrow_matrix``: the matrix of one arrow's plus factor, or its inverse;
* ``intersection_form_by_cases``: the intersection form as eight cases of
  nesting and linking by rows, the oracle for the chord-crossing sign of
  ``homology.intersection_form``;
* ``hyperelliptic_by_rotations``: the two-forms criterion tried over every
  pair of row rotations, the oracle for ``components.hyperelliptic_test``;
* ``minus_form``: the +-2/0 form of the anti-invariant homology of the
  double cover on the both-rows letters, read from the letter positions:
  the reference for the intersection form on those letters, of which it is
  twice;
* exact rational suspension data and their check, the oracle for
  "irreducible and convention implies suspendable";
* the signed one-line table of the orientation double cover;
* k-completeness, self-overlap-free k-complete cycles, and the decomposition
  of mixed cycles into directed ones (criterion 9);
* the plus and minus generators of cycles walked from the base with
  ``kz_walk`` and ``kz_walk(..., minus=True)``, each checked by the full
  product M·Ω·Mᵀ and conjugated into the quotient basis: the oracle for
  ``groups.cycle_matrices`` and ``groups.image_modp``;
* the minus generators harvested from the labeled class, the route
  ``group --minus`` took before it walked the admissible component: the
  oracle for ``groups.admissible_component``;
* Schreier-Sims on the permutations of the p^n - 1 nonzero row vectors that
  matrices mod p induce, the closure of ``groups.modp_closure`` and
  ``groups.image_modp`` (since their split, ``groups._closure``) before its
  chain held the matrices themselves: the oracle for
  ``groups._schreier_sims``;
* the reduced classes of genuine suspendable permutations up to a number of
  letters, and the mod-p orders that the classification of components
  (Kontsevich-Zorich; A'Campo and Avila-Matheus-Yoccoz; Gutierrez-Romo)
  predicts for their Rauzy-Veech groups, in closed form: the oracle for
  ``groups.harvest`` with ``groups.image_modp``.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from rvq import groups, linalg
from rvq.components import UNKNOWN, identify_component
from rvq.errors import (BudgetExceeded, MoveUndefined, NotOmegaPreserving,
                        OpenWalk, RVQError)
from rvq.extensions import ExtensionWitness, is_simple_extension
from rvq.gp import (GeneralizedPermutation, Letter, erase_letters,
                    is_suspendable, letter_positions)
from rvq.groups import arrow_cycles, random_directed_cycles
from rvq.homology import (DuplicateWinner, QuotientData, _factor,
                          arrow_factor, kz_walk, quotient_data)
from rvq.induction import (BOTTOM, TOP, Arrow, RauzyClass, apply_arrow,
                           enumerate_class)
from rvq.linalg import Matrix
from rvq.strata import stratum_signature


def defined_moves(gp: GeneralizedPermutation) -> tuple[str, ...]:
    kinds = []
    for kind in (TOP, BOTTOM):
        try:
            apply_arrow(gp, kind)
        except MoveUndefined:
            continue
        kinds.append(kind)
    return tuple(kinds)


def reduced_by_relabel(gp: GeneralizedPermutation) -> GeneralizedPermutation:
    """``gp`` relabeled by first appearance, top row first, to 0, 1, 2, ...
    through the checked constructor behind ``relabel``."""
    return gp.relabel({x: str(k) for k, x in enumerate(gp.alphabet)})


def trajectory(rc: RauzyClass, walk: str,
               start: int = 0) -> list[Optional[int]]:
    """The vertices a walk from vertex ``start`` of ``rc`` visits, ``start``
    first.  The list ends in None at the first step that has no arrow."""
    verts: list[Optional[int]] = [start]
    for move in walk:
        verts.append(rc.step(verts[-1], move))
        if verts[-1] is None:
            break
    return verts


def class_record_text(rc: RauzyClass) -> str:
    """The class file of ``rc`` in format 2, built as one text: a single
    ``json.dumps`` of the record with the default separators, then a
    newline."""
    return json.dumps({
        "format": 2,
        "complete": rc.complete,
        "reduced_labels": rc.reduced_labels,
        "vertices": [v.encode() for v in rc.vertices],
        TOP: rc.table[TOP],
        BOTTOM: rc.table[BOTTOM],
    }) + "\n"


def to_jsonl(rc: RauzyClass) -> str:
    """The text :meth:`RauzyClass.write_jsonl` writes for ``rc``."""
    buf = io.StringIO()
    rc.write_jsonl(buf)
    return buf.getvalue()


def from_jsonl(text: str) -> RauzyClass:
    """The class the record ``text`` holds, read by
    :meth:`RauzyClass.read_jsonl`."""
    return RauzyClass.read_jsonl(io.StringIO(text))


def enumerate_up_to(seed: GeneralizedPermutation, limit: int,
                    **kwargs) -> RauzyClass:
    """``enumerate_class(seed, limit, ...)``, or the truncated class its
    ``BudgetExceeded`` carries when the class has more than ``limit``
    vertices."""
    try:
        return enumerate_class(seed, limit, **kwargs)
    except BudgetExceeded as exc:
        return exc.partial


def simple_witness(pi: GeneralizedPermutation,
                   tau: GeneralizedPermutation) -> ExtensionWitness:
    """The witness that ``pi`` is a simple extension of ``tau``; raises
    AssertionError when :func:`is_simple_extension` refuses it."""
    letter = is_simple_extension(pi, tau)
    if letter is None:
        raise AssertionError("%s is not a simple extension of %s"
                             % (pi.encode(), tau.encode()))
    return ExtensionWitness(tau, pi, letter)


def arrow_matrix(arrow: Arrow, order: Optional[Sequence[str]] = None,
                 inverse: bool = False) -> Matrix:
    """The plus factor of one arrow as a matrix on the letters ``order``
    (the source's alphabet by default): Id+E when loser and winner pair
    non-trivially, the reflection otherwise; with ``inverse`` its inverse."""
    order = tuple(order) if order is not None else arrow.source.alphabet
    mat = [list(row) for row in linalg.identity(len(order))]
    _factor(mat, *arrow_factor(arrow, order), inverse)
    return tuple(tuple(row) for row in mat)


def intersection_form_by_cases(gp: GeneralizedPermutation,
                               order: Optional[Sequence[str]] = None
                               ) -> Matrix:
    """The intersection form on the letters ``order`` (the alphabet by
    default) as eight cases of how the two occurrence pairs, read top row
    first, nest or link and in which rows they sit: the oracle for the one
    chord-crossing sign of ``homology.intersection_form``."""
    order = tuple(order) if order is not None else gp.alphabet
    ell = gp.ell
    pos = letter_positions(gp.top + gp.bottom)

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

    return tuple(tuple(entry(a, b) if a != b else 0 for b in order)
                 for a in order)


def minus_form(gp: GeneralizedPermutation,
               order: Optional[Sequence[str]] = None) -> Matrix:
    """The +-2/0 alternating form on the letters ``order`` (the both-rows
    letters by default): +-2 when the two occurrence pairs cross, by the
    order of their first occurrences."""
    order = tuple(order) if order is not None else gp.both_rows_letters()
    pos = gp.pairs

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
# hyperellipticity by rotations
# ---------------------------------------------------------------------------

def _matches_interleaved(top, bottom):
    if len(top) != len(bottom) or len(top) < 2:
        return False
    x = top[0]
    if top.count(x) != 2:
        return False
    p = top.index(x, 1)
    a, c = top[1:p], top[p + 1:]
    y = bottom[len(c)] if len(c) < len(bottom) else None
    if y is None or y == x or y in top:
        return False
    expected = tuple(reversed(c)) + (y,) + tuple(reversed(a)) + (y,)
    return bottom == expected


def _matches_doubled(top, bottom):
    if len(top) % 2 or len(bottom) % 2:
        return False
    h, k = len(top) // 2, len(bottom) // 2
    return (h > 0 and k > 0 and top[:h] == top[h:] and bottom[:k] == bottom[k:])


def hyperelliptic_by_rotations(gp: GeneralizedPermutation) -> Optional[bool]:
    """``components.hyperelliptic_test`` by trying every pair of row
    rotations of the core against the interleaved and the doubled form."""
    if gp.is_genuine or gp.top[0] != gp.bottom[-1]:
        return None
    try:
        core = erase_letters(gp, {gp.top[0]})
    except RVQError:
        return None
    top, bottom = core.top, core.bottom
    for rt in range(len(top)):
        t = top[rt:] + top[:rt]
        for rb in range(len(bottom)):
            b = bottom[rb:] + bottom[:rb]
            if _matches_interleaved(t, b) or _matches_doubled(t, b):
                return True
    return False


# ---------------------------------------------------------------------------
# suspension data
# ---------------------------------------------------------------------------

Complex = tuple[Fraction, Fraction]


def _as_fraction_pair(z) -> Complex:
    if isinstance(z, tuple):
        return Fraction(z[0]), Fraction(z[1])
    return Fraction(z), Fraction(0)


@dataclass(frozen=True)
class SuspensionDatum:
    """Exact complex length data, one value per letter.

    Values are pairs (real, imaginary) of Fractions so strict inequalities
    at boundaries are decided exactly.
    """
    values: Mapping[Letter, Complex] = field(default_factory=dict)

    @staticmethod
    def of(mapping) -> "SuspensionDatum":
        return SuspensionDatum(
            {x: _as_fraction_pair(z) for x, z in mapping.items()})

    def __getitem__(self, x: Letter) -> Complex:
        return self.values[x]


def check_suspension(gp: GeneralizedPermutation,
                     zeta: SuspensionDatum) -> list[tuple]:
    """Return the list of violated suspension conditions (empty when valid).

    Checks, with exact rational arithmetic: positivity of every width,
    positive top prefix heights, negative bottom prefix heights, and equality
    of the two row totals.
    """
    violations: list[tuple] = []
    for x in gp.alphabet:
        if x not in zeta.values:
            violations.append(('missing', x))
    if violations:
        return violations

    for x in gp.alphabet:
        if zeta[x][0] <= 0:
            violations.append(('positivity', x))

    h = Fraction(0)
    for i in range(gp.ell - 1):
        h += zeta[gp.top[i]][1]
        if h <= 0:
            violations.append(('top_prefix', i + 1))
    h = Fraction(0)
    for i in range(gp.m - 1):
        h += zeta[gp.bottom[i]][1]
        if h >= 0:
            violations.append(('bottom_prefix', i + 1))

    top_total = [sum(zeta[x][k] for x in gp.top) for k in (0, 1)]
    bot_total = [sum(zeta[x][k] for x in gp.bottom) for k in (0, 1)]
    if top_total != bot_total:
        violations.append(('total',))
    return violations


# ---------------------------------------------------------------------------
# the signed one-line table of the double cover
# ---------------------------------------------------------------------------

STAR = '*'


class ConventionViolated(RVQError):
    """A strict generalized permutation lacks a duplicate in one of the rows."""


@dataclass(frozen=True)
class PermWithInvolution:
    """One-line table over letter-sign pairs with a separator entry.

    The involution flips the sign bit; signs are normalized so the first
    occurrence of each letter in reading order (bottom row reversed, then the
    star, then the top row) could be recovered from the underlying rows.
    """
    entries: tuple  # tuple of (letter, sign) pairs and the star
    star_index: int

    def left_letters(self) -> set:
        return {e for e in self.entries[:self.star_index]}

    def right_letters(self) -> set:
        return {e for e in self.entries[self.star_index + 1:]}


def to_perm_involution(gp: GeneralizedPermutation) -> PermWithInvolution:
    """Encode the permutation as a signed one-line table.

    Signs satisfy sign(position) = 1 - sign(twin position); the first copy of
    each letter in position order gets sign 0. Raises ConventionViolated when
    the permutation violates the both-rows convention: the letter signs of a
    strict permutation lacking a duplicate in one row collapse to one side
    of the star.
    """
    if not gp.satisfies_convention():
        raise ConventionViolated(
            "letter signs collapse to one side: %s" % gp.encode())
    ell, m = gp.ell, gp.m
    eps: dict[int, int] = {}
    for i, j in gp.pairs.values():
        eps[i], eps[j] = 0, 1

    word = gp.top + gp.bottom  # the letter at position p is word[p - 1]
    entries = []
    for p in range(ell + m, ell, -1):
        entries.append((word[p - 1], eps[p]))
    entries.append(STAR)
    for p in range(1, ell + 1):
        entries.append((word[p - 1], eps[p]))
    return PermWithInvolution(entries=tuple(entries), star_index=m)


# ---------------------------------------------------------------------------
# completeness and decomposition
# ---------------------------------------------------------------------------

# win-seeking segments find_gamma_star may walk before it gives up
_GAMMA_STAR_SEGMENTS = 10_000


def k_completeness(base: GeneralizedPermutation, walk: str) -> int:
    """Minimum number of wins over all letters along a directed walk."""
    wins = {x: 0 for x in base.alphabet}
    cur = base
    for step in walk:
        if step not in (TOP, BOTTOM):
            raise MoveUndefined("completeness is for directed walks only")
        arrow = apply_arrow(cur, step)
        wins[arrow.winner] += 1
        cur = arrow.target
    return min(wins.values())


def _has_border(rc: RauzyClass, walk: str) -> bool:
    """A proper prefix that is also a suffix, as walks based at the base."""
    n = len(walk)
    verts = trajectory(rc, walk)
    return any(walk[:size] == walk[n - size:] and verts[n - size] == 0
               for size in range(1, n))


def find_gamma_star(base: GeneralizedPermutation, rc: RauzyClass,
                    k: int) -> str:
    """A k-complete directed cycle at the base with no nontrivial self-overlap."""

    def winner(i, kind):
        return apply_arrow(rc.vertices[i], kind).winner

    def arrows_out(i):
        return [(kind, j, winner(i, kind)) for kind in (TOP, BOTTOM)
                if (j := rc.step(i, kind)) is not None]

    def path_to_win(start, letter):
        # BFS for the nearest arrow won by `letter`
        seen = {start}
        queue = deque([(start, "")])
        while queue:
            i, path = queue.popleft()
            for kind, j, winner in arrows_out(i):
                if winner == letter:
                    return path + kind, j
                if j not in seen:
                    seen.add(j)
                    queue.append((j, path + kind))
        raise MoveUndefined("letter %r never wins (class truncated?)" % letter)

    wins = {x: 0 for x in base.alphabet}
    cur = 0
    walk = ""
    steps_left = _GAMMA_STAR_SEGMENTS
    while min(wins.values()) < k:
        letter = min((x for x in wins if wins[x] < k), key=str)
        segment, end = path_to_win(cur, letter)
        walk += segment
        for step, i in zip(segment, trajectory(rc, segment, cur)):
            wins[winner(i, step)] += 1
        cur = end
        steps_left -= 1
        if steps_left <= 0:
            raise BudgetExceeded("no k-complete cycle within budget")
    walk += rc.path_to_base(cur)

    attempts = 0
    candidate = walk
    while _has_border(rc, candidate):
        attempts += 1
        if attempts > 50:
            raise BudgetExceeded("could not remove self-overlap")
        extra = random_directed_cycles(rc, count=attempts, maxlen=20,
                                       seed=1000 + attempts)
        if not extra:
            raise BudgetExceeded("no auxiliary cycles available")
        candidate = walk + extra[-1]
    return candidate


@dataclass(frozen=True)
class DecompositionPiece:
    cycle: str
    sign: int  # +1: the cycle matrix, -1: its inverse


def directed_decomposition(base: GeneralizedPermutation, rc: RauzyClass,
                           walk: str) -> list[DecompositionPiece]:
    """Split a mixed cycle into directed base cycles with alternating signs.

    Consecutive runs of forward/backward steps become directed cycles closed
    up through fixed spanning trees; shared connector paths cancel, so the
    signed product of the piece matrices reproduces the walk matrix exactly
    (asserted by the caller's tests).
    """
    start = rc.index_of(base)
    if start is None:
        raise OpenWalk("walk must start inside the class")
    verts = trajectory(rc, walk, start)
    if None in verts:
        raise OpenWalk("walk leaves the class")
    if verts[-1] != verts[0]:
        raise OpenWalk("decomposition needs a closed walk")
    if verts[0] != 0:
        raise ValueError("walk must be based at the class base vertex")

    pieces: list[DecompositionPiece] = []
    i = 0
    n = len(walk)
    while i < n:
        j = i
        while j < n and walk[j].islower() == walk[i].islower():
            j += 1
        seg = walk[i:j]
        if walk[i].islower():
            cycle = (rc.path_from_base(verts[i]) + seg
                     + rc.path_to_base(verts[j]))
            pieces.append(DecompositionPiece(cycle=cycle, sign=+1))
        else:
            directed = seg[::-1].lower()
            cycle = (rc.path_from_base(verts[j]) + directed
                     + rc.path_to_base(verts[i]))
            pieces.append(DecompositionPiece(cycle=cycle, sign=-1))
        i = j
    return pieces


def decomposition_product(base: GeneralizedPermutation,
                          pieces: Sequence[DecompositionPiece]) -> Matrix:
    """Signed product of the piece matrices, last piece leftmost."""
    mat = linalg.identity(len(base.alphabet))
    for piece in pieces:
        m, end = kz_walk(base, piece.cycle)
        if end != base:
            raise OpenWalk("piece %r does not close up" % piece.cycle)
        if piece.sign < 0:
            m = linalg.invert_integer(m)
        mat = linalg.mul(m, mat)
    return mat


# ---------------------------------------------------------------------------
# walked cycle generators
# ---------------------------------------------------------------------------

def _walk_matrices(base: GeneralizedPermutation, cycles: Sequence[str],
                   walk_matrix) -> Iterator[Matrix]:
    """The matrices of the cycles that ``walk_matrix`` admits, each checked
    to close up at the base."""
    for walk in cycles:
        try:
            mat, end = walk_matrix(base, walk)
        except DuplicateWinner:
            continue  # a minus walk through a type-changing arrow
        if end != base:
            raise OpenWalk("cycle %r does not close up" % walk)
        yield mat


def _quotient_generators(mats: Iterable[Matrix], p: int, qd: QuotientData
                         ) -> tuple[list[Matrix], Matrix]:
    """Every matrix checked by the full product M·Ω·Mᵀ = Ω and conjugated
    by the quotient basis, U·M·U⁻¹; the blocks on the quotient, distinct mod
    p, with the reduced form."""
    omega, r = qd.form, len(qd.reduced_form)
    gens, seen = [], set()
    for mat in mats:
        if linalg.mul(linalg.mul(mat, omega), linalg.transpose(mat)) != omega:
            raise NotOmegaPreserving("matrix does not preserve the form")
        conj = linalg.mul(linalg.mul(qd.unimodular, mat), qd.inverse)
        if any(conj[i][j] for i in range(r, len(conj)) for j in range(r)):
            raise NotOmegaPreserving("kernel is not invariant")
        red = tuple(tuple(conj[i][j] for j in range(r)) for i in range(r))
        key = linalg.mat_mod(red, p)
        if key not in seen:
            seen.add(key)
            gens.append(red)
    return gens, qd.reduced_form


def plus_generators_modp(base: GeneralizedPermutation, cycles: Sequence[str],
                         p: int) -> tuple[list[Matrix], Matrix]:
    """Reduce cycle matrices to the quotient and mod p; returns (gens, form)."""
    return _quotient_generators(_walk_matrices(base, cycles, kz_walk), p,
                                quotient_data(base))


def _minus_walk(base: GeneralizedPermutation, walk: str):
    return kz_walk(base, walk, minus=True)


def minus_generators_modp(base: GeneralizedPermutation, cycles: Sequence[str],
                          p: int) -> tuple[list[Matrix], Matrix]:
    """Minus-side analogue, skipping walks with a duplicate-letter winner;
    the reduced intersection form on the both-rows letters is returned for
    mod-p use."""
    return _quotient_generators(_walk_matrices(base, cycles, _minus_walk),
                                p, quotient_data(base, minus=True))


def labeled_class_minus_generators_modp(base: GeneralizedPermutation,
                                        rc: RauzyClass, p: int, *,
                                        cycles: int = 200, maxlen: int = 60,
                                        seed: int = 0
                                        ) -> tuple[list[Matrix], Matrix]:
    """The minus generators of the labeled class ``rc`` of ``base``: one
    cycle per arrow for at most ``4 * cycles`` arrows, always with
    ``cycles`` random directed cycles, of which only the admissible walks
    are kept."""
    walks = arrow_cycles(rc, cap=4 * cycles) + random_directed_cycles(
        rc, count=cycles, maxlen=maxlen, seed=seed)
    return minus_generators_modp(base, walks, p)


# ---------------------------------------------------------------------------
# Schreier-Sims on the permutations of the nonzero vectors: the closure that
# groups ran before it sifted the matrices themselves
# ---------------------------------------------------------------------------

def vector_permutations(mats: Sequence[Matrix], p: int) -> list[list[int]]:
    """The permutations v -> v.mat of the nonzero vectors of F_p^n, for
    matrices with entries in 0..p-1.

    The vector v is point sum(v[j] * p**j) - 1. Images are built linearly,
    image(v) = image(v - e_k) + row_k with k the top nonzero coordinate of v,
    so each matrix costs O(p^n) table lookups: vectors are added as integers
    in base 2p - 1, where no digit carries, and two tables indexed by such a
    sum give its reduction mod p in the same base and its point.
    """
    n = len(mats[0]) if mats else 0
    q = 2 * p - 1
    reduced, points = [0], [-1]
    for j in range(n):
        reduced = [r + d % p * q ** j for d in range(q) for r in reduced]
        points = [x + d % p * p ** j for d in range(q) for x in points]
    perms = []
    for mat in mats:
        images, perm = [0], []
        for k, row in enumerate(mat):
            r = sum(x * q ** j for j, x in enumerate(row))
            step = p ** k
            for d in range(1, p):
                sums = [a + r for a in images[(d - 1) * step:d * step]]
                images += [reduced[x] for x in sums]
                perm += [points[x] for x in sums]
        perms.append(perm)
    return perms


class _Level:
    """One level of a stabilizer chain.

    ``gens`` generate the level's group, which fixes the base points of the
    levels above; ``orbit`` is the orbit of the base point ``orbit[0]`` under
    them, and ``u[x]``/``uinv[x]`` are a transversal element taking the base
    point to x and its inverse. The Schreier generators from ``orbit[:done[k]]``
    and ``gens[k]`` are known to lie in the levels below.
    """

    __slots__ = ("gens", "invs", "done", "orbit", "u", "uinv")

    def __init__(self, point: int, identity: list[int]):
        self.gens: list[list[int]] = []
        self.invs: list[list[int]] = []
        self.done: list[int] = []
        self.orbit = [point]
        self.u = {point: identity}
        self.uinv = {point: identity}

    def add(self, s: list[int], sinv: list[int]) -> None:
        """Add a generator and extend the orbit and the transversal."""
        self.gens.append(s)
        self.invs.append(sinv)
        self.done.append(0)
        orbit, u, uinv = self.orbit, self.u, self.uinv
        old = len(orbit)
        pos = 0
        while pos < len(orbit):
            x = orbit[pos]
            pairs = zip(self.gens, self.invs) if pos >= old else ((s, sinv),)
            for t, tinv in pairs:
                y = t[x]
                if y not in u:
                    ux, uix = u[x], uinv[x]
                    u[y] = [t[z] for z in ux]
                    uinv[y] = [uix[z] for z in tinv]
                    orbit.append(y)
            pos += 1


def _sift(levels: list[_Level], x: list[int], start: int
          ) -> tuple[list[int], int]:
    """Strip x through ``levels[start:]``: the residue and the level where it
    left the chain (``len(levels)`` when it passed every level)."""
    for i in range(start, len(levels)):
        level = levels[i]
        uinv = level.uinv.get(x[level.orbit[0]])
        if uinv is None:
            return x, i
        x = [uinv[y] for y in x]
    return x, len(levels)


def _add_strong_generator(levels: list[_Level], h: list[int], first: int,
                          last: int, identity: list[int]) -> None:
    """Add h, which fixes the base points above ``last``, to
    ``levels[first:last + 1]``; a new level gets the first point h moves."""
    if last == len(levels):
        point = next(x for x, y in enumerate(h) if x != y)
        levels.append(_Level(point, identity))
    hinv = [0] * len(h)
    for x, y in enumerate(h):
        hinv[y] = x
    for level in levels[first:last + 1]:
        level.add(h, hinv)


def _schreier_residue(levels: list[_Level], i: int, identity: list[int]
                      ) -> Optional[tuple[list[int], int]]:
    """Sift the untested Schreier generators of level i through the levels
    below it: the first residue that is not the identity, with the level it
    left the chain at, or None when every one of them sifts to the identity."""
    level = levels[i]
    orbit, done, u = level.orbit, level.done, level.u
    for k, s in enumerate(level.gens):
        while done[k] < len(orbit):
            x = orbit[done[k]]
            done[k] += 1
            t = [s[z] for z in u[x]]
            y = s[x]
            if t != u[y]:
                uinv = level.uinv[y]
                h, j = _sift(levels, [uinv[z] for z in t], i + 1)
                if j < len(levels) or h != identity:
                    return h, j
    return None


def _permutation_chain(perms: Sequence[list[int]], degree: int,
                       known: int) -> list[_Level]:
    """A stabilizer chain of the group the permutations generate.

    Each permutation is sifted through the chain built so far and dropped if
    it sifts to the identity; otherwise its residue joins the chain and every
    untested Schreier generator, at every level, is sifted until none is left.
    The product of the orbit lengths is always a lower bound on the order, so
    the chain is returned as soon as it reaches ``known``, an upper bound.
    """
    identity = list(range(degree))
    levels: list[_Level] = []

    def reached():
        size = 1
        for level in levels:
            size *= len(level.orbit)
        return size >= known

    for x in perms:
        h, i = _sift(levels, x, 0)
        if i == len(levels) and h == identity:
            continue
        _add_strong_generator(levels, h, 0, i, identity)
        if reached():
            return levels
        while i >= 0:
            found = _schreier_residue(levels, i, identity)
            if found is None:
                i -= 1
                continue
            h, j = found
            _add_strong_generator(levels, h, i + 1, j, identity)
            if reached():
                return levels
            i = j
    return levels


def permutation_schreier_sims_order(mats: Sequence[Matrix], p: int,
                                    known: int) -> int:
    """The order of the group that the matrices, with entries in 0..p-1,
    generate, from Schreier-Sims on their permutations of the p^n - 1
    nonzero row vectors: each level holds tables of p^n entries, so this
    runs only on small images."""
    n = len(mats[0]) if mats else 0
    levels = _permutation_chain(vector_permutations(mats, p), p ** n - 1,
                                known)
    return math.prod(len(level.orbit) for level in levels)


# ---------------------------------------------------------------------------
# the classification of abelian components: the mod-p images it predicts
# ---------------------------------------------------------------------------

def abelian_class_bases(dmax: int) -> list[GeneralizedPermutation]:
    """The first vertex of each reduced class of genuine suspendable
    permutations on the letters 0..d-1, 2 <= d <= dmax, with the top row in
    order: the classes in the order their first bottom row appears in
    lexicographic order."""
    bases = []
    for d in range(2, dmax + 1):
        top, seen = tuple(map(str, range(d))), set()
        for bottom in itertools.permutations(top):
            gp = GeneralizedPermutation(top, bottom)
            if gp not in seen and is_suspendable(gp):
                rc = enumerate_class(gp, reduced_labels=True)
                seen.update(rc.vertices)
                bases.append(rc.vertices[0])
    return bases


def component_suffixes(zeros: tuple[int, ...], g: int) -> list[str]:
    """The label suffixes of the components of the abelian stratum with
    these zeros, none of order 0, in genus g (Kontsevich-Zorich, Invent.
    Math. 153, 2003): one component up to genus 2; from
    genus 3, a hyperelliptic one in H(2g-2) and H(g-1, g-1), and, when every
    zero has even order, one of odd spin and, from genus 4, one of even
    spin; in H(g-1, g-1) with g-1 odd, a non-hyperelliptic one."""
    if g <= 2:
        return [""]
    hyp = zeros in ((2 * g - 2,), (g - 1, g - 1))
    if all(z % 2 == 0 for z in zeros):
        return ["^hyp"] * hyp + ["^odd"] + ["^even"] * (g >= 4)
    return ["^hyp", "^nonhyp"] if hyp else [""]


def predicted_mod2_order(suffix: str, zeros: tuple[int, ...], g: int) -> int:
    """The order of the mod-2 image of the Rauzy-Veech group of the
    component of H(zeros), no zero of order 0, with this label suffix.

    * A hyperelliptic component, and every component of genus 1 or 2, has
      by Avila-Matheus-Yoccoz (Zorich conjecture for hyperelliptic
      Rauzy-Veech groups, Math. Ann. 370, 2018) the monodromy group of the
      curves y^2 = (x - a_1)...(x - a_n), n = 2g+1 for one zero and 2g+2
      for two, which A'Campo (Tresses, monodromie et le groupe
      symplectique, Comment. Math. Helv. 54, 1979) showed to be the
      preimage in Sp(2g, Z) of S_n, acting on F_2^{2g} through the heart of
      its permutation module.
    * Gutierrez-Romo (Classification of Rauzy-Veech groups: proof of the
      Zorich conjecture, Invent. Math. 215, 2019): the group of
      a non-hyperelliptic component is Sp(2g, Z) when some zero has odd
      order, and otherwise the subgroup of Sp(2g, Z) that preserves mod 2
      the quadratic form of the spin structure, whose Arf invariant is the
      parity.  Mod 2 these are Sp(2g, F_2), and O^+(2g, F_2) for even spin
      or O^-(2g, F_2) for odd spin, of order
      2·2^{g(g-1)}·(2^g ∓ 1)·∏_{i<g}(4^i - 1).

    Each group contains the level-2 congruence subgroup, so its image mod
    an odd prime is Sp(2g, F_p)."""
    if g <= 2 or suffix == "^hyp":
        return math.factorial(2 * g + 1 if len(zeros) <= 1 else 2 * g + 2)
    rest = math.prod(4 ** i - 1 for i in range(1, g))
    if suffix in ("^odd", "^even"):
        sign = 1 if suffix == "^even" else -1
        return 2 * 2 ** (g * (g - 1)) * (2 ** g - sign) * rest
    return 2 ** (g * g) * (4 ** g - 1) * rest


def classification_mismatches(dmax: int, primes: Sequence[int], *,
                              report=None) -> list[str]:
    """Each disagreement between the exact mod-p images of the labeled
    classes of :func:`abelian_class_bases` and the classification.

    A class that ``identify_component`` names must carry a label of
    :func:`component_suffixes` and have the order that
    :func:`predicted_mod2_order` gives for it mod 2, and Sp(2g, F_p) at an
    odd p.  The classes of a stratum with marked points are "unknown" to
    it: their orders mod 2 must be, as a set, those of the components of
    the stratum without its marked points.  ``report``, if given, gets one
    line per class."""
    missed: list[str] = []
    marked: dict[tuple[int, ...], set[int]] = {}
    for base in abelian_class_bases(dmax):
        sig = stratum_signature(base, cross_check=False)
        orders, g, name = sig.abelian_orders(), sig.genus, sig.abelian_str()
        zeros = tuple(z for z in orders if z)
        label = identify_component(base)
        rc = enumerate_class(base)
        mats, generates = groups.harvest(rc, cycles=-(-rc.arrow_count() // 4),
                                         maxlen=60, seed=0, minus=False)
        mats = list(mats)
        got = {p: groups.image_modp(base, mats, p).order for p in primes}
        if report:
            report("%s  %s  %s  %d vertices: %s"
                   % (base.encode(), name, label, len(rc), got))
        if not generates:
            missed.append("%s: the harvest does not generate" % base.encode())
        want = {p: groups.sp_order(g, p) for p in primes if p != 2}
        suffix = label[len(name):]
        if label == UNKNOWN and 0 in orders:
            marked.setdefault(orders, set()).add(got.get(2))
        elif label[:len(name)] != name or suffix not in component_suffixes(
                zeros, g):
            missed.append("%s: label %s in %s" % (base.encode(), label, name))
        elif 2 in primes:
            want[2] = predicted_mod2_order(suffix, zeros, g)
        missed += ["%s %s mod %d: order %d, predicted %d"
                   % (base.encode(), label, p, got[p], want[p])
                   for p in want if got[p] != want[p]]
    for orders, seen in marked.items() if 2 in primes else ():
        zeros = tuple(z for z in orders if z)
        g = sum(orders) // 2 + 1
        want2 = {predicted_mod2_order(s, zeros, g)
                 for s in component_suffixes(zeros, g)}
        if seen != want2:
            missed.append("H%s mod 2: orders %s, predicted %s"
                          % (orders, sorted(seen), sorted(want2)))
    return missed
