"""Mod-p images of the groups generated along induction cycles, and the
harvest of those cycles.

A mod-p image is computed by deterministic Schreier-Sims on the permutation
action of the generators on the nonzero row vectors of F_p^n. Its order is
exact, and it is checked to divide the order of the full symplectic group;
the quotient is reported as the mod-p index.
"""

from __future__ import annotations

import math
import random
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import linalg
from .errors import (CriterionInapplicable, NonDividingOrder,
                     NonSymplecticGenerator, OpenWalk)
from .gp import GeneralizedPermutation
from .homology import (QuotientData, _factor, arrow_factor, letters,
                       quotient_action, quotient_data)
from .induction import (DEFAULT_BUDGET, RauzyClass, TOP, BOTTOM, apply_arrow,
                        enumerate_class)
from .linalg import Matrix
from .strata import stratum_signature


def is_prime(n: int) -> bool:
    """Whether n is a prime, by trial division: the moduli this module and
    the CLI accept."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError("modulus must be a prime, got %r" % (p,))


def sp_order(g: int, p: int) -> int:
    """Order of the symplectic group of rank g over the field with p
    elements; raises ValueError unless p is a prime."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    _require_prime(p)
    n = p ** (g * g)
    for i in range(1, g + 1):
        n *= p ** (2 * i) - 1
    return n


# ---------------------------------------------------------------------------
# images over F_p
# ---------------------------------------------------------------------------

class ClosureResult(NamedTuple):
    """The mod-p image; ``base_length`` is the number of base points of its
    stabilizer chain on the nonzero vectors.  ``exact`` is set when the
    order is that of the image of the group of all closed walks at the base,
    not a lower bound (see :func:`rauzy_veech_group_modp`)."""

    order: int
    index: int
    genus: int
    p: int
    generators_used: int
    base_length: int
    exact: bool = False


def modp_closure(generators: Iterable[Matrix], p: int,
                 form: Matrix) -> ClosureResult:
    """Order and index of the subgroup of Sp(form, F_p) the generators span.

    ``form`` must be non-degenerate mod p (for the double-cover case, the
    intersection form on the both-rows letters). The order is exact:
    deterministic Schreier-Sims on the action of the generators on the
    p^n - 1 nonzero row vectors of F_p^n, which is faithful. No group
    element is stored, only the stabilizer chain with its transversals.
    Raises ValueError unless p is a prime; that and the checks on the form
    come before the first generator is read.
    """
    _require_prime(p)
    n = len(form)
    if n % 2:
        raise ValueError("form must have even size")
    g = n // 2
    fp = linalg.mat_mod(form, p)
    if linalg.det(form) % p == 0:
        raise NonSymplecticGenerator("form is degenerate mod %d" % p)

    gens = []
    seen_g = set()
    for mat in generators:
        mg = linalg.mat_mod(mat, p)
        if mg not in seen_g:
            if not linalg.preserves_form(mg, fp, p):
                raise NonSymplecticGenerator(
                    "generator does not preserve the form")
            seen_g.add(mg)
            gens.append(mg)

    total = sp_order(g, p)
    levels = _schreier_sims(_vector_permutations(gens, p), p ** n - 1, total)
    order = 1
    for level in levels:
        order *= len(level.orbit)
    if total % order:
        raise NonDividingOrder(
            "order %d does not divide |Sp(%d, F_%d)| = %d"
            % (order, 2 * g, p, total))
    return ClosureResult(order=order, index=total // order, genus=g, p=p,
                         generators_used=len(gens), base_length=len(levels))


def _vector_permutations(mats: Sequence[Matrix], p: int) -> list[list[int]]:
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


def _schreier_sims(perms: Sequence[list[int]], degree: int,
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


# ---------------------------------------------------------------------------
# cycle harvesting
# ---------------------------------------------------------------------------

def random_directed_cycles(rc: RauzyClass, *, count: int = 200,
                           maxlen: int = 60, seed: int = 0) -> list[str]:
    """Random forward walks from the base closed up through the return tree.
    A walk that reaches a vertex with no arrow inside the class (on a
    truncated class) ends there."""
    rng = random.Random(seed)
    arrows_out: dict[int, list[tuple[str, int]]] = {}
    cycles = []
    seen = set()
    for _ in range(count * 4):
        if len(cycles) >= count:
            break
        cur = 0
        steps = []
        for _ in range(rng.randint(1, max(1, maxlen))):
            if cur not in arrows_out:
                arrows_out[cur] = [(kind, j) for kind in (TOP, BOTTOM)
                                   if (j := rc.step(cur, kind)) is not None]
            if not arrows_out[cur]:
                break
            kind, cur = rng.choice(arrows_out[cur])
            steps.append(kind)
        walk = "".join(steps) + rc.path_to_base(cur)
        if walk and walk not in seen and len(walk) <= maxlen:
            seen.add(walk)
            cycles.append(walk)
    return cycles


def arrow_cycles(rc: RauzyClass, *, cap: Optional[int] = None) -> list[str]:
    """One base cycle through every arrow: out-tree path, the arrow, in-tree
    path home. These generate everything the directed cycles can reach."""
    return [rc.path_from_base(i) + kind + rc.path_to_base(j)
            for i, kind, j, _ in islice(rc.arrows(), cap)]


def admissible_component(base: GeneralizedPermutation,
                         limit: int = DEFAULT_BUDGET) -> RauzyClass:
    """The closure of ``base`` under the arrows whose winner occurs in both
    rows (see :func:`~rvq.homology.arrow_factor`), which holds every closed
    admissible walk at the base.  Past ``limit`` vertices it raises
    BudgetExceeded."""
    order = letters(base, minus=True)

    def admissible(gp, kind):
        arrow = apply_arrow(gp, kind)
        arrow_factor(arrow, order)
        return arrow

    return enumerate_class(base, limit, arrow=admissible)


def cycle_matrices(rc: RauzyClass, walks: Sequence[str], *,
                   minus: bool = False) -> list[Matrix]:
    """The matrices of closed forward walks at vertex 0 of ``rc``: those of
    ``kz_walk`` on a labeled class, or with ``minus`` those of
    ``kz_walk(..., minus=True)`` on the base's :func:`admissible_component`.

    Each walk of 't' and 'b' steps is followed on the class's arrow table,
    one row operation per step, with each arrow's factor computed once from
    its move.  A target other than the one the table names, and a walk that
    leaves the class or does not end at vertex 0, raise OpenWalk; a minus
    walk through an arrow with a duplicate winner raises DuplicateWinner; a
    class with reduced labels raises ValueError.
    """
    if rc.reduced_labels:
        raise ValueError("cycle matrices need a class with labeled vertices")
    base = rc.vertices[0]
    order = letters(base, minus)
    arrows: dict[tuple[int, str], tuple[int, tuple]] = {}

    def follow(i, kind, walk):
        if (i, kind) not in arrows:
            if kind not in (TOP, BOTTOM):
                raise ValueError("cycle %r has the step %r, not a forward "
                                 "arrow" % (walk, kind))
            j = rc.step(i, kind)
            if j is None:
                raise OpenWalk("cycle %r leaves the class at vertex %d"
                               % (walk, i))
            arrow = apply_arrow(rc.vertices[i], kind)
            if arrow.target != rc.vertices[j]:
                raise OpenWalk("the class's %s-arrow from vertex %d does not "
                               "lead to vertex %d" % (kind, i, j))
            arrows[i, kind] = j, arrow_factor(arrow, order)
        return arrows[i, kind]

    ident = linalg.identity(len(order))
    mats = []
    for walk in walks:
        mat = [list(row) for row in ident]
        i = 0
        for kind in walk:
            i, factor = follow(i, kind, walk)
            if factor:
                _factor(mat, *factor, False)
        if i != 0:
            raise OpenWalk("cycle %r does not close up" % walk)
        mats.append(tuple(tuple(row) for row in mat))
    return mats


def harvest(rc: RauzyClass, *, cycles: int, maxlen: int, seed: int,
            minus: bool) -> tuple[Iterator[Matrix], bool]:
    """The :func:`cycle_matrices` of one cycle per arrow at the base of ``rc``
    for at most ``4 * cycles`` arrows, built as they are read (bad input
    raises then; :func:`image_modp`'s refusals cost none), and
    whether they generate all closed walks at the base, as they do, with
    their inverses, when they cover every arrow of a complete class.  If they
    miss one, ``cycles`` random directed cycles of length at most ``maxlen``
    from ``seed`` join them; ``cycles`` below 1 raises ValueError."""
    if cycles < 1:
        raise ValueError("cycles must be at least 1, got %r" % (cycles,))
    covered = rc.arrow_count() <= 4 * cycles

    def matrices():
        walks = arrow_cycles(rc, cap=4 * cycles)
        if not covered:
            walks += random_directed_cycles(rc, count=cycles, maxlen=maxlen,
                                            seed=seed)
        yield from cycle_matrices(rc, walks, minus=minus)
    return matrices(), covered and rc.complete


def image_quotient(base: GeneralizedPermutation, *,
                   minus: bool = False) -> QuotientData:
    """The :func:`~rvq.homology.quotient_data` a mod-p image at ``base``
    acts on.  CriterionInapplicable refuses, with ``minus``, a stratum outside
    the paper's scope (:attr:`~rvq.strata.StratumSignature.minus_eligible`),
    then a both-rows form of rank other than 2g; last, genus 0."""
    if minus:
        sig = stratum_signature(base, cross_check=False)
        if not sig.minus_eligible:
            raise CriterionInapplicable(
                "%s: the minus group needs exactly two singularities of odd "
                "order" % base.encode())
    qd = quotient_data(base, minus=minus)
    if minus and len(qd.reduced_form) != 2 * sig.genus:
        raise CriterionInapplicable(
            "%s: the form on the both-rows letters has rank %d, not 2g = %d"
            % (base.encode(), len(qd.reduced_form), 2 * sig.genus))
    if not qd.reduced_form:
        raise CriterionInapplicable("%s has genus 0: no group" % base.encode())
    return qd


def image_modp(base: GeneralizedPermutation, matrices: Iterable[Matrix],
               p: int, *, minus: bool = False) -> ClosureResult:
    """The mod-p image of the group that cycle matrices at ``base`` span, on
    the quotient of the intersection form on ``letters(base, minus)``, with
    no class.  Every matrix is checked exactly and pushed down (the basis
    change is integral, so matrices equal mod p stay equal mod p), and
    :func:`modp_closure` keeps one per residue.  ``exact`` stays False: only
    the matrices' source knows.  :func:`image_quotient`'s refusals, then
    :func:`modp_closure`'s (a non-prime raises ValueError), come before any
    matrix is read; one off the form raises NotOmegaPreserving."""
    qd = image_quotient(base, minus=minus)
    return modp_closure((quotient_action(m, qd) for m in matrices), p,
                        qd.reduced_form)


def rauzy_veech_group_modp(base: GeneralizedPermutation, rc: RauzyClass,
                           p: int = 2, *, cycles: int = 200, maxlen: int = 60,
                           seed: int = 0, minus: bool = False) -> ClosureResult:
    """:func:`image_modp` of the :func:`harvest` of the labeled class ``rc``
    at ``base`` (else OpenWalk), ``exact`` when it generates.  With ``minus``,
    ``rc`` is the :func:`admissible_component`, whose image is a subgroup of
    the minus Rauzy-Veech group, so its finite index gives the latter's."""
    if rc.vertices[0] != base:
        raise OpenWalk("%s is not the base of the class" % base.encode())
    mats, generates = harvest(rc, cycles=cycles, maxlen=maxlen, seed=seed,
                              minus=minus)
    return image_modp(base, mats, p, minus=minus)._replace(exact=generates)
