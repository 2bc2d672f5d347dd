"""Mod-p images of the groups generated along induction cycles, and the
harvest of those cycles.

The order of a mod-p image is read off the orbit of a transvection among the
generators when that orbit names the group (:func:`_certified_order`);
otherwise deterministic Schreier-Sims on the generators themselves, matrices
mod p acting on row vectors with base vectors from e_1...e_n, computes it.
Either way it is exact, and it is checked to divide the order of the full
symplectic group; the quotient is reported as the mod-p index.
``base_length`` counts the base vectors of the Schreier-Sims stabilizer
chain, and is 0 when none was built.
"""

from __future__ import annotations

import math
import operator
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
    """The mod-p image; ``base_length`` is the number of base vectors of its
    stabilizer chain, 0 when no chain was built: when
    :func:`_certified_order` gave the order, or the image is trivial.
    ``exact`` is set when the order is that of the image of the group of all
    closed walks at the base, not a lower bound (see
    :func:`rauzy_veech_group_modp`)."""

    order: int
    index: int
    genus: int
    p: int
    generators_used: int
    base_length: int
    exact: bool = False


def modp_closure(generators: Iterable[Matrix], p: int,
                 form: Matrix) -> ClosureResult:
    """Order and index of the subgroup of Sp(form, F_p) the generators span,
    by :func:`_closure`, after :func:`_form_mod`'s checks and then one per new
    residue mod p: one off the form raises NonSymplecticGenerator."""
    fp = _form_mod(form, p)
    gens: dict[Matrix, None] = {}
    for mat in generators:
        mg = linalg.mat_mod(mat, p)
        if mg not in gens and not linalg.preserves_form(mg, fp, p):
            raise NonSymplecticGenerator(
                "generator does not preserve the form")
        gens[mg] = None
    return _closure(gens, p, fp)


def _form_mod(form: Matrix, p: int) -> Matrix:
    """``form`` mod p; ValueError unless p is a prime and the form has even
    size, NonSymplecticGenerator unless it is non-degenerate mod p."""
    _require_prime(p)
    if len(form) % 2:
        raise ValueError("form must have even size")
    if linalg.det(form) % p == 0:
        raise NonSymplecticGenerator("form is degenerate mod %d" % p)
    return linalg.mat_mod(form, p)


def _closure(residues: Iterable[Matrix], p: int, fp: Matrix) -> ClosureResult:
    """The image of ``residues``, matrices mod p checked to preserve ``fp``,
    one kept per residue; its order is :func:`_certified_order`'s, else that
    of Schreier-Sims, which stores only the chain's transversals."""
    gens = list(dict.fromkeys(residues))
    g = len(fp) // 2
    total = sp_order(g, p)
    order = _certified_order(gens, fp, p)
    levels: list[_Level] = []
    if order is None:
        levels = _schreier_sims(gens, p, total)
        order = math.prod(len(level.orbit) for level in levels)
    if total % order:
        raise NonDividingOrder(
            "order %d does not divide |Sp(%d, F_%d)| = %d"
            % (order, 2 * g, p, total))
    return ClosureResult(order=order, index=total // order, genus=g, p=p,
                         generators_used=len(gens), base_length=len(levels))


def _mod2_orders(g: int) -> list[tuple[int, int]]:
    """(number of transvections, order) of each irreducible subgroup of
    Sp(2g, F_2) generated by transvections: Sp(2g, F_2), O^+(2g, F_2),
    O^-(2g, F_2), S_{2g+1} and S_{2g+2}.  Their transvection vectors are the
    nonzero vectors, the vectors where the quadratic form is 1, and the
    transpositions.  Where two sizes coincide, so do the orders: S_3 =
    Sp(2, F_2) = O^-(2, F_2), S_5 = O^-(4, F_2), S_6 = Sp(4, F_2) and
    S_8 = O^+(6, F_2).  At g = 1 only the size 3 can occur: O^+(2, F_2)
    has one transvection, and S_4 acts on F_2^2 through S_3."""
    half = 2 ** (g - 1)
    rest = math.prod(4 ** i - 1 for i in range(1, g))
    return [(4 * half * half - 1, sp_order(g, 2))] + [
        (2 * half * half - eps * half,
         2 * 2 ** (g * g - g) * (2 * half - eps) * rest) for eps in (1, -1)
    ] + [(math.comb(m, 2), math.factorial(m)) for m in (2 * g + 1, 2 * g + 2)]


def _certified_order(gens: Sequence[Matrix], form: Matrix,
                     p: int) -> Optional[int]:
    """The order of the group G that ``gens`` generate, named by the orbit
    of one transvection among them, or None.

    ``gens`` are reduced mod the prime p and preserve ``form``, alternating
    and non-degenerate mod p; a row vector v goes to v·M.  A generator with
    rank(M - I) = 1 is a transvection v -> v + c·ω(v, a)·a, and its
    conjugate by h is the transvection along a·h, so G holds a transvection
    along every line of the orbit O of the line through a.  The order is:

    * |Sp(2g, F_p)| when O is every line of F_p^2g, at any p.  F_p is a
      prime field, so the powers of a transvection along a are every
      transvection along a; G holds them all, and they generate
      Sp(2g, F_p) (E. Artin, Geometric Algebra, 1957, ch. III).
    * the order :func:`_mod2_orders` gives for |O|, when p = 2, O spans and
      its ω-graph (an edge where ω(a, b) = 1) is connected.  Then the group
      N that the transvections along O generate is irreducible: a nonzero
      N-invariant subspace W holds some a in O, as O spans, ω is
      non-degenerate and T_a(w) = w + a when ω(w, a) = 1; and with a, every
      neighbour b of a, as T_b(a) = a + b.  McLaughlin (Some subgroups of
      SL_n(F_2), Illinois J. Math. 13, 1969): an irreducible subgroup of
      SL(n, F_2) generated by transvections is SL(n, F_2), Sp(n, F_2),
      O^±(n, F_2), or S_{n+1} or S_{n+2} on the heart of its permutation
      module.  In N ⊆ Sp(2g, F_2) these are the groups of
      :func:`_mod2_orders`, whose transvections make one conjugacy class,
      so O is all of N's and |O| names N.  N is normal in G, and each
      listed group is self-normalizing in Sp(2g, F_2): O^ε fixes one of the
      quadratic forms polarizing to ω, and S_m for m ≠ 6 has only inner
      automorphisms and a centralizer of scalars, 1 over F_2, while S_6 =
      Sp(4, F_2).  So G = N.

    None otherwise: no generator is a transvection, or, at p = 2, O does
    not span, its ω-graph is disconnected, or no listed group has |O|
    transvections.  At odd p only the full orbit certifies: an early stop
    after McLaughlin (Some groups generated by transvections, Arch. Math.
    18, 1967) is not used, as its hypotheses are not pinned here.
    """
    n = len(form)
    a = next(filter(None, (_transvection_line(m, p) for m in gens)), None)
    if a is None:
        return None
    if p == 2:
        start, moves = _bits(a), list(map(_mod2_images, gens))
        step = list.__getitem__
    else:
        inverse = [0] + [pow(x, -1, p) for x in range(1, p)]
        start, moves = a, [list(zip(*m)) for m in gens]

        def step(columns, v):
            w = _times(v, columns, p)
            lead = inverse[next(filter(None, w))]
            return tuple(x * lead % p for x in w)
    lines = (p ** n - 1) // (p - 1)
    orbit, seen = [start], {start}
    for v in orbit:
        for move in moves:
            w = step(move, v)
            if w not in seen:
                seen.add(w)
                orbit.append(w)
                if len(orbit) == lines:
                    return sp_order(n // 2, p)
    if p != 2 or not _spans_connected(orbit, form):
        return None
    orders = {order for size, order in _mod2_orders(n // 2)
              if size == len(orbit)}
    return orders.pop() if len(orders) == 1 else None


def _transvection_line(m: Matrix, p: int) -> Optional[tuple[int, ...]]:
    """The line of m - I when it has rank 1 mod p, as the vector on it with
    first nonzero coordinate 1; else None."""
    rows = [[(x - (i == j)) % p for j, x in enumerate(row)]
            for i, row in enumerate(m)]
    nonzero = [row for row in rows if any(row)]
    if not nonzero:
        return None
    k = next(j for j, x in enumerate(nonzero[0]) if x)
    lead = pow(nonzero[0][k], -1, p)
    a = tuple(x * lead % p for x in nonzero[0])
    if any((x - row[k] * y) % p for row in nonzero for x, y in zip(row, a)):
        return None
    return a


def _bits(v: Sequence[int]) -> int:
    """A vector over F_2 as a bit mask, coordinate j at bit j."""
    return sum((x & 1) << j for j, x in enumerate(v))


def _mod2_images(m: Matrix) -> list[int]:
    """The bit mask of v·m over F_2 for every vector v, indexed by the bit
    mask of v."""
    images = [0]
    for row in m:
        r = _bits(row)
        images += [x ^ r for x in images]
    return images


def _spans_connected(vectors: Sequence[int], form: Matrix) -> bool:
    """Whether the bit masks ``vectors`` span F_2^n and their ω-graph, an
    edge where v·form·wᵀ is odd, is connected."""
    basis: list[int] = []
    for x in vectors:
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
    if len(basis) < len(form):
        return False
    paired = _mod2_images(form)
    todo, left = [vectors[0]], set(vectors[1:])
    while todo:
        v = paired[todo.pop()]
        near = [w for w in left if bin(v & w).count("1") & 1]
        left.difference_update(near)
        todo += near
    return not left


def _times(v: Sequence[int], columns: Sequence[Sequence[int]],
           p: int) -> tuple[int, ...]:
    """v·M mod p, for the matrix M with these columns."""
    return tuple([sum(map(operator.mul, v, col)) % p for col in columns])


def _mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    """a·b mod p."""
    columns = tuple(zip(*b))
    return tuple(_times(row, columns, p) for row in a)


def _inverse(m: Matrix, p: int) -> Matrix:
    """The inverse mod p of m, by Gauss-Jordan elimination on [m | I].  Each
    matrix of the chain preserves a form that is non-degenerate mod p, so it
    is invertible."""
    n = len(m)
    rows = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(m)]
    for c in range(n):
        r = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[r] = rows[r], rows[c]
        lead = pow(rows[c][c], -1, p)
        rows[c] = [x * lead % p for x in rows[c]]
        for i, row in enumerate(rows):
            if i != c and row[c]:
                rows[i] = [(x - row[c] * y) % p for x, y in zip(row, rows[c])]
    return tuple(tuple(row[n:]) for row in rows)


class _Level:
    """One level of a stabilizer chain of matrices mod p acting on row
    vectors, v -> v·M.

    ``gens`` generate the level's group, which fixes the base vectors of the
    levels above; ``orbit`` is the orbit of the level's base vector e_k,
    ``orbit[0]``, under them, and ``u[x]`` is a transversal element taking
    e_k to x.  Its inverse is formed by :meth:`inverse` the first time a
    sift or a Schreier generator reads it, and kept in ``uinv``.  The image
    of e_k under a matrix is its row k.
    The Schreier generators from ``orbit[:done[j]]`` and ``gens[j]`` are
    known to lie in the levels below.
    """

    __slots__ = ("k", "gens", "done", "orbit", "u", "uinv")

    def __init__(self, k: int, identity: Matrix):
        self.k = k
        self.gens: list[Matrix] = []
        self.done: list[int] = []
        self.orbit = [identity[k]]
        self.u = {identity[k]: identity}
        self.uinv = {identity[k]: identity}

    def add(self, s: Matrix, p: int) -> None:
        """Add a generator and extend the orbit and the transversal."""
        self.gens.append(s)
        self.done.append(0)
        orbit, u = self.orbit, self.u
        columns = [tuple(zip(*t)) for t in self.gens]
        old = len(orbit)
        for pos, x in enumerate(orbit):
            pairs = (zip(self.gens, columns) if pos >= old
                     else ((s, columns[-1]),))
            for t, tcols in pairs:
                y = _times(x, tcols, p)
                if y not in u:
                    u[y] = _mul(u[x], t, p)
                    orbit.append(y)

    def inverse(self, y: tuple[int, ...], p: int) -> Matrix:
        """The inverse mod p of ``u[y]``, formed on first use."""
        inv = self.uinv.get(y)
        if inv is None:
            inv = self.uinv[y] = _inverse(self.u[y], p)
        return inv


def _sift(levels: list[_Level], x: Matrix, start: int, p: int
          ) -> tuple[Matrix, int]:
    """Strip x through ``levels[start:]``: the residue and the level where it
    left the chain (``len(levels)`` when it passed every level)."""
    for i in range(start, len(levels)):
        level = levels[i]
        y = x[level.k]
        if y not in level.u:
            return x, i
        x = _mul(x, level.inverse(y, p), p)
    return x, len(levels)


def _add_strong_generator(levels: list[_Level], h: Matrix, first: int,
                          last: int, identity: Matrix, p: int) -> None:
    """Add h, which fixes the base vectors above ``last``, to
    ``levels[first:last + 1]``; a new level gets the first e_k h moves."""
    if last == len(levels):
        k = next(k for k, row in enumerate(h) if row != identity[k])
        levels.append(_Level(k, identity))
    for level in levels[first:last + 1]:
        level.add(h, p)


def _schreier_residue(levels: list[_Level], i: int, identity: Matrix,
                      p: int) -> Optional[tuple[Matrix, int]]:
    """Sift the untested Schreier generators of level i through the levels
    below it: the first residue that is not the identity, with the level it
    left the chain at, or None when every one of them sifts to the identity."""
    level = levels[i]
    orbit, done, u = level.orbit, level.done, level.u
    for j, s in enumerate(level.gens):
        while done[j] < len(orbit):
            x = orbit[done[j]]
            done[j] += 1
            t = _mul(u[x], s, p)
            y = t[level.k]
            if t != u[y]:
                h, out = _sift(levels, _mul(t, level.inverse(y, p), p),
                               i + 1, p)
                if out < len(levels) or h != identity:
                    return h, out
    return None


def _schreier_sims(mats: Sequence[Matrix], p: int,
                   known: int) -> list[_Level]:
    """A stabilizer chain of the group that the matrices, with entries in
    0..p-1, generate mod p on row vectors, with base vectors from e_1...e_n.

    Each matrix is sifted through the chain built so far and dropped if it
    sifts to the identity; otherwise its residue joins the chain and every
    untested Schreier generator, at every level, is sifted until none is left.
    The product of the orbit lengths is always a lower bound on the order, so
    the chain is returned as soon as it reaches ``known``, an upper bound.
    """
    identity = linalg.identity(len(mats[0]) if mats else 0)
    levels: list[_Level] = []

    def reached():
        return math.prod(len(level.orbit) for level in levels) >= known

    for x in mats:
        h, i = _sift(levels, x, 0, p)
        if i == len(levels) and h == identity:
            continue
        _add_strong_generator(levels, h, 0, i, identity, p)
        if reached():
            return levels
        while i >= 0:
            found = _schreier_residue(levels, i, identity, p)
            if found is None:
                i -= 1
                continue
            h, j = found
            _add_strong_generator(levels, h, i + 1, j, identity, p)
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
    path home. These generate everything the directed cycles can reach.

    The out-tree arrow into a vertex i and the in-tree arrow out of i both
    give the walk path_from_base(i) + path_to_base(i), so each vertex other
    than the base repeats one walk (:func:`harvest` walks it once)."""
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
    from ``seed`` join them; ``cycles`` below 1 raises ValueError.

    Each distinct walk is walked once, at its first place.  The out-tree
    arrow into a vertex i and the in-tree arrow out of i close up along the
    same walk, path_from_base(i) + path_to_base(i), so the 2V arrow cycles
    of a complete class of V vertices hold V + 1 distinct walks (217 of 420
    over the seven cases of the ``group`` benchmark).  A repeated walk is
    the same matrix, which :func:`_closure` would drop as a repeated
    residue, so the closure gets the same generators in the same order."""
    if cycles < 1:
        raise ValueError("cycles must be at least 1, got %r" % (cycles,))
    covered = rc.arrow_count() <= 4 * cycles

    def matrices():
        walks = arrow_cycles(rc, cap=4 * cycles)
        if not covered:
            walks += random_directed_cycles(rc, count=cycles, maxlen=maxlen,
                                            seed=seed)
        yield from cycle_matrices(rc, list(dict.fromkeys(walks)),
                                  minus=minus)
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
    no class.  :func:`image_quotient`'s refusals, then :func:`_form_mod`'s,
    come before any matrix is read.  Each matrix, a repeated residue too, is
    checked exactly and pushed down by :func:`~rvq.homology.quotient_action`
    (else NotOmegaPreserving), and :func:`_closure` keeps one push-down per
    residue mod p.  None is checked again mod p: for the quotient basis U,
    M·Ω·Mᵀ = Ω, U·M·U⁻¹ = [[A, B], [0, D]] and U·Ω·Uᵀ = [[R, 0], [0, 0]] give
    A·R·Aᵀ = R over Z, so mod every p.  ``exact`` stays False."""
    qd = image_quotient(base, minus=minus)
    fp = _form_mod(qd.reduced_form, p)
    return _closure((linalg.mat_mod(quotient_action(m, qd), p)
                     for m in matrices), p, fp)


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
