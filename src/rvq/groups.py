"""Mod-p closure of the matrix groups generated along induction cycles,
plus walk machinery: completeness counts, self-overlap-free complete cycles,
and decomposition of mixed cycles into directed ones.

Closures are computed over F_p with memoized row-times-generator tables, so
the dominant cost is hashing p^n-bounded row tuples. Only lower-bound
certificates are produced: the measured image order divides the full
symplectic group order, and the quotient is reported as the mod-p index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from . import linalg
from .errors import (BudgetExceeded, MoveUndefined, NonDividingOrder,
                     NonSymplecticGenerator)
from .gp import GeneralizedPermutation
from .homology import (QuotientData, kz_minus_walk, kz_walk, minus_form,
                       quotient_action, quotient_data)
from .induction import RauzyClass, TOP, BOTTOM
from .linalg import Matrix


def sp_order(g: int, p: int) -> int:
    """Order of the symplectic group of rank g over the field with p elements."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    n = p ** (g * g)
    for i in range(1, g + 1):
        n *= p ** (2 * i) - 1
    return n


# ---------------------------------------------------------------------------
# closures over F_p
# ---------------------------------------------------------------------------

def _vec_mat_mod(v, m, p):
    n = len(m[0])
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) % p
                 for j in range(n))


@dataclass(frozen=True)
class ClosureResult:
    order: int
    index: int
    genus: int
    p: int
    generators_used: int


def modp_closure(generators: Sequence[Matrix], p: int, form: Matrix,
                 budget: int = 10_000_000) -> ClosureResult:
    """Order and index of the subgroup of Sp(form, F_p) the generators span.

    ``form`` must be non-degenerate mod p (pass the halved minus form for the
    double-cover case). The closure is a plain breadth-first multiplication
    sweep; a finite monoid of invertible matrices is already a group, so
    multiplying by the generators only is enough.
    """
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
        if linalg.mat_mod(
                linalg.mul(linalg.mul(mg, fp), linalg.transpose(mg)), p) != fp:
            raise NonSymplecticGenerator("generator does not preserve the form")
        if mg not in seen_g:
            seen_g.add(mg)
            gens.append(mg)

    identity = linalg.mat_mod(linalg.identity(n), p)
    seen = {identity}

    def close(active):
        # closure under right multiplication; restart from everything known
        tables = {id(gen): {} for gen in active}
        frontier = list(seen)
        while frontier:
            new = []
            for mat in frontier:
                for gen in active:
                    table = tables[id(gen)]
                    rows = []
                    for row in mat:
                        out = table.get(row)
                        if out is None:
                            out = _vec_mat_mod(row, gen, p)
                            table[row] = out
                        rows.append(out)
                    prod = tuple(rows)
                    if prod not in seen:
                        if len(seen) >= budget:
                            raise BudgetExceeded(
                                "closure budget of %d elements hit" % budget)
                        seen.add(prod)
                        new.append(prod)
            frontier = new

    # absorb generators a few at a time: ones already inside cost nothing
    active: list = []
    pending = list(gens)
    while True:
        missing = [gmat for gmat in pending if gmat not in seen]
        if not missing:
            break
        take = missing[:6]
        pending = [gmat for gmat in missing if gmat not in take]
        active += take
        close(active)

    order = len(seen)
    total = sp_order(g, p)
    if total % order:
        raise NonDividingOrder(
            "order %d does not divide |Sp(%d, F_%d)| = %d"
            % (order, 2 * g, p, total))
    return ClosureResult(order=order, index=total // order, genus=g, p=p,
                         generators_used=len(gens))


# ---------------------------------------------------------------------------
# cycle harvesting
# ---------------------------------------------------------------------------

def random_directed_cycles(rc: RauzyClass, *, count: int = 200,
                           maxlen: int = 60, seed: int = 0) -> list[str]:
    """Random forward walks from the base closed up through the return tree."""
    rng = random.Random(seed)
    cycles = []
    seen = set()
    for _ in range(count * 4):
        if len(cycles) >= count:
            break
        cur = 0
        steps = []
        length = rng.randint(1, max(1, maxlen - len(rc.path_to_base(0))))
        for _ in range(length):
            options = []
            if rc.t_target[cur] is not None:
                options.append((TOP, rc.t_target[cur]))
            if rc.b_target[cur] is not None:
                options.append((BOTTOM, rc.b_target[cur]))
            kind, cur = rng.choice(options)
            steps.append(kind)
        walk = "".join(steps) + rc.path_to_base(cur)
        if walk and walk not in seen and len(walk) <= maxlen:
            seen.add(walk)
            cycles.append(walk)
    return cycles


def arrow_cycles(rc: RauzyClass, *, cap: Optional[int] = None) -> list[str]:
    """One base cycle through every arrow: out-tree path, the arrow, in-tree
    path home. These generate everything the directed cycles can reach."""
    cycles = []
    for i, kind, j, _ in rc.arrows():
        cycles.append(rc.path_from_base(i) + kind + rc.path_to_base(j))
        if cap is not None and len(cycles) >= cap:
            break
    return cycles


def plus_generators_modp(base: GeneralizedPermutation, cycles: Sequence[str],
                         p: int, data: Optional[QuotientData] = None
                         ) -> tuple[list[Matrix], Matrix]:
    """Reduce cycle matrices to the quotient and mod p; returns (gens, form)."""
    qd = data if data is not None else quotient_data(base)
    return _quotient_generators(base, cycles, p, qd, kz_walk)


def minus_generators_modp(base: GeneralizedPermutation, cycles: Sequence[str],
                          p: int) -> tuple[list[Matrix], Matrix]:
    """Minus-side analogue; the halved form is returned for mod-p use."""
    tb = base.both_rows_letters()
    full = minus_form(base, tb)
    halved = tuple(tuple(x // 2 for x in row) for row in full)
    qd = quotient_data(base, order=tb, form=halved)
    return _quotient_generators(base, cycles, p, qd,
                                lambda b, w: kz_minus_walk(b, w, order=tb))


def _quotient_generators(base, cycles, p, qd, walk_matrix):
    """Cycle matrices pushed to the quotient of ``qd``, distinct mod p."""
    gens = []
    seen = set()
    for walk in cycles:
        mat, end = walk_matrix(base, walk)
        assert end == base, "cycle does not close up"
        red, _ = quotient_action(base, mat, data=qd)
        key = linalg.mat_mod(red, p)
        if key not in seen:
            seen.add(key)
            gens.append(red)
    return gens, qd.reduced_form


def rauzy_veech_group_modp(base: GeneralizedPermutation, rc: RauzyClass,
                           p: int = 2, *, cycles: int = 200, maxlen: int = 60,
                           seed: int = 0, minus: bool = False,
                           budget: int = 10_000_000,
                           include_arrow_cycles: bool = True) -> ClosureResult:
    """Harvest cycles at the base vertex and close their matrices mod p."""
    walks = random_directed_cycles(rc, count=cycles, maxlen=maxlen, seed=seed)
    if include_arrow_cycles:
        walks = arrow_cycles(rc, cap=4 * cycles) + walks
    if minus:
        walks = [w for w in walks if _admissible(base, rc, w)]
        gens, form = minus_generators_modp(base, walks, p)
    else:
        gens, form = plus_generators_modp(base, walks, p)
    return modp_closure(gens, p, form, budget)


def _admissible(base: GeneralizedPermutation, rc: RauzyClass, walk: str) -> bool:
    """No type-changing arrow anywhere along the walk."""
    cur = rc.index_of(base)
    for step in walk:
        tgt = rc.t_target[cur] if step == TOP else rc.b_target[cur]
        if tgt is None:
            return False
        if len(rc.vertices[tgt].top) != len(rc.vertices[cur].top):
            return False
        cur = tgt
    return True


# ---------------------------------------------------------------------------
# completeness and decomposition
# ---------------------------------------------------------------------------

def k_completeness(base: GeneralizedPermutation, walk: str) -> int:
    """Minimum number of wins over all letters along a directed walk."""
    wins = {x: 0 for x in base.alphabet}
    cur = base
    from .induction import apply_arrow
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
    verts = [0]
    cur = 0
    for step in walk:
        cur = rc.t_target[cur] if step == TOP else rc.b_target[cur]
        verts.append(cur)
    for size in range(1, n):
        if walk[:size] == walk[n - size:] and verts[n - size] == 0:
            return True
    return False


def find_gamma_star(base: GeneralizedPermutation, rc: RauzyClass, k: int,
                    *, budget: int = 10_000) -> str:
    """A k-complete directed cycle at the base with no nontrivial self-overlap."""
    from collections import deque

    def arrows_out(i):
        out = []
        if rc.t_target[i] is not None:
            out.append((TOP, rc.t_target[i], rc.t_winner[i]))
        if rc.b_target[i] is not None:
            out.append((BOTTOM, rc.b_target[i], rc.b_winner[i]))
        return out

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
    steps_left = budget
    while min(wins.values()) < k:
        letter = min((x for x in wins if wins[x] < k), key=str)
        segment, cur = path_to_win(cur, letter)
        walk += segment
        # recount wins along the appended segment
        wins = {x: 0 for x in base.alphabet}
        probe = 0
        for step in walk:
            winner = rc.t_winner[probe] if step == TOP else rc.b_winner[probe]
            probe = rc.t_target[probe] if step == TOP else rc.b_target[probe]
            wins[winner] += 1
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
    # vertex trajectory
    verts = [rc.index_of(base)]
    assert verts[0] is not None, "walk must start inside the class"
    cur = verts[0]
    dirs = []
    for step in walk:
        if step in (TOP, BOTTOM):
            cur = (rc.t_target if step == TOP else rc.b_target)[cur]
            assert cur is not None, "walk leaves the class"
            dirs.append(+1)
        else:
            rev = rc.reverse_table(step.lower())
            cur = rev[cur]
            dirs.append(-1)
        verts.append(cur)
    assert verts[-1] == verts[0], "decomposition needs a closed walk"
    if verts[0] != 0:
        raise ValueError("walk must be based at the class base vertex")

    pieces: list[DecompositionPiece] = []
    i = 0
    n = len(walk)
    while i < n:
        j = i
        while j < n and dirs[j] == dirs[i]:
            j += 1
        seg = walk[i:j]
        if dirs[i] > 0:
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
        assert end == base
        if piece.sign < 0:
            m = linalg.invert_integer(m)
        mat = linalg.mul(m, mat)
    return mat
