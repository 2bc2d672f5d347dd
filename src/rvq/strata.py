"""Singularity data from pure combinatorics via the turning bijection.

Each orbit of the turning bijection collects the polygon vertices glued to
one conical point; the order of that singularity is the orbit size (ignoring
the two distinguished endpoint positions) minus two.  The spin parity, which
splits abelian strata whose zeros all have even order, is read off from the
intersection form mod 2.  The stratum of the orientation double cover
follows from the orders alone: odd orders lift to single zeros of the next
even order and even orders to two zeros of half the order.
"""

from __future__ import annotations

from typing import NamedTuple

from . import homology, linalg
from .errors import CriterionInapplicable, InconsistentGenus
from .gp import GeneralizedPermutation


def turning_map(gp: GeneralizedPermutation) -> dict[int, int]:
    """The bijection s on positions 1..l+m describing one clockwise turn."""
    ell, m = gp.ell, gp.m
    sigma = {}
    for i, j in gp.pairs.values():
        sigma[i], sigma[j] = j, i
    s = {}
    for k in range(2, ell + 1):
        s[k] = sigma[k - 1]
    s[1] = sigma[ell + 1]
    for k in range(ell + 1, ell + m):
        s[k] = sigma[k + 1]
    s[ell + m] = sigma[ell]
    return s


def turning_orbits(gp: GeneralizedPermutation) -> list[tuple[int, ...]]:
    """Orbit partition of the turning bijection, each orbit in cycle order
    starting from its smallest element; orbits sorted by smallest element."""
    s = turning_map(gp)
    seen: set[int] = set()
    orbits = []
    for start in range(1, gp.ell + gp.m + 1):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        k = s[start]
        while k != start:
            orbit.append(k)
            seen.add(k)
            k = s[k]
        orbits.append(tuple(orbit))
    return orbits


class StratumSignature(NamedTuple):
    """Integer orders (quadratic convention), sorted descending."""
    orders: tuple[int, ...]
    genus: int

    @property
    def all_even(self) -> bool:
        return all(o % 2 == 0 for o in self.orders)

    @property
    def minus_eligible(self) -> bool:
        """Exactly two odd orders, so the double cover has genus 2g: the
        scope of the minus theorem."""
        return sum(1 for o in self.orders if o % 2) == 2

    def abelian_orders(self) -> tuple[int, ...]:
        if not self.all_even:
            raise ValueError("odd orders present; not an orientable signature")
        return tuple(o // 2 for o in self.orders)

    def __str__(self):
        return "Q(%s)" % ",".join(str(o) for o in self.orders)

    def abelian_str(self) -> str:
        return "H(%s)" % ",".join(str(o) for o in self.abelian_orders())


def orbit_order(gp: GeneralizedPermutation, orbit: tuple[int, ...]) -> int:
    special = {1, gp.ell + gp.m}
    return len([k for k in orbit if k not in special]) - 2


def stratum_signature(gp: GeneralizedPermutation,
                      cross_check: bool = True) -> StratumSignature:
    """Orders of all conical points plus the genus they pin down.

    The genus is read off from sum(orders) = 4g - 4 and, when ``cross_check``
    is set, compared with half the rank of the intersection form.
    """
    orders = sorted((orbit_order(gp, o) for o in turning_orbits(gp)),
                    reverse=True)
    total = sum(orders)
    if total % 4 != 0:
        raise InconsistentGenus("order sum %d is not divisible by 4" % total)
    genus = total // 4 + 1
    if cross_check:
        r = linalg.rank(homology.intersection_form(gp))
        if r != 2 * genus:
            raise InconsistentGenus(
                "rank %d of the intersection form does not match genus %d"
                % (r, genus))
    return StratumSignature(tuple(orders), genus)


def spin_parity(gp: GeneralizedPermutation) -> int:
    """Parity of the spin structure (0 even, 1 odd) of a genuine permutation
    whose zeros all have even order.

    It is the Arf invariant of the quadratic form q on H_1(S; F_2) with
    q(c_x) = 1 on the curve of every letter x and
    q(u + v) = q(u) + q(v) + Omega(u, v) mod 2 (Zorich 2008): a symplectic
    basis a_i, b_i is split off the letter vectors one pair at a time, and
    the parity is the sum of q(a_i) q(b_i) mod 2.
    """
    if not gp.is_genuine or any(o % 2 for o in stratum_signature(
            gp, cross_check=False).abelian_orders()):
        raise CriterionInapplicable(
            "spin parity needs a genuine permutation with even-order zeros")
    return _arf_invariant(gp)


def _arf_invariant(gp: GeneralizedPermutation) -> int:
    """:func:`spin_parity` without its check on the stratum."""
    # row i of the form mod 2 as a bit mask over the letters
    rows = [sum(1 << j for j, x in enumerate(row) if x % 2)
            for row in homology.intersection_form(gp)]

    def pair(u, v):
        w = 0
        for i, row in enumerate(rows):
            if u >> i & 1:
                w ^= row
        return bin(w & v).count("1") & 1

    def q(u):
        value = seen = 0
        for i in range(len(rows)):
            if u >> i & 1:
                value ^= 1 ^ pair(seen, 1 << i)
                seen |= 1 << i
        return value

    pool = [1 << i for i in range(len(rows))]
    parity = 0
    while pool:
        a = pool.pop()
        b = next((v for v in pool if pair(a, v)), None)
        if b is None:
            continue  # a lies in the kernel of the form
        pool.remove(b)
        parity ^= q(a) & q(b)
        pool = [v ^ (a if pair(v, b) else 0) ^ (b if pair(v, a) else 0)
                for v in pool]
    return parity


# ---------------------------------------------------------------------------
# orientation double cover
# ---------------------------------------------------------------------------

class CoverStratum(NamedTuple):
    orders: tuple[int, ...]   # orders of zeros on the cover (0 = marked point)
    genus: int

    @property
    def marked_points(self) -> int:
        return sum(1 for o in self.orders if o == 0)

    def __str__(self):
        nonzero = [o for o in self.orders if o != 0] or [0]
        s = "H(%s)" % ",".join(str(o) for o in nonzero)
        if self.marked_points:
            s += " + %d marked" % self.marked_points
        return s


def cover_stratum(sig: StratumSignature) -> CoverStratum:
    """Stratum of the orientation double cover of the stratum ``sig``, plus
    its genus.

    Odd orders 2k-1 contribute one zero of order 2k; even orders 2k
    contribute two zeros of order k. The genus comes from
    2g~ - 2 = 4g - 4 + (number of odd orders).  Orders that do not sum to
    4g - 4 raise InconsistentGenus.
    """
    if sum(sig.orders) != 4 * sig.genus - 4:
        raise InconsistentGenus("orders %s do not sum to 4g - 4 for genus %d"
                                % (sig.orders, sig.genus))
    cover_orders: list[int] = []
    n_odd = 0
    for q in sig.orders:
        if q % 2:
            n_odd += 1
            cover_orders.append(q + 1)
        else:
            cover_orders.extend((q // 2, q // 2))
    genus = 2 * sig.genus - 1 + n_odd // 2
    return CoverStratum(orders=tuple(sorted(cover_orders, reverse=True)),
                        genus=genus)
