"""Orientation double cover: sign tables and cover stratum bookkeeping.

The cover is handled combinatorially: letters are doubled with a sign bit,
odd orders lift to single zeros of the next even order and even orders to
two zeros of half the order; the cover genus follows from the order sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ConventionViolated
from .gp import GeneralizedPermutation
from .strata import StratumSignature, stratum_signature

STAR = '*'


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

    entries = []
    for p in range(ell + m, ell, -1):
        entries.append((gp.letter(p), eps[p]))
    entries.append(STAR)
    for p in range(1, ell + 1):
        entries.append((gp.letter(p), eps[p]))
    return PermWithInvolution(entries=tuple(entries), star_index=m)


@dataclass(frozen=True)
class CoverStratum:
    orders: tuple[int, ...]   # orders of zeros on the cover (0 = marked point)
    genus: int
    base: StratumSignature

    @property
    def marked_points(self) -> int:
        return sum(1 for o in self.orders if o == 0)

    @property
    def minus_eligible(self) -> bool:
        """Exactly two odd orders downstairs, so the cover genus is 2g."""
        return sum(1 for o in self.base.orders if o % 2) == 2

    def __str__(self):
        nonzero = [o for o in self.orders if o != 0] or [0]
        s = "H(%s)" % ",".join(str(o) for o in nonzero)
        if self.marked_points:
            s += " + %d marked" % self.marked_points
        return s


def cover_stratum(gp_or_sig) -> CoverStratum:
    """Stratum of the orientation double cover plus its genus.

    Odd orders 2k-1 contribute one zero of order 2k; even orders 2k
    contribute two zeros of order k. The genus comes from
    2g~ - 2 = 4g - 4 + (number of odd orders) and is checked against the
    cover order sum.
    """
    if isinstance(gp_or_sig, GeneralizedPermutation):
        sig = stratum_signature(gp_or_sig)
    else:
        sig = gp_or_sig
    cover_orders: list[int] = []
    n_odd = 0
    for q in sig.orders:
        if q % 2:
            n_odd += 1
            cover_orders.append(q + 1)
        else:
            cover_orders.extend((q // 2, q // 2))
    assert n_odd % 2 == 0, "odd orders always come in even number"
    genus = 2 * sig.genus - 1 + n_odd // 2
    assert sum(cover_orders) == 2 * genus - 2
    return CoverStratum(orders=tuple(sorted(cover_orders, reverse=True)),
                        genus=genus, base=sig)
