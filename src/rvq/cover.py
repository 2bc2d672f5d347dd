"""Orientation double cover: cover stratum bookkeeping.

The cover is handled combinatorially: odd orders lift to single zeros of
the next even order and even orders to two zeros of half the order; the
cover genus follows from the order sum.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InconsistentGenus
from .strata import StratumSignature


class CoverStratum(NamedTuple):
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
                        genus=genus, base=sig)
