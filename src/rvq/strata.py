"""Singularity data from pure combinatorics via the turning bijection.

Each orbit of the turning bijection collects the polygon vertices glued to
one conical point; the order of that singularity is the orbit size (ignoring
the two distinguished endpoint positions) minus two.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import homology, linalg
from .errors import InconsistentGenus
from .gp import GeneralizedPermutation


def turning_map(gp: GeneralizedPermutation) -> dict[int, int]:
    """The bijection s on positions 1..l+m describing one clockwise turn."""
    ell, m = gp.ell, gp.m
    sigma = gp.sigma_table()
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


@dataclass(frozen=True)
class StratumSignature:
    """Integer orders (quadratic convention), sorted descending."""
    orders: tuple[int, ...]
    genus: int

    @property
    def marked_points(self) -> int:
        return sum(1 for o in self.orders if o == 0)

    @property
    def all_even(self) -> bool:
        return all(o % 2 == 0 for o in self.orders)

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
