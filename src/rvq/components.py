"""Canonical representatives, hyperellipticity detection, component
identification and the check of the extension table.

Abelian components are named by the Kontsevich-Zorich invariants: the
stratum, hyperellipticity (membership in the small Rauzy class of tau_sym)
and the spin parity.  Quadratic components have no such invariant here, so
a quadratic permutation is named only when its normal form is found in the
enumerated class of a trusted representative; otherwise it stays "unknown".
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple, Optional

from .errors import OutOfRange, RVQError, UnknownLabel
from .extensions import is_simple_extension
from .gp import (GeneralizedPermutation, erase_letters, is_irreducible,
                 parse_gp, require_suspendable)
from .induction import DEFAULT_BUDGET, load_or_enumerate
from .strata import StratumSignature, _arf_invariant, stratum_signature

UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# canonical representative families
# ---------------------------------------------------------------------------

def tau_sym(d: int) -> GeneralizedPermutation:
    """Symmetric permutation on d letters (hyperelliptic representative)."""
    if d < 2:
        raise OutOfRange("tau_sym needs d >= 2")
    letters = tuple(str(i) for i in range(d))
    return GeneralizedPermutation(letters, tuple(reversed(letters)))


def tau_zorich(g: int) -> GeneralizedPermutation:
    """Single-cylinder representative of the odd component of the minimal
    stratum in genus g."""
    if g < 3:
        raise OutOfRange("tau_zorich needs g >= 3")
    top = ["0", "1"]
    bottom = []
    for k in range(1, g):
        top += [str(3 * k - 1), str(3 * k)]
        bottom += [str(3 * k), str(3 * k - 1)]
    bottom += ["1", "0"]
    return GeneralizedPermutation(tuple(top), tuple(bottom))


def sigma_zorich(g: int) -> GeneralizedPermutation:
    """Single-cylinder representative of the even component of the minimal
    stratum in genus g."""
    if g < 4:
        raise OutOfRange("sigma_zorich needs g >= 4")
    top = ["0", "1"]
    for k in range(1, g):
        top += [str(3 * k - 1), str(3 * k)]
    bottom = ["6", "5", "3", "2"]
    for k in range(3, g):
        bottom += [str(3 * k), str(3 * k - 1)]
    bottom += ["1", "0"]
    return GeneralizedPermutation(tuple(top), tuple(bottom))


def sigma_hyp(s: int, r: int) -> GeneralizedPermutation:
    """Hyperelliptic quadratic representative with interleaved duplicates."""
    if s < 0 or r < 0 or s + r < 1:
        raise OutOfRange("sigma_hyp needs s, r >= 0 and s + r >= 1")
    if r % 2 == 0 and s + r < 2:
        raise OutOfRange("sigma_hyp(%d, %d) has genus 0" % (s, r))
    top = ["0", "A"] + [str(i) for i in range(1, s + 1)] + ["A"] \
        + [str(i) for i in range(s + 1, s + r + 1)]
    bottom = [str(i) for i in range(s + r, s, -1)] + ["B"] \
        + [str(i) for i in range(s, 0, -1)] + ["B", "0"]
    return GeneralizedPermutation(tuple(top), tuple(bottom))


class Table1Row(NamedTuple):
    number: int
    start: str
    end_orders: tuple[int, ...]
    flavour: str  # reg | irr (not certified here)
    gp: GeneralizedPermutation


# the paper's Table 1, its rows numbered from 1 in this order
_TABLE1 = tuple(
    Table1Row(n, start, orders, flavour, parse_gp(text))
    for n, (start, orders, flavour, text) in enumerate((
        ("H(4)^hyp", (6, 3, -1), "reg",
         "1 2 3 A 4 A 5 6 / 6 5 4 3 2 B B 1"),
        ("H(4)^odd", (6, 3, -1), "reg",
         "1 2 3 4 A 5 A 6 / 6 4 B B 2 5 3 1"),
        ("H(4)^hyp", (6, 3, -1), "irr",
         "1 A 2 3 4 5 A 6 / 6 B B 5 4 3 2 1"),
        ("H(4)^odd", (6, 3, -1), "irr",
         "1 2 3 4 5 A A 6 / 6 B 3 B 5 2 4 1"),
        ("H(3,1)", (3, 3, 3, -1), "reg",
         "1 A A 2 3 4 5 6 7 / 7 6 B 5 2 B 4 3 1"),
        ("H(3,1)", (3, 3, 3, -1), "irr",
         "1 2 3 4 5 A 6 A 7 / 7 6 2 B B 5 4 3 1"),
        ("H(6)^even", (6, 3, 3), "reg",
         "1 2 A 3 4 5 6 7 A 8 / 8 7 5 B 2 6 B 4 3 1"),
        ("H(6)^odd", (6, 3, 3), "reg",
         "1 A 2 3 4 5 A 6 7 8 / 8 4 7 B 5 3 6 B 2 1"),
        ("H(6)^even", (6, 3, 3), "irr",
         "1 2 3 4 A 5 A 6 7 8 / 8 7 5 B 2 6 B 4 3 1"),
        ("H(6)^odd", (6, 3, 3), "irr",
         "1 2 3 4 5 6 A 7 A 8 / 8 B 5 B 3 7 4 6 2 1"),
        ("H(3,3)^nonhyp", (3, 3, 3, 3), "reg",
         "1 A 2 A 3 4 5 6 7 8 9 / 9 6 B 5 3 7 2 8 B 4 1"),
        ("H(3,3)^nonhyp", (3, 3, 3, 3), "irr",
         "1 A 2 A 3 4 5 6 7 8 9 / 9 5 2 6 4 3 B 8 B 7 1"),
    ), 1))

# explicit genus-2/3 witnesses with their start components
GENUS2_WITNESSES = (
    ("H(2)", (6, -1, -1), "1 2 3 A A 4 / 4 3 B B 2 1"),
    ("H(1,1)", (3, 3, -1, -1), "1 2 A A 3 4 5 / 5 B B 4 3 2 1"),
)
GENUS3_WITNESSES = (
    ("H(4)^hyp", (10, -1, -1), "1 A A 2 3 4 5 6 / 6 B B 5 4 3 2 1"),
    ("H(4)^hyp", (6, 1, 1), "1 A 2 3 A 4 5 6 / 6 B 5 4 B 3 2 1"),
)


def _row(n: int) -> Table1Row:
    if not 1 <= n <= len(_TABLE1):
        raise OutOfRange("table1 rows are 1..%d" % len(_TABLE1))
    return _TABLE1[n - 1]


def table1(row: int) -> GeneralizedPermutation:
    return _row(row).gp


def table1_rows() -> tuple[Table1Row, ...]:
    return _TABLE1


def canonical_rep(label: str, *args: int) -> GeneralizedPermutation:
    """Dispatch by family name: tau_sym, tau_zorich, sigma_zorich, sigma_hyp,
    table1."""
    table = {"tau_sym": tau_sym, "tau_zorich": tau_zorich,
             "sigma_zorich": sigma_zorich, "sigma_hyp": sigma_hyp,
             "table1": table1}
    if label not in table:
        raise UnknownLabel("no representative family named %r" % (label,))
    return table[label](*args)


# ---------------------------------------------------------------------------
# hyperellipticity
# ---------------------------------------------------------------------------

def _rotates_to(u, v) -> bool:
    return len(u) == len(v) and any(u[i:] + u[:i] == v for i in range(len(u)))


def hyperelliptic_test(gp: GeneralizedPermutation) -> Optional[bool]:
    """Decide the two-forms criterion for single-cylinder style permutations;
    None where it does not apply, so only False certifies.

    Applicable to a strict permutation whose first top letter equals its
    last bottom letter and whose core, without that letter, has no empty
    row.  The core is hyperelliptic when, up to independent cyclic rotations
    of its rows, it has the doubled-rows form (each row a word written
    twice) or the interleaved-duplicates form (x a x c over
    rev(c) y rev(a) y).  Both are read off the rows without rotating them:
    a rotation of a row is a word written twice exactly when the row is,
    and in the interleaved form x is the only letter twice on top, y the
    only one twice below, and the top with x renamed y is a rotation of the
    reversed bottom.  Both forms need a letter twice in one row, so a
    genuine permutation could only get False (its component is named by
    :func:`identify_component`).
    """
    if gp.is_genuine or gp.top[0] != gp.bottom[-1]:
        return None
    try:
        core = erase_letters(gp, {gp.top[0]})
    except RVQError:
        return None
    top, bottom, ell = core.top, core.bottom, core.ell
    h, k = len(top) // 2, len(bottom) // 2
    if top[:h] == top[h:] and bottom[:k] == bottom[k:]:
        return True
    x = [z for z, (i, j) in core.pairs.items() if j <= ell]  # twice on top
    y = [z for z, (i, j) in core.pairs.items() if i > ell]   # twice below
    return len(x) == len(y) == 1 and _rotates_to(
        tuple(y[0] if z == x[0] else z for z in top), bottom[::-1])


# ---------------------------------------------------------------------------
# identification
# ---------------------------------------------------------------------------

def _abelian_component(gp: GeneralizedPermutation, sig: StratumSignature,
                       budget: int) -> str:
    """Kontsevich-Zorich: hyperellipticity (membership in the reduced class
    of tau_sym(d), 2^(d-1) - 1 vertices) and spin parity tell apart the
    components of an abelian stratum without marked points."""
    orders, g = sig.abelian_orders(), sig.genus
    name = sig.abelian_str()
    if 0 in orders:
        return name if orders == (0,) else UNKNOWN
    hyp_capable = g >= 3 and orders in ((2 * g - 2,), (g - 1, g - 1))
    if hyp_capable and gp.reduced() in load_or_enumerate(
            tau_sym(gp.d), limit=budget, reduced_labels=True):
        return name + "^hyp"
    if g >= 3 and all(o % 2 == 0 for o in orders):
        return name + ("^odd" if _arf_invariant(gp) else "^even")
    return name + "^nonhyp" if hyp_capable else name


@cache
def _quadratic_registry():
    """Each quadratic stratum's orders, mapped to the (label,
    representative) pair of each component named there."""
    reg: dict[tuple[int, ...], list[tuple[str, GeneralizedPermutation]]] = {}

    def hyp_label(s, r):
        if r % 2:
            j, k = (r - 1) // 2, s // 2
            return "Q(%d,%d,%d)^hyp" % (4 * j + 2, 2 * k - 1, 2 * k - 1)
        j, k = r // 2, s // 2
        return "Q(%d,%d,%d,%d)^hyp" % (2 * j - 1, 2 * j - 1,
                                       2 * k - 1, 2 * k - 1)

    for s in range(0, 5, 2):
        for r in range(0, 6):
            if s + r < 1 or (r % 2 == 0 and s + r < 2):
                continue
            gp = sigma_hyp(s, r)
            sig = stratum_signature(gp, cross_check=False)
            reg.setdefault(sig.orders, []).append((hyp_label(s, r), gp))
    for start, orders, text in GENUS2_WITNESSES + GENUS3_WITNESSES:
        gp = parse_gp(text)
        sig = stratum_signature(gp, cross_check=False)
        label = "Q(%s)^nonhyp" % ",".join(str(o) for o in sig.orders)
        reg.setdefault(sig.orders, []).append((label, gp))
    return reg


def identify_component(gp: GeneralizedPermutation,
                       budget: int = DEFAULT_BUDGET) -> str:
    """Name the connected component of a suspendable permutation.

    A genuine permutation is named from invariants: its stratum, then in
    H(2g-2) and H(g-1,g-1) with g >= 3 hyperellipticity (membership in the
    class of tau_sym), then, when g >= 3 and every zero has even order, the
    spin parity.  H(0) is named; other strata with marked points are
    "unknown".  A quadratic permutation is named only when its normal form
    lies in the class of a trusted representative (the sigma_hyp family and
    the genus-2/3 witnesses), and is "unknown" otherwise.  ``budget`` bounds
    every class enumeration.  A permutation that is not suspendable raises
    ``NotSuspendable``.
    """
    require_suspendable(gp)
    sig = stratum_signature(gp, cross_check=False)
    if gp.is_genuine:
        return _abelian_component(gp, sig, budget)
    reduced = gp.reduced()
    for label, rep in _quadratic_registry().get(sig.orders, ()):
        if reduced in load_or_enumerate(rep, limit=budget,
                                        reduced_labels=True):
            return label
    return UNKNOWN


# ---------------------------------------------------------------------------
# extension-table verification
# ---------------------------------------------------------------------------

class RowReport(NamedTuple):
    row: Table1Row
    irreducible_ok: bool
    convention_ok: bool
    chain_ok: bool
    start_found: str
    stratum_found: tuple[int, ...]
    hyperelliptic: Optional[bool]  # None: the test does not apply

    @property
    def passed(self) -> bool:
        return (self.irreducible_ok and self.convention_ok and self.chain_ok
                and self.start_found == self.row.start
                and self.stratum_found == self.row.end_orders
                and self.hyperelliptic is False)


def verify_row(row: Table1Row, budget: int = DEFAULT_BUDGET) -> RowReport:
    """Check the chain the row names, tau = pi - {A, B} extended by B to
    mid = pi - {A} and mid by A to pi, with tau in the start component, pi
    irreducible, keeping the convention, in the row's stratum and certified
    non-hyperelliptic.  ``budget`` bounds the class enumerations that name
    the start component."""
    gp = row.gp
    mid = erase_letters(gp, {"A"})
    tau = erase_letters(mid, {"B"})
    return RowReport(
        row=row, irreducible_ok=is_irreducible(gp),
        convention_ok=gp.satisfies_convention(),
        chain_ok=(is_simple_extension(mid, tau) == "B"
                  and is_simple_extension(gp, mid) == "A"),
        start_found=identify_component(tau, budget),
        stratum_found=stratum_signature(gp).orders,
        hyperelliptic=hyperelliptic_test(gp))


def verify_extension_table(rows=None,
                           budget: int = DEFAULT_BUDGET) -> list[RowReport]:
    """Check every requested table row, in table order, after refusing any
    row outside the table; see verify_row for the criteria.

    The regular/irregular flavour is carried as data but not certified: the
    two flavours are not separated by any invariant computed here.
    """
    picked = _TABLE1 if rows is None else [_row(n) for n in sorted(set(rows))]
    return [verify_row(r, budget) for r in picked]
