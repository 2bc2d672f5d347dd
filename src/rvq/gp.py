"""Generalized permutations: two rows of letters, each letter occurring twice.

A generalized permutation of type (l, m) is stored as two tuples of letter
tokens. Positions are numbered 1..l top row, l+1..l+m bottom row, matching
the usual formulas. All values are immutable; operations are pure functions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import EmptyRow, LetterCountError, MalformedText, NotSuspendable

Letter = str


class _Frozen:
    """Refuses to set or delete an attribute: a subclass fills each of its
    slots once, through the slot's own descriptor."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class GeneralizedPermutation(_Frozen):
    """Two rows of letters, each letter occurring twice.  Equal and hashed
    by its rows; ``_pairs`` holds the letter table of :attr:`pairs` once
    built."""

    __slots__ = ("top", "bottom", "_pairs")

    def __init__(self, top: tuple[Letter, ...], bottom: tuple[Letter, ...]):
        if not top or not bottom:
            raise EmptyRow("both rows must be non-empty")
        word = top + bottom
        counts: dict[Letter, int] = {}
        for x in word:
            counts[x] = counts.get(x, 0) + 1
        if 2 * len(counts) != len(word) or max(counts.values()) != 2:
            bad = sorted(x for x, c in counts.items() if c != 2)
            raise LetterCountError(
                "letters must occur exactly twice: %s" % ", ".join(bad))
        if len(counts) < 2:
            raise LetterCountError("alphabet must contain at least 2 letters")
        # each letter must read back as itself from encode()
        bad = [x for x in counts if not isinstance(x, str)
               or x.split() != [x] or "/" in x]
        if bad:
            raise MalformedText("letters must be non-empty strings without "
                                "whitespace or '/': %r" % bad)
        _set_top(self, top)
        _set_bottom(self, bottom)
        _set_pairs(self, None)

    def __eq__(self, other):
        if other.__class__ is not GeneralizedPermutation:
            return NotImplemented
        return self.top == other.top and self.bottom == other.bottom

    def __hash__(self):
        return hash((self.top, self.bottom))

    def __repr__(self):
        return "GeneralizedPermutation(top=%r, bottom=%r)" % (self.top,
                                                              self.bottom)

    def __reduce__(self):
        return GeneralizedPermutation, (self.top, self.bottom)

    # -- basic geometry -------------------------------------------------

    @property
    def ell(self) -> int:
        return len(self.top)

    @property
    def m(self) -> int:
        return len(self.bottom)

    @property
    def d(self) -> int:
        return (len(self.top) + len(self.bottom)) // 2

    @property
    def alphabet(self) -> tuple[Letter, ...]:
        """Letters in order of first appearance, top row first."""
        return tuple(dict.fromkeys(self.top + self.bottom))

    @property
    def pairs(self) -> dict[Letter, tuple[int, int]]:
        """Every letter's two 1-based positions (i, j), i < j, in order of
        first appearance: the one letter table the both-rows, turning and
        extension queries read.  Built on first use and kept; moves,
        relabelings and class enumeration never ask for it."""
        table = self._pairs
        if table is None:
            table = letter_positions(self.top + self.bottom)
            _set_pairs(self, table)
        return table

    # -- classification --------------------------------------------------

    def both_rows_letters(self) -> tuple[Letter, ...]:
        """A_tb: letters with one occurrence in each row, in alphabet order."""
        ell = self.ell
        return tuple(x for x, (i, j) in self.pairs.items() if i <= ell < j)

    @property
    def is_genuine(self) -> bool:
        """True when there are no duplicate letters (classical permutation):
        both rows hold the same letters."""
        return set(self.top) == set(self.bottom)

    @property
    def is_strict(self) -> bool:
        return not self.is_genuine

    def satisfies_convention(self) -> bool:
        """Duplicate letters in both rows (vacuous for genuine permutations):
        :func:`validate` names no violation."""
        return not validate(self)

    # -- encoding ---------------------------------------------------------

    def encode(self) -> str:
        return "%s / %s" % (" ".join(self.top), " ".join(self.bottom))

    def __str__(self):
        return self.encode()

    def relabel(self, mapping: Mapping[Letter, Letter]) -> "GeneralizedPermutation":
        """Rename every letter by ``mapping``; the result is checked, since
        a mapping may merge letters."""
        return GeneralizedPermutation(
            tuple(mapping[x] for x in self.top),
            tuple(mapping[x] for x in self.bottom))

    def reduced(self) -> "GeneralizedPermutation":
        """Relabel by first appearance (top row first) to tokens 0, 1, 2, ..."""
        return _trusted(*reduced_rows(self.top, self.bottom))


# the slots' own setters, which the class's __setattr__ refuses
_new = object.__new__
_set_top = GeneralizedPermutation.top.__set__
_set_bottom = GeneralizedPermutation.bottom.__set__
_set_pairs = GeneralizedPermutation._pairs.__set__


def _trusted(top: tuple[Letter, ...],
             bottom: tuple[Letter, ...]) -> GeneralizedPermutation:
    """The permutation with these rows, built without the constructor's
    check.  Only for rows known to be valid: those a move or
    :func:`reduced_rows` makes from a valid permutation, since both keep
    each letter's two copies and leave no row empty."""
    gp = _new(GeneralizedPermutation)
    _set_top(gp, top)
    _set_bottom(gp, bottom)
    _set_pairs(gp, None)
    return gp


# the tokens of reduced labels, one string object each that every renamed
# permutation shares; longer alphabets get their tokens built per call
_TOKENS = tuple(map(str, range(64)))


def reduced_rows(top: tuple[Letter, ...], bottom: tuple[Letter, ...]
                 ) -> tuple[tuple[Letter, ...], tuple[Letter, ...]]:
    """The rows of a valid permutation with its letters renamed by first
    appearance, top row first, to the tokens 0, 1, 2, ...: the rows of
    :meth:`GeneralizedPermutation.reduced`, without building it.

    Rows whose letters already appear as 0, 1, 2, ... come back as they
    are, the same tuples: most move targets in a class with reduced labels
    do (315,941 of table1(1)'s 555,536), so they are not renamed."""
    alphabet = tuple(dict.fromkeys(top + bottom))
    n = len(alphabet)
    tokens = (_TOKENS[:n] if n <= len(_TOKENS)
              else tuple(map(str, range(n))))
    if alphabet == tokens:
        return top, bottom
    rename = dict(zip(alphabet, tokens)).__getitem__
    return tuple(map(rename, top)), tuple(map(rename, bottom))


def letter_positions(word: Sequence[Letter]) -> dict[Letter, tuple[int, int]]:
    """The two 1-based positions (i, j), i < j, of each letter of ``word``
    (the rows read top row first), in order of first appearance, without
    building a permutation.  Every letter must occur exactly twice."""
    table: dict = {}
    for p, x in enumerate(word, 1):
        # a letter's first position until its second one is seen
        table[x] = (table[x], p) if x in table else p
    return table


def parse_gp(text: str) -> GeneralizedPermutation:
    """Parse "1 2 3 A A 4 / 4 3 B B 2 1" into a GeneralizedPermutation."""
    rows = text.split("/")
    if len(rows) != 2:
        raise MalformedText("expected exactly one '/' separating two rows")
    top = tuple(rows[0].split())
    bottom = tuple(rows[1].split())
    if not top or not bottom:
        raise MalformedText("rows must be non-empty")
    return GeneralizedPermutation(top, bottom)


# ---------------------------------------------------------------------------
# the both-rows convention
# ---------------------------------------------------------------------------

def validate(gp: GeneralizedPermutation) -> tuple[str, ...]:
    """The violations of the both-rows convention, empty when ``gp`` keeps
    it.  A row holds a duplicate letter exactly when it has a letter the
    other row lacks, so a strict permutation names the row whose letters
    all lie in the other one; a genuine permutation names none."""
    top, bottom = set(gp.top), set(gp.bottom)
    if top < bottom:
        return ("no duplicate letter in top row",)
    if bottom < top:
        return ("no duplicate letter in bottom row",)
    return ()


# ---------------------------------------------------------------------------
# reducibility
# ---------------------------------------------------------------------------

class Decomposition(NamedTuple):
    """A corner decomposition witnessing reducibility.

    Cut indices follow the prefix/suffix convention: the top-left corner is
    positions 1..i1, top-right is i2..l, bottom-left is l+1..i3, bottom-right
    is i4..l+m. An index outside its span (i1 = 0, i2 = l+1, i3 = l,
    i4 = l+m+1) encodes an empty corner.
    """
    i1: int
    i2: int
    i3: int
    i4: int


def _corner_masks(row: Sequence[Letter], index: Mapping[Letter, int]):
    """Bitmask letter sets of all prefixes and suffixes of a row."""
    n = len(row)
    pref = [0] * (n + 1)
    for k, x in enumerate(row):
        pref[k + 1] = pref[k] | (1 << index[x])
    suf = [0] * (n + 2)
    for k in range(n, 0, -1):
        suf[k] = suf[k + 1] | (1 << index[row[k - 1]])
    return pref, suf


def find_reduction(gp: GeneralizedPermutation) -> Optional[Decomposition]:
    """The first decomposition proving that a strict generalized permutation
    is reducible, or None (genuine ones use :func:`is_irreducible`).

    Returns the first witness in (i1, i2, i3, i4) order, the one a scan of
    every cut quadruple finds.  Its top corners may share a position
    (i2 = i1), as may its bottom ones (i4 = i3), but on input that keeps
    the convention a witness without either exists whenever one does
    (checked for every d <= 6).  For fixed (i1, i2), with i2 <= l, the
    admissible i3 = l + k form one interval of k: the bottom-left prefix
    must miss the top-right corner, which holds below the first prefix that
    meets it (computed once for every i2), and must hold each top-left
    letter that has left the top-right corner, which holds from the first
    prefix with all of them (a bound that only grows with i2).  For each
    such k the bottom-right corner must be exactly (top-right plus
    bottom-left) minus top-left, so one table from each bottom suffix to
    its range of i4 decides it; an empty bottom-right corner (i4 = l+m+1)
    is allowed only with an empty top-right one, which is handled on its
    own.  Cost: O(l^2) for the cut pairs plus O(1) per admissible i3, so
    O(l^2 m) at worst, against O(l^2 m^2) for the full scan.
    """
    top, bottom = gp.top, gp.bottom
    ell, m = len(top), len(bottom)
    index = {x: k for k, x in enumerate(dict.fromkeys(top + bottom))}
    tpref, tsuf = _corner_masks(top, index)
    bpref, bsuf = _corner_masks(bottom, index)

    # the shortest bottom prefix holding a top letter, m + 1 for none
    first = dict.fromkeys(top, m + 1)
    for k in range(m, 0, -1):
        first[bottom[k - 1]] = k
    # each top letter's last top position
    last = {x: p for p, x in enumerate(top, 1)}
    # meets[b]: the shortest bottom prefix that meets top-right from i2 = b
    meets = [m + 1] * (ell + 2)
    for b in range(ell, 0, -1):
        meets[b] = min(meets[b + 1], first[top[b - 1]])
    # each non-empty bottom-right corner: its (lowest, highest) i4 - l
    right: dict[int, tuple[int, int]] = {}
    for e in range(m, 0, -1):
        right[bsuf[e]] = (e, right.get(bsuf[e], (e, e))[1])
    # each non-empty bottom-left corner: its lowest i3 - l
    left = {bpref[k]: k for k in range(m, 0, -1)}

    gone = 0   # lowest k holding each letter whose top copies lie before i1
    for a in range(0, ell + 1):          # i1; 0 = empty top-left
        tl = tpref[a]
        low = gone
        for b in range(max(a, 1), ell + 1):   # i2 <= l: top-right non-empty
            if low > m:
                break                    # a top-left letter is in no corner
            tr = tsuf[b]
            for k in range(low, meets[b]):    # i3 = l + k; 0: empty
                span = right.get((tr | bpref[k]) & ~tl)
                if span is None:
                    continue
                e = max(k, 1, span[0])    # i4 = l + e
                if e <= span[1]:
                    return Decomposition(a, b, ell + k, ell + e)
            x = top[b - 1]               # leaves top-right at i2 = b + 1
            if last[x] == b and tl >> index[x] & 1:
                low = max(low, first[x])
        # i2 = l + 1: both right corners are empty, so i4 = l+m+1, i1 > 0,
        # i3 > l, and the conditions reduce to bottom-left == top-left
        if a > 0:
            if tl in left:
                return Decomposition(a, ell + 1, ell + left[tl], ell + m + 1)
            x = top[a - 1]
            if last[x] == a:
                gone = max(gone, first[x])
    return None


@lru_cache(maxsize=1 << 16)
def _is_irreducible_cached(top, bottom):
    if set(top) == set(bottom):  # genuine: the prefix criterion
        seen_top, seen_bot = set(), set()
        for x, y in zip(top[:-1], bottom):
            seen_top.add(x)
            seen_bot.add(y)
            if seen_top == seen_bot:
                return False
        return True
    return find_reduction(_trusted(top, bottom)) is None


def is_irreducible(gp: GeneralizedPermutation) -> bool:
    return _is_irreducible_cached(gp.top, gp.bottom)


# ---------------------------------------------------------------------------
# suspendability
# ---------------------------------------------------------------------------

def is_suspendable(gp: GeneralizedPermutation) -> bool:
    """True when ``gp`` admits a suspension datum, so that it has a
    (non-empty) stratum: it keeps the both-rows convention and is
    irreducible (Boissy-Lanneau)."""
    return gp.satisfies_convention() and is_irreducible(gp)


def require_suspendable(gp: GeneralizedPermutation) -> GeneralizedPermutation:
    """``gp`` itself when :func:`is_suspendable`; else raise
    :class:`NotSuspendable` naming every reason."""
    if is_suspendable(gp):
        return gp
    reasons = list(validate(gp))
    if not is_irreducible(gp):
        reasons.append("reducible")
    raise NotSuspendable("%s: %s" % (gp.encode(), "; ".join(reasons)))


# ---------------------------------------------------------------------------
# erasing letters
# ---------------------------------------------------------------------------

def erase_letters(gp: GeneralizedPermutation,
                  letters: Iterable[Letter]) -> GeneralizedPermutation:
    """Remove all occurrences of the given letters, keeping the rest in order."""
    drop = set(letters)
    top = tuple(x for x in gp.top if x not in drop)
    bottom = tuple(x for x in gp.bottom if x not in drop)
    if not top or not bottom:
        raise EmptyRow("erasing %s would empty a row" % sorted(drop))
    return GeneralizedPermutation(top, bottom)
