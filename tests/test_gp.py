import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from conftest import normal_forms, random_gp, small_gps
from oracles import (STAR, ConventionViolated, SuspensionDatum,
                     check_suspension, defined_moves, enumerate_up_to,
                     reduced_by_relabel, to_perm_involution)
from rvq.components import table1, tau_sym
from rvq.errors import (EmptyRow, LetterCountError, MalformedText,
                        MoveUndefined, ReverseArrowMissing)
from rvq import gp as gp_module
from rvq.gp import (Decomposition, GeneralizedPermutation, _corner_masks,
                    erase_letters, find_reduction, is_irreducible, parse_gp,
                    reduced_rows, validate)
from rvq.induction import apply_arrow, invert_arrow
from rvq.strata import turning_map


def test_parse_torus():
    gp = parse_gp("1 2 / 2 1")
    assert gp.top == ("1", "2") and gp.bottom == ("2", "1")
    assert (gp.ell, gp.m, gp.d) == (2, 2, 2)


def test_parse_strict():
    gp = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")
    assert (gp.ell, gp.m) == (6, 6)
    assert gp.is_strict


def test_parse_rejects_bad_counts():
    with pytest.raises(LetterCountError):
        parse_gp("1 2 / 2 2 1")
    with pytest.raises(MalformedText):
        parse_gp("1 2 2 1")
    with pytest.raises(MalformedText):
        parse_gp("1 2 / 2 / 1")


def test_roundtrip_encoding():
    rng = random.Random(1)
    for _ in range(200):
        gp = random_gp(rng, rng.randint(2, 7))
        assert parse_gp(gp.encode()) == gp
        assert str(gp) == gp.encode()


def test_positions_and_sigma():
    gp = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")
    assert gp.pairs["A"] == (4, 5)
    assert gp.pairs["1"] == (1, 12)
    # the pairs are a fixed-point-free involution sigma respecting letters:
    # every position is in exactly one pair, whose two copies are its letter
    word = gp.top + gp.bottom
    positions = sorted(p for pair in gp.pairs.values() for p in pair)
    assert positions == list(range(1, 13))
    for x, (i, j) in gp.pairs.items():
        assert i < j and word[i - 1] == word[j - 1] == x


# -- oracle: the row rescans that each letter query used to make --

def _oracle_positions(gp, x):
    row = gp.top + gp.bottom
    i = row.index(x)
    return i + 1, row.index(x, i + 1) + 1


def _oracle_duplicates(row):
    return tuple(sorted({x for x in row if row.count(x) == 2}))


def _oracle_both_rows_letters(gp):
    tops, bots = set(gp.top), set(gp.bottom)
    return tuple(x for x in gp.alphabet if x in tops and x in bots)


def _oracle_sigma_table(gp):
    table = {}
    for x in gp.alphabet:
        i, j = _oracle_positions(gp, x)
        table[i], table[j] = j, i
    return table


def _oracle_turning_map(gp, sigma):
    ell, m = gp.ell, gp.m
    s = {k: sigma[k - 1] for k in range(2, ell + 1)}
    s[1] = sigma[ell + 1]
    s.update((k, sigma[k + 1]) for k in range(ell + 1, ell + m))
    s[ell + m] = sigma[ell]
    return s


def _oracle_perm_involution(gp, sigma, strict):
    """The signed one-line table's entries, and whether its left/right
    containment test rejects it."""
    ell, m = gp.ell, gp.m
    eps = {}
    for p in range(1, ell + m + 1):
        if p not in eps:
            eps[p], eps[sigma[p]] = 0, 1
    word = gp.top + gp.bottom
    entries = ([(word[p - 1], eps[p]) for p in range(ell + m, ell, -1)]
               + [STAR] + [(word[p - 1], eps[p]) for p in range(1, ell + 1)])
    left, right = set(entries[:m]), set(entries[m + 1:])

    def flipped(side):
        return {(x, 1 - s) for x, s in side}

    collapses = strict and (flipped(left) <= right or flipped(right) <= left)
    return tuple(entries), collapses


def test_letter_table_matches_the_rescans():
    # normal forms list their letters in sorted order; the relabeled copy
    # lists them in reverse, so first appearance and sorting differ
    reverse = {str(k): str(9 - k) for k in range(10)}
    checked = 0
    for base in small_gps():
        for gp in (base, base.relabel(reverse)):
            positions = {x: _oracle_positions(gp, x) for x in gp.alphabet}
            assert list(gp.pairs.items()) == list(positions.items())
            sigma = _oracle_sigma_table(gp)
            assert {p: q for i, j in gp.pairs.values()
                    for p, q in ((i, j), (j, i))} == sigma
            top = _oracle_duplicates(gp.top)
            bottom = _oracle_duplicates(gp.bottom)
            genuine = not top and not bottom
            # a strict permutation names each row that has no duplicate
            assert validate(gp) == tuple(
                "no duplicate letter in %s row" % name
                for name, dups in (("top", top), ("bottom", bottom))
                if not genuine and not dups)
            assert gp.both_rows_letters() == _oracle_both_rows_letters(gp)
            assert gp.is_genuine == genuine and gp.is_strict != genuine
            assert gp.satisfies_convention() == (genuine or bool(top and bottom))
            assert turning_map(gp) == _oracle_turning_map(gp, sigma)
            entries, collapses = _oracle_perm_involution(gp, sigma,
                                                         not genuine)
            if collapses:
                with pytest.raises(ConventionViolated):
                    to_perm_involution(gp)
            else:
                assert to_perm_involution(gp).entries == entries
            checked += 1
    assert checked == 2 * 9324
    assert "3" not in parse_gp("1 2 / 2 1").pairs


def test_validate_reports():
    assert validate(parse_gp("1 2 3 4 / 4 3 2 1")) == ()
    assert validate(parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")) == ()
    assert validate(parse_gp("1 A A 2 / 2 1")) == (
        "no duplicate letter in bottom row",)
    assert validate(parse_gp("1 2 / 2 A A 1")) == (
        "no duplicate letter in top row",)


def test_irreducible_examples():
    assert is_irreducible(parse_gp("1 2 / 2 1"))
    assert is_irreducible(parse_gp("1 2 3 A A 4 / 4 3 B B 2 1"))
    assert not is_irreducible(parse_gp("1 2 3 4 / 1 2 3 4"))
    # common first letter forces the classical prefix match at k=1
    assert not is_irreducible(parse_gp("1 2 3 / 1 3 2"))


def test_reducible_strict_end_letter():
    # same letter closing both rows always yields a two-empty-right split
    gp = parse_gp("A A 1 / B B 1")
    dec = find_reduction(gp)
    assert dec is not None and (dec.i1, dec.i3) == (0, gp.ell)
    assert not is_irreducible(gp)


# the empty corners (top-left, top-right, bottom-left, bottom-right) a
# decomposition may have: none, one left corner, both left or both right
_ALLOWED_EMPTY = {(False, False, False, False), (True, False, False, False),
                  (False, False, True, False), (True, False, True, False),
                  (False, True, False, True)}


def _find_reduction_scan(gp, disjoint=False):
    """Reference for find_reduction: try every (i1, i2, i3, i4) quadruple;
    with ``disjoint``, only those whose two top corners and whose two bottom
    corners share no position (i2 > i1 and i4 > i3)."""
    ell, m = gp.ell, gp.m
    index = {x: k for k, x in enumerate(gp.alphabet)}
    tpref, tsuf = _corner_masks(gp.top, index)
    bpref, bsuf = _corner_masks(gp.bottom, index)

    for a in range(0, ell + 1):          # i1; 0 = empty top-left
        tl = tpref[a]
        for b in range(max(a + disjoint, 1), ell + 2):  # i2; l+1 = empty
            tr = tsuf[b]
            if a == 0 and b == ell + 1:
                continue  # both top corners empty: never an allowed pattern
            for c in range(ell, ell + m + 1):        # i3; l = empty bottom-left
                bl = bpref[c - ell]
                for e in range(max(c + disjoint, ell + 1), ell + m + 2):  # i4
                    br = bsuf[e - ell]
                    empties = (a == 0, b == ell + 1, c == ell, e == ell + m + 1)
                    if empties not in _ALLOWED_EMPTY:
                        continue
                    if tl & br or tr & bl:
                        continue
                    if tl & ~(bl | tr) or tr & ~(br | tl):
                        continue
                    if bl & ~(tl | br) or br & ~(tr | bl):
                        continue
                    return Decomposition(a, b, c, e)
    return None


def test_find_reduction_matches_scan_exhaustive():
    # the scan result is invariant under relabeling, so normal forms cover
    # every permutation with d <= 5
    count = 0
    for d in range(2, 6):
        for word in normal_forms(d):
            for ell in range(1, 2 * d):
                gp = GeneralizedPermutation(word[:ell], word[ell:])
                assert find_reduction(gp) == _find_reduction_scan(gp), \
                    gp.encode()
                count += 1
    assert count == 3 * 3 + 15 * 5 + 105 * 7 + 945 * 9


def test_shared_corners_do_not_decide_reducibility():
    # the first witness may let the top corners share a position (i2 = i1)
    # or the bottom ones (i4 = i3), but on strict permutations that keep
    # the convention one exists exactly when a witness without either does
    count = shared = 0
    for gp in small_gps():
        if not (gp.is_strict and gp.satisfies_convention()):
            continue
        dec = find_reduction(gp)
        disjoint = _find_reduction_scan(gp, disjoint=True)
        assert (dec is None) == (disjoint is None), gp.encode()
        shared += dec is not None and (dec.i2 == dec.i1 or dec.i4 == dec.i3)
        count += 1
    assert (count, shared) == (3052, 707)


def test_find_reduction_matches_scan_random():
    rng = random.Random(11)
    inputs = [random_gp(rng, rng.randint(2, 12)) for _ in range(1880)]
    # reversed walk steps test predecessors of class vertices: irreducible
    # inputs, the expensive case, with d = 8-11
    for row in (1, 7, 11, 5, 9, 12):
        cur = table1(row)
        for _ in range(40):
            while True:
                kind = rng.choice("tb")
                try:
                    if rng.random() < 0.5:
                        cur = apply_arrow(cur, kind).target
                    else:
                        cur = invert_arrow(cur, kind,
                                           require_irreducible=False).source
                    break
                except (MoveUndefined, ReverseArrowMissing):
                    continue
            inputs.append(cur)
    irreducible = 0
    for gp in inputs:
        dec = find_reduction(gp)
        assert dec == _find_reduction_scan(gp), gp.encode()
        irreducible += dec is None and gp.is_strict
    assert irreducible >= 100


def test_irreducibility_calls_find_reduction_by_its_public_name(monkeypatch):
    # tracers and tests wrap the module's public name, so the row cache must
    # reach the search through it, once per distinct strict rows
    calls = []

    def counted(gp):
        calls.append(gp)
        return find_reduction(gp)

    monkeypatch.setattr(gp_module, "find_reduction", counted)
    gp_module._is_irreducible_cached.cache_clear()
    witness = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")
    assert is_irreducible(witness) and is_irreducible(witness)
    assert is_irreducible(parse_gp("1 2 / 2 1"))  # genuine: prefix criterion
    assert [(g.top, g.bottom) for g in calls] == [(witness.top, witness.bottom)]


def test_irreducible_strict_with_suspension():
    # carries an explicit suspension datum, so it must be irreducible
    gp = parse_gp("1 1 2 2 / 3 3")
    zeta = SuspensionDatum.of({
        "1": (1, 1), "2": (1, Fraction(-3, 2)), "3": (2, Fraction(-1, 2))})
    assert check_suspension(gp, zeta) == []
    assert is_irreducible(gp)


def test_erase_letters():
    gp = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")
    assert erase_letters(gp, {"A", "B"}).encode() == "1 2 3 4 / 4 3 2 1"
    assert erase_letters(gp, set()) == gp
    with pytest.raises(EmptyRow):
        erase_letters(parse_gp("A A / 1 2 2 1"), {"A"})


def test_suspension_checks():
    torus = parse_gp("1 2 / 2 1")
    good = SuspensionDatum.of({"1": (1, 1), "2": (1, -1)})
    assert check_suspension(torus, good) == []

    bad = SuspensionDatum.of({"1": (1, -1), "2": (1, 1)})
    kinds = {v[0] for v in check_suspension(torus, bad)}
    assert "top_prefix" in kinds and "bottom_prefix" in kinds

    zero_width = SuspensionDatum.of({"1": (0, 1), "2": (1, -1)})
    assert ("positivity", "1") in check_suspension(torus, zero_width)

    strict = parse_gp("1 1 2 2 / 3 3")
    unbalanced = SuspensionDatum.of({"1": (1, 1), "2": (1, -2), "3": (1, -1)})
    assert ("total",) in check_suspension(strict, unbalanced)


def test_suspension_values_are_exact():
    zeta = SuspensionDatum.of({"1": (Fraction(1, 3), -2), "2": 5})
    assert zeta["1"] == (Fraction(1, 3), Fraction(-2))
    assert zeta["2"] == (Fraction(5), Fraction(0))
    # a float complex would have to be rounded, so it is refused
    with pytest.raises(TypeError):
        SuspensionDatum.of({"1": complex(1, 1), "2": (1, -1)})


@functools.lru_cache(maxsize=None)
def _solve_strict(rows, eq):
    """A rational y with r.y > 0 for every r in ``rows`` and eq.y = 0, or None.

    The system is homogeneous, so r.y > 0 may be scaled to r.y >= 1.  The
    equality is substituted away, the rest is decided exactly by
    Fourier-Motzkin elimination on integer rows, and a solution is
    back-substituted over Fractions one variable at a time.  Rows and eq
    are tuples of integers; relabeled permutations give the same system in
    alphabet order, hence the cache.
    """
    n = len(eq)
    ineqs = [(tuple(r), 1) for r in rows]
    pivot = next((k for k in range(n) if eq[k]), None)
    if pivot is not None:
        # y[pivot] = -sum(eq[k] y[k], k != pivot) / eq[pivot], scaled by
        # |eq[pivot]| to stay integral
        e, s = abs(eq[pivot]), (1 if eq[pivot] > 0 else -1)
        ineqs = [(tuple(a[k] * e - a[pivot] * eq[k] * s for k in range(n)),
                  b * e) for a, b in ineqs]
    stages = []
    for v in range(n):
        stages.append(ineqs)
        lower = [(a, b) for a, b in ineqs if a[v] > 0]
        upper = [(a, b) for a, b in ineqs if a[v] < 0]
        combined = set()
        for a, b in [(a, b) for a, b in ineqs if a[v] == 0] + [
                (tuple(p * -aq[v] + q * ap[v] for p, q in zip(ap, aq)),
                 bp * -aq[v] + bq * ap[v])
                for ap, bp in lower for aq, bq in upper]:
            if not any(a):
                if b > 0:
                    return None      # 0 >= b > 0
                continue
            g = math.gcd(*a, b)
            combined.add((tuple(x // g for x in a), b // g))
        ineqs = list(combined)
    # y = num / den with integer num, so each bound costs one Fraction
    num, den = [0] * n, 1
    for v in reversed(range(n)):
        bounds = [(Fraction(b * den - sum(map(operator.mul, a, num)),
                            a[v] * den), a[v] > 0)
                  for a, b in stages[v] if a[v]]
        lows = [t for t, is_low in bounds if is_low]
        highs = [t for t, is_low in bounds if not is_low]
        t = max(lows) if lows else min(highs, default=Fraction(0))
        num = [x * t.denominator for x in num]
        num[v] = t.numerator * den
        den *= t.denominator
    y = [Fraction(x, den) for x in num]
    if pivot is not None:
        y[pivot] = -sum(eq[k] * y[k] for k in range(n) if k != pivot) \
            / Fraction(eq[pivot])
    return tuple(y)


def _exact_suspension(gp):
    """A suspension datum for ``gp`` decided exactly, or None if none exists.

    Real and imaginary parts are independent.  Widths are positive with
    equal row totals; heights have positive top prefixes, negative bottom
    prefixes and equal row totals.
    """
    letters = gp.alphabet
    index = {x: k for k, x in enumerate(letters)}
    d = len(letters)
    balance = tuple(gp.top.count(x) - gp.bottom.count(x) for x in letters)
    unit = tuple(tuple(int(k == j) for k in range(d)) for j in range(d))
    widths = _solve_strict(unit, balance)
    if widths is None:
        return False, None
    heights_rows = []
    for row, sign in ((gp.top, 1), (gp.bottom, -1)):
        prefix = [0] * d
        for x in row[:-1]:
            prefix[index[x]] += sign
            heights_rows.append(tuple(prefix))
    heights = _solve_strict(tuple(heights_rows), balance)
    if heights is None:
        return True, None
    return True, SuspensionDatum.of(
        {x: (widths[k], heights[k]) for k, x in enumerate(letters)})


def _all_gps(d):
    """Every valid generalized permutation on the letters 0..d-1."""
    for word in sorted(set(itertools.permutations(
            [str(k) for k in range(d)] * 2))):
        for ell in range(1, 2 * d):
            yield GeneralizedPermutation(word[:ell], word[ell:])


def test_suspension_iff_irreducible_small():
    # Boissy-Lanneau: under the convention a permutation is irreducible
    # exactly when it admits a suspension datum; widths exist exactly when
    # the convention holds
    checked = 0
    for d in (2, 3, 4):
        for gp in _all_gps(d):
            widths_ok, datum = _exact_suspension(gp)
            assert widths_ok == gp.satisfies_convention(), gp.encode()
            if not widths_ok:
                continue
            assert (datum is not None) == is_irreducible(gp), gp.encode()
            if datum is not None:
                assert check_suspension(gp, datum) == [], gp.encode()
            checked += 1
    assert checked == 5532
    # d = 5 exhaustively, up to relabeling
    checked = 0
    for gp in small_gps():
        if gp.d != 5:
            continue
        widths_ok, datum = _exact_suspension(gp)
        assert widths_ok == gp.satisfies_convention(), gp.encode()
        if not widths_ok:
            continue
        assert (datum is not None) == is_irreducible(gp), gp.encode()
        if datum is not None:
            assert check_suspension(gp, datum) == [], gp.encode()
        checked += 1
    assert checked == 2955
    rng = random.Random(7)
    for _ in range(300):
        gp = random_gp(rng, rng.randint(5, 6), convention=True)
        _, datum = _exact_suspension(gp)
        assert (datum is not None) == is_irreducible(gp), gp.encode()
        if datum is not None:
            assert check_suspension(gp, datum) == [], gp.encode()


def test_reduced_relabeling():
    gp = parse_gp("x y / y x")
    assert gp.reduced().encode() == "0 1 / 1 0"
    gp = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")
    red = gp.reduced()
    assert red.alphabet == tuple(str(i) for i in range(6))


def test_checked_entry_points_refuse_bad_input():
    # only moves and reduced() build permutations without the check; the
    # constructor, relabel and parse_gp keep it, as raises that -O keeps
    with pytest.raises(LetterCountError):
        GeneralizedPermutation(("1", "2", "1"), ("2", "1"))
    with pytest.raises(EmptyRow):
        GeneralizedPermutation((), ("1", "2", "1", "2"))
    with pytest.raises(EmptyRow):
        GeneralizedPermutation(("1", "1", "2", "2"), ())
    gp = parse_gp("1 2 3 / 3 2 1")
    with pytest.raises(LetterCountError):
        gp.relabel({"1": "x", "2": "x", "3": "y"})
    for text in ("1 2 2 1", "1 2 / 2 1 / 3", " / 1 1 2 2", "1 1 2 2 /"):
        with pytest.raises(MalformedText):
            parse_gp(text)


def test_reduced_matches_the_checked_relabeling():
    for gp in itertools.chain(small_gps(), [table1(1), parse_gp("x y / y x")]):
        red = gp.reduced()
        assert red == reduced_by_relabel(gp) and red._pairs is None
        assert reduced_rows(gp.top, gp.bottom) == (red.top, red.bottom)


def _check_reduced_rows(gp):
    """Whether ``gp``'s rows came back as they are; fails unless
    reduced_rows renames them as the checked relabeling does."""
    rows = reduced_rows(gp.top, gp.bottom)
    red = reduced_by_relabel(gp)
    assert rows == (red.top, red.bottom)
    kept = rows[0] is gp.top and rows[1] is gp.bottom
    assert kept == (rows == (gp.top, gp.bottom))
    return kept


@pytest.mark.parametrize("seed, limit, reduced", [
    (tau_sym(6), None, False),
    (table1(1), 2000, True),
], ids=["tau6", "table1-1-cut"])
def test_reduced_rows_of_every_move_target_match_the_relabeling(
        seed, limit, reduced):
    # most targets in a reduced class are reduced already and come back as
    # they are; the rest are renamed.  Both must occur
    rc = enumerate_up_to(seed, limit or 10_000, reduced_labels=reduced)
    kept = [_check_reduced_rows(apply_arrow(v, kind).target)
            for v in rc.vertices for kind in defined_moves(v)]
    assert any(kept) and not all(kept)


def test_reduced_rows_beyond_the_shared_tokens_and_out_of_order():
    letters = [str(k) for k in range(70)]  # more than gp._TOKENS holds
    assert len(letters) > len(gp_module._TOKENS)
    shuffled = letters[:]
    random.Random(7).shuffle(shuffled)
    assert _check_reduced_rows(
        GeneralizedPermutation(tuple(letters), tuple(reversed(letters))))
    assert not _check_reduced_rows(
        GeneralizedPermutation(tuple(shuffled), tuple(reversed(shuffled))))
    # the tokens 0..n-1, but not in order of first appearance
    for text in ("1 0 / 0 1", "0 2 1 / 1 2 0", "0 2 2 1 / 3 3 1 0"):
        gp = parse_gp(text)
        assert not _check_reduced_rows(gp)
        assert gp.reduced().alphabet == tuple(map(str, range(len(gp.alphabet))))


def test_alphabet_first_appearance_order():
    gp = parse_gp("3 1 / 1 3")
    assert gp.alphabet == ("3", "1")


def test_minimum_alphabet():
    with pytest.raises(LetterCountError):
        GeneralizedPermutation(("1",), ("1",))
