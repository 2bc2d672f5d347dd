import hashlib
import random
import string

import pytest

from conftest import random_gp
from oracles import defined_moves, simple_witness
from rvq import extensions, induction
from rvq.components import tau_sym, tau_zorich
from rvq.errors import (AlphabetMismatch, CaseUnmatched, IllegalPosition,
                        MoveUndefined, NotSplittable, OpenWalk, ParityError,
                        RVQError)
from rvq.extensions import (ExtensionWitness, _all_single_insertions,
                            extend_walk, fresh_letter,
                            insert_letter, is_simple_extension, lift_cycles,
                            search_extensions, split_even_zero,
                            split_singularity)
from rvq.gp import (GeneralizedPermutation, erase_letters, is_irreducible,
                    is_suspendable, parse_gp)
from rvq.groups import random_directed_cycles
from rvq.induction import apply_arrow, load_or_enumerate
from rvq.strata import orbit_order, stratum_signature, turning_orbits

T4 = parse_gp("1 2 3 4 / 4 3 2 1")
WITNESS = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")


def test_insert_letter_example():
    w = insert_letter(T4, "B", ("bottom", 3), ("bottom", 4))
    assert w.extended.encode() == "1 2 3 4 / 4 3 B B 2 1"
    assert w.letter == "B"
    assert erase_letters(w.extended, {"B"}) == T4


def test_insert_rejects_row_end():
    with pytest.raises(IllegalPosition):
        insert_letter(T4, "B", ("top", 5), ("bottom", 2))
    with pytest.raises(IllegalPosition):
        insert_letter(T4, "B", ("top", 1), ("bottom", 1))
    with pytest.raises(IllegalPosition):
        insert_letter(T4, "4", ("top", 1), ("bottom", 2))


def test_insert_erase_roundtrip():
    rng = random.Random(61)
    for _ in range(100):
        gp = random_gp(rng, rng.randint(2, 6))
        row = rng.choice(("top", "bottom"))
        n = gp.ell if row == "top" else gp.m
        a = rng.randint(1, n)
        b = rng.randint(a + 1, n + 1)
        try:
            w = insert_letter(gp, "Z", (row, a), (row, b))
        except IllegalPosition:
            continue
        assert erase_letters(w.extended, {"Z"}) == gp


def _rule_pool():
    """A seeded pool of suspendable bases, strict and genuine, d <= 5."""
    rng = random.Random(101)
    return list(dict.fromkeys(
        random_gp(rng, d, strict=strict, convention=True, irreducible=True)
        for d in range(2, 6) for strict in (True, False)
        if d > 2 or not strict for _ in range(5)))


def _placements(tau, letter):
    """Every pair of result slots for two copies of ``letter``, with the
    permutation they give, built without the library's insertion."""
    rows = {"top": tau.top, "bottom": tau.bottom}
    for ra, rb in (("top", "top"), ("top", "bottom"), ("bottom", "bottom")):
        extra = 1 + (ra == rb)
        for ka in range(1, len(rows[ra]) + extra + 1):
            for kb in range(1, len(rows[rb]) + extra + 1):
                if ra == rb and kb <= ka:
                    continue
                new = {r: list(row) for r, row in rows.items()}
                new[ra].insert(ka - 1, letter)
                new[rb].insert(kb - 1, letter)
                pi = GeneralizedPermutation(tuple(new["top"]),
                                            tuple(new["bottom"]))
                yield (ra, ka), (rb, kb), pi


def test_one_position_rule():
    # insert_letter, is_simple_extension and _all_single_insertions accept
    # the same placements of a fresh letter's two copies
    for tau in _rule_pool():
        letter = fresh_letter(tau.alphabet)
        legal = {}  # each accepted permutation -> the row holding both copies
        for pos_a, pos_b, pi in _placements(tau, letter):
            try:
                w = insert_letter(tau, letter, pos_a, pos_b)
            except IllegalPosition:
                assert is_simple_extension(pi, tau) is None, pi.encode()
                continue
            assert w.extended == pi and w.base == tau and w.letter == letter
            assert is_simple_extension(pi, tau) == letter, pi.encode()
            legal[pi] = pos_a[0] if pos_a[0] == pos_b[0] else None
        assert legal, tau.encode()
        for row in (None, "top", "bottom"):
            wits = list(_all_single_insertions(tau, row))
            for w in wits:
                assert w.base == tau
                assert is_simple_extension(w.extended, tau) == w.letter
            got = [w.extended for w in wits]
            assert len(set(got)) == len(got)
            assert set(got) == {pi for pi, r in legal.items()
                                if row in (None, r)}


def _outcome(call, *args):
    """The repr of what ``call(*args)`` returns, or its error's class."""
    try:
        return repr(call(*args))
    except RVQError as exc:
        return type(exc).__name__


def test_insertion_split_and_search_outcomes_pinned():
    # the candidates in order, which decides the split or search result,
    # then every single and double split and one search per base of the pool
    lines = []
    for tau in _rule_pool():
        for row in (None, "top", "bottom"):
            lines.append(_outcome(
                lambda: list(_all_single_insertions(tau, row))))
        for orbit in turning_orbits(tau):
            q = orbit_order(tau, orbit)
            for m11 in range(-1, q + 2):
                lines.append(_outcome(split_singularity, tau, orbit[0], m11,
                                      q - m11))
                for m12 in range(-1, q + 2 - m11, 2):
                    lines.append(_outcome(split_even_zero, tau, orbit[0], m11,
                                          m12, q - m11 - m12))
        orders = list(stratum_signature(tau).orders)
        target = [orders.pop(0) + 2, *orders, -1, -1]
        lines.append(_outcome(search_extensions, [tau], target))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "aa3a7bb0942224b9"


def test_is_simple_extension():
    mid = parse_gp("1 2 3 4 / 4 3 B B 2 1")
    assert is_simple_extension(mid, T4) == "B"
    assert is_simple_extension(WITNESS, mid) == "A"
    with pytest.raises(AlphabetMismatch):
        is_simple_extension(WITNESS, T4)
    # a letter ending a row is not a legal extension
    bad = parse_gp("1 2 3 4 C / 4 C 3 2 1")
    assert is_simple_extension(bad, T4) is None


def test_sigma_hyp_is_double_extension_of_tau():
    # the interleaved family arises from the symmetric one by two extensions
    from rvq.components import sigma_hyp, tau_sym
    for s, r in ((2, 1), (2, 2), (4, 1)):
        big = sigma_hyp(s, r)
        mid = erase_letters(big, {"A"})
        tau = erase_letters(big, {"A", "B"})
        assert tau.reduced() == tau_sym(s + r + 1).reduced()
        assert is_simple_extension(big, mid) == "A"
        assert is_simple_extension(mid, tau) == "B"


def test_split_into_two_odd():
    orbit = max(turning_orbits(WITNESS), key=len)
    res = split_singularity(WITNESS, orbit[0], 3, 3)
    sig = stratum_signature(res.witness.extended)
    assert sig.orders == (3, 3, -1, -1) and sig.genus == 2


def test_split_pole_creation():
    orbit = max(turning_orbits(WITNESS), key=len)
    res = split_singularity(WITNESS, orbit[0], 7, -1)
    assert stratum_signature(res.witness.extended).orders == (7, -1, -1, -1)
    res = split_singularity(WITNESS, orbit[0], -1, 7)
    assert res.orders == (-1, 7)
    assert stratum_signature(res.witness.extended).orders == (7, -1, -1, -1)


def test_split_conservation_random():
    rng = random.Random(67)
    pool = [WITNESS, parse_gp("1 2 A A 3 4 5 / 5 B B 4 3 2 1"),
            parse_gp("0 A 1 2 A 3 / 3 B 2 1 B 0")]
    count = 0
    while count < 60:
        gp = rng.choice(pool)
        orbits = [o for o in turning_orbits(gp) if orbit_order(gp, o) >= 1]
        if not orbits:
            continue
        orbit = rng.choice(orbits)
        m1 = orbit_order(gp, orbit)
        m11 = rng.choice([m for m in range(-1, m1 + 2)
                          if m != 0 and m1 - m != 0 and m >= -1
                          and m1 - m >= -1])
        res = split_singularity(gp, orbit[0], m11, m1 - m11)
        out_sig = stratum_signature(res.witness.extended)
        in_sig = stratum_signature(gp)
        expected = sorted(list(in_sig.orders) + [m11, m1 - m11], reverse=True)
        expected.remove(m1)
        assert list(out_sig.orders) == expected
        assert out_sig.genus == in_sig.genus
        count += 1


def _wander(seeds, rng, steps):
    """Each seed and the vertices of a random forward walk from it."""
    out = []
    for gp in seeds:
        out.append(gp)
        for _ in range(steps):
            gp = apply_arrow(gp, rng.choice(defined_moves(gp))).target
            out.append(gp)
    return out


def _split_cases():
    """(base, orbit, parts) of a seeded pool: every orbit and every first
    part of strict and genuine bases for single splits, and every orbit and
    pair of first parts of genuine bases for double splits."""
    rng = random.Random(89)
    seeds = [WITNESS, parse_gp("0 A 1 2 A 3 / 3 B 2 1 B 0"), tau_zorich(3),
             parse_gp("1 2 A A 3 4 5 / 5 B B 4 3 2 1"), parse_gp("1 2 / 2 1")]
    for gp in _wander(seeds, rng, 15):
        for orbit in turning_orbits(gp):
            m1 = orbit_order(gp, orbit)
            for m11 in range(-1, m1 + 2):
                yield gp, orbit, (m11,)
    seeds = [T4, tau_sym(5), tau_zorich(3), parse_gp("1 2 / 2 1")]
    for gp in _wander(seeds, rng, 8):
        for orbit in turning_orbits(gp):
            q = orbit_order(gp, orbit)
            for m11 in range(-1, q + 2):
                for m12 in range(-1, q + 2 - m11, 2):
                    yield gp, orbit, (m11, m12, q - m11 - m12)


def _split_outcome(tau, orbit, parts):
    """The orders of the split's stratum, or the class of the error raised;
    a returned permutation is checked to be a certified simple extension
    that keeps the convention."""
    try:
        if len(parts) == 1:
            m11 = parts[0]
            res = split_singularity(tau, orbit[0], m11,
                                    orbit_order(tau, orbit) - m11)
            out = res.witness.extended
            assert is_simple_extension(out, tau) == res.witness.letter
            parts = res.orders
        else:
            out = split_even_zero(tau, orbit[0], *parts)
            first = fresh_letter(tau.alphabet)
            second = fresh_letter(tau.alphabet + (first,))
            mid = erase_letters(out, {second})
            assert is_simple_extension(mid, tau) == first
            assert is_simple_extension(out, mid) == second
    except RVQError as exc:
        return type(exc).__name__
    assert is_irreducible(out) and out.satisfies_convention(), out.encode()
    sig, base = stratum_signature(out), stratum_signature(tau)
    want = list(base.orders)
    want.remove(orbit_order(tau, orbit))
    assert sorted(sig.orders) == sorted(want + list(parts))
    assert sig.genus == base.genus
    return ",".join(map(str, sig.orders))


def test_split_outcomes_pinned():
    # the outcome of every case, the resulting orders or the error class, is
    # pinned from the orbit-walking construction the certified search
    # replaced, less the 128 single splits whose result broke the convention
    # and which are now refused
    cases = list(_split_cases())
    outcomes = [_split_outcome(*case) for case in cases]
    failed = sum(o.isalpha() for o in outcomes)
    assert (len(outcomes) - failed, failed) == (652, 1027)
    text = "\n".join("%s|%s|%s %s" % (tau.encode(), orbit[0], parts, o)
                     for (tau, orbit, parts), o in zip(cases, outcomes))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "f5dbe3f2e2c03a9b"


@pytest.mark.parametrize("split, base, parts, order", [
    (split_singularity, WITNESS, (8, 5), 6),
    (split_singularity, WITNESS, (1, 1), 6),
    (split_even_zero, T4, (-1, -1, 4), 4),
], ids=["sum-too-big", "sum-too-small", "double-split"])
def test_parts_that_do_not_sum_are_refused_before_any_candidate(
        monkeypatch, split, base, parts, order):
    def refuse(*args, **kwargs):
        raise AssertionError("a candidate was built before the refusal")

    monkeypatch.setattr(extensions, "_all_single_insertions", refuse)
    with pytest.raises(NotSplittable) as exc:
        split(base, 1, *parts)
    assert str(exc.value) == "parts must sum to the order %d" % order


@pytest.mark.parametrize("parts, message", [
    ((5, 1, -2), "parts must be >= -1"),
    ((1, 3, 0), "splitting off a marked point is not supported"),
    ((1, 1, 1), "parts must sum to the order 4"),
], ids=["below-minus-one", "marked-point", "wrong-sum"])
def test_double_split_parts_are_refused_before_any_candidate(
        monkeypatch, parts, message):
    # all three parts are checked at the base, not only the two of the
    # first split, so no top-row candidate is built for a part that the
    # second split would refuse
    def refuse(*args, **kwargs):
        raise AssertionError("a candidate was built before the refusal")

    monkeypatch.setattr(extensions, "_all_single_insertions", refuse)
    with pytest.raises(NotSplittable) as exc:
        split_even_zero(tau_sym(4), 2, *parts)
    assert str(exc.value) == message


@pytest.mark.parametrize("at", [(), (3,), 2.9, "3"],
                         ids=["empty-tuple", "one-tuple", "float", "string"])
def test_split_refuses_a_point_that_is_not_a_position(at):
    # a split names its point by one position; anything else, an empty
    # tuple included, holds no turning orbit
    with pytest.raises(NotSplittable, match="outside 1..12"):
        split_singularity(WITNESS, at, 3, 3)


def test_fresh_letter_past_z():
    # after A..Z come x0, x1, ...; an insertion of such a letter reads back
    tau = GeneralizedPermutation(tuple(string.ascii_uppercase),
                                 tuple(reversed(string.ascii_uppercase)))
    assert fresh_letter(tau.alphabet) == "x0"
    assert fresh_letter(tau.alphabet + ("x0",)) == "x1"
    w = insert_letter(tau, "x0", ("top", 2), ("bottom", 3))
    back = parse_gp(w.extended.encode())
    assert back == w.extended and is_simple_extension(back, tau) == "x0"


def test_split_rejects_marked_point_parts():
    orbit = max(turning_orbits(WITNESS), key=len)
    with pytest.raises(NotSplittable):
        split_singularity(WITNESS, orbit[0], 0, 6)
    with pytest.raises(NotSplittable):
        split_singularity(WITNESS, orbit[0], 9, -3)


def test_split_even_zero_example():
    out = split_even_zero(T4, 1, -1, -1, 6)
    assert stratum_signature(out).orders == (6, -1, -1)
    assert out.satisfies_convention()


def test_split_even_zero_parity():
    with pytest.raises(ParityError):
        split_even_zero(T4, 1, 2, -1, 3)
    with pytest.raises(NotSplittable):
        split_even_zero(WITNESS, 1, 1, 1, 2)  # not genuine


def test_split_even_zero_refuses_a_marked_point():
    # tau_sym(3) lies in H(0, 0): its turning orbits have order 0, and off
    # the torus the check shared with the single split refuses an order
    # below 1; a genuine base's orders are all even, so no parity is checked
    with pytest.raises(NotSplittable) as exc:
        split_even_zero(tau_sym(3), 1, 1, 1, -2)
    assert str(exc.value) == "singularity order 0 < 1"


def test_torus_special_case():
    # a single split of the torus leaves duplicates in one row only, which
    # has no stratum; the double split puts them in both
    torus = parse_gp("1 2 / 2 1")
    with pytest.raises(NotSplittable):
        split_singularity(torus, 1, 1, -1)
    out = split_even_zero(torus, 1, -1, -1, 2)
    assert stratum_signature(out).orders == (2, -1, -1)
    assert out.satisfies_convention()


def test_extend_walk_single():
    # A is next-to-last only in the top row, so a top arrow maps to itself
    w = simple_witness(WITNESS, parse_gp("1 2 3 4 / 4 3 B B 2 1"))
    assert w.letter == "A"
    steps, end_w = extend_walk(w, "t")
    assert steps == "t" and end_w.letter == "A"
    assert end_w.base == apply_arrow(w.base, 't').target
    assert is_simple_extension(end_w.extended, end_w.base) == "A"


def test_extend_walk_three_consecutive():
    # consecutive copies next-to-last in the top row triple a bottom arrow
    w = simple_witness(WITNESS, parse_gp("1 2 3 4 / 4 3 B B 2 1"))
    steps, end_w = extend_walk(w, "b")
    assert steps == "bbb"
    assert end_w.extended == apply_arrow(apply_arrow(apply_arrow(
        WITNESS, 'b').target, 'b').target, 'b').target
    assert is_simple_extension(end_w.extended, end_w.base) == "A"


def test_extend_walk_two_nonconsecutive():
    # copies split across the row, one sitting next-to-last
    tau = parse_gp("1 2 3 4 / 4 3 2 1")
    pi = insert_letter(tau, "C", ("top", 2), ("top", 5)).extended
    assert pi.encode() == "1 C 2 3 C 4 / 4 3 2 1"
    steps, end_w = extend_walk(simple_witness(pi, tau), "b")
    assert steps == "bb"
    assert is_simple_extension(end_w.extended, end_w.base) == "C"


def test_extend_walk_next_to_last_in_both_rows():
    # the letter next-to-last in both rows lifts to two arrows of the kind
    tau = parse_gp("1 2 3 4 / 4 3 2 1")
    pi = insert_letter(tau, "C", ("top", 4), ("bottom", 4)).extended
    assert pi.encode() == "1 2 3 C 4 / 4 3 2 C 1"
    for kind in "tb":
        steps, end_w = extend_walk(simple_witness(pi, tau), kind)
        assert steps == kind * 2
        assert end_w.base == apply_arrow(tau, kind).target
        assert is_simple_extension(end_w.extended, end_w.base) == "C"


def test_extend_walk_refusals():
    # every legal insertion lifts each arrow defined at its base, so the
    # refusals need witnesses built by hand that are not simple extensions
    w = insert_letter(parse_gp("0 / 0 1 1"), "A", ("top", 1), ("top", 2))
    with pytest.raises(MoveUndefined):
        extend_walk(w, "b")
    cases = [("1 2 / 2 1", "1 2 C C / 2 1", "lifted move is undefined"),
             ("1 2 3 4 / 4 3 2 1", "1 2 3 4 C / 4 3 2 C 1",
              "three moves leave the letter illegal"),
             ("1 2 3 4 / 4 3 2 1", "1 C 2 3 4 / 4 3 C 1 2",
              "the ends differ by more than the letter")]
    for base, pi, message in cases:
        w = ExtensionWitness(parse_gp(base), parse_gp(pi), "C")
        with pytest.raises(CaseUnmatched, match=message):
            extend_walk(w, "t")


def test_two_letter_difference_rejected():
    with pytest.raises(AlphabetMismatch):
        is_simple_extension(WITNESS, parse_gp("1 2 / 2 1"))


def test_an_extra_letter_that_fills_a_row_is_no_simple_extension():
    # erasing A would leave an empty top row, which no permutation has
    pi, tau = parse_gp("A A / 1 2 2 1"), parse_gp("1 2 / 2 1")
    assert is_simple_extension(pi, tau) is None


def test_insertions_and_witnesses_refuse_bad_slots():
    tau = parse_gp("1 2 / 2 1")
    with pytest.raises(IllegalPosition, match="unknown row 'middle'"):
        insert_letter(tau, "Z", ("middle", 1), ("top", 1))
    with pytest.raises(IllegalPosition, match="distinct slots"):
        insert_letter(tau, "Z", ("top", 1), ("top", 1))
    # Z ends both rows
    assert is_simple_extension(parse_gp("1 2 Z / 2 1 Z"), tau) is None


def test_extend_walk_chain():
    mid = erase_letters(WITNESS, {"A"})
    w = simple_witness(WITNESS, mid)
    steps, end_w = extend_walk(w, "tb")
    assert end_w.base == apply_arrow(apply_arrow(mid, 't').target, 'b').target
    assert erase_letters(end_w.extended, {"A"}) == end_w.base


def test_lift_cycles_closes_the_witness_walks_without_its_class(monkeypatch):
    # 40 random cycles of tau = H(2) lift through tau -> mid -> witness in
    # one pass each, and the witness's labeled class (1,739,520 vertices)
    # is never enumerated
    tau = erase_letters(WITNESS, {"A", "B"})
    seeds = random_directed_cycles(load_or_enumerate(tau), count=40,
                                   maxlen=14, seed=77)

    def refuse(*args, **kwargs):
        raise AssertionError("lift_cycles enumerated a class")

    monkeypatch.setattr(induction, "enumerate_class", refuse)
    walks = lift_cycles(WITNESS, "AB", seeds)
    assert len(walks) == 40
    text = "\n".join(walks)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "130aaba038ada063"
    for walk in walks:
        end = WITNESS
        for kind in walk:
            end = apply_arrow(end, kind).target
        assert end == WITNESS


def test_lift_cycles_refusals():
    # 1 ends the witness's bottom row, so erasing it is no simple extension;
    # the chain is certified before any walk is read
    with pytest.raises(IllegalPosition):
        lift_cycles(WITNESS, "1", ["t"])
    # one top arrow at tau is no cycle, so its lift ends away from the witness
    with pytest.raises(OpenWalk):
        lift_cycles(WITNESS, "AB", ["t"])
    with pytest.raises(AlphabetMismatch):
        lift_cycles(WITNESS, "", [])


def test_extension_preserves_irreducibility():
    rng = random.Random(71)
    count = 0
    while count < 80:
        gp = random_gp(rng, rng.randint(3, 6), strict=True, convention=True,
                       irreducible=True)
        wits = list(_all_single_insertions(gp))
        if not wits:
            continue
        w = rng.choice(wits)
        assert is_irreducible(w.extended), (gp.encode(), w.extended.encode())
        count += 1


def test_split_outputs_are_simple_extensions():
    rng = random.Random(73)
    pool = [WITNESS, parse_gp("0 A 1 2 A 3 / 3 B 2 1 B 0")]
    for gp in pool:
        orbits = [o for o in turning_orbits(gp) if orbit_order(gp, o) >= 2]
        for orbit in orbits:
            m1 = orbit_order(gp, orbit)
            res = split_singularity(gp, orbit[0], 1, m1 - 1)
            assert is_simple_extension(res.witness.extended, gp) \
                == res.witness.letter


def test_search_finds_witness():
    chains = search_extensions([T4], (6, -1, -1), budget=200_000)
    finals = {c[-1].extended.reduced().encode() for c in chains}
    assert WITNESS.reduced().encode() in finals


def test_search_empty_on_wrong_genus():
    assert search_extensions([T4], (14, 1, 1), budget=200_000) == []


SEARCH_HITS = {"1 2 / 2 1": (2, -1, -1), "1 2 3 / 3 2 1": (1, 1, -1, -1),
               "1 2 3 4 / 4 3 2 1": (6, -1, -1)}


@pytest.mark.parametrize("base", list(SEARCH_HITS))
@pytest.mark.parametrize("target", list(SEARCH_HITS.values()))
def test_search_lands_in_target_stratum(base, target):
    chains = search_extensions([parse_gp(base)], target)
    # each base reaches exactly one of the targets, the one listed with it
    assert bool(chains) == (SEARCH_HITS[base] == target)
    for chain in chains:
        first, second = chain
        assert first.base == parse_gp(base)
        assert second.base == first.extended
        final = second.extended
        assert is_suspendable(final), final.encode()
        assert stratum_signature(final).orders == target, final.encode()
