import random

import pytest

from conftest import random_gp, small_gps
from oracles import (arrow_matrix, defined_moves, intersection_form_by_cases,
                     minus_form)
from rvq import homology, linalg
from rvq.components import table1, tau_zorich
from rvq.errors import MoveUndefined, NotOmegaPreserving, ReverseArrowMissing
from rvq.gp import parse_gp
from rvq.groups import arrow_cycles, cycle_matrices
from rvq.homology import (DuplicateWinner, QuotientData, arrow_factor,
                          intersection_form, kz_walk, letters,
                          quotient_action, quotient_data)
from rvq.induction import (apply_arrow, enumerate_class, invert_arrow,
                           resolve_walk)
from rvq.linalg import identity, mul, rank, transpose
from rvq.strata import stratum_signature

TORUS = parse_gp("1 2 / 2 1")
T4 = parse_gp("1 2 3 4 / 4 3 2 1")
WITNESS = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")


def test_torus_form():
    assert intersection_form(TORUS) == ((0, 1), (-1, 0))


def test_tau4_form_nested():
    om = intersection_form(T4)
    for i in range(4):
        for j in range(4):
            expected = 0 if i == j else (1 if i < j else -1)
            assert om[i][j] == expected
    assert rank(om) == 4


def test_intersection_form_is_the_chord_crossing_sign():
    # every generalized permutation with d <= 5 at every row split, in the
    # reversed letter order, then seeded random ones with up to 14 letters
    checked = 0
    for gp in small_gps():
        order = gp.alphabet[::-1]
        assert intersection_form(gp, order) == intersection_form_by_cases(
            gp, order), gp.encode()
        checked += 1
    rng = random.Random(35)
    for _ in range(5_000):
        gp = random_gp(rng, rng.randint(2, 14))
        assert intersection_form(gp) == intersection_form_by_cases(gp), \
            gp.encode()
        checked += 1
    assert checked == 14_324


def test_antisymmetry_random():
    rng = random.Random(37)
    for _ in range(1000):
        gp = random_gp(rng, rng.randint(2, 7))
        om = intersection_form(gp)
        assert om == tuple(tuple(-x for x in row)
                           for row in zip(*om))


def test_rank_equals_twice_genus():
    rng = random.Random(41)
    count = 0
    while count < 100:
        gp = random_gp(rng, rng.randint(2, 6), irreducible=True)
        sig = stratum_signature(gp)  # cross-checks rank internally
        assert rank(intersection_form(gp)) == 2 * sig.genus
        count += 1


def test_torus_arrow_matrices():
    top = apply_arrow(TORUS, 't')
    assert arrow_matrix(top) == ((1, 1), (0, 1))  # Id + E_{12} on (1, 2)
    bottom = apply_arrow(TORUS, 'b')
    assert arrow_matrix(bottom) == ((1, 0), (1, 1))


def test_kz_plus_inverse_exhaustive():
    arrows = 0
    for gp in small_gps():
        for kind in defined_moves(gp):
            arrow = apply_arrow(gp, kind)
            if arrow.winner == arrow.loser:
                for inverse in (False, True):
                    with pytest.raises(MoveUndefined):
                        arrow_matrix(arrow, inverse=inverse)
                continue
            prod = mul(arrow_matrix(arrow), arrow_matrix(arrow, inverse=True))
            assert prod == identity(gp.d), (gp.encode(), kind)
            arrows += 1
    assert arrows > 10_000


def test_reflection_case_det():
    # a vanishing pairing of loser and winner flips the determinant
    rng = random.Random(43)
    seen = 0
    while seen < 10:
        gp = random_gp(rng, rng.randint(3, 6), irreducible=True)
        om = intersection_form(gp)
        for kind in defined_moves(gp):
            arrow = apply_arrow(gp, kind)
            li = gp.alphabet.index(arrow.loser)
            wi = gp.alphabet.index(arrow.winner)
            mat = arrow_matrix(arrow)
            assert linalg.det(mat) == (1 if om[li][wi] != 0 else -1)
            if om[li][wi] == 0:
                seen += 1


def _mixed_walk(base, rng, steps):
    """A walk of ``steps`` random t, b, T and B steps from ``base``."""
    cur, walk = base, ""
    while len(walk) < steps:
        op = rng.choice("tbTB")
        try:
            if op in "tb":
                cur = apply_arrow(cur, op).target
            else:
                cur = invert_arrow(cur, op.lower()).source
        except (MoveUndefined, ReverseArrowMissing):
            continue
        walk += op
    return walk


def test_arrow_factor_matches_the_form():
    # the reflection flag is read off the move; the form's entry is the
    # oracle, on every defined arrow of the small permutations (fixed-point
    # loops included, flagged by the form's zero diagonal) and on the arrows
    # of random mixed walks from Table-1 rows
    def check(arrow):
        order = arrow.source.alphabet
        li, wi = order.index(arrow.loser), order.index(arrow.winner)
        reflection = intersection_form(arrow.source)[li][wi] == 0
        assert arrow_factor(arrow, order) == (li, wi, reflection), \
            (arrow.source.encode(), arrow.kind)
        return reflection

    arrows = reflections = loops = 0
    for gp in small_gps():
        for kind in defined_moves(gp):
            arrow = apply_arrow(gp, kind)
            reflections += check(arrow)
            loops += arrow.winner == arrow.loser
            arrows += 1
    assert (arrows, reflections, loops) == (13_108, 6_996, 2_136)
    rng = random.Random(61)
    walked = 0
    for row in (1, 7, 11):
        base = table1(row)
        for _ in range(20):
            for arrow, _ in resolve_walk(base, _mixed_walk(base, rng, 50)):
                reflections += check(arrow)
                walked += 1
    assert walked == 3_000 and reflections > 6_996


def test_walk_and_cycle_matrices_build_no_form():
    # every factor is read off its move, so neither path builds a form
    base = table1(7)
    walk = _mixed_walk(base, random.Random(67), 50)
    assert set(walk) == set("tbTB")
    rc = enumerate_class(tau_zorich(3))
    cycles = arrow_cycles(rc)
    homology._intersection_form.cache_clear()
    kz_walk(base, walk)
    cycle_matrices(rc, cycles)
    assert homology._intersection_form.cache_info().misses == 0


def test_walk_products():
    mat, end = kz_walk(TORUS, "tb")
    assert mat == ((1, 1), (1, 2)) and end == TORUS
    mat, _ = kz_walk(TORUS, "tT")
    assert mat == identity(2)
    mat, _ = kz_walk(TORUS, "bB")
    assert mat == identity(2)


def test_walk_inverse_cancels():
    rng = random.Random(47)
    for base in (TORUS, T4, WITNESS):
        for _ in range(30):
            fwd = ""
            cur = base
            for _ in range(rng.randint(1, 12)):
                kind = rng.choice(defined_moves(cur))
                fwd += kind
                cur = apply_arrow(cur, kind).target
            walk = fwd + fwd[::-1].upper()
            mat, end = kz_walk(base, walk)
            assert end == base
            assert mat == identity(len(base.alphabet))


def test_conjugation_identity_spot():
    rng = random.Random(53)
    for base in (T4, WITNESS):
        om0 = intersection_form(base)
        for _ in range(50):
            fwd = ""
            cur = base
            for _ in range(rng.randint(1, 25)):
                kind = rng.choice(defined_moves(cur))
                fwd += kind
                cur = apply_arrow(cur, kind).target
            mat, end = kz_walk(base, fwd)
            om1 = intersection_form(end, base.alphabet)
            assert mul(mul(mat, om0), transpose(mat)) == om1


def test_quotient_torus_identity():
    mat, _ = kz_walk(TORUS, "tb")
    qd = quotient_data(TORUS)
    assert quotient_action(mat, qd) == mat and len(qd.reduced_form) == 2


def test_quotient_witness_rank4():
    qd = quotient_data(WITNESS)
    assert len(qd.reduced_form) == 4 and len(qd.form) == 6
    assert rank(qd.reduced_form) == 4
    assert linalg.det(qd.reduced_form) != 0
    assert quotient_action(identity(6), qd) == identity(4)


def test_quotient_rejects_non_preserving():
    bad = tuple(tuple(2 if i == j else 0 for j in range(6)) for i in range(6))
    with pytest.raises(NotOmegaPreserving):
        quotient_action(bad, quotient_data(WITNESS))


def test_quotient_refuses_a_kernel_that_is_not_invariant():
    # basis and kernel swapped: e_1 is no kernel vector of this form, and the
    # form-preserving m moves it off its own line; the 2x2 reduced form puts
    # the cut after the first two rows
    form = ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
    uni = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    qd = QuotientData(form=form, unimodular=uni,
                      inverse=linalg.invert_integer(uni),
                      reduced_form=((0, 0), (0, 0)))
    m = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    assert mul(mul(m, form), transpose(m)) == form
    with pytest.raises(NotOmegaPreserving, match="kernel is not invariant"):
        quotient_action(m, qd)


def _short_cycles(base, want=2, depth=14):
    from collections import deque
    found = []
    queue = deque([("", base)])
    while queue and len(found) < want:
        walk, cur = queue.popleft()
        if len(walk) > depth:
            continue
        for kind in defined_moves(cur):
            nxt = apply_arrow(cur, kind).target
            w = walk + kind
            if nxt == base and len(found) < want and w not in found:
                found.append(w)
            elif len(w) < depth:
                queue.append((w, nxt))
    return found


def test_quotient_respects_group_law():
    # pushing down commutes with multiplication along concatenated cycles
    c1, c2 = _short_cycles(WITNESS, want=2)
    m1, e1 = kz_walk(WITNESS, c1)
    m2, e2 = kz_walk(WITNESS, c2)
    assert e1 == WITNESS and e2 == WITNESS
    qd = quotient_data(WITNESS)
    r1, r2 = quotient_action(m1, qd), quotient_action(m2, qd)
    m12, end = kz_walk(WITNESS, c1 + c2)
    assert end == WITNESS
    r12 = quotient_action(m12, qd)
    assert r12 == mul(r2, r1)


def test_minus_form_values():
    om = minus_form(WITNESS)
    assert WITNESS.both_rows_letters() == ("1", "2", "3", "4")
    for i in range(4):
        for j in range(4):
            expected = 0 if i == j else (2 if i < j else -2)
            assert om[i][j] == expected
    assert rank(om) == 4


def test_minus_form_doubles_plus_on_genuine():
    rng = random.Random(59)
    count = 0
    while count < 50:
        gp = random_gp(rng, rng.randint(2, 6), strict=False)
        plus = intersection_form(gp)
        minus = minus_form(gp, gp.alphabet)
        assert minus == tuple(tuple(2 * x for x in row) for row in plus)
        count += 1


def test_minus_form_is_twice_the_intersection_form_on_the_both_rows_letters():
    # only the two cross-row cases of the entry rule apply to such letters
    checked = 0
    for gp in small_gps():
        order = gp.both_rows_letters()
        if not order:
            continue
        form = intersection_form(gp, order)
        assert minus_form(gp) == tuple(tuple(2 * x for x in row)
                                       for row in form), gp.encode()
        assert quotient_data(gp, minus=True).form == form
        checked += 1
    assert checked == 8_978


def test_an_arrow_changes_the_type_exactly_when_its_winner_is_a_duplicate():
    arrows = duplicates = 0
    for gp in small_gps():
        order = gp.both_rows_letters()
        for kind in defined_moves(gp):
            arrow = apply_arrow(gp, kind)
            duplicate = arrow.winner not in order
            assert arrow.type_change == duplicate, (gp.encode(), kind)
            if duplicate:
                with pytest.raises(DuplicateWinner):
                    arrow_factor(arrow, order)
            elif arrow.loser in order and arrow.loser != arrow.winner:
                # two both-rows letters pair: no minus factor is a reflection
                assert not arrow_factor(arrow, order)[2]
            arrows += 1
            duplicates += duplicate
    assert (arrows, duplicates) == (13_108, 2_716)


def test_minus_walk_cases():
    # winner 4 is shared, loser 1 is shared: contributes Id + E_{14}
    mat, end = kz_walk(WITNESS, "t", minus=True)
    expect = [list(row) for row in identity(4)]
    expect[0][3] = 1
    assert mat == tuple(tuple(r) for r in expect)

    # loser A is a duplicate: the second arrow of "bb" contributes Id
    arrow2 = apply_arrow(apply_arrow(WITNESS, 'b').target, 'b')
    assert arrow2.loser == "A" and arrow2.winner == "1"
    one, _ = kz_walk(WITNESS, "b", minus=True)
    two, _ = kz_walk(WITNESS, "bb", minus=True)
    assert two == one


def test_minus_switch_picks_letters_and_halved_form():
    assert letters(WITNESS) == WITNESS.alphabet
    assert letters(WITNESS, minus=True) == ("1", "2", "3", "4")
    qd = quotient_data(WITNESS, minus=True)
    assert qd.form == tuple(tuple(x // 2 for x in row)
                            for row in minus_form(WITNESS))
    assert qd.form == intersection_form(WITNESS, ("1", "2", "3", "4"))
    assert {x for row in qd.form for x in row} == {-1, 0, 1}
    assert len(qd.reduced_form) == len(qd.form) == 4
    assert len(kz_walk(WITNESS, "t", minus=True)[0]) == 4


def test_minus_walk_rejects_duplicate_winner():
    gp = parse_gp("1 2 A A / B B 2 1")  # top move has winner A
    with pytest.raises(DuplicateWinner, match="no minus factor"):
        kz_walk(gp, "t", minus=True)


def test_fixed_point_loop_has_no_cocycle():
    # a shared last letter wins against itself; its factor would have det -2
    with pytest.raises(MoveUndefined):
        kz_walk(parse_gp("0 0 1 / 1"), "t")
    with pytest.raises(MoveUndefined):
        kz_walk(parse_gp("0 1 / 0 1"), "t", minus=True)
