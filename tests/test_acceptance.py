"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value here is exact (integer identities), no
tolerances are involved anywhere.
"""

import math
import random

import pytest

from conftest import small_gps
from oracles import (arrow_matrix, decomposition_product, defined_moves,
                     directed_decomposition, minus_form, minus_generators_modp,
                     plus_generators_modp, simple_witness)
from rvq import groups, induction
from rvq.components import (GENUS2_WITNESSES, identify_component, sigma_hyp,
                            sigma_zorich, table1, table1_rows, tau_sym,
                            tau_zorich, verify_extension_table)
from rvq.errors import (CriterionInapplicable, MoveUndefined,
                        ReverseArrowMissing)
from rvq.extensions import (_all_single_insertions, extend_walk, lift_cycles,
                            split_even_zero, split_singularity)
from rvq.gp import erase_letters, is_suspendable, parse_gp
from rvq.groups import (admissible_component, arrow_cycles, image_modp,
                        modp_closure, random_directed_cycles,
                        rauzy_veech_group_modp, sp_order)
from rvq.homology import intersection_form, kz_walk
from rvq.induction import (apply_arrow, invert_arrow, load_or_enumerate,
                           resolve_walk)
from rvq.linalg import det, identity, mul, rank, transpose
from rvq.strata import StratumSignature, stratum_signature, turning_orbits, \
    orbit_order
from rvq.strata import cover_stratum

WITNESS = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")
WITNESS2 = parse_gp("1 2 A A 3 4 5 / 5 B B 4 3 2 1")


def report(n, text):
    print("ACCEPTANCE %d: %s ... PASS" % (n, text))


def test_criterion_1_extension_table():
    reports = verify_extension_table()
    assert len(reports) == 12
    failures = [r.row for r in reports if not r.passed]
    assert not failures, "rows failing: %s" % failures
    report(1, "all 12 extension-table rows verify (irreducibility, "
              "convention, class membership, stratum, non-hyperelliptic)")


def test_criterion_2_genus2_pair():
    for start, orders, text in GENUS2_WITNESSES:
        gp = parse_gp(text)
        sig = stratum_signature(gp)
        assert sig.orders == orders
        tau = erase_letters(gp, {"A", "B"})
        assert identify_component(tau) == start
    report(2, "genus-2 witnesses lie in Q(6,-1,-1)/Q(3,3,-1,-1) and erase "
              "to H(2)/H(1,1)")


def _random_mixed_walk(base, rng, maxlen=50):
    cur = base
    walk = ""
    for _ in range(rng.randint(1, maxlen)):
        ops = list("tbTB")
        rng.shuffle(ops)
        for op in ops:
            try:
                if op in "tb":
                    cur = apply_arrow(cur, op).target
                else:
                    cur = invert_arrow(cur, op.lower()).source
            except (MoveUndefined, ReverseArrowMissing):
                continue
            walk += op
            break
    return walk, cur


def test_criterion_3_symplectic_conjugation():
    bases = [parse_gp("1 2 / 2 1"), parse_gp("1 2 3 4 / 4 3 2 1"),
             WITNESS, table1(1), table1(7), table1(11)]
    rng = random.Random(2024)
    total = 0
    reversed_steps = 0
    for base in bases:
        om0 = intersection_form(base)
        for _ in range(170):
            walk, _ = _random_mixed_walk(base, rng)
            mat, end = kz_walk(base, walk)
            om1 = intersection_form(end, base.alphabet)
            assert mul(mul(mat, om0), transpose(mat)) == om1
            assert det(mat) in (1, -1)
            total += 1
            reversed_steps += sum(1 for c in walk if c.isupper())
    assert total >= 1000 and reversed_steps > 0
    report(3, "omega conjugation and det +-1 exact on %d mixed walks "
              "(%d reversed steps) over %d bases" %
           (total, reversed_steps, len(bases)))


def _compose_extension(chain, kind):
    """The arrows that one arrow ``kind`` at the chain's base lifts to
    through the composed extension maps."""
    walk = kind
    for witness in chain:
        walk, _ = extend_walk(witness, walk)
    return [arrow for arrow, _ in resolve_walk(chain[-1].extended, walk)]


def _check_lift_conjugates(chain, kind):
    """lift(u . eta^-1) == lift(u) . gamma^-1 for every unit vector u at the
    chain's base, eta the arrow ``kind`` there and gamma its lifted walk;
    returns the number of unit vectors checked."""
    base = chain[0].base
    big = chain[-1].extended
    order_small = base.alphabet
    order_big = big.alphabet
    inc = {x: order_big.index(x) for x in order_small}
    eta = apply_arrow(base, kind)
    gamma = _compose_extension(chain, kind)
    # inverse of the walk matrix: product of step inverses
    inv = identity(len(order_big))
    for a in gamma:
        inv = mul(inv, arrow_matrix(a, order_big, inverse=True))
    eta_inv = arrow_matrix(eta, order_small, inverse=True)
    for i in range(len(order_small)):
        u = tuple(1 if j == i else 0 for j in range(len(order_small)))
        (small,) = mul((u,), eta_inv)
        lift_small = [0] * len(order_big)
        for j, x in enumerate(small):
            lift_small[inc[order_small[j]]] = x
        lift_u = [0] * len(order_big)
        lift_u[inc[order_small[i]]] = 1
        (big_side,) = mul((tuple(lift_u),), inv)
        assert tuple(lift_small) == big_side, (base.encode(), kind, i)
    return len(order_small)


def test_criterion_4_extension_conjugation():
    tau = parse_gp("1 2 3 4 / 4 3 2 1")
    mid = erase_letters(WITNESS, {"A"})
    chains = {
        "one letter (B)": [simple_witness(mid, tau)],
        "one letter (A) over mid": [simple_witness(WITNESS, mid)],
        "two letters (B then A)": [simple_witness(mid, tau),
                                   simple_witness(WITNESS, mid)],
    }
    checked = 0
    for chain in chains.values():
        for kind in defined_moves(chain[0].base):
            checked += _check_lift_conjugates(chain, kind)
    report(4, "inclusion conjugates arrow inverses across %d basis checks "
              "on the genus-2 witness chains" % checked)


def test_criterion_4_every_small_arrow_lifts():
    # every arrow at every suspendable base with d <= 4, through every legal
    # single insertion; 178 of them have the letter next-to-last in both
    # rows, the one position a case table once refused
    arrows = both_next_to_last = 0
    for tau in small_gps():
        if tau.d > 4 or not is_suspendable(tau):
            continue
        for w in _all_single_insertions(tau):
            for kind in defined_moves(tau):
                _check_lift_conjugates([w], kind)
                arrows += 1
                both_next_to_last += (w.extended.top[-2]
                                      == w.extended.bottom[-2] == w.letter)
    assert (arrows, both_next_to_last) == (5998, 178)
    report(4, "all %d arrows of the d <= 4 pool lift and conjugate, %d "
              "with the letter next-to-last in both rows"
           % (arrows, both_next_to_last))


def _split_pool(rng):
    pool = [WITNESS, WITNESS2, sigma_hyp(2, 1), sigma_hyp(0, 3),
            parse_gp("1 A A 2 3 4 5 6 / 6 B B 5 4 3 2 1"),
            parse_gp("1 A 2 3 A 4 5 6 / 6 B 5 4 B 3 2 1")]
    # wander: the stratum is invariant but the combinatorics vary
    out = list(pool)
    for gp in pool:
        cur = gp
        for _ in range(6):
            kinds = defined_moves(cur)
            cur = apply_arrow(cur, rng.choice(kinds)).target
            out.append(cur)
    return out


def test_criterion_5_splitting_suite():
    rng = random.Random(55)
    pool = _split_pool(rng)
    done = 0
    while done < 500:
        gp = rng.choice(pool)
        orbits = [o for o in turning_orbits(gp) if orbit_order(gp, o) >= 1]
        orbit = rng.choice(orbits)
        m1 = orbit_order(gp, orbit)
        legal = [m for m in range(-1, m1 + 2)
                 if m != 0 and m1 - m != 0 and m1 - m >= -1]
        m11 = rng.choice(legal)
        res = split_singularity(gp, orbit[0], m11, m1 - m11)
        got = stratum_signature(res.witness.extended)
        base_sig = stratum_signature(gp)
        want = list(base_sig.orders)
        want.remove(m1)
        want += [m11, m1 - m11]
        assert sorted(got.orders) == sorted(want)
        assert got.genus == base_sig.genus
        done += 1

    convention_checked = 0
    for tau in (tau_sym(4), tau_sym(5), tau_sym(6), tau_zorich(3),
                tau_sym(7), tau_zorich(4)):
        orbits = [o for o in turning_orbits(tau) if orbit_order(tau, o) >= 2]
        for orbit in orbits:
            q = orbit_order(tau, orbit)
            for _ in range(4):
                m11 = rng.choice([m for m in range(-1, q, 2) if m % 2])
                rest = q - m11
                m12 = rng.choice([m for m in range(-1, rest, 2)
                                  if m % 2 and rest - m != 0
                                  and rest - m >= -1])
                out = split_even_zero(tau, orbit[0], m11, m12, rest - m12)
                assert out.satisfies_convention()
                sig = stratum_signature(out)
                want = sorted(list(stratum_signature(tau).orders), reverse=True)
                want.remove(q)
                want += [m11, m12, rest - m12]
                assert sorted(sig.orders) == sorted(want)
                convention_checked += 1
    assert convention_checked >= 30
    report(5, "500 random splits hit the predicted strata at equal genus; "
              "%d double splits all satisfy the convention" %
           convention_checked)


def test_criterion_6_double_cover():
    cases = {
        (6, 3, -1): ((4, 3, 3, 0), 6),
        (3, 3, 3, -1): ((4, 4, 4, 0), 7),
        (6, 3, 3): ((4, 4, 3, 3), 8),
        (3, 3, 3, 3): ((4, 4, 4, 4), 9),
        (6, -1, -1): ((3, 3, 0, 0), 4),
        (3, 3, 2): ((4, 4, 1, 1), 6),
    }
    for orders, (cover_orders, cover_genus) in cases.items():
        total = sum(orders)
        sig = StratumSignature(orders=orders, genus=total // 4 + 1)
        cs = cover_stratum(sig)
        assert cs.orders == cover_orders, orders
        assert cs.genus == cover_genus, orders
        s = sum(1 for o in orders if o % 2)
        assert 2 * cs.genus - 2 == 4 * sig.genus - 4 + s
        if s == 2:
            assert cs.genus == 2 * sig.genus
    # the table rows themselves produce matching signatures
    for row in table1_rows():
        assert stratum_signature(row.gp).orders == row.end_orders
    report(6, "double-cover substitution, genus identity, and minus "
              "eligibility verified on all six strata")


def test_criterion_7_mod2_indices():
    torus = parse_gp("1 2 / 2 1")
    res = rauzy_veech_group_modp(torus, load_or_enumerate(torus), 2,
                                 cycles=24, seed=1)
    assert res.order == sp_order(1, 2) and res.index == 1

    odd = tau_zorich(3)
    res_odd = rauzy_veech_group_modp(odd, load_or_enumerate(odd), 2,
                                     cycles=120, seed=1)
    assert res_odd.order == 51840
    assert res_odd.index == 28 == sp_order(3, 2) // 51840

    h2 = tau_sym(4)
    res_h2 = rauzy_veech_group_modp(h2, load_or_enumerate(h2), 2,
                                    cycles=60, seed=1)
    assert 6 % res_h2.index == 0
    report(7, "mod-2 indices: torus 1, H(4)^odd 28, H(2) %d (divides 6)"
           % res_h2.index)


def _witness_walks():
    """The closed walks at the witness that lift_cycles makes from 40 random
    cycles of tau = H(2), through tau -> mid -> witness."""
    tau = erase_letters(WITNESS, {"A", "B"})
    seeds = random_directed_cycles(load_or_enumerate(tau), count=40,
                                   maxlen=14, seed=77)
    return lift_cycles(WITNESS, "AB", seeds)


def _admissible_cycles(rng, want):
    """Closed walks at the witness avoiding duplicate-letter winners."""
    closed = _witness_walks()
    assert len(closed) >= 10
    out = []
    while len(out) < want:
        a, b = rng.choice(closed), rng.choice(closed)
        variant = rng.randrange(3)
        if variant == 0:
            out.append(a + b)
        elif variant == 1:
            out.append(a + b[::-1].swapcase())
        else:
            out.append(a)
    return out


def test_criterion_8_minus_cocycle():
    rng = random.Random(88)
    tb = WITNESS.both_rows_letters()
    om = minus_form(WITNESS, tb)
    assert rank(om) == 4 == 2 * stratum_signature(WITNESS).genus
    cycles = _admissible_cycles(rng, 500)
    for walk in cycles:
        mat, end = kz_walk(WITNESS, walk, minus=True)
        assert end == WITNESS
        assert mul(mul(mat, om), transpose(mat)) == om
        # the identity also holds on a strict prefix (an open walk)
        cut = rng.randrange(1, len(walk)) if len(walk) > 1 else 1
        pmat, pend = kz_walk(WITNESS, walk[:cut], minus=True)
        pom = minus_form(pend, tb)
        assert mul(mul(pmat, om), transpose(pmat)) == pom
    report(8, "minus conjugation exact on 500 admissible cycles; "
              "rank of the cover's minus form is 4 = 2g")


def _random_mixed_cycle(rc, rng, max_steps=16):
    cur = 0
    walk = ""
    for _ in range(rng.randint(1, max_steps)):
        op, cur = rng.choice([(move, j) for move in "tbTB"
                              if (j := rc.step(cur, move)) is not None])
        walk += op
    return walk + rc.path_to_base(cur)


def test_criterion_9_monoid_shadow():
    rng = random.Random(99)
    for base in (parse_gp("1 2 / 2 1"), parse_gp("1 2 3 4 / 4 3 2 1")):
        rc = load_or_enumerate(base)
        directed = random_directed_cycles(rc, count=40, maxlen=24, seed=5)
        directed += arrow_cycles(rc)
        mixed = [w for w in (_random_mixed_cycle(rc, rng) for _ in range(80))
                 if w]
        g_dir, form = plus_generators_modp(base, directed, 2)
        g_mix, _ = plus_generators_modp(base, directed + mixed, 2)
        assert modp_closure(g_dir, 2, form).order == \
            modp_closure(g_mix, 2, form).order

    base = parse_gp("1 2 3 4 / 4 3 2 1")
    rc = load_or_enumerate(base)
    done = 0
    while done < 100:
        walk = _random_mixed_cycle(rc, rng)
        if not walk:
            continue
        pieces = directed_decomposition(base, rc, walk)
        want, end = kz_walk(base, walk)
        assert end == base
        assert decomposition_product(base, pieces) == want
        done += 1
    report(9, "directed and mixed mod-2 closures agree; 100 mixed cycles "
              "decompose into directed cycles with exact matrix identity")


def test_criterion_10_genus4_mod2_images():
    # the images predicted by the classification of Rauzy-Veech groups: the
    # orthogonal group of the spin quadratic form, O^-(8, F_2) for odd and
    # O^+(8, F_2) for even spin, of index 2^(g-1) (2^g -+ 1) in Sp(8, F_2),
    # and S_9 for the hyperelliptic component
    total = sp_order(4, 2)
    odd, even, hyp = tau_zorich(4), sigma_zorich(4), tau_sym(8)
    res = rauzy_veech_group_modp(odd, load_or_enumerate(odd), 2,
                                 cycles=40, seed=1)
    assert res.index == 120 == 2 ** 3 * (2 ** 4 - 1)
    assert res.order * 120 == total
    res = rauzy_veech_group_modp(even, load_or_enumerate(even), 2,
                                 cycles=40, seed=1)
    assert res.index == 136 == 2 ** 3 * (2 ** 4 + 1)
    assert res.order * 136 == total
    res = rauzy_veech_group_modp(hyp, load_or_enumerate(hyp), 2,
                                 cycles=40, seed=1)
    assert res.order == 362_880 == math.factorial(9)
    report(10, "genus-4 mod-2 images: H(6)^odd index 120, H(6)^even "
               "index 136, H(6)^hyp order 9!")


def test_criterion_11_lifted_cycles_close_without_a_class(monkeypatch):
    # tau's group lies in the witness's under the inclusion of the simple
    # extensions: the lifted walks' matrices close through image_modp
    # alone, with no class of the witness (1,739,520 labeled vertices)
    walks = _witness_walks()
    assert len(walks) == 40
    # the 19-vertex admissible component only feeds the comparison below
    comp = admissible_component(WITNESS)

    def refuse(*args, **kwargs):
        raise AssertionError("image_modp enumerated a class")

    for minus, oracle in ((True, minus_generators_modp),
                          (False, plus_generators_modp)):
        mats = []
        for walk in walks:
            mat, end = kz_walk(WITNESS, walk, minus=minus)
            assert end == WITNESS
            mats.append(mat)
        for p, index in ((2, 6), (3, 1)):
            # plus, mod 2: index 6 in Sp(4, F_2) is S_5, the image of tau
            with monkeypatch.context() as m:
                m.setattr(groups, "enumerate_class", refuse)
                m.setattr(induction, "enumerate_class", refuse)
                res = image_modp(WITNESS, mats, p, minus=minus)
            assert (res.genus, res.index, res.exact) == (2, index, False)
            gens, form = oracle(WITNESS, walks, p)
            assert res == modp_closure(gens, p, form)
            if minus:
                full = rauzy_veech_group_modp(WITNESS, comp, p, minus=True)
                assert full.exact and full.order % res.order == 0
    report(11, "40 lifted cycles close without a class of the witness: "
               "minus and plus index 6 mod 2, 1 mod 3")


def test_criterion_11_lifted_minus_matrices_are_the_both_rows_blocks():
    # A and B never win along a lifted walk, so a both-rows row of the plus
    # matrix only ever gains both-rows rows
    walks = _witness_walks()
    assert len(walks) == 40
    both = [WITNESS.alphabet.index(x) for x in WITNESS.both_rows_letters()]
    duplicate = [WITNESS.alphabet.index(x) for x in "AB"]
    for walk in walks:
        plus, end = kz_walk(WITNESS, walk)
        minus, minus_end = kz_walk(WITNESS, walk, minus=True)
        assert end == minus_end == WITNESS
        assert minus == tuple(tuple(plus[i][j] for j in both) for i in both)
        assert not any(plus[i][j] for i in both for j in duplicate)
    report(11, "the minus matrices of 40 lifted cycles are the both-rows "
               "blocks of their plus matrices")


@pytest.mark.parametrize("row, count, plus, minus", [
    (1, 32, 288, 288), (2, 135, 28, 28), (3, 32, 288, 288),
    (4, 135, 28, 28), (5, 510, 1, None), (6, 510, 1, None)])
def test_table1_rows_1_to_6_through_the_lift(row, count, plus, minus):
    # every distinct arrow cycle of tau's labeled class lifts through the
    # row's chain tau -> mid -> pi to a closed walk at pi, so the lifted
    # matrices generate a subgroup of pi's group: its mod-2 index is tau's
    # own on the plus side, the admissible component's on the minus side,
    # and 1 mod 3; rows 5 and 6 have four singularities of odd order, so
    # their minus image is refused before any matrix is read
    pi = table1(row)
    rc = load_or_enumerate(erase_letters(pi, {"A", "B"}))
    walks = lift_cycles(pi, "AB", dict.fromkeys(arrow_cycles(rc)))
    assert len(walks) == count
    for sign, index in ((False, plus), (True, minus)):
        if index is None:
            with pytest.raises(CriterionInapplicable):
                image_modp(pi, (kz_walk(pi, w, minus=True)[0] for w in walks),
                           2, minus=True)
            continue
        mats = []
        for walk in walks:
            mat, end = kz_walk(pi, walk, minus=sign)
            assert end == pi
            mats.append(mat)
        for p, want in ((2, index), (3, 1)):
            res = image_modp(pi, mats, p, minus=sign)
            assert (res.index, res.exact) == (want, False)
