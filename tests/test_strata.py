import random

import pytest

from conftest import normal_forms, random_gp
from oracles import enumerate_up_to
from rvq.components import sigma_hyp, sigma_zorich, tau_sym, tau_zorich
from rvq.errors import CriterionInapplicable
from rvq.gp import GeneralizedPermutation, is_irreducible, parse_gp
from rvq.strata import (StratumSignature, orbit_order, spin_parity,
                        stratum_signature, turning_map, turning_orbits)


def test_torus_single_orbit():
    torus = parse_gp("1 2 / 2 1")
    orbits = turning_orbits(torus)
    assert len(orbits) == 1 and set(orbits[0]) == {1, 2, 3, 4}
    sig = stratum_signature(torus)
    assert sig.orders == (0,) and sig.genus == 1
    assert sig.orders.count(0) == 1


def test_tau4_single_orbit():
    t4 = parse_gp("1 2 3 4 / 4 3 2 1")
    orbits = turning_orbits(t4)
    assert len(orbits) == 1 and len(orbits[0]) == 8
    # the cycle through position 2 reads 2 -> 8 -> 5 -> 3 -> 7 -> 1 -> 4 -> 6
    s = turning_map(t4)
    chain = [2]
    for _ in range(7):
        chain.append(s[chain[-1]])
    assert chain == [2, 8, 5, 3, 7, 1, 4, 6]
    sig = stratum_signature(t4)
    assert sig.orders == (4,) and sig.genus == 2
    assert sig.abelian_orders() == (2,)


def test_witness_signature():
    g = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")
    sig = stratum_signature(g)
    assert sig.orders == (6, -1, -1) and sig.genus == 2
    assert str(sig) == "Q(6,-1,-1)"


def test_table1_row1_signature():
    gp = parse_gp("1 2 3 A 4 A 5 6 / 6 5 4 3 2 B B 1")
    sig = stratum_signature(gp)
    assert sig.orders == (6, 3, -1) and sig.genus == 3


def test_orbits_partition():
    rng = random.Random(23)
    for _ in range(1000):
        gp = random_gp(rng, rng.randint(2, 7))
        orbits = turning_orbits(gp)
        flat = [p for orb in orbits for p in orb]
        assert sorted(flat) == list(range(1, gp.ell + gp.m + 1))


def test_order_sum_is_euler():
    rng = random.Random(29)
    count = 0
    while count < 120:
        gp = random_gp(rng, rng.randint(2, 6), irreducible=True)
        sig = stratum_signature(gp)
        assert sum(sig.orders) == 4 * sig.genus - 4
        count += 1


def test_signature_constant_on_classes():
    for text in ("1 2 3 4 / 4 3 2 1", "0 A A 1 / 1 B B 0",
                 "1 2 3 A A 4 / 4 3 B B 2 1"):
        seed = parse_gp(text)
        sig = stratum_signature(seed)
        rc = enumerate_up_to(seed, limit=2000)
        for v in rc.vertices[:200]:
            assert stratum_signature(v).orders == sig.orders


def test_genuine_orders_even():
    rng = random.Random(31)
    count = 0
    while count < 60:
        gp = random_gp(rng, rng.randint(2, 6), strict=False, irreducible=True)
        sig = stratum_signature(gp)
        assert sig.all_even
        ab = sig.abelian_orders()
        assert sum(ab) == 2 * sig.genus - 2
        count += 1


def test_abelian_str_requires_even():
    sig = stratum_signature(parse_gp("1 2 3 A A 4 / 4 3 B B 2 1"))
    with pytest.raises(ValueError):
        sig.abelian_orders()


def test_orbit_order_helper():
    g = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")
    orders = sorted(orbit_order(g, o) for o in turning_orbits(g))
    assert orders == [-1, -1, 6]


def test_no_irreducible_strict_in_empty_strata():
    # Masur-Smillie: Q(), Q(1,-1), Q(4) and Q(3,1) contain no quadratic
    # differential that is not a square, so no irreducible strict
    # permutation under the convention may land there (marked points aside)
    empty = {(), (1, -1), (4,), (3, 1)}
    checked = 0
    for d in range(2, 6):
        for word in normal_forms(d):
            for ell in range(1, 2 * d):
                gp = GeneralizedPermutation(word[:ell], word[ell:])
                if not (gp.is_strict and gp.satisfies_convention()
                        and is_irreducible(gp)):
                    continue
                orders = tuple(o for o in stratum_signature(gp).orders if o)
                assert orders not in empty, gp.encode()
                checked += 1
    assert checked == 1662


def test_spin_parity_of_hyperelliptic_components():
    # Kontsevich-Zorich: floor((g + 1) / 2) mod 2 on H(2g-2)^hyp and on
    # H(g-1,g-1)^hyp with g odd
    checked = 0
    for d in range(4, 16):
        sig = stratum_signature(tau_sym(d))
        if any(o % 2 for o in sig.abelian_orders()):
            continue
        assert spin_parity(tau_sym(d)) == (sig.genus + 1) // 2 % 2, d
        checked += 1
    assert checked == 9


def test_spin_parity_of_zorich_representatives():
    assert [spin_parity(tau_zorich(g)) for g in range(3, 8)] == [1] * 5
    assert [spin_parity(sigma_zorich(g)) for g in range(4, 8)] == [0] * 4


@pytest.mark.parametrize("gp", [tau_sym(5), tau_sym(9), sigma_hyp(2, 1)],
                         ids=["H(1,1)", "H(3,3)", "strict"])
def test_spin_parity_needs_even_abelian_zeros(gp):
    with pytest.raises(CriterionInapplicable):
        spin_parity(gp)
