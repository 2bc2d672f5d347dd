import random

import pytest

from conftest import random_gp
from oracles import STAR, ConventionViolated, to_perm_involution
from rvq.strata import cover_stratum
from rvq.errors import InconsistentGenus
from rvq.gp import parse_gp
from rvq.strata import StratumSignature, stratum_signature


def test_torus_table():
    table = to_perm_involution(parse_gp("1 2 / 2 1"))
    assert len(table.entries) == 5
    assert table.entries[table.star_index] == STAR
    assert table.star_index == 2
    # sign consistency: the two copies of a letter carry opposite signs
    signed = [e for e in table.entries if e != STAR]
    for letter in ("1", "2"):
        signs = sorted(s for x, s in signed if x == letter)
        assert signs == [0, 1]


def test_strict_table_valid():
    table = to_perm_involution(parse_gp("1 2 3 A A 4 / 4 3 B B 2 1"))
    assert len(table.entries) == 13
    left = table.left_letters()
    right = table.right_letters()
    assert {("B", 0), ("B", 1)} <= left
    assert {("A", 0), ("A", 1)} <= right


def test_one_sided_duplicate_rejected():
    with pytest.raises(ConventionViolated):
        to_perm_involution(parse_gp("1 A A 2 / 2 1"))


def test_cover_of_witness():
    sig = stratum_signature(parse_gp("1 2 3 A A 4 / 4 3 B B 2 1"))
    cs = cover_stratum(sig)
    assert cs.orders == (3, 3, 0, 0)
    assert cs.genus == 4 and cs.genus == 2 * sig.genus
    assert cs.marked_points == 2
    assert sig.minus_eligible


def test_cover_of_Q233():
    sig = StratumSignature(orders=(3, 3, 2), genus=3)
    cs = cover_stratum(sig)
    assert cs.orders == (4, 4, 1, 1)
    assert cs.genus == 6


@pytest.mark.parametrize("orders, genus", [((1,), 1), ((2,), 1),
                                           ((-1, -1), 1), ((4, 1), 2)])
def test_cover_refuses_orders_that_do_not_sum_to_4g_minus_4(orders, genus):
    with pytest.raises(InconsistentGenus, match="4g - 4"):
        cover_stratum(StratumSignature(orders, genus))


def test_cover_of_genuine_doubles():
    rng = random.Random(79)
    count = 0
    while count < 40:
        gp = random_gp(rng, rng.randint(2, 6), strict=False, irreducible=True)
        sig = stratum_signature(gp)
        cs = cover_stratum(sig)
        assert cs.genus == 2 * sig.genus - 1
        halves = sorted(o // 2 for o in sig.orders for _ in range(2))
        assert sorted(cs.orders) == halves
        assert not sig.minus_eligible
        count += 1


def test_cover_identity_random():
    rng = random.Random(83)
    count = 0
    while count < 120:
        gp = random_gp(rng, rng.randint(2, 6), irreducible=True)
        sig = stratum_signature(gp)
        cs = cover_stratum(sig)
        s = sum(1 for o in sig.orders if o % 2)
        assert 2 * cs.genus - 2 == 4 * sig.genus - 4 + s
        assert sig.minus_eligible == (s == 2)
        if s == 2:
            assert cs.genus == 2 * sig.genus
        count += 1
