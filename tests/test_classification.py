"""The classification theorems as the oracle of every abelian mod-p image:
the exact images of the labeled classes of the genuine suspendable
permutations with at most 7 letters, against the orders that
``oracles.predicted_mod2_order`` and ``sp_order`` give for their
components."""

import math

from oracles import (abelian_class_bases, classification_mismatches,
                     component_suffixes, predicted_mod2_order)
from rvq.groups import sp_order


def test_the_predicted_orders_are_those_of_the_named_groups():
    # O^-(2, F_2) = S_3 = Sp(2, F_2), S_6 = Sp(4, F_2), O^-(4, F_2) = S_5,
    # O^+(6, F_2) = S_8, and O^± has index 2^{g-1}(2^g ± 1) in Sp(2g, F_2)
    assert predicted_mod2_order("", (), 1) == 6 == sp_order(1, 2)
    assert predicted_mod2_order("", (2,), 2) == math.factorial(5)
    assert predicted_mod2_order("", (1, 1), 2) == sp_order(2, 2)
    assert predicted_mod2_order("^hyp", (2, 2), 3) == math.factorial(8)
    for g in (3, 4, 5):
        assert predicted_mod2_order("", (3, 1) + (0,) * (g - 3), g) == \
            sp_order(g, 2)
        for suffix, sign in (("^even", 1), ("^odd", -1)):
            index = sp_order(g, 2) // predicted_mod2_order(suffix, (4,), g)
            assert index == 2 ** (g - 1) * (2 ** g + sign)
    assert predicted_mod2_order("^even", (2, 2), 3) == math.factorial(8)


def test_the_components_are_those_of_kontsevich_zorich():
    assert component_suffixes((), 1) == component_suffixes((1, 1), 2) == [""]
    assert component_suffixes((4,), 3) == ["^hyp", "^odd"]
    assert component_suffixes((2, 2), 3) == ["^hyp", "^odd"]
    assert component_suffixes((3, 1), 3) == [""]
    assert component_suffixes((6,), 4) == ["^hyp", "^odd", "^even"]
    assert component_suffixes((3, 3), 4) == ["^hyp", "^nonhyp"]
    assert component_suffixes((4, 2), 4) == ["^odd", "^even"]


def test_every_abelian_image_up_to_seven_letters_is_the_predicted_one():
    # 28 classes: 14 in strata with marked points, where H(4,0) has both
    # of H(4)'s indices, 288 and 28
    assert len(abelian_class_bases(7)) == 28
    assert classification_mismatches(7, (2, 3)) == []
