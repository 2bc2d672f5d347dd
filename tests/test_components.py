import random
from functools import cache

import pytest

from conftest import random_gp, small_gps
from oracles import enumerate_up_to, hyperelliptic_by_rotations
from rvq import components, strata
from rvq.components import (UNKNOWN, canonical_rep, hyperelliptic_test,
                            identify_component, sigma_hyp, sigma_zorich,
                            table1, table1_rows, tau_sym, tau_zorich,
                            verify_extension_table)
from rvq.errors import OutOfRange, UnknownLabel
from rvq.extensions import _all_single_insertions
from rvq.gp import (GeneralizedPermutation, erase_letters, is_irreducible,
                    parse_gp)
from rvq.induction import apply_arrow, enumerate_class, load_or_enumerate
from rvq.strata import stratum_signature


def test_representative_shapes():
    assert tau_sym(4).encode() == "0 1 2 3 / 3 2 1 0"
    assert tau_zorich(3).encode() == "0 1 2 3 5 6 / 3 2 6 5 1 0"
    assert sigma_zorich(4).encode() == "0 1 2 3 5 6 8 9 / 6 5 3 2 9 8 1 0"
    assert sigma_hyp(2, 1).encode() == "0 A 1 2 A 3 / 3 B 2 1 B 0"
    assert table1(1).encode() == "1 2 3 A 4 A 5 6 / 6 5 4 3 2 B B 1"


def test_representative_strata():
    assert stratum_signature(tau_sym(4)).abelian_orders() == (2,)
    assert stratum_signature(tau_sym(5)).abelian_orders() == (1, 1)
    assert stratum_signature(tau_zorich(3)).abelian_orders() == (4,)
    assert stratum_signature(tau_zorich(4)).abelian_orders() == (6,)
    assert stratum_signature(sigma_zorich(4)).abelian_orders() == (6,)


def test_canonical_rep_dispatch():
    assert canonical_rep("tau_sym", 4) == tau_sym(4)
    with pytest.raises(UnknownLabel):
        canonical_rep("nope", 3)
    with pytest.raises(OutOfRange):
        canonical_rep("sigma_zorich", 3)
    with pytest.raises(OutOfRange):
        canonical_rep("table1", 13)
    with pytest.raises(OutOfRange):
        canonical_rep("tau_sym", 1)


def test_hyperelliptic_family():
    # interleaved representatives are hyperelliptic across the parameter grid
    for j in range(0, 3):
        for k in range(0, 3):
            if j + k > 4:
                continue
            for r in (2 * j + 1, 2 * j):
                s = 2 * k
                if s + r < 1 or (r % 2 == 0 and s + r < 2):
                    continue
                gp = sigma_hyp(s, r)
                assert hyperelliptic_test(gp), (s, r)
                sig = stratum_signature(gp)
                if r % 2:
                    assert sorted(sig.orders, reverse=True) == sorted(
                        [4 * j + 2, 2 * k - 1, 2 * k - 1], reverse=True)


def test_hyperelliptic_negative():
    assert not hyperelliptic_test(parse_gp("1 2 3 A A 4 / 4 3 B B 2 1"))
    assert not hyperelliptic_test(parse_gp("1 2 A A 3 4 5 / 5 B B 4 3 2 1"))
    # the core "A A 2 B B 3 / 3 2" has rows of 6 and 2 letters, so the
    # interleaved form cannot match, and no rotation doubles the top row
    assert hyperelliptic_test(parse_gp("1 A A 2 B B 3 / 3 2 1")) is False


def test_hyperelliptic_inapplicable():
    assert hyperelliptic_test(parse_gp("1 2 / 1 2")) is None  # genuine
    # strict, but the first top letter is not the last bottom letter
    assert hyperelliptic_test(parse_gp("A A 1 2 / 2 B B 1")) is None


@pytest.mark.parametrize("d", range(3, 10))
def test_hyperelliptic_test_does_not_apply_to_genuine_permutations(d):
    # both forms need a letter twice in one row, so on a genuine permutation
    # the criterion could only say no, even on tau_sym(d), which is
    # hyperelliptic
    assert hyperelliptic_test(tau_sym(d)) is None


def test_hyperelliptic_test_refuses_a_degenerate_core():
    # a strict permutation whose core, without its first top letter, has
    # an empty row
    assert hyperelliptic_test(parse_gp("1 / A A 1")) is None


def test_hyperelliptic_relabeling_invariant():
    gp = sigma_hyp(2, 1)
    mapping = dict(zip(gp.alphabet, "qwertzu"[:len(gp.alphabet)]))
    assert hyperelliptic_test(gp.relabel(mapping))


def test_hyperelliptic_test_matches_the_rotation_search():
    # every small permutation, every vertex of the sigma_hyp classes and its
    # transpose, and random cores framed as Z.top / bottom.Z, the shape the
    # test applies to
    hyp = [gp for s in (0, 2, 4) for r in range(4)
           if s + r >= 1 and not (r % 2 == 0 and s + r < 2)
           for v in enumerate_class(sigma_hyp(s, r),
                                    reduced_labels=True).vertices
           for gp in (v, GeneralizedPermutation(v.bottom, v.top))]
    rng = random.Random(31)
    framed = []
    while len(framed) < 5000:
        core = random_gp(rng, rng.randint(2, 8))
        framed.append(GeneralizedPermutation(("Z",) + core.top,
                                             core.bottom + ("Z",)))
    counts = {}
    for gp in (*small_gps(), *hyp, *framed):
        got = hyperelliptic_test(gp)
        assert got == hyperelliptic_by_rotations(gp), gp.encode()
        counts[got] = counts.get(got, 0) + 1
    assert counts == {True: 39 + 378 + 218, False: 748 + 4519,
                      None: 8537 + 13834 + 263}


def test_identify_basic():
    assert identify_component(tau_sym(4)) == "H(2)"
    assert identify_component(tau_sym(5)) == "H(1,1)"
    assert identify_component(tau_zorich(3)) == "H(4)^odd"
    assert identify_component(tau_sym(6)) == "H(4)^hyp"


def test_identify_erased_table_rows():
    row2 = erase_letters(table1(2), {"A", "B"})
    assert row2.encode() == "1 2 3 4 5 6 / 6 4 2 5 3 1"
    assert identify_component(row2) == "H(4)^odd"
    row5 = erase_letters(table1(5), {"A", "B"})
    assert identify_component(row5) == "H(3,1)"


def test_identify_unknown_stratum():
    # marked points other than H(0) are not named: H(0,0)
    gp = parse_gp("0 1 2 / 2 1 0")
    assert is_irreducible(gp)
    assert identify_component(gp) == UNKNOWN


@pytest.mark.parametrize("text, label", [
    ("0 1 2 3 4 5 6 7 / 4 3 2 7 6 5 1 0", "H(2,1,1)"),
    ("0 1 2 3 4 5 6 / 3 2 4 6 1 0 5", "H(2,2)^odd"),
    ("0 1 2 3 4 5 6 7 8 / 8 5 4 3 7 1 0 2 6", "H(4,2)^even"),
    ("0 1 2 3 4 5 6 7 8 / 6 8 3 0 5 2 1 7 4", "H(4,2)^odd"),
    ("0 1 2 3 4 5 6 7 8 / 7 6 8 3 0 2 5 1 4", "H(5,1)"),
    ("0 1 2 3 4 5 6 7 8 / 2 1 8 5 4 7 0 3 6", "H(1,1,1,1)"),
])
def test_identify_strata_outside_the_old_registry(text, label):
    # a Rauzy class lies in one component, so the label is constant on
    # the first 300 vertices the enumeration reaches
    rc = enumerate_up_to(parse_gp(text), limit=300, reduced_labels=True)
    assert {identify_component(v) for v in rc.vertices} == {label}


def test_identify_constant_on_class():
    seed = tau_sym(4)
    rc = enumerate_class(seed)
    labels = {identify_component(v) for v in rc.vertices}
    assert labels == {"H(2)"}


def test_identify_quadratic_components():
    assert identify_component(sigma_hyp(2, 1)) == "Q(2,1,1)^hyp"
    g = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")
    assert identify_component(g) == "Q(6,-1,-1)^nonhyp"
    # class-level invariance for a step or two
    step = apply_arrow(g, 't').target
    assert identify_component(step) == "Q(6,-1,-1)^nonhyp"


def test_verify_table_all_rows():
    reports = verify_extension_table()
    assert len(reports) == 12
    for r in reports:
        assert r.passed, (r.row, r)


def test_verify_table_subset():
    reports = verify_extension_table(rows=[3, 7])
    assert [r.row.number for r in reports] == [3, 7]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("rows", [[13], [3, 13], [0], [-1]])
def test_verify_table_refuses_a_row_outside_the_table(rows, monkeypatch):
    # refused before any row is checked
    checked = []
    monkeypatch.setattr(components, "verify_row", checked.append)
    with pytest.raises(OutOfRange, match="table1 rows are 1..12"):
        verify_extension_table(rows)
    assert checked == []


def test_table_rows_metadata():
    rows = table1_rows()
    assert [r.number for r in rows] == list(range(1, 13))
    # each row is parsed once, and table1 reads the same record
    assert rows is table1_rows()
    assert all(table1(r.number) is r.gp for r in rows)
    starts = {r.start for r in rows}
    assert starts == {"H(4)^hyp", "H(4)^odd", "H(3,1)", "H(6)^even",
                      "H(6)^odd", "H(3,3)^nonhyp"}


# ---------------------------------------------------------------------------
# oracle: identification by membership in the classes of trusted and derived
# representatives, as rvq.components did it before the invariants
# ---------------------------------------------------------------------------

def _derived_genuine_reps(base: GeneralizedPermutation,
                          orders: tuple[int, ...],
                          limit: int = 8) -> list[GeneralizedPermutation]:
    """Genuine one-letter extensions of ``base`` hitting the target orders."""
    reps = []
    seen = set()
    for w in _all_single_insertions(base):
        pi = w.extended
        if not pi.is_genuine or not is_irreducible(pi):
            continue
        sig = stratum_signature(pi, cross_check=False)
        if sig.orders != orders:
            continue
        key = pi.reduced().encode()
        if key in seen:
            continue
        seen.add(key)
        reps.append(pi)
        if len(reps) >= limit:
            break
    return reps


@cache
def _abelian_registry() -> dict[tuple[int, ...], list[tuple[str, list]]]:
    """Quadratic-order signature -> [(component label, representatives)]."""
    reg: dict[tuple[int, ...], list[tuple[str, list]]] = {
        (0,): [("H(0)", [GeneralizedPermutation(("1", "2"), ("2", "1"))])],
        (4,): [("H(2)", [tau_sym(4)])],
        (2, 2): [("H(1,1)", [tau_sym(5)])],
        (8,): [("H(4)^hyp", [tau_sym(6)]), ("H(4)^odd", [tau_zorich(3)])],
        (4, 4): [("H(2,2)^hyp", [tau_sym(7)])],
        (12,): [("H(6)^hyp", [tau_sym(8)]), ("H(6)^odd", [tau_zorich(4)]),
                ("H(6)^even", [sigma_zorich(4)])],
    }
    # H(3,1) is connected; derive representatives (the stratum has two
    # marked-degree Rauzy classes, so keep several)
    h31 = (_derived_genuine_reps(tau_zorich(3), (6, 2))
           + _derived_genuine_reps(tau_sym(6), (6, 2)))
    reg[(6, 2)] = [("H(3,1)", h31)]
    # H(3,3) splits into hyperelliptic and one other component; everything
    # with the right orders outside the hyperelliptic class is non-hyp
    hyp_class = load_or_enumerate(tau_sym(9), reduced_labels=True)
    nonhyp = [pi for pi in _derived_genuine_reps(tau_zorich(4), (6, 6))
              if pi.reduced() not in hyp_class]
    reg[(6, 6)] = [("H(3,3)^hyp", [tau_sym(9)]),
                   ("H(3,3)^nonhyp", nonhyp)]
    return reg


def _registry_classes():
    """(label, reduced class) for every distinct class the registry holds."""
    classes = []
    for entries in _abelian_registry().values():
        for label, reps in entries:
            for rep in reps:
                if any(rep.reduced() in rc for _, rc in classes):
                    continue
                classes.append(
                    (label, enumerate_class(rep, reduced_labels=True)))
    return classes


def test_identify_matches_registry_oracle():
    classes = _registry_classes()
    sizes = {}
    for label, rc in classes:
        sizes[label] = sizes.get(label, 0) + len(rc)
    assert sizes == {
        "H(0)": 1, "H(2)": 7, "H(1,1)": 15, "H(4)^hyp": 31, "H(4)^odd": 134,
        "H(2,2)^hyp": 63, "H(6)^hyp": 127, "H(6)^odd": 5209,
        "H(6)^even": 2327, "H(3,1)": 770, "H(3,3)^hyp": 255,
        "H(3,3)^nonhyp": 15568}
    rng = random.Random(20171106)
    for label, rc in classes:
        vertices = rc.vertices if len(rc) < 1000 \
            else rng.sample(rc.vertices, 300)
        for v in vertices:
            assert identify_component(v) == label, (label, v.encode())


def _random_genuine(rng, d):
    letters = [str(i) for i in range(d)]
    bottom = letters[:]
    rng.shuffle(bottom)
    return GeneralizedPermutation(tuple(letters), tuple(bottom))


def test_identify_genus3_has_no_even_component():
    # Kontsevich-Zorich: the genus-3 components are H(4)^hyp/odd,
    # H(2,2)^hyp/odd and the connected H(3,1), H(2,1,1), H(1,1,1,1)
    allowed = {"H(4)^hyp", "H(4)^odd", "H(2,2)^hyp", "H(2,2)^odd", "H(3,1)",
               "H(2,1,1)", "H(1,1,1,1)"}
    rng = random.Random(3)
    seen = set()
    for d in (6, 7):
        for _ in range(600):
            gp = _random_genuine(rng, d)
            if not is_irreducible(gp):
                continue
            sig = stratum_signature(gp, cross_check=False)
            label = identify_component(gp)
            assert not label.endswith("^even"), gp.encode()
            if sig.genus == 3 and 0 not in sig.orders:
                assert label in allowed, (gp.encode(), label)
                seen.add(label)
            elif 0 in sig.orders:
                assert label == UNKNOWN
    assert {"H(4)^hyp", "H(4)^odd", "H(2,2)^odd", "H(3,1)"} <= seen



def test_identify_computes_the_stratum_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return stratum_signature(*args, **kwargs)

    monkeypatch.setattr(components, "stratum_signature", counted)
    monkeypatch.setattr(strata, "stratum_signature", counted)
    assert identify_component(tau_zorich(4)) == "H(6)^odd"
    assert len(calls) == 1


@pytest.mark.parametrize("make, args, message", [
    (tau_zorich, (2,), "g >= 3"), (sigma_hyp, (-1, 2), "s, r >= 0"),
    (sigma_hyp, (1, 0), "genus 0")], ids=["zorich-2", "hyp-neg", "hyp-1-0"])
def test_families_refuse_arguments_out_of_range(make, args, message):
    with pytest.raises(OutOfRange, match=message):
        make(*args)
