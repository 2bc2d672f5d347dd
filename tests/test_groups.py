import json
import math
import random

import pytest

import oracles
from oracles import (DecompositionPiece, decomposition_product,
                     directed_decomposition, enumerate_up_to,
                     find_gamma_star, from_jsonl, k_completeness,
                     labeled_class_minus_generators_modp,
                     minus_generators_modp, plus_generators_modp, to_jsonl,
                     trajectory)
from rvq import groups, linalg
from rvq.components import sigma_hyp, table1, tau_sym, tau_zorich
from rvq.errors import (BudgetExceeded, CriterionInapplicable, MoveUndefined,
                        NonDividingOrder, NonSymplecticGenerator,
                        NotOmegaPreserving, OpenWalk, ReverseArrowMissing)
from rvq.gp import parse_gp
from rvq.groups import (admissible_component, arrow_cycles, cycle_matrices,
                        image_modp, image_quotient, modp_closure,
                        random_directed_cycles, rauzy_veech_group_modp,
                        sp_order)
from rvq.homology import (DuplicateWinner, arrow_factor, kz_walk, letters,
                          quotient_action, quotient_data)
from rvq.induction import (RauzyClass, apply_arrow, enumerate_class,
                           invert_arrow, load_or_enumerate)
from rvq.linalg import identity
from rvq.strata import stratum_signature

TORUS = parse_gp("1 2 / 2 1")


# ---------------------------------------------------------------------------
# oracle: the breadth-first closure that modp_closure used before it became
# Schreier-Sims. It stores every element, so it only runs on small images.
# ---------------------------------------------------------------------------

def _vec_mat_mod(v, m, p):
    n = len(m[0])
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) % p
                 for j in range(n))


def _bfs_closure(generators, p, form, budget=10_000_000):
    """Order of the subgroup of Sp(form, F_p) the generators span.

    ``form`` must be non-degenerate mod p (for the double-cover case, the
    intersection form on the both-rows letters). The closure is a plain
    breadth-first multiplication sweep; a finite monoid of invertible
    matrices is already a group, so multiplying by the generators only is
    enough.
    """
    n = len(form)
    if n % 2:
        raise ValueError("form must have even size")
    g = n // 2
    fp = linalg.mat_mod(form, p)
    if linalg.det(form) % p == 0:
        raise NonSymplecticGenerator("form is degenerate mod %d" % p)

    gens = []
    seen_g = set()
    for mat in generators:
        mg = linalg.mat_mod(mat, p)
        if linalg.mat_mod(
                linalg.mul(linalg.mul(mg, fp), linalg.transpose(mg)), p) != fp:
            raise NonSymplecticGenerator("generator does not preserve the form")
        if mg not in seen_g:
            seen_g.add(mg)
            gens.append(mg)

    identity = linalg.mat_mod(linalg.identity(n), p)
    seen = {identity}

    def close(active):
        # closure under right multiplication; restart from everything known
        tables = {id(gen): {} for gen in active}
        frontier = list(seen)
        while frontier:
            new = []
            for mat in frontier:
                for gen in active:
                    table = tables[id(gen)]
                    rows = []
                    for row in mat:
                        out = table.get(row)
                        if out is None:
                            out = _vec_mat_mod(row, gen, p)
                            table[row] = out
                        rows.append(out)
                    prod = tuple(rows)
                    if prod not in seen:
                        if len(seen) >= budget:
                            raise BudgetExceeded(
                                "closure budget of %d elements hit" % budget)
                        seen.add(prod)
                        new.append(prod)
            frontier = new

    # absorb generators a few at a time: ones already inside cost nothing
    active: list = []
    pending = list(gens)
    while True:
        missing = [gmat for gmat in pending if gmat not in seen]
        if not missing:
            break
        take = missing[:6]
        pending = [gmat for gmat in missing if gmat not in take]
        active += take
        close(active)

    order = len(seen)
    total = sp_order(g, p)
    if total % order:
        raise NonDividingOrder(
            "order %d does not divide |Sp(%d, F_%d)| = %d"
            % (order, 2 * g, p, total))
    return order


def test_sp_order_values():
    assert sp_order(1, 2) == 6
    assert sp_order(2, 2) == 720
    assert sp_order(3, 2) == 1451520
    assert sp_order(1, 3) == 3 * (9 - 1)


def test_closure_on_the_empty_form_has_no_symplectic_group():
    with pytest.raises(ValueError, match="genus must be >= 1"):
        modp_closure([], 2, ())


def test_closure_refuses_a_form_of_odd_size_or_degenerate_mod_p():
    with pytest.raises(ValueError, match="form must have even size"):
        modp_closure([], 2, ((0,),))
    with pytest.raises(NonSymplecticGenerator,
                       match="form is degenerate mod 2"):
        modp_closure([], 2, ((0, 2), (-2, 0)))


@pytest.mark.parametrize("p", [4, 6, 0, 1, -3])
def test_non_prime_modulus_refused(p):
    rc = load_or_enumerate(tau_sym(4))
    with pytest.raises(ValueError, match="prime"):
        rauzy_veech_group_modp(tau_sym(4), rc, p, cycles=8)
    with pytest.raises(ValueError, match="prime"):
        sp_order(2, p)
    with pytest.raises(ValueError, match="prime"):
        modp_closure([identity(2)], p, ((0, 1), (-1, 0)))


def test_torus_closure_full():
    rc = load_or_enumerate(TORUS)
    res = rauzy_veech_group_modp(TORUS, rc, 2, cycles=20, seed=1)
    assert res.order == 6 and res.index == 1


def test_torus_closure_mod3():
    rc = load_or_enumerate(TORUS)
    res = rauzy_veech_group_modp(TORUS, rc, 3, cycles=20, seed=1)
    assert res.order == sp_order(1, 3) and res.index == 1


@pytest.mark.parametrize("p, order", [(2, 6), (3, 24), (5, 120)])
def test_minus_closure_genus_one(p, order):
    # the form on the both-rows letters of this base has rank 2: the image
    # is SL(2, F_p)
    base = parse_gp("0 A A 1 / 1 B B 0")
    rc = admissible_component(base)
    res = rauzy_veech_group_modp(base, rc, p, cycles=40, seed=1, minus=True)
    assert res.genus == 1 and res.order == order == sp_order(1, p)
    assert res.exact


def test_minus_generators_check_the_form(monkeypatch):
    base = parse_gp("0 A A 1 / 1 B B 0")
    bad = ((1, 1), (0, 2))  # det 2: cannot preserve a non-degenerate form
    monkeypatch.setattr(oracles, "_minus_walk", lambda gp, walk: (bad, gp))
    with pytest.raises(NotOmegaPreserving):
        minus_generators_modp(base, ["t"], 2)


def _admissible(base, rc, walk):
    """No type-changing arrow anywhere along the walk: the filter that picked
    the minus walks from the class before they were skipped at their first
    duplicate winner. Kept as the oracle."""
    verts = trajectory(rc, walk, rc.index_of(base))
    return None not in verts and len(
        {len(rc.vertices[i].top) for i in verts}) == 1


@pytest.mark.parametrize("base", [parse_gp("0 A A 1 / 1 B B 0"),
                                  sigma_hyp(2, 0)], ids=["0AA1", "hyp-2-0"])
def test_minus_walks_skipped_at_a_duplicate_winner_match_the_class_filter(
        base):
    rc = load_or_enumerate(base)
    walks = arrow_cycles(rc, cap=800) + random_directed_cycles(rc, seed=0)
    kept = [w for w in walks if _admissible(base, rc, w)]
    assert 0 < len(kept) < len(walks)

    def survives(walk):
        try:
            kz_walk(base, walk, minus=True)
        except DuplicateWinner:
            return False
        return True

    assert [w for w in walks if survives(w)] == kept
    assert minus_generators_modp(base, walks, 2) \
        == minus_generators_modp(base, kept, 2)


def test_decomposition_refuses_walks_that_do_not_close_in_the_class():
    rc = load_or_enumerate(tau_sym(4))
    with pytest.raises(OpenWalk):
        directed_decomposition(tau_sym(4), rc, "t")  # does not close up
    with pytest.raises(OpenWalk):
        directed_decomposition(TORUS, rc, "tb")  # starts outside the class
    part = enumerate_up_to(tau_sym(4), limit=5)
    assert trajectory(part, "bt")[-1] is None
    with pytest.raises(OpenWalk):
        directed_decomposition(tau_sym(4), part, "bt")  # leaves the class


def test_quotient_generators_refuse_an_open_cycle():
    with pytest.raises(OpenWalk):
        plus_generators_modp(tau_sym(4), ["t"], 2)


def test_decomposition_product_refuses_an_open_piece():
    with pytest.raises(OpenWalk):
        decomposition_product(tau_sym(4), [DecompositionPiece("t", 1)])


def _spy_on_closure(monkeypatch):
    """The (generators, form) pairs that ``image_modp`` hands to
    ``groups._closure``, recorded as it runs: the push-downs by
    ``quotient_action``, each list cut to its first matrix of each residue
    mod p, the generators the closure keeps, with the reduced form.  The
    closure reads residues mod p, so the push-downs are recorded as they
    are made; a call with none, as from ``modp_closure``, is not recorded."""
    closure, push = groups._closure, groups.quotient_action
    handed, pushed = [], []

    def spy_push(mat, qd):
        pushed.append((push(mat, qd), qd.reduced_form))
        return pushed[-1][0]

    def spy(residues, q, fp):
        pushed.clear()
        residues = list(residues)
        kept = {}
        for (mat, _), res in zip(pushed, residues):
            kept.setdefault(res, mat)
        if pushed:
            handed.append((list(kept.values()), pushed[0][1]))
        return closure(residues, q, fp)

    monkeypatch.setattr(groups, "quotient_action", spy_push)
    monkeypatch.setattr(groups, "_closure", spy)
    return handed


def test_quotient_generators_keep_one_of_two_cycles_equal_on_the_quotient(
        monkeypatch):
    # t fixes the form and acts as the identity on the quotient by its
    # kernel, but not on Z^5 mod 2: t·M is new mod 2, its push-down is not
    base = tau_sym(5)
    qd = quotient_data(base)
    r = len(qd.reduced_form)
    shear = [list(row) for row in identity(len(qd.form))]
    shear[0][r] = 1
    t = linalg.mul(linalg.mul(qd.inverse, shear), qd.unimodular)
    rc = load_or_enumerate(base)
    mat = cycle_matrices(rc, arrow_cycles(rc, cap=1))[0]
    mats = [mat, linalg.mul(t, mat)]
    assert linalg.mat_mod(mats[0], 2) != linalg.mat_mod(mats[1], 2)
    handed = _spy_on_closure(monkeypatch)
    assert image_modp(base, mats, 2).generators_used == 1
    [(gens, form)] = handed
    assert len(gens) == 1
    assert (gens, form) == oracles._quotient_generators(mats, 2, qd)


def test_non_symplectic_generator_rejected_after_a_duplicate():
    # the form is checked once per generator distinct mod 3; a bad one after
    # a repeated good one is still checked
    form = ((0, 1), (-1, 0))
    good, bad = ((1, 1), (0, 1)), ((1, 0), (0, 2))
    assert modp_closure([good, good, ((4, 1), (3, 1))], 3, form).order == 3
    with pytest.raises(NonSymplecticGenerator):
        modp_closure([good, good, bad], 3, form)
    with pytest.raises(NonSymplecticGenerator):
        modp_closure([good, ((4, 1), (0, 1)), bad, good], 3, form)


def test_non_symplectic_generator_rejected():
    form = ((0, 1), (-1, 0))
    with pytest.raises(NonSymplecticGenerator):
        modp_closure([((1, 0), (0, 0))], 2, form)


@pytest.mark.parametrize("mat", [((1,), (0, 1)), ((1, 0, 5), (0, 1, 7)),
                                 ((1, 0, 0), (0, 1, 0)), ((1, 0),)],
                         ids=["short-row", "long-rows", "2x3", "one-row"])
def test_a_matrix_that_is_not_square_of_the_forms_size_is_refused(mat):
    # a product by zip cuts the rows to the form's size, so only a shape
    # check keeps such a matrix out of the closure and the push-down
    form = ((0, 1), (-1, 0))
    for p in (2, 3):
        with pytest.raises(NonSymplecticGenerator,
                           match="does not preserve the form"):
            modp_closure([mat], p, form)
        with pytest.raises(NonSymplecticGenerator):
            modp_closure([identity(2), mat], p, form)
    with pytest.raises(NotOmegaPreserving):
        quotient_action(mat, quotient_data(TORUS))
    with pytest.raises(NotOmegaPreserving):
        image_modp(TORUS, [mat], 2)


def test_closure_monotone_in_generators():
    rc = load_or_enumerate(tau_sym(4))
    cycles = random_directed_cycles(rc, count=24, maxlen=20, seed=9)
    gens, form = plus_generators_modp(tau_sym(4), cycles, 2)
    prev = 1
    for take in (2, 4, len(gens)):
        res = modp_closure(gens[:take], 2, form)
        assert res.order >= prev
        prev = res.order
    shuffled = gens[::-1]
    assert modp_closure(shuffled, 2, form).order == prev


def test_k_completeness_examples():
    assert k_completeness(TORUS, "") == 0
    assert k_completeness(TORUS, "tb") == 1
    assert k_completeness(TORUS, "ttbb") == 2
    with pytest.raises(MoveUndefined):
        k_completeness(TORUS, "tT")


def test_gamma_star_torus():
    rc = load_or_enumerate(TORUS)
    walk = find_gamma_star(TORUS, rc, 1)
    assert k_completeness(TORUS, walk) >= 1
    # "tb" itself qualifies: the only overlap candidates differ
    assert walk in ("tb", "bt") or len(walk) > 2


def test_gamma_star_tau4():
    rc = load_or_enumerate(tau_sym(4))
    for k in (1, 2):
        walk = find_gamma_star(tau_sym(4), rc, k)
        assert k_completeness(tau_sym(4), walk) >= k


def test_decomposition_forward_cycle_is_itself():
    rc = load_or_enumerate(tau_sym(4))
    cycle = random_directed_cycles(rc, count=1, maxlen=12, seed=2)[0]
    pieces = directed_decomposition(tau_sym(4), rc, cycle)
    assert len(pieces) == 1 and pieces[0].sign == 1
    assert pieces[0].cycle == cycle


def test_decomposition_torus_tB():
    rc = load_or_enumerate(TORUS)
    pieces = directed_decomposition(TORUS, rc, "tB")
    assert [p.sign for p in pieces] == [1, -1]
    want, _ = kz_walk(TORUS, "tB")
    assert decomposition_product(TORUS, pieces) == want


def _random_mixed_cycle(rc, rng, max_steps=14):
    cur = 0
    walk = ""
    for _ in range(rng.randint(1, max_steps)):
        op, cur = rng.choice([(move, j) for move in "tbTB"
                              if (j := rc.step(cur, move)) is not None])
        walk += op
    return walk + rc.path_to_base(cur)


def test_decomposition_random_mixed_exact():
    base = tau_sym(4)
    rc = load_or_enumerate(base)
    rng = random.Random(99)
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


def test_directed_vs_mixed_closures_agree():
    rng = random.Random(101)
    for base in (TORUS, tau_sym(4)):
        rc = load_or_enumerate(base)
        directed = random_directed_cycles(rc, count=40, maxlen=24, seed=5)
        directed += arrow_cycles(rc)
        mixed = [w for w in (_random_mixed_cycle(rc, rng) for _ in range(60))
                 if w]
        g1, form = plus_generators_modp(base, directed, 2)
        g2, _ = plus_generators_modp(base, directed + mixed, 2)
        assert modp_closure(g1, 2, form).order == \
            modp_closure(g2, 2, form).order


BFS_BUDGET = 60_000


def _schreier_chain(gens, p, form):
    """The stabilizer chain of the matrix Schreier-Sims, called directly, as
    modp_closure does when the transvection certificate gives none."""
    return groups._schreier_sims([linalg.mat_mod(m, p) for m in gens], p,
                                 sp_order(len(form) // 2, p))


def _schreier_sims_order(gens, p, form):
    return math.prod(len(level.orbit)
                     for level in _schreier_chain(gens, p, form))


def _permutation_order(gens, p, form):
    """The order from the oracle: Schreier-Sims on the permutations of the
    nonzero vectors."""
    return oracles.permutation_schreier_sims_order(
        [linalg.mat_mod(m, p) for m in gens], p, sp_order(len(form) // 2, p))


def _certified(gens, p, form):
    return groups._certified_order([linalg.mat_mod(m, p) for m in gens],
                                   linalg.mat_mod(form, p), p)


SS_CASES = [
    (TORUS, 2), (TORUS, 3), (TORUS, 5),
    (tau_sym(4), 2), (tau_sym(4), 3), (tau_sym(4), 5),
    (tau_sym(5), 2), (tau_sym(5), 3),
    (tau_sym(6), 2), (tau_zorich(3), 2),
]
SS_IDS = ["torus-2", "torus-3", "torus-5", "H(2)-2", "H(2)-3", "H(2)-5",
          "H(1,1)-2", "H(1,1)-3", "H(4)hyp-2", "H(4)odd-2"]


def _oracle_generators(base, p):
    rc = load_or_enumerate(base)
    walks = arrow_cycles(rc, cap=80) + random_directed_cycles(
        rc, count=40, maxlen=30, seed=3)
    return plus_generators_modp(base, walks, p)


@pytest.mark.parametrize("base, p", SS_CASES, ids=SS_IDS)
def test_schreier_sims_matches_bfs(base, p):
    gens, form = _oracle_generators(base, p)
    total = sp_order(len(form) // 2, p)
    rng = random.Random(p)
    compared = 0
    for size in (1, 2, 2, 3, len(gens)):
        subset = rng.sample(gens, min(size, len(gens)))
        res = modp_closure(subset, p, form)
        # Schreier-Sims now runs only where the certificate gives no order,
        # so it is held to the same oracle when called directly
        ss = _schreier_sims_order(subset, p, form)
        assert res.order == ss and res.order * res.index == total
        assert ss == _permutation_order(subset, p, form)
        if res.order > BFS_BUDGET:
            # too large to store: the oracle must still outgrow a small budget
            with pytest.raises(BudgetExceeded):
                _bfs_closure(subset, p, form, budget=2_000)
            continue
        assert ss == _bfs_closure(subset, p, form, budget=BFS_BUDGET)
        compared += 1
    assert compared >= 2


def test_schreier_sims_alone_gives_sp4_mod_7():
    # the H(2) harvest mod 7 generates Sp(4, F_7): the matrix chain finds
    # its order without the certificate, as the permutation oracle does on
    # its 2,400 points, and the inverse it forms for each orbit point is
    # that of its transversal element
    base, p = tau_sym(4), 7
    rc = load_or_enumerate(base)
    gens, form = plus_generators_modp(base, arrow_cycles(rc, cap=800), p)
    levels = _schreier_chain(gens, p, form)
    order = math.prod(len(level.orbit) for level in levels)
    assert order == sp_order(2, p) == _permutation_order(gens, p, form)
    one = identity(4)
    for level in levels:
        assert level.gens
        for y in level.orbit:
            u, inv = level.u[y], level.inverse(y, p)
            assert linalg.mat_mod(linalg.mul(u, inv), p) == one
            assert linalg.mat_mod(linalg.mul(inv, u), p) == one
        assert level.orbit[0] == one[level.k]
    assert len({level.k for level in levels}) == len(levels)


def test_the_chain_forms_each_transversal_inverse_on_use():
    # Sp(4, F_7) from the H(2) harvest: every inverse the chain formed is
    # that of its transversal element, and only orbit points carry one
    base, p = tau_sym(4), 7
    rc = load_or_enumerate(base)
    gens, form = plus_generators_modp(base, arrow_cycles(rc, cap=800), p)
    levels = _schreier_chain(gens, p, form)
    one = identity(4)
    formed = 0
    for level in levels:
        assert set(level.uinv) <= set(level.u) == set(level.orbit)
        for y, inv in level.uinv.items():
            assert linalg.mat_mod(linalg.mul(level.u[y], inv), p) == one
            assert level.inverse(y, p) is inv
        formed += len(level.uinv) - 1
    # the sifts and Schreier generators read few of the 2,400 top points
    assert 0 < formed and 2 * len(levels[0].uinv) < len(levels[0].u)


# ---------------------------------------------------------------------------
# the transvection certificate against Schreier-Sims
# ---------------------------------------------------------------------------

WITNESS = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")

CERTIFIED_CASES = [(base, p, False) for base, p in SS_CASES] + [
    (tau_sym(4), 7, False), (tau_sym(5), 5, False),
    (tau_sym(6), 3, False), (tau_zorich(3), 3, False),
    (WITNESS, 2, True), (WITNESS, 3, True)]
CERTIFIED_IDS = SS_IDS + ["H(2)-7", "H(1,1)-5", "H(4)hyp-3", "H(4)odd-3",
                          "witness-minus-2", "witness-minus-3"]


@pytest.mark.parametrize("base, p, minus", CERTIFIED_CASES,
                         ids=CERTIFIED_IDS)
def test_certified_order_equals_schreier_sims(base, p, minus):
    if minus:
        rc = admissible_component(base)
        gens, form = minus_generators_modp(base, arrow_cycles(rc), p)
    else:
        gens, form = _oracle_generators(base, p)
    order = _certified(gens, p, form)
    assert order is not None, "the certificate did not fire"
    assert order == _schreier_sims_order(gens, p, form)
    res = modp_closure(gens, p, form)
    assert (res.order, res.base_length) == (order, 0)


def _transvection(a, form, p):
    """The matrix of v -> v + ω(v, a)·a, ω(v, w) = v·form·wᵀ."""
    n = len(a)
    af = [sum(form[j][k] * a[k] for k in range(n)) for j in range(n)]
    return tuple(tuple(((i == j) + af[i] * a[j]) % p for j in range(n))
                 for i in range(n))


def _planes(g):
    """The form of g orthogonal hyperbolic planes, e_i·f_i = 1."""
    n = 2 * g
    return tuple(tuple((j == i + 1) - (i == j + 1) if i // 2 == j // 2 else 0
                       for j in range(n)) for i in range(n))


def _block_sum(a, b):
    """The block-diagonal matrix with blocks a and b."""
    return tuple(tuple(row) + (0,) * len(b) for row in a) + tuple(
        (0,) * len(a) + tuple(row) for row in b)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_the_chain_inverse_is_the_inverse_mod_p(p):
    form = _planes(2)
    rng = random.Random(p)
    mats = [_transvection(tuple(rng.randrange(p) for _ in range(4)), form, p)
            for _ in range(6)]
    mat = identity(4)
    for m in mats:
        mat = linalg.mat_mod(linalg.mul(mat, m), p)
        inv = groups._inverse(mat, p)
        assert linalg.mat_mod(linalg.mul(mat, inv), p) == identity(4)


@pytest.mark.parametrize("base, p, order", [
    (tau_zorich(3), 2, 51_840), (tau_sym(4), 3, 51_840)],
    ids=["O-(6)+plane-2", "Sp(4)+plane-3"])
def test_an_orbit_in_a_proper_subspace_certifies_nothing(base, p, order):
    # the image on the first block, with the identity on a hyperbolic plane
    # beside it: every orbit stays in the first block.  Mod 2 its 36 vectors
    # are as many as the transpositions of S_9 in Sp(8, F_2), so without the
    # span check the certificate would give 9!
    gens, form = _oracle_generators(base, p)
    gens = [_block_sum(m, identity(2)) for m in gens]
    form = _block_sum(form, _planes(1))
    assert _certified(gens, p, form) is None
    res = modp_closure(gens, p, form)
    assert res.order == order == _schreier_sims_order(gens, p, form)
    assert res.order == _permutation_order(gens, p, form)
    assert res.base_length >= 1


def test_a_disconnected_orbit_certifies_nothing():
    # the transvections along e1 and f1, and the swap of the two planes:
    # the orbit of e1 is the six nonzero vectors of the planes, which span,
    # but no vector of one plane meets one of the other
    form = _planes(2)
    e1, f1 = (1, 0, 0, 0), (0, 1, 0, 0)
    swap = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    gens = [_transvection(e1, form, 2), _transvection(f1, form, 2), swap]
    assert _certified(gens, 2, form) is None
    res = modp_closure(gens, 2, form)
    assert res.order == 72 == _bfs_closure(gens, 2, form)
    assert res.order == _permutation_order(gens, 2, form)
    assert res.base_length >= 1


@pytest.mark.parametrize("gens, p, order", [
    ([((0, 1), (1, 1))], 2, 3), ([((2, 0), (0, 2))], 3, 2),
    ([((0, 1), (2, 0)), ((1, 1), (2, 0))], 3, 24)],
    ids=["order-3-mod-2", "minus-one-mod-3", "no-transvection-mod-3"])
def test_generators_without_a_transvection_certify_nothing(gens, p, order):
    form = ((0, 1), (-1, 0))
    assert _certified(gens, p, form) is None
    res = modp_closure(gens, p, form)
    assert res.order == order == _bfs_closure(gens, p, form)
    assert res.order == _permutation_order(gens, p, form)
    assert res.base_length >= 1


@pytest.mark.parametrize("p", [2, 3])
def test_empty_and_identity_generators_give_order_one(p):
    form = _planes(2)
    for gens in ([], [identity(4)], [identity(4), identity(4)]):
        assert _certified(gens, p, form) is None
        res = modp_closure(gens, p, form)
        assert (res.order, res.index) == (1, sp_order(2, p))
        assert res.base_length == 0
        assert _schreier_chain(gens, p, form) == []
        assert _permutation_order(gens, p, form) == 1


@pytest.mark.parametrize("g", range(1, 7))
def test_the_mod2_table_gives_one_order_per_size(g):
    orders = {}
    for size, order in groups._mod2_orders(g):
        orders.setdefault(size, set()).add(order)
    assert all(len(found) == 1 for found in orders.values()), orders
    named = {1: {3: 6}, 2: {10: 120, 15: 720, 6: 72}, 3: {28: 40_320}}
    for size, order in named.get(g, {}).items():
        assert orders[size] == {order}
    assert orders[4 ** g - 1] == {sp_order(g, 2)}
    assert orders[math.comb(2 * g + 1, 2)] == {math.factorial(2 * g + 1)}
    if g >= 2:
        assert all(sp_order(g, 2) % order == 0 for size, order in
                   groups._mod2_orders(g))


# ---------------------------------------------------------------------------
# one cycle per arrow: matrices from tree prefixes, and exact orders
# ---------------------------------------------------------------------------

QUADRATIC = parse_gp("0 A A 1 / 1 B B 0")


@pytest.mark.parametrize("base", [
    TORUS, tau_sym(4), tau_sym(5), tau_sym(6), tau_zorich(3), QUADRATIC,
], ids=["torus", "H(2)", "H(1,1)", "H(4)hyp", "H(4)odd", "Q(2,-1,-1)"])
def test_arrow_cycle_matrices_equal_the_walked_matrices(base):
    rc = load_or_enumerate(base)
    walks = arrow_cycles(rc)
    mats = cycle_matrices(rc, walks)
    assert len(mats) == len(walks) == rc.arrow_count()
    for walk, mat in zip(walks, mats):
        assert mat == kz_walk(base, walk)[0], walk


def test_capped_arrow_cycle_matrices_equal_the_walked_matrices():
    rc = load_or_enumerate(tau_zorich(3))
    cap = 40
    assert rc.arrow_count() > cap
    walks = arrow_cycles(rc, cap=cap)
    mats = cycle_matrices(rc, walks)
    assert len(mats) == len(walks) == cap
    assert mats == [kz_walk(tau_zorich(3), walk)[0] for walk in walks]


@pytest.mark.parametrize("base", [QUADRATIC, sigma_hyp(2, 0)],
                         ids=["0AA1", "hyp-2-0"])
def test_minus_cycle_matrices_equal_the_walked_matrices(base):
    # on the labeled class: the admissible walks give their walked matrices,
    # and any other walk is refused, not skipped
    rc = load_or_enumerate(base)
    walks = arrow_cycles(rc) + random_directed_cycles(rc, seed=0)
    kept = [w for w in walks if _admissible(base, rc, w)]
    assert 0 < len(kept) < len(walks)
    assert cycle_matrices(rc, kept, minus=True) == [
        kz_walk(base, walk, minus=True)[0] for walk in kept]
    for walk in walks:
        if walk not in kept:
            with pytest.raises(DuplicateWinner, match="no minus factor"):
                cycle_matrices(rc, kept[:1] + [walk], minus=True)
    # on the admissible component every walk is admissible
    comp = admissible_component(base)
    walks = arrow_cycles(comp) + random_directed_cycles(comp, seed=0)
    assert cycle_matrices(comp, walks, minus=True) == [
        kz_walk(base, walk, minus=True)[0] for walk in walks]


def test_cycle_matrices_refuse_a_walk_that_is_not_a_forward_cycle():
    rc = load_or_enumerate(tau_sym(4))
    with pytest.raises(ValueError, match="not a forward arrow"):
        cycle_matrices(rc, ["tT"])
    with pytest.raises(OpenWalk, match="does not close up"):
        cycle_matrices(rc, ["t"])
    part = enumerate_up_to(tau_sym(4), limit=5)
    with pytest.raises(OpenWalk, match="leaves the class"):
        cycle_matrices(part, ["bt"])


# the seven cases of the group benchmark and their known orders
BENCH_CASES = [
    (tau_sym(2), 2, 6), (tau_sym(4), 2, 120), (tau_sym(4), 3, 51_840),
    (tau_sym(5), 2, 720), (tau_sym(5), 3, 51_840), (tau_sym(6), 2, 5_040),
    (tau_zorich(3), 2, 51_840),
]
BENCH_IDS = ["torus-2", "H(2)-2", "H(2)-3", "H(1,1)-2", "H(1,1)-3",
             "H(4)hyp-2", "H(4)odd-2"]


@pytest.mark.parametrize("base, p, order", BENCH_CASES, ids=BENCH_IDS)
def test_arrow_cycles_give_the_order_of_the_full_harvest(base, p, order):
    rc = load_or_enumerate(base)
    res = rauzy_veech_group_modp(base, rc, p)
    assert res.exact and res.order == order
    for seed in (0, 1, 2):
        # arrow cycles and random ones, all walked: the harvest before the
        # random cycles were skipped on a covered class
        walks = arrow_cycles(rc, cap=800) + random_directed_cycles(rc,
                                                                   seed=seed)
        gens, form = plus_generators_modp(base, walks, p)
        assert modp_closure(gens, p, form).order == res.order
    for seed in (0, 1, 2):
        for maxlen in (10, 60):
            assert rauzy_veech_group_modp(base, rc, p, seed=seed,
                                          maxlen=maxlen) == res


def _spy_on_harvest(monkeypatch):
    """The walk lists that ``groups`` hands to ``cycle_matrices``, and the
    matrices it hands to ``quotient_action``, recorded as they run."""
    walked, pushed = [], []
    cycles, push = groups.cycle_matrices, groups.quotient_action

    def spy_walks(rc, walks, **kwargs):
        walked.append(list(walks))
        return cycles(rc, walks, **kwargs)

    def spy_push(mat, qd):
        pushed.append(mat)
        return push(mat, qd)

    monkeypatch.setattr(groups, "cycle_matrices", spy_walks)
    monkeypatch.setattr(groups, "quotient_action", spy_push)
    return walked, pushed


@pytest.mark.parametrize("case, distinct, arrows", zip(
    BENCH_CASES, [2, 8, 8, 16, 16, 32, 135], [2, 14, 14, 30, 30, 62, 268]),
    ids=BENCH_IDS)
def test_the_harvest_walks_each_distinct_cycle_once(monkeypatch, case,
                                                    distinct, arrows):
    # the out-tree arrow into a vertex and the in-tree arrow out of it give
    # one walk: each vertex other than the base repeats one arrow cycle
    base, p, order = case
    rc = load_or_enumerate(base)
    assert rc.arrow_count() == len(arrow_cycles(rc)) == arrows
    walked, pushed = _spy_on_harvest(monkeypatch)
    assert rauzy_veech_group_modp(base, rc, p).order == order
    [walks] = walked
    assert len(walks) == len(set(walks)) == distinct == len(pushed)
    assert walks == list(dict.fromkeys(arrow_cycles(rc)))


@pytest.mark.parametrize("cycles, seed, shared", [(1, 0, 0), (5, 3, 1)])
def test_the_harvest_walks_each_distinct_cycle_once_with_random_cycles(
        monkeypatch, cycles, seed, shared):
    # on a class the arrows do not cover, random cycles join the arrow
    # cycles, and with seed 3 one of them is an arrow cycle too
    base = tau_zorich(3)
    rc = load_or_enumerate(base)
    assert rc.arrow_count() > 4 * cycles
    walked, pushed = _spy_on_harvest(monkeypatch)
    res = rauzy_veech_group_modp(base, rc, 2, cycles=cycles, seed=seed)
    assert not res.exact
    [walks] = walked
    arrows = arrow_cycles(rc, cap=4 * cycles)
    randoms = random_directed_cycles(rc, count=cycles, seed=seed)
    assert len(set(arrows) & set(randoms)) == shared
    assert len(walks) == len(set(walks)) == len(pushed)
    assert walks == list(dict.fromkeys(arrows + randoms))


def _spy_on_random_cycles(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return random_directed_cycles(*args, **kwargs)

    monkeypatch.setattr(groups, "random_directed_cycles", spy)
    return calls


MINUS_CASES = [
    (QUADRATIC, 2, 6, 1), (QUADRATIC, 3, 24, 1), (QUADRATIC, 5, 120, 1),
    (sigma_hyp(2, 1), 2, 120, 6), (sigma_hyp(2, 1), 3, 51_840, 1),
]
MINUS_IDS = ["0AA1-2", "0AA1-3", "0AA1-5", "hyp-2-1-2", "hyp-2-1-3"]


@pytest.mark.parametrize("base, p, order, index", MINUS_CASES, ids=MINUS_IDS)
def test_minus_group_equals_the_closure_of_the_walked_harvest(base, p, order,
                                                              index):
    rc = admissible_component(base)
    res = rauzy_veech_group_modp(base, rc, p, minus=True)
    assert (res.order, res.index) == (order, index) and res.exact
    # the default harvest, every cycle walked from the base
    gens, form = minus_generators_modp(base, arrow_cycles(rc, cap=800), p)
    assert res == modp_closure(gens, p, form)._replace(exact=True)


# the minus cases and sigma_hyp(0, 3), whose labeled class (124,920
# vertices) the oracle route still enumerates; sigma_hyp(2, 0), in
# Q(1,1,-1,-1) with four odd singularities, is outside the minus scope
ORACLE_CASES = [(base, p, True) for base, p, _, _ in MINUS_CASES] + [
    (sigma_hyp(2, 0), 2, False), (sigma_hyp(2, 0), 3, False),
    (sigma_hyp(0, 3), 2, True)]
ORACLE_IDS = MINUS_IDS + ["hyp-2-0-2", "hyp-2-0-3", "hyp-0-3-2"]


@pytest.mark.parametrize("base, p, in_scope", ORACLE_CASES, ids=ORACLE_IDS)
def test_minus_group_of_the_component_equals_the_labeled_class_route(
        base, p, in_scope):
    rc = admissible_component(base)
    if not in_scope:
        with pytest.raises(CriterionInapplicable,
                           match="two singularities of odd order"):
            rauzy_veech_group_modp(base, rc, p, minus=True)
        return
    res = rauzy_veech_group_modp(base, rc, p, minus=True)
    gens, form = labeled_class_minus_generators_modp(
        base, load_or_enumerate(base), p)
    assert res.exact and res.order == modp_closure(gens, p, form).order


def _has_minus_factor(arrow, order):
    try:
        arrow_factor(arrow, order)
    except DuplicateWinner:
        return False
    return True


def _backward_admissible_closure(base):
    """The vertices from which admissible arrows lead to ``base``, found with
    ``invert_arrow``."""
    order = letters(base, minus=True)
    seen, todo = {base}, [base]
    while todo:
        gp = todo.pop()
        for kind in "tb":
            try:
                arrow = invert_arrow(gp, kind)
            except ReverseArrowMissing:
                continue
            if _has_minus_factor(arrow, order) and arrow.source not in seen:
                seen.add(arrow.source)
                todo.append(arrow.source)
    return seen


@pytest.mark.parametrize("base", [QUADRATIC, sigma_hyp(2, 0), sigma_hyp(2, 1),
                                  sigma_hyp(0, 3), WITNESS],
                         ids=["0AA1", "hyp-2-0", "hyp-2-1", "hyp-0-3",
                              "witness"])
def test_admissible_component_is_closed_both_ways(base):
    rc = admissible_component(base)
    assert rc.complete and not rc.reduced_labels
    assert set(rc.vertices) == _backward_admissible_closure(base)
    order = letters(base, minus=True)
    for i, kind, j, _ in rc.arrows():
        arrow = apply_arrow(rc.vertices[i], kind)
        assert arrow.target == rc.vertices[j]
        assert _has_minus_factor(arrow, order)
    with pytest.raises(BudgetExceeded):
        admissible_component(base, limit=len(rc) - 1)


@pytest.mark.parametrize("base", [WITNESS, QUADRATIC, sigma_hyp(2, 1),
                                  table1(1), table1(2)],
                         ids=["witness", "0AA1", "hyp-2-1", "row1", "row2"])
def test_minus_matrix_is_the_both_rows_block_of_the_plus_matrix(base):
    # no duplicate letter wins along an admissible walk, so a both-rows row
    # of the plus matrix only ever gains both-rows rows
    rc = admissible_component(base)
    walks = arrow_cycles(rc) + random_directed_cycles(rc, count=50, seed=0)
    both = [base.alphabet.index(x) for x in letters(base, minus=True)]
    duplicate = [j for j in range(base.d) if j not in both]
    for walk in walks:
        plus, _ = kz_walk(base, walk)
        minus, _ = kz_walk(base, walk, minus=True)
        assert minus == tuple(tuple(plus[i][j] for j in both) for i in both)
        assert not any(plus[i][j] for i in both for j in duplicate)


@pytest.mark.parametrize("base, p, cycles, order, index", [
    (WITNESS, 2, 200, 120, 6), (WITNESS, 3, 200, 51_840, 1),
    (table1(1), 2, 200, 5_040, 288), (table1(2), 2, 200, 51_840, 28),
    (table1(7), 2, 1600, 348_364_800, 136),
], ids=["witness-2", "witness-3", "row1-2", "row2-2", "row7-2"])
def test_exact_minus_indices(base, p, cycles, order, index):
    rc = admissible_component(base)
    res = rauzy_veech_group_modp(base, rc, p, cycles=cycles, minus=True)
    assert res.exact and (res.order, res.index) == (order, index)
    if cycles > 200:  # the default harvest does not cover the component
        assert rc.arrow_count() > 4 * 200
        assert not rauzy_veech_group_modp(base, rc, p, minus=True).exact


@pytest.mark.parametrize("base, p, minus", [
    (base, p, False) for base, p, _ in BENCH_CASES] + [
    (base, p, True) for base, p, _, _ in MINUS_CASES],
    ids=BENCH_IDS + ["minus-" + i for i in MINUS_IDS])
def test_generators_equal_the_full_product_oracle(monkeypatch, base, p,
                                                  minus):
    # the generators the default harvest hands to the closure, against every
    # cycle walked, checked by M·Ω·Mᵀ and conjugated into the quotient basis
    closure = groups.modp_closure
    handed = _spy_on_closure(monkeypatch)
    rc = admissible_component(base) if minus else load_or_enumerate(base)
    res = rauzy_veech_group_modp(base, rc, p, minus=minus)
    want = (minus_generators_modp if minus else plus_generators_modp)(
        base, arrow_cycles(rc, cap=800), p)
    assert handed == [want]
    gens, form = want
    assert res._replace(exact=False) == closure(gens, p, form)


@pytest.mark.parametrize("base", [tau_sym(4), tau_sym(5)],
                         ids=["H(2)", "H(1,1)"])
def test_quotient_generators_check_every_cycle_exactly(monkeypatch, base):
    # M + p·E is M mod p but does not preserve the form over the integers:
    # skipping the repeat mod p must not skip its exact check
    p = 3
    rc = load_or_enumerate(base)
    mat = cycle_matrices(rc, arrow_cycles(rc, cap=1))[0]
    bad = tuple(tuple(x + p * (i == j == 0) for j, x in enumerate(row))
                for i, row in enumerate(mat))
    qd = quotient_data(base)
    assert linalg.mat_mod(bad, p) == linalg.mat_mod(mat, p)
    assert linalg.mul(linalg.mul(bad, qd.form),
                      linalg.transpose(bad)) != qd.form
    handed = _spy_on_closure(monkeypatch)
    image_modp(base, [mat, mat], p)
    [(gens, _)] = handed
    assert len(gens) == 1
    with pytest.raises(NotOmegaPreserving):
        image_modp(base, [mat, bad], p)


@pytest.mark.parametrize("base, p, minus", [
    (base, p, False) for base, p, _ in BENCH_CASES] + [
    (WITNESS, 2, True), (WITNESS, 3, True)],
    ids=BENCH_IDS + ["witness-minus-2", "witness-minus-3"])
def test_image_modp_checks_each_matrix_once_and_only_exactly(
        monkeypatch, base, p, minus):
    # M·Ω·Mᵀ = Ω over Z and an invariant kernel give A·R·Aᵀ = R on the
    # quotient, so image_modp checks no residue again mod p; modp_closure,
    # handed the same push-downs unchecked, checks each new residue mod p
    rc = admissible_component(base) if minus else load_or_enumerate(base)
    mats, generates = groups.harvest(rc, cycles=200, maxlen=60, seed=0,
                                     minus=minus)
    mats = list(mats)
    assert generates
    assert len(mats) == len(set(arrow_cycles(rc)))
    qd = image_quotient(base, minus=minus)
    pushed = [quotient_action(m, qd) for m in mats]
    calls = []
    check = linalg.preserves_form

    def spy(m, form, q=0):
        calls.append(q)
        return check(m, form, q)

    monkeypatch.setattr(linalg, "preserves_form", spy)
    res = image_modp(base, mats, p, minus=minus)
    assert calls == [0] * len(mats)
    calls.clear()
    want = modp_closure(pushed, p, qd.reduced_form)
    assert calls == [p] * want.generators_used
    assert res._asdict() == want._asdict()


def test_random_cycles_are_walked_when_the_arrows_are_not_covered(
        monkeypatch):
    base = tau_sym(5)
    rc = load_or_enumerate(base)
    assert rc.arrow_count() > 4 * 5
    calls = _spy_on_random_cycles(monkeypatch)
    res = rauzy_veech_group_modp(base, rc, 3, cycles=5, maxlen=30, seed=4)
    assert calls == [{"count": 5, "maxlen": 30, "seed": 4}] and not res.exact
    walks = arrow_cycles(rc, cap=20) + random_directed_cycles(
        rc, count=5, maxlen=30, seed=4)
    gens, form = plus_generators_modp(base, walks, 3)
    assert res == modp_closure(gens, 3, form)


def test_a_class_with_exactly_four_arrows_per_cycle_is_covered(monkeypatch):
    rc = load_or_enumerate(QUADRATIC)
    assert rc.arrow_count() == 4 * 204
    calls = _spy_on_random_cycles(monkeypatch)
    assert rauzy_veech_group_modp(QUADRATIC, rc, 3, cycles=204).exact
    assert not calls


def test_random_cycles_are_walked_on_the_minus_side(monkeypatch):
    # as on the plus side: only when the component has more than 4·cycles
    # arrows
    rc = admissible_component(QUADRATIC)
    assert rc.arrow_count() == 6
    calls = _spy_on_random_cycles(monkeypatch)
    res = rauzy_veech_group_modp(QUADRATIC, rc, 3, cycles=1, minus=True)
    assert calls == [{"count": 1, "maxlen": 60, "seed": 0}] and not res.exact
    walks = arrow_cycles(rc, cap=4) + random_directed_cycles(rc, count=1)
    gens, form = minus_generators_modp(QUADRATIC, walks, 3)
    assert res == modp_closure(gens, 3, form)
    res = rauzy_veech_group_modp(QUADRATIC, rc, 3, cycles=2, minus=True)
    assert len(calls) == 1 and res.exact and res.order == 24


def test_an_incomplete_class_gives_a_lower_bound():
    base = tau_sym(4)
    rc = load_or_enumerate(base)
    incomplete = RauzyClass(rc.vertices, rc.table, complete=False)
    res = rauzy_veech_group_modp(base, incomplete, 2)
    assert res.order == 120 and not res.exact
    part = enumerate_up_to(base, limit=6)
    with pytest.raises(OpenWalk):  # vertex 2 has no way home in the part
        rauzy_veech_group_modp(base, part, 2)


def _swap_t_arrows(rc, a, b):
    """The class's cache text with the t-arrow targets of vertices a and b
    swapped: every target stays distinct and in range."""
    rec = json.loads(to_jsonl(rc))
    targets = rec["t"]
    assert None not in (targets[a], targets[b])
    targets[a], targets[b] = targets[b], targets[a]
    return json.dumps(rec) + "\n"


def test_a_class_table_that_lies_is_refused():
    base = tau_sym(5)
    # both trees still reach every vertex, so only the moves show the lie
    lying = from_jsonl(_swap_t_arrows(enumerate_class(base), 0, 2))
    with pytest.raises(OpenWalk, match="does not lead to vertex"):
        rauzy_veech_group_modp(base, lying, 2)
    with pytest.raises(OpenWalk, match="does not lead to vertex"):
        cycle_matrices(lying, arrow_cycles(lying))


def test_a_class_table_that_lies_is_refused_on_the_minus_side():
    # every swap in the 5-vertex component of QUADRATIC cuts a vertex off
    base = sigma_hyp(2, 1)
    lying = from_jsonl(
        _swap_t_arrows(admissible_component(base), 0, 4))
    with pytest.raises(OpenWalk, match="does not lead to vertex"):
        rauzy_veech_group_modp(base, lying, 2, minus=True)


@pytest.mark.parametrize("gp", ["2 2 B / B 1 1", "0 0 1 / 1 2 2"])
def test_genus_zero_is_refused_before_the_harvest_is_read(monkeypatch, gp):
    # the refusal comes first: no cycle matrix is built, so a table that
    # lies cannot mask it
    base = parse_gp(gp)
    rc = load_or_enumerate(base)

    def refuse(*args, **kwargs):
        raise AssertionError("cycle matrices built before the refusal")

    monkeypatch.setattr(groups, "cycle_matrices", refuse)
    with pytest.raises(CriterionInapplicable, match="genus 0: no group"):
        rauzy_veech_group_modp(base, rc, 2)


@pytest.mark.parametrize("gp, rank, two_g", [
    ("E D C D A / F E A B C B F", 2, 4),
    ("F C G B G / B E H E F H C A D A D", 2, 6),
    ("D C A C / B B D A", 0, 2)])
def test_a_minus_base_that_does_not_span_is_refused(gp, rank, two_g):
    # the minus quotient must have rank 2g for the stratum's genus g; the
    # refusal comes before any matrix is read, and names the rank, not
    # "genus 0", when the stratum has genus 1 or more
    base = parse_gp(gp)
    assert stratum_signature(base).genus == two_g // 2

    def matrices():
        raise AssertionError("a matrix was read before the refusal")
        yield

    message = "rank %d, not 2g = %d" % (rank, two_g)
    with pytest.raises(CriterionInapplicable, match=message):
        image_quotient(base, minus=True)
    with pytest.raises(CriterionInapplicable, match=message):
        image_modp(base, matrices(), 2, minus=True)
    # the plus image at the same base is not refused
    assert image_modp(base, [], 2).genus == two_g // 2


@pytest.mark.parametrize("base", [table1(5), table1(6), table1(11),
                                  table1(12), sigma_hyp(2, 0)],
                         ids=["row5", "row6", "row11", "row12", "hyp-2-0"])
def test_a_minus_image_outside_the_papers_scope_is_refused(base):
    # four odd singularities: the anti-invariant homology of the cover has
    # rank 2g + 2, so an image on the both-rows letters is not the minus
    # group; the refusal comes before any matrix is read
    assert not stratum_signature(base).minus_eligible

    def matrices():
        raise AssertionError("a matrix was read before the refusal")
        yield

    message = ("%s: the minus group needs exactly two singularities of odd "
               "order" % base.encode())
    with pytest.raises(CriterionInapplicable) as info:
        image_modp(base, matrices(), 2, minus=True)
    assert str(info.value) == message
    # the plus image at the same base acts on the whole quotient
    assert image_quotient(base) == quotient_data(base)


@pytest.mark.parametrize("base, minus", [
    (tau_sym(4), False), (parse_gp("1 2 3 A A 4 / 4 3 B B 2 1"), True)],
    ids=["plus", "minus"])
def test_a_modulus_that_is_not_prime_is_refused_before_any_matrix(base,
                                                                  minus):
    # modp_closure checks the prime before it reads its first generator, so
    # image_modp's refusals all come before any matrix is pushed down
    def matrices():
        raise AssertionError("a matrix was read before the refusal")
        yield

    with pytest.raises(ValueError, match="modulus must be a prime, got 4"):
        image_modp(base, matrices(), 4, minus=minus)


@pytest.mark.parametrize("limit", [28, 39])
def test_a_walk_into_a_dead_end_of_a_truncated_class_is_open(limit):
    # the class of the witness cut at these budgets holds a vertex whose
    # arrows all leave it, which a random walk reaches
    base = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")
    part = enumerate_up_to(base, limit=limit)
    assert any(trajectory(part, "t", i)[-1] is trajectory(part, "b", i)[-1]
               is None for i in range(len(part)))
    with pytest.raises(OpenWalk, match="not connected to the base"):
        rauzy_veech_group_modp(base, part, 2, cycles=1)


def test_the_group_needs_the_labeled_class_at_its_base():
    base = tau_sym(5)
    reduced = enumerate_class(base, reduced_labels=True)
    with pytest.raises(ValueError, match="labeled"):
        rauzy_veech_group_modp(base, reduced, 2)
    with pytest.raises(ValueError, match="labeled"):
        cycle_matrices(reduced, arrow_cycles(reduced))
    rc = load_or_enumerate(base)
    with pytest.raises(OpenWalk):
        rauzy_veech_group_modp(rc.vertices[1], rc, 2)
    with pytest.raises(ValueError, match="cycles"):
        rauzy_veech_group_modp(base, rc, 2, cycles=0)
