import random

import pytest

from rvq import groups
from rvq.components import tau_sym
from rvq.errors import MoveUndefined, NonSymplecticGenerator, NotOmegaPreserving
from rvq.gp import parse_gp
from rvq.groups import (arrow_cycles, decomposition_product,
                        directed_decomposition, find_gamma_star,
                        k_completeness, minus_generators_modp, modp_closure,
                        plus_generators_modp, random_directed_cycles,
                        rauzy_veech_group_modp, sp_order)
from rvq.homology import kz_walk
from rvq.induction import enumerate_class, load_or_enumerate
from rvq.linalg import identity

TORUS = parse_gp("1 2 / 2 1")


def test_sp_order_values():
    assert sp_order(1, 2) == 6
    assert sp_order(2, 2) == 720
    assert sp_order(3, 2) == 1451520
    assert sp_order(1, 3) == 3 * (9 - 1)


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
    # the halved minus form of this base has rank 2: the image is SL(2, F_p)
    base = parse_gp("0 A A 1 / 1 B B 0")
    rc = enumerate_class(base)
    res = rauzy_veech_group_modp(base, rc, p, cycles=40, seed=1, minus=True)
    assert res.genus == 1 and res.order == order == sp_order(1, p)


def test_minus_generators_check_the_form(monkeypatch):
    base = parse_gp("0 A A 1 / 1 B B 0")
    bad = ((1, 1), (0, 2))  # det 2: cannot preserve a non-degenerate form
    monkeypatch.setattr(groups, "kz_minus_walk",
                        lambda gp, walk, order=None: (bad, gp))
    with pytest.raises(NotOmegaPreserving):
        minus_generators_modp(base, ["t"], 2)


def test_non_symplectic_generator_rejected():
    form = ((0, 1), (-1, 0))
    with pytest.raises(NonSymplecticGenerator):
        modp_closure([((1, 0), (0, 0))], 2, form)


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
    rt = rc.reverse_table('t')
    rb = rc.reverse_table('b')
    for _ in range(rng.randint(1, max_steps)):
        ops = []
        if rc.t_target[cur] is not None:
            ops.append(('t', rc.t_target[cur]))
        if rc.b_target[cur] is not None:
            ops.append(('b', rc.b_target[cur]))
        if cur in rt:
            ops.append(('T', rt[cur]))
        if cur in rb:
            ops.append(('B', rb[cur]))
        op, cur = rng.choice(ops)
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
