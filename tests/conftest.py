import os
import random

import pytest

from rvq.gp import GeneralizedPermutation, is_irreducible


@pytest.fixture(scope="session", autouse=True)
def class_cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("rvq-cache")
    os.environ["RVQ_CACHE_DIR"] = str(path)
    yield path


def random_gp(rng: random.Random, d: int, *, strict=None, convention=False,
              irreducible=False, tries=4000) -> GeneralizedPermutation:
    """Random valid generalized permutation with d letters."""
    letters = [str(i) for i in range(d)]
    for _ in range(tries):
        arr = letters * 2
        rng.shuffle(arr)
        ell = rng.randint(1, 2 * d - 1)
        try:
            gp = GeneralizedPermutation(tuple(arr[:ell]), tuple(arr[ell:]))
        except Exception:
            continue
        if strict is not None and gp.is_strict != strict:
            continue
        if convention and not gp.satisfies_convention():
            continue
        if irreducible and not is_irreducible(gp):
            continue
        return gp
    raise RuntimeError("no sample found for d=%d" % d)


def normal_forms(d: int):
    """Words on 0..d-1, each letter twice, letters in first-appearance order.

    Splitting each word into two non-empty rows gives every generalized
    permutation with d letters up to relabeling.
    """
    def grow(word, used):
        if len(word) == 2 * d:
            yield tuple(word)
            return
        for k in range(min(used + 1, d)):
            if word.count(str(k)) < 2:
                yield from grow(word + [str(k)], max(used, k + 1))
    return grow([], 0)


def small_gps():
    """Every generalized permutation with d <= 5 letters up to relabeling
    (9,324 of them): each normal form, split into two rows every way."""
    for d in range(2, 6):
        for word in normal_forms(d):
            for ell in range(1, 2 * d):
                yield GeneralizedPermutation(word[:ell], word[ell:])
