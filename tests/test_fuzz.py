"""Seeded fuzz runs of every command, in process, and of the class cache.

The inputs are random and bad on purpose: each command run must return 0 or
1, or exit 2 with one usage line on stderr, and never raise anything else. A
mutated class record is refused and rebuilt, or read back equal. The seeds and
counts are fixed, so the cases are the same on every run. These tests find
crashes, not wrong answers; the oracles check those.
"""

import json
import random

import pytest

from oracles import from_jsonl, to_jsonl
from rvq import induction
from rvq.cli import main
from rvq.errors import MalformedText, RVQError
from rvq.extensions import insert_letter
from rvq.gp import GeneralizedPermutation, parse_gp

SEED = 20261019
RUNS = 1000
LETTERS = "0123AB"
ODD_TEXTS = ["", " / ", "1 2 / 2 1 / 1", "1 2 3 / 3 2 1", "1\t2 /\t2 1",
             "1 2\t/ 2 1", "1 ä / ä 1", "α β / β α", "1 2 /", "/ 1 2",
             "1 1 / 2 2", "1 2 2 / 1", "0 0 1 / 1 2 2", "2 2 B / B 1 1"]
GOOD_TEXTS = ["1 2 / 2 1", "1 2 3 4 / 4 3 2 1", "A A 1 / 1 B B",
              "0 A A 1 / 1 B B 0", "1 2 3 A A 4 / 4 3 B B 2 1"]
COMMANDS = ("validate", "stratum", "class", "cocycle", "cover", "extend",
            "search", "identify", "group", "verify-table")


def _gp_text(rng):
    """A two-row string over LETTERS, every letter twice or, in one string
    of four, some letter once or three times; or one of the odd or of the
    good texts."""
    draw = rng.random()
    if draw < 0.3:
        return rng.choice(ODD_TEXTS if draw < 0.1 else GOOD_TEXTS)
    counts = (2,) if rng.random() < 0.75 else (1, 2, 2, 3)
    letters = []
    for x in rng.sample(LETTERS, rng.randint(1, len(LETTERS))):
        letters += [x] * rng.choice(counts)
    rng.shuffle(letters)
    cut = rng.randint(0, len(letters))
    return "%s / %s" % (" ".join(letters[:cut]), " ".join(letters[cut:]))


def _walk(rng):
    steps = "tbTB" if rng.random() < 0.9 else "tbTBx1"
    return "".join(rng.choice(steps) for _ in range(rng.randint(0, 12)))


def _ints(rng, low, high, n, total=None):
    """n integers from low..high; with ``total`` the last one makes up the
    sum."""
    ints = [rng.randint(low, high) for _ in range(n)]
    if total is not None:
        ints[-1] = total - sum(ints[:-1])
    return ",".join(map(str, ints))


def _argv(rng, command):
    gp = _gp_text(rng)
    if command == "cocycle":
        args = [gp, "--walk", _walk(rng)] + ["--minus"] * rng.randint(0, 1)
    elif command == "extend":
        total = rng.choice((None, 2, 4, 6))
        args = [gp, "--singularity", str(rng.randint(-1, 8)),
                "--orders", _ints(rng, -1, 5, rng.choice((1, 2, 3, 3, 4)),
                                  total)]
    elif command == "search":
        args = ["--from", gp, "--target-stratum",
                _ints(rng, -2, 6, rng.randint(1, 4)),
                "--vertices", str(rng.randint(0, 3)),
                "--max-results", str(rng.randint(1, 3))]
        args += ["--nonhyp"] * rng.randint(0, 1)
    elif command == "group":
        args = [gp, "--mod", rng.choice("2343x"), "--cycles",
                str(rng.randint(0, 4)), "--maxlen", str(rng.randint(1, 12)),
                "--seed", str(rng.randint(-3, 3))]
        args += ["--minus"] * rng.randint(0, 1)
    elif command == "verify-table":
        args = ["--rows", rng.choice(("1", "0", "13", "2-1", "x", "1,x"))]
    elif command == "class":
        args = [gp] + rng.choice(([], ["--reduced"], ["--dot", "-"]))
    else:
        args = [gp]
    flags = ["--budget", str(rng.choice((0, 1, 5, 40, 600)))]
    flags += ["--no-cache"] * rng.randint(0, 1) + ["--json"] * rng.randint(0, 1)
    return ([command] + args + flags if rng.random() < 0.5
            else flags + [command] + args)


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and err.endswith("\n"), (
            argv, code, err)
        return code
    err = capsys.readouterr().err
    assert code in (0, 1), (argv, code)
    assert "Traceback" not in err, (argv, err)
    return code


def test_every_command_returns_0_1_or_a_usage_error(capsys, monkeypatch,
                                                    tmp_path):
    monkeypatch.setenv(induction.CACHE_ENV, str(tmp_path))
    rng = random.Random(SEED)
    codes = {0: set(), 1: set(), 2: set()}
    for k in range(RUNS):
        command = COMMANDS[k % len(COMMANDS)]
        codes[_run(capsys, _argv(rng, command))].add(command)
    # every exit code is seen, and at least half the commands get past the
    # checks of their input to an answer somewhere
    assert codes[1] and codes[2] and len(codes[0]) >= len(COMMANDS) // 2


# letter tokens, some that ``encode`` cannot write back: empty, with
# whitespace (Unicode's too) or with the row separator
TOKENS = ["0", "1", "A", "x0", "\u00e4", "\u03b1", "\u200b", "", " ", "a b",
          "\t", "B\n", "\u00a0", "\u2028", "/", "1/2"]


def test_every_accepted_permutation_reads_back_from_its_text():
    rng = random.Random(SEED)
    accepted = refused = 0
    for _ in range(RUNS):
        letters = rng.sample(TOKENS, rng.randint(2, 5)) * 2
        rng.shuffle(letters)
        cut = rng.randint(1, len(letters) - 1)
        try:
            gp = GeneralizedPermutation(tuple(letters[:cut]),
                                        tuple(letters[cut:]))
        except MalformedText:
            refused += 1
            continue
        assert parse_gp(gp.encode()) == gp, gp
        accepted += 1
    assert accepted and refused
    # an empty fresh letter once gave an extension that read back as its base
    with pytest.raises(MalformedText):
        insert_letter(parse_gp("1 2 3 4 / 4 3 2 1"), "", ("top", 2),
                      ("bottom", 2))


SMALL = parse_gp("A A 1 / 1 B B")


def _mutations(rng, text):
    """Mutated copies of the one-line class record ``text``."""
    rec = json.loads(text)
    junk = [None, True, 0, -1, 1.5, "", "t", [], {}, [None], ["1 / 1"],
            "1 2 / 2 1", 10 ** 6]
    for key in list(rec) + ["extra"]:
        for value in junk:
            yield json.dumps(dict(rec, **{key: value}))
        yield json.dumps({k: v for k, v in rec.items() if k != key})
    for kind in "tb":
        for _ in range(20):
            column = list(rec[kind])
            i = rng.randrange(len(column))
            column[i] = rng.choice(junk + [rng.randrange(-2, len(column) + 2)])
            yield json.dumps(dict(rec, **{kind: column}))
    for _ in range(20):
        verts = list(rec["vertices"])
        i = rng.randrange(len(verts))
        verts[i] = rng.choice([verts[0], "1 2 / 2 1", "1 / 1 2", "", 7])
        yield json.dumps(dict(rec, vertices=verts))
    for _ in range(60):
        cut = rng.randrange(len(text))
        yield rng.choice((text[:cut], text[:cut] + rng.choice("{}[],:\"0")
                          + text[cut + 1:]))
    yield "[]"
    yield "null"
    yield text.replace('"format": 2', '"format": 1')


def test_mutated_class_records_are_rebuilt_or_read_back_equal(monkeypatch,
                                                              tmp_path):
    monkeypatch.setenv(induction.CACHE_ENV, str(tmp_path))
    rng = random.Random(SEED)
    good = induction.load_or_enumerate(SMALL)
    (path,) = tmp_path.iterdir()
    text = path.read_text()
    refused = accepted = 0
    for mutated in _mutations(rng, text):
        try:
            rc = from_jsonl(mutated)
        except (ValueError, LookupError, TypeError, AttributeError, RVQError):
            refused += 1
        else:
            accepted += 1
            assert from_jsonl(to_jsonl(rc)) == rc
        path.write_text(mutated)
        rc = induction.load_or_enumerate(SMALL)
        assert rc == good or rc == from_jsonl(mutated)
        assert from_jsonl(path.read_text()) == rc
    assert refused and accepted
