import errno
import gc
import hashlib
import json
import random
import tracemalloc

import pytest

from conftest import random_gp, small_gps
from oracles import (class_record_text, defined_moves, enumerate_up_to,
                     from_jsonl, reduced_by_relabel, to_jsonl, trajectory)
from rvq.cli import main
from rvq.components import table1, tau_sym, tau_zorich
from rvq.errors import (BudgetExceeded, MoveUndefined, OpenWalk,
                        NotSuspendable, ReverseArrowMissing)
from rvq import induction
from rvq.gp import (GeneralizedPermutation, is_irreducible, is_suspendable,
                    parse_gp)
from rvq.groups import arrow_cycles, random_directed_cycles
from rvq.homology import kz_walk
from rvq.induction import (Arrow, RauzyClass, _cache_path, apply_arrow,
                           enumerate_class, export_graph, invert_arrow,
                           load_or_enumerate, resolve_walk)

# its reduced class of 5,209 vertices spans many pieces of a class file
CLASS_5209 = parse_gp("0 1 2 3 5 6 8 9 / 3 2 6 5 9 8 1 0")


# -- literal position-formula implementation, used as an independent oracle --

def _twins(gp):
    """Each 1-based position's twin: the involution pairing a letter's two
    copies."""
    return {p: q for i, j in gp.pairs.values() for p, q in ((i, j), (j, i))}


def _literal_move(gp, kind):
    ell, m = gp.ell, gp.m
    pi = dict(enumerate(gp.top + gp.bottom, 1))
    if kind == 't':
        s = _twins(gp)[ell]
        if s > ell:
            new = {}
            for i in range(1, ell + m + 1):
                if i <= s:
                    new[i] = pi[i]
                elif i == s + 1:
                    new[i] = pi[ell + m]
                else:
                    new[i] = pi[i - 1]
            lnew = ell
        elif any(gp.bottom.count(y) == 2 and y != gp.bottom[-1]
                 for y in gp.bottom):
            new = {}
            for i in range(1, ell + m + 1):
                if i < s:
                    new[i] = pi[i]
                elif i == s:
                    new[i] = pi[ell + m]
                else:
                    new[i] = pi[i - 1]
            lnew = ell + 1
        else:
            return None
    else:
        s = _twins(gp)[ell + m]
        if s < ell:
            new = {}
            for i in range(1, ell + m + 1):
                if i == s + 1:
                    new[i] = pi[ell]
                elif s + 1 < i <= ell:
                    new[i] = pi[i - 1]
                else:
                    new[i] = pi[i]
            lnew = ell
        elif any(gp.top.count(y) == 2 and y != gp.top[-1] for y in gp.top):
            # the type-changing case reads: shift left between l and the twin,
            # park the loser just before the twin, keep the rest
            new = {}
            for i in range(1, ell + m + 1):
                if ell <= i < s - 1:
                    new[i] = pi[i + 1]
                elif i == s - 1:
                    new[i] = pi[ell]
                else:
                    new[i] = pi[i]
            lnew = ell - 1
        else:
            return None
    letters = [new[i] for i in range(1, ell + m + 1)]
    return type(gp)(tuple(letters[:lnew]), tuple(letters[lnew:]))


def _literal_arrow(gp, kind):
    """(target, winner, loser, type change) by the literal formulas, or None.

    The winner sits at position l (top move) or l+m (bottom move) and the
    loser at the other row's last position."""
    target = _literal_move(gp, kind)
    if target is None:
        return None
    ell, m = gp.ell, gp.m
    w, lo = (ell, ell + m) if kind == 't' else (ell + m, ell)
    word = gp.top + gp.bottom
    return target, word[w - 1], word[lo - 1], target.ell != ell


def test_moves_match_literal_formulas():
    rng = random.Random(3)
    checked = 0
    while checked < 300:
        gp = random_gp(rng, rng.randint(2, 7))
        if gp.top[-1] == gp.bottom[-1]:
            continue  # the degenerate shared-last-letter loop is skipped
        for kind in ('t', 'b'):
            want = _literal_move(gp, kind)
            try:
                got = apply_arrow(gp, kind).target
            except MoveUndefined:
                got = None
            if want is None:
                assert got is None or got == gp
                continue
            assert got == want, (gp.encode(), kind)
            checked += 1


def test_moves_match_literal_formulas_exhaustive():
    cases = checked = 0
    for gp in small_gps():
        for kind in ('t', 'b'):
            cases += 1
            try:
                a = apply_arrow(gp, kind)
            except MoveUndefined:
                assert _literal_arrow(gp, kind) is None, (gp.encode(), kind)
                continue
            if gp.top[-1] == gp.bottom[-1]:
                # the shared-last-letter loop, where the bottom formula breaks
                want = (gp, gp.top[-1], gp.top[-1], False)
            else:
                want = _literal_arrow(gp, kind)
            assert (a.target, a.winner, a.loser, a.type_change) == want, \
                (gp.encode(), kind)
            assert a.source == gp and a.kind == kind
            checked += 1
    assert cases == 2 * 9_324 and checked > 10_000


def _predecessor_table():
    """(kind, normal form of the target) -> source relabeled alike, built by
    applying both moves to every permutation with d <= 5."""
    table = {}
    for gp in small_gps():
        for kind in ('t', 'b'):
            try:
                target = apply_arrow(gp, kind).target
            except MoveUndefined:
                continue
            rename = {x: str(k) for k, x in enumerate(target.alphabet)}
            key = (kind, target.relabel(rename))
            assert key not in table, "two %s-arrows into %s" % key
            table[key] = gp.relabel(rename)
    return table


def test_invert_arrow_matches_predecessor_table():
    table = _predecessor_table()
    found = 0
    for gp in small_gps():
        for kind in ('t', 'b'):
            want = table.get((kind, gp))
            if want is None:
                with pytest.raises(ReverseArrowMissing):
                    invert_arrow(gp, kind, require_irreducible=False)
                continue
            a = invert_arrow(gp, kind, require_irreducible=False)
            assert (a.source, a.target, a.kind) == (want, gp, kind)
            found += 1
    assert found == len(table)


def test_spec_arrow_examples():
    gp = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")
    a = apply_arrow(gp, 't')
    assert a.target.encode() == "1 2 3 A A 4 / 4 1 3 B B 2"
    assert (a.winner, a.loser, a.type_change) == ("4", "1", False)

    b = apply_arrow(gp, 'b')
    assert b.target.encode() == "1 4 2 3 A A / 4 3 B B 2 1"
    assert (b.winner, b.loser) == ("1", "4")

    c = apply_arrow(parse_gp("1 2 A A / B B 2 1"), 't')
    assert c.target.encode() == "1 2 1 A A / B B 2"
    assert c.type_change and (c.winner, c.loser) == ("A", "1")


def test_move_undefined():
    # top winner is a top duplicate but the only bottom duplicate is last
    gp = parse_gp("1 A A / 1 B B")
    with pytest.raises(MoveUndefined):
        apply_arrow(gp, 't')


def test_transpose_mirror():
    rng = random.Random(11)
    for _ in range(200):
        gp = random_gp(rng, rng.randint(2, 6))
        try:
            lhs = apply_arrow(gp, 'b').target
        except MoveUndefined:
            lhs = None
        try:
            t = apply_arrow(GeneralizedPermutation(gp.bottom, gp.top),
                            't').target
            rhs = GeneralizedPermutation(t.bottom, t.top)
        except MoveUndefined:
            rhs = None
        assert lhs == rhs


def test_relabeling_commutes():
    rng = random.Random(5)
    for _ in range(150):
        gp = random_gp(rng, rng.randint(2, 6))
        letters = list(gp.alphabet)
        perm = letters[:]
        rng.shuffle(perm)
        mapping = dict(zip(letters, perm))
        for kind in defined_moves(gp):
            direct = apply_arrow(gp, kind).target.relabel(mapping)
            relabeled = apply_arrow(gp.relabel(mapping), kind).target
            assert direct == relabeled


def test_type_change_tracks_length():
    rng = random.Random(13)
    for _ in range(200):
        gp = random_gp(rng, rng.randint(2, 6))
        for kind in defined_moves(gp):
            a = apply_arrow(gp, kind)
            assert a.source.ell + a.source.m == a.target.ell + a.target.m
            assert (a.source.ell != a.target.ell) == a.type_change


def test_invert_arrow_roundtrip():
    rng = random.Random(17)
    count = 0
    while count < 200:
        gp = random_gp(rng, rng.randint(2, 6), irreducible=True)
        for kind in defined_moves(gp):
            fwd = apply_arrow(gp, kind)
            back = invert_arrow(fwd.target, kind)
            assert back.source == gp and back.target == fwd.target
            count += 1


def test_invert_arrow_missing():
    with pytest.raises(ReverseArrowMissing):
        # top winner's twin is the final bottom slot: the only t-arrow into
        # this vertex is its own fixed-point loop, and the vertex is reducible
        invert_arrow(parse_gp("A A 1 2 / 1 B B 2"), 't')


def test_torus_class():
    rc = enumerate_class(parse_gp("1 2 / 2 1"))
    assert len(rc) == 1 and rc.arrow_count() == 2
    assert rc.step(0, 't') == 0 and rc.step(0, 'b') == 0


def _closure_by_dfs(seed):
    # independent enumeration: literal-formula moves, DFS order
    seen = {seed.encode(): seed}
    stack = [seed]
    while stack:
        gp = stack.pop()
        for kind in ('t', 'b'):
            nxt = _literal_move(gp, kind)
            if nxt is not None and nxt.encode() not in seen:
                seen[nxt.encode()] = nxt
                stack.append(nxt)
    return seen


@pytest.mark.parametrize("text,expected", [
    ("1 2 / 2 1", 1),
    ("1 2 3 4 / 4 3 2 1", 7),
    ("1 2 3 4 5 / 5 4 3 2 1", 15),
])
def test_class_sizes_cross_checked(text, expected):
    seed = parse_gp(text)
    rc = enumerate_class(seed)
    assert len(rc) == expected
    assert len(_closure_by_dfs(seed)) == expected


def test_class_invariants_small():
    for text in ("1 2 3 4 / 4 3 2 1", "0 A A 1 / 1 B B 0"):
        rc = enumerate_class(parse_gp(text), limit=100000)
        for i, v in enumerate(rc.vertices):
            assert defined_moves(v), "every vertex has a defined move"
            assert is_irreducible(v)
        # strong connectivity: every vertex reaches the base going forward
        for i in range(len(rc)):
            assert rc.path_to_base(i) is not None
        # reversed arrows are single-valued
        rc.step(0, 'T')
        rc.step(0, 'B')


def test_reducible_seed_rejected():
    with pytest.raises(NotSuspendable, match="reducible"):
        enumerate_class(parse_gp("1 2 3 4 / 1 2 3 4"))
    with pytest.raises(NotSuspendable, match="no duplicate letter in bottom"):
        enumerate_class(parse_gp("1 A A 2 / 2 1"))  # convention violated


def test_budget():
    seed = parse_gp("1 2 3 4 5 / 5 4 3 2 1")
    with pytest.raises(BudgetExceeded) as info:
        enumerate_class(seed, limit=4)
    partial = info.value.partial
    assert partial is not None and not partial.complete
    assert len(partial) == 4


def test_tree_path_refuses_a_vertex_cut_off_from_the_base():
    # vertex 2 of this truncated class has no stored arrow back to the base
    part = enumerate_up_to(tau_sym(4), limit=5)
    assert part.path_to_base(1) == "tt"
    with pytest.raises(OpenWalk):
        part.path_to_base(2)


# the DOT text of the class of 1 2 3 4 / 4 3 2 1, pinned from the class
# table that stored each arrow's winner
DOT_1234 = """digraph rauzy {
  label="base=1 2 3 4 / 4 3 2 1 vertices=7";
  v0 [label="1 2 3 4 / 4 3 2 1"];
  v1 [label="1 2 3 4 / 4 1 3 2"];
  v2 [label="1 4 2 3 / 4 3 2 1"];
  v3 [label="1 2 3 4 / 4 2 1 3"];
  v4 [label="1 2 4 3 / 4 1 3 2"];
  v5 [label="1 4 2 3 / 4 3 1 2"];
  v6 [label="1 3 4 2 / 4 3 2 1"];
  v0 -> v1 [label="t:4"];
  v0 -> v2 [label="b:1"];
  v1 -> v3 [label="t:4"];
  v1 -> v4 [label="b:2"];
  v2 -> v5 [label="t:3"];
  v2 -> v6 [label="b:1"];
  v3 -> v0 [label="t:4"];
  v3 -> v3 [label="b:3"];
  v4 -> v4 [label="t:3"];
  v4 -> v1 [label="b:2"];
  v5 -> v2 [label="t:3"];
  v5 -> v5 [label="b:2"];
  v6 -> v6 [label="t:2"];
  v6 -> v0 [label="b:1"];
}
"""


@pytest.mark.parametrize("seed, reduced", [
    (tau_sym(5), False),
    (parse_gp("0 A A 1 / 1 B B 0"), False),
    (tau_zorich(3), True),
], ids=["sym5", "Q(2,-1,-1)", "zorich3-reduced"])
def test_arrow_winners_are_the_moves_winners(seed, reduced):
    rc = enumerate_class(seed, reduced_labels=reduced)
    arrows = list(rc.arrows())
    assert len(arrows) == rc.arrow_count() > 0
    for i, kind, j, winner in arrows:
        assert winner == apply_arrow(rc.vertices[i], kind).winner
        assert rc.step(i, kind) == j


def test_export_graph():
    assert export_graph(enumerate_class(parse_gp("1 2 3 4 / 4 3 2 1"))) \
        == DOT_1234
    rc = enumerate_class(parse_gp("1 2 / 2 1"))
    dot = export_graph(rc)
    assert dot.count("->") == 2 and "t:2" in dot and "b:1" in dot

    partial = enumerate_up_to(parse_gp("1 2 3 4 5 / 5 4 3 2 1"), limit=4)
    assert "TRUNCATED" in export_graph(partial)


@pytest.mark.parametrize("letter, quoted", [('a"', 'a\\"'), ("a\\", "a\\\\")],
                         ids=["quote", "backslash"])
def test_export_graph_escapes_each_label(letter, quoted):
    # a letter is any token without '/' or a space, so a label may hold a
    # double quote or a backslash; both are escaped, as DOT reads them
    rc = enumerate_class(parse_gp("%s b / b %s" % (letter, letter)))
    code = "%s b / b %s" % (quoted, quoted)
    assert export_graph(rc) == "\n".join([
        "digraph rauzy {",
        '  label="base=%s vertices=1";' % code,
        '  v0 [label="%s"];' % code,
        '  v0 -> v0 [label="t:b"];',
        '  v0 -> v0 [label="b:%s"];' % quoted,
        "}", ""])


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("RVQ_CACHE_DIR", str(tmp_path))
    seed = parse_gp("1 2 3 4 / 4 3 2 1")
    rc1 = load_or_enumerate(seed)
    rc2 = load_or_enumerate(seed)
    assert to_jsonl(rc1) == to_jsonl(rc2)
    [line] = to_jsonl(rc1).splitlines()
    assert '"complete": true' in line and '"base"' not in line


def test_a_failed_cache_write_leaves_no_temporary_file(tmp_path,
                                                      monkeypatch):
    # the class is written to a temporary file and renamed into place; when
    # the rename fails the error propagates and the temporary file goes
    monkeypatch.setenv("RVQ_CACHE_DIR", str(tmp_path))

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(induction.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        load_or_enumerate(parse_gp("1 2 3 4 / 4 3 2 1"))
    assert list(tmp_path.iterdir()) == []


class _SmallDisk:
    """A text file on a disk with room for ``room`` characters: a write
    that does not fit raises OSError, as on a full disk."""

    def __init__(self, fh, room):
        self.fh, self.room, self.used = fh, room, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        if self.used + len(text) > self.room:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.used += len(text)
        return self.fh.write(text)


def test_a_class_file_write_that_fails_partway_leaves_nothing(
        tmp_path, monkeypatch, capsys):
    # room for the head and a few pieces of the 253,105-character file:
    # the error propagates, and neither the temporary file nor a class file
    # stays behind, from the library or from the CLI
    disks = []
    fdopen = induction.os.fdopen

    def small_disk(fd, *args, **kwargs):
        disks.append(_SmallDisk(fdopen(fd, *args, **kwargs), 10_000))
        return disks[-1]

    monkeypatch.setattr(induction.os, "fdopen", small_disk)
    monkeypatch.setenv("RVQ_CACHE_DIR", str(tmp_path))
    with pytest.raises(OSError, match="No space left on device"):
        load_or_enumerate(CLASS_5209, reduced_labels=True)
    assert list(tmp_path.iterdir()) == []
    assert 5_000 < disks[0].used <= 10_000

    code = main(["--cache-dir", str(tmp_path), "class", CLASS_5209.encode(),
                 "--reduced"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "OSError: [Errno %d] No space left on device\n" % errno.ENOSPC
    assert list(tmp_path.iterdir()) == [] and len(disks) == 2


def test_a_class_is_not_equal_to_another_type():
    rc = enumerate_class(tau_sym(3))
    assert rc.__eq__(5) is NotImplemented
    assert not rc == 5 and rc != 5


@pytest.mark.parametrize("seed, reduced, limit", [
    (tau_sym(5), False, None),
    (tau_zorich(3), True, None),
    (parse_gp("0 A A 1 / 1 B B 0"), False, 40),
], ids=["labeled", "reduced", "truncated"])
def test_class_file_roundtrip(seed, reduced, limit):
    rc = enumerate_up_to(seed, limit or induction.DEFAULT_BUDGET,
                         reduced_labels=reduced)
    assert rc.complete == (limit is None)
    assert from_jsonl(to_jsonl(rc)) == rc


@pytest.mark.parametrize("seed, reduced, limit, size", [
    (parse_gp("1 2 / 2 1"), False, None, 1),
    (tau_sym(4), False, None, 7),
    (CLASS_5209, True, None, 5209),
    (parse_gp("0 A A 1 / 1 B B 0"), False, 40, 40),
    (tau_sym(11), True, None, 1023),
], ids=["torus", "tau_sym4-labeled", "5209-reduced", "truncated",
        "tau_sym11-reduced"])
def test_class_file_is_one_json_dumps_of_its_record(tmp_path, seed, reduced,
                                                    limit, size):
    # the file goes out in pieces, yet reads as one json.dumps of the record
    rc = enumerate_up_to(seed, limit or induction.DEFAULT_BUDGET,
                         reduced_labels=reduced)
    assert len(rc) == size and rc.complete == (limit is None)
    path = tmp_path / "class.jsonl"
    with open(path, "w") as fh:
        rc.write_jsonl(fh)
    text = class_record_text(rc)
    assert path.read_text() == to_jsonl(rc) == text
    with open(path) as fh:
        assert RauzyClass.read_jsonl(fh) == rc


def test_vertices_share_their_top_rows(tmp_path, monkeypatch):
    # one tuple per distinct top row, enumerated (labeled or reduced) or
    # read back from the class file
    monkeypatch.setenv("RVQ_CACHE_DIR", str(tmp_path))
    seed = parse_gp("0 A A 1 / 1 B B 0")  # 43 reduced vertices, 23 tops
    labeled = enumerate_class(tau_sym(6))
    fresh = load_or_enumerate(seed, reduced_labels=True)

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the class should come from the cache file")

    monkeypatch.setattr(induction, "enumerate_class", no_enumeration)
    read = load_or_enumerate(seed, reduced_labels=True)
    assert read == fresh and read is not fresh
    for rc in (labeled, fresh, read):
        tops = [v.top for v in rc.vertices]
        assert len(set(map(id, tops))) == len(set(tops)) < len(tops)


def test_writing_a_class_file_holds_no_copy_of_its_text(tmp_path):
    rc = enumerate_class(CLASS_5209, reduced_labels=True)
    path = tmp_path / "class.jsonl"
    with open(path, "w") as fh:
        tracemalloc.start()
        try:
            rc.write_jsonl(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def _peak_per_vertex(build):
    """The class ``build`` returns, and its tracemalloc peak per vertex less
    what the class still holds at the end."""
    tracemalloc.start()
    try:
        rc = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return rc, (peak - current) / len(rc)


def test_building_or_reading_a_class_holds_no_pair_or_set_per_vertex(
        tmp_path):
    # the index is one dict of bottom rows per top row, not one pair of rows
    # per vertex, and the read marks each column's targets in n bytes, not a
    # list and a set of them.  Measured (bytes a vertex): enumerating 87.2
    # with pairs and 52.6 without; reading, whose peak also holds the file's
    # text of 48.6, 96.0 with the set and 63.5 without
    rc, built = _peak_per_vertex(
        lambda: enumerate_class(CLASS_5209, reduced_labels=True))
    path = tmp_path / "class.jsonl"
    with open(path, "w") as fh:
        rc.write_jsonl(fh)
    with open(path) as fh:
        read, reading = _peak_per_vertex(lambda: RauzyClass.read_jsonl(fh))
    assert built < 70 and reading < 80, (built, reading)
    assert len(rc) == 5209 and read == rc
    # the memo of index_of has the index's layout
    assert [read.index_of(v) for v in read.vertices] == list(range(5209))
    assert tau_sym(8) not in read and read.index_of(tau_sym(8)) is None


def _set_field(text, field, value, i=None):
    """The class file ``text`` with one field, or entry i of a column,
    replaced."""
    rec = json.loads(text)
    if i is None:
        rec[field] = value
    else:
        rec[field][i] = value
    return json.dumps(rec) + "\n"


@pytest.mark.parametrize("corrupt", [
    lambda text, other: text[:-10],                               # mid-line
    lambda text, other: text[:text.index(', "t"')] + "}\n",  # at a field
    lambda text, other: "",
    lambda text, other: other,                        # another class's file
    lambda text, other: _set_field(text, "t", 99, 0),  # 15 vertices
    lambda text, other: _set_field(text, "t", 0, 3),   # vertex 3: 7 -> 0
    lambda text, other: _set_field(text, "b", 0, 3),   # vertex 3: 8 -> 0
    lambda text, other: _set_field(text, "t", 0, 14),  # the last: 14 -> 0
    lambda text, other: _set_field(text, "b", 2, 14),  # the last: 0 -> 2
    lambda text, other: _set_field(text, "b", json.loads(text)["b"][:-1]),
    lambda text, other: _set_field(text, "vertices", []),
    lambda text, other: _set_field(text, "complete", "no"),
    lambda text, other: _set_field(text, "complete", 1),
    lambda text, other: _set_field(text, "complete", None),
    lambda text, other: _set_field(text, "reduced_labels", "no"),
    lambda text, other: _set_field(text, "reduced_labels", 0),
    lambda text, other: _set_field(text, "reduced_labels", None),
    lambda text, other: _set_field(text, "reduced_labels", True),
    lambda text, other: _set_field(text, "format", 1),
    # vertex 1 on other letters, which no move makes from the base
    lambda text, other: _set_field(text, "vertices", "1 2 / 2 1", 1),
    lambda text, other: _set_field(text, "vertices",
                                   "1 2 3 4 5 / 5 4 3 2 2", 1),
    lambda text, other: _set_field(text, "vertices",
                                   " / 1 2 3 4 5 5 4 3 2 1", 1),
    lambda text, other: _set_field(text, "vertices",
                                   "1 2 3 / 4 5 5 4 / 3 2 1", 1),
    lambda text, other: _set_field(text, "vertices", 12, 1),
], ids=["byte-truncated", "line-truncated", "empty", "wrong-base",
        "out-of-range-target", "duplicate-target", "duplicate-target-b",
        "duplicate-last-target", "duplicate-last-target-b", "short-column",
        "no-vertices", "complete-str", "complete-int", "complete-null",
        "reduced-str", "reduced-int", "reduced-null", "reduced-flag-wrong",
        "format-1", "vertex-on-other-letters", "vertex-letter-thrice",
        "vertex-empty-row", "vertex-three-rows", "vertex-not-a-string"])
def test_corrupt_cache_is_rebuilt(tmp_path, monkeypatch, corrupt):
    monkeypatch.setenv("RVQ_CACHE_DIR", str(tmp_path))
    seed = parse_gp("1 2 3 4 5 / 5 4 3 2 1")
    good = to_jsonl(load_or_enumerate(seed))
    other = to_jsonl(enumerate_class(parse_gp("1 2 3 4 / 4 3 2 1")))
    [path] = tmp_path.iterdir()
    path.write_text(corrupt(good, other))
    rc = load_or_enumerate(seed)
    assert len(rc) == 15 and rc.complete and to_jsonl(rc) == good
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert path.read_text() == good


@pytest.mark.parametrize("reduced", [False, True], ids=["labeled", "reduced"])
@pytest.mark.parametrize("seed, limit", [
    (tau_sym(4), None),
    (tau_sym(5), None),
    (tau_sym(6), None),
    (parse_gp("0 A A 1 / 1 B B 0"), None),  # 516 vertices
    (table1(1), 2000),
], ids=["tau4", "tau5", "tau6", "0AA1", "table1-1-cut"])
def test_class_read_back_is_the_parsed_class(seed, limit, reduced):
    # only the base is parsed on reading; every vertex must still be the
    # permutation its code parses to, built without a letter table
    rc = enumerate_up_to(seed, limit or induction.DEFAULT_BUDGET,
                         reduced_labels=reduced)
    assert rc.complete == (limit is None)
    read = from_jsonl(to_jsonl(rc))
    assert all(v._pairs is None for v in read.vertices)
    assert read == rc
    assert all(v == parse_gp(v.encode()) for v in read.vertices)


@pytest.fixture
def collector_state():
    """Leave the cyclic collector enabled, whatever a test did to it."""
    yield
    gc.enable()


_COLLECTOR_CASES = {
    "enumerate": lambda: enumerate_class(tau_sym(5)),
    "read": lambda: from_jsonl(
        to_jsonl(enumerate_class(tau_sym(5)))),
    "load": lambda: load_or_enumerate(tau_sym(5)),
    "enumerate-budget": lambda: enumerate_class(tau_sym(5), limit=3),
    "load-budget": lambda: load_or_enumerate(tau_sym(6), limit=3),
    "enumerate-unsuspendable": lambda: enumerate_class(parse_gp("1 2 / 1 2")),
    "load-unsuspendable": lambda: load_or_enumerate(parse_gp("1 2 / 1 2")),
    "read-corrupt": lambda: from_jsonl(_set_field(
        to_jsonl(enumerate_class(tau_sym(5))), "vertices", "1 2 / 2 1", 1)),
}
_COLLECTOR_ERRORS = {"enumerate-budget": BudgetExceeded,
                     "load-budget": BudgetExceeded,
                     "enumerate-unsuspendable": NotSuspendable,
                     "load-unsuspendable": NotSuspendable,
                     "read-corrupt": ValueError}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", list(_COLLECTOR_CASES))
def test_class_building_leaves_the_collector_as_it_found_it(
        collector_state, tmp_path, monkeypatch, case, enabled):
    monkeypatch.setenv("RVQ_CACHE_DIR", str(tmp_path))
    (gc.enable if enabled else gc.disable)()
    error = _COLLECTOR_ERRORS.get(case)
    if error is None:
        _COLLECTOR_CASES[case]()
        _COLLECTOR_CASES[case]()  # a load the second time reads the file
    else:
        with pytest.raises(error):
            _COLLECTOR_CASES[case]()
    assert gc.isenabled() is enabled


@pytest.fixture
def collector_on():
    """Run with the cyclic collector on and nothing frozen, and leave it so."""
    gc.unfreeze()
    gc.enable()
    yield
    gc.unfreeze()
    gc.enable()


_YOUNG_CASES = {
    "enumerate": lambda: enumerate_class(tau_sym(6), reduced_labels=True),
    "read": lambda: from_jsonl(
        to_jsonl(enumerate_class(tau_sym(6), reduced_labels=True))),
    "load-cold": lambda: load_or_enumerate(tau_sym(6), reduced_labels=True),
    "load-warm": lambda: (load_or_enumerate(tau_sym(6), reduced_labels=True),
                          load_or_enumerate(tau_sym(6),
                                            reduced_labels=True))[1],
}


@pytest.mark.parametrize("frozen", [False, True], ids=["thawed", "frozen"])
@pytest.mark.parametrize("case", list(_YOUNG_CASES))
def test_a_built_class_leaves_the_young_generation(
        collector_on, tmp_path, monkeypatch, case, frozen):
    # a class left in the young generations 0 and 1 is walked whole by
    # their next collections; moved to the oldest one, it is not.  Objects
    # a host froze stay frozen, and nothing else is frozen
    monkeypatch.setenv("RVQ_CACHE_DIR", str(tmp_path))
    if frozen:
        gc.freeze()
    count = gc.get_freeze_count()
    rc = _YOUNG_CASES[case]()
    assert gc.get_freeze_count() == count and gc.isenabled()
    if not frozen:
        assert count == 0
        young = {id(obj) for gen in (0, 1)
                 for obj in gc.get_objects(generation=gen)}
        assert not young & set(map(id, rc.vertices))


@pytest.mark.parametrize("value", ["no", 1, None], ids=["str", "int", "null"])
@pytest.mark.parametrize("field", ["complete", "reduced_labels"])
def test_class_file_flags_must_be_booleans(field, value):
    text = to_jsonl(enumerate_class(tau_sym(4)))
    with pytest.raises(ValueError, match="booleans"):
        from_jsonl(_set_field(text, field, value))


def test_reverse_step_refuses_two_arrows_into_one_vertex():
    # a class built directly, not read from a file, gets the same check
    rc = RauzyClass((tau_sym(4), tau_sym(5)), {"t": (1, 1), "b": (None, None)},
                    complete=True)
    assert rc.step(0, "t") == 1
    with pytest.raises(ValueError, match="two 't'-arrows into one vertex"):
        rc.step(1, "T")


_BAD_ARROWS = {"negative": -1, "past-end": 516, "str": "1", "float": 1.0,
               "bool": True}


@pytest.mark.parametrize("column, value", [
    (column, value) for column in "tb" for value in _BAD_ARROWS.values()],
    ids=[name + suffix for suffix in ("", "-b") for name in _BAD_ARROWS])
def test_class_file_with_a_bad_arrow_is_refused(column, value):
    rc = enumerate_class(parse_gp("0 A A 1 / 1 B B 0"))  # 516 vertices
    text = to_jsonl(rc)
    assert to_jsonl(from_jsonl(text)) == text
    i = next(i for i, j in enumerate(rc.table[column]) if j is not None)
    with pytest.raises(ValueError, match="column is not one target"):
        from_jsonl(_set_field(text, column, value, i))


def test_class_vertices_carry_no_letter_table(tmp_path, monkeypatch):
    # a letter table on each of table1(1)'s 307,336 vertices would add about
    # 220 MB to its enumeration, so neither enumerating nor reading a class
    # back from the cache may build one
    monkeypatch.setenv("RVQ_CACHE_DIR", str(tmp_path))
    seed = tau_sym(6)
    fresh = enumerate_class(seed, reduced_labels=True)
    written = load_or_enumerate(seed, reduced_labels=True)

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the class should come from the cache file")

    monkeypatch.setattr(induction, "enumerate_class", no_enumeration)
    read = load_or_enumerate(seed, reduced_labels=True)
    for rc in (fresh, written, read):
        assert len(rc) == 31
        assert all(v._pairs is None for v in rc.vertices)


def _assert_checked_alike(v):
    """``v``, built without the constructor's check, passes that check,
    carries no letter table, and reduces as the checked relabeling does."""
    assert v._pairs is None
    assert GeneralizedPermutation(v.top, v.bottom) == v
    red = v.reduced()
    assert red._pairs is None
    assert GeneralizedPermutation(red.top, red.bottom) == red
    assert red == reduced_by_relabel(v)


def _assert_moves_checked_alike(v):
    """Every move's target at ``v`` and every reconstructed predecessor,
    reducible ones included, passes :func:`_assert_checked_alike`."""
    for kind in ("t", "b"):
        try:
            arrow = apply_arrow(v, kind)
        except MoveUndefined:
            pass
        else:
            _assert_checked_alike(arrow.target)
        try:
            arrow = invert_arrow(v, kind, require_irreducible=False)
        except ReverseArrowMissing:
            pass
        else:
            _assert_checked_alike(arrow.source)


def _assert_class_checked_alike(seed, limit=induction.DEFAULT_BUDGET):
    """Both classes of ``seed``, labeled and reduced, cut at ``limit``
    vertices, and the moves at each vertex.  The labeled base is ``seed``
    itself, built by the caller."""
    for reduced in (False, True):
        rc = enumerate_up_to(seed, limit, reduced_labels=reduced)
        built = rc.vertices if reduced else rc.vertices[1:]
        assert rc.base is seed or reduced
        for v in built:
            _assert_checked_alike(v)
        for v in rc.vertices:
            _assert_moves_checked_alike(v)


def test_unchecked_vertices_of_small_classes_pass_the_check():
    # small_gps lists permutations in reduced labels, so the reduced
    # classes checked cover every suspendable one with d <= 4
    suspendable = [gp for gp in small_gps() if gp.d <= 4 and is_suspendable(gp)]
    covered = set()
    for gp in suspendable:
        if gp not in covered:
            _assert_class_checked_alike(gp)
            covered.update(enumerate_class(gp, reduced_labels=True).vertices)
    assert covered == set(suspendable)


def test_unchecked_vertices_of_table1_row1_pass_the_check():
    _assert_class_checked_alike(table1(1), limit=2000)


def test_unchecked_vertices_with_300_letters_pass_the_check():
    # more letters than any fixed table of reduced tokens would hold
    letters = tuple("x%d" % k for k in range(300))
    seed = GeneralizedPermutation(letters, letters[::-1])
    assert seed.reduced().top == tuple(map(str, range(300)))
    _assert_class_checked_alike(seed, limit=60)
    strict = GeneralizedPermutation(("A", "A") + letters,
                                    letters[::-1] + ("B", "B"))
    cur = strict
    for kind in "tbtbbttb" * 4:
        _assert_moves_checked_alike(cur)
        cur = apply_arrow(cur, kind).target
    _assert_checked_alike(cur)


def test_arrow_is_a_named_tuple_of_six_fields():
    assert Arrow._fields == ("source", "kind", "winner", "loser", "target",
                             "type_change")
    seed = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")
    arrow = apply_arrow(seed, "t")
    assert tuple(arrow) == (seed, "t", "4", "1", arrow.target, False)
    for name in Arrow._fields:
        with pytest.raises(AttributeError):
            setattr(arrow, name, None)


def test_jsonl_format_fields():
    rc = enumerate_class(parse_gp("1 2 / 2 1"))
    [line] = to_jsonl(rc).splitlines()
    rec = json.loads(line)
    assert list(rec) == ["format", "complete", "reduced_labels", "vertices",
                         "t", "b"]
    assert rec["format"] == 2 and rec["vertices"] == [rc.base.encode()]
    assert from_jsonl(to_jsonl(rc)).vertices == rc.vertices


def test_resolve_walk_and_end():
    torus = parse_gp("1 2 / 2 1")
    steps = resolve_walk(torus, "tbTB")
    assert [d for _, d in steps] == [1, 1, -1, -1]
    assert kz_walk(torus, "tb")[1] == torus


def test_a_step_other_than_t_or_b_is_refused():
    gp = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")
    with pytest.raises(ValueError, match="kind must be 't' or 'b'"):
        apply_arrow(gp, "x")
    with pytest.raises(ValueError, match="kind must be 't' or 'b'"):
        invert_arrow(gp, "x")
    with pytest.raises(ValueError, match="walk steps must be one of"):
        resolve_walk(gp, "tx")


def test_reduced_enumeration_quotient():
    seed = parse_gp("1 2 3 4 / 4 3 2 1")
    rc = enumerate_class(seed, reduced_labels=True)
    relabeled = parse_gp("3 1 4 2 / 2 4 1 3")  # same shape, shuffled names
    assert relabeled.reduced() in rc


# -- oracle: the breadth-first trees of the per-kind tables, read only
# through rc.arrows() --

def _oracle_paths(rc):
    succ, pred = {}, {}
    for i, kind, j, _ in rc.arrows():
        succ.setdefault(i, []).append((j, kind))
        pred.setdefault(j, []).append((i, kind))

    def bfs(neighbours):
        tree = [None] * len(rc)
        seen = {0}
        queue = [0]
        for i in queue:
            for j, kind in neighbours.get(i, ()):
                if j not in seen:
                    seen.add(j)
                    tree[j] = (i, kind)
                    queue.append(j)
        return tree

    out_tree, in_tree = bfs(succ), bfs(pred)

    def from_base(idx):
        steps = []
        while idx != 0:
            idx, kind = out_tree[idx]
            steps.append(kind)
        return "".join(reversed(steps))

    def to_base(idx):
        steps = []
        while idx != 0:
            idx, kind = in_tree[idx]
            steps.append(kind)
        return "".join(steps)

    return from_base, to_base


def _digest(walks):
    return hashlib.sha1("\n".join(walks).encode()).hexdigest()[:16]


# pinned class sizes and digests of arrow_cycles(rc) and
# random_directed_cycles(rc, seed=7): the harvested cycles, and with them
# every group line, depend on the order of the tree searches
@pytest.mark.parametrize("seed, reduced, size, arrow_digest, random_digest", [
    (parse_gp("1 2 / 2 1"), False, 1, "ed2795f6e612e40a", "9841a717ff37a13d"),
    (tau_sym(4), False, 7, "3c2ae2d6bcdb6509", "87b3b9c9cef73a0d"),
    (tau_sym(5), False, 15, "6887a9f4f24f7dd5", "fa2004b43af5f3b6"),
    (tau_sym(6), False, 31, "abf710feded7ea2f", "9f18ab6be2b5d4b2"),
    (tau_sym(7), False, 63, "f3a81f244f6e546a", "59da5f921f5bcf67"),
    (tau_zorich(3), False, 134, "66b24ebb72b894a3", "c5a939a37a89ea8f"),
    (parse_gp("0 A A 1 / 1 B B 0"), False, 516, "00682de53b11fd9e",
     "178bfbbdeac27376"),
    (tau_zorich(4), True, 5209, "cdc4348ae15f12a3", "03f5d17da72a37a7"),
], ids=["torus", "sym4", "sym5", "sym6", "sym7", "zorich3", "Q(2,-1,-1)",
        "zorich4-reduced"])
def test_arrow_table_matches_oracle(seed, reduced, size, arrow_digest,
                                    random_digest):
    rc = enumerate_class(seed, reduced_labels=reduced)
    assert len(rc) == size
    from_base, to_base = _oracle_paths(rc)
    for i, v in enumerate(rc.vertices):
        assert rc.path_from_base(i) == from_base(i)
        assert rc.path_to_base(i) == to_base(i)
        for kind in ("t", "b"):
            try:
                target = apply_arrow(v, kind).target
            except MoveUndefined:
                assert rc.step(i, kind) is None
            else:
                want = target.reduced() if reduced else target
                assert rc.vertices[rc.step(i, kind)] == want
            try:
                source = rc.index_of(invert_arrow(v, kind).source)
            except ReverseArrowMissing:
                source = None
            assert rc.step(i, kind.upper()) == source
    assert _digest(arrow_cycles(rc)) == arrow_digest
    assert _digest(random_directed_cycles(rc, seed=7)) == random_digest


def test_trajectory_stops_where_an_arrow_is_missing():
    rc = enumerate_class(parse_gp("0 A A 1 / 1 B B 0"))
    missing = next((i, kind) for i in range(len(rc)) for kind in "tbTB"
                   if rc.step(i, kind) is None)
    walk = rc.path_from_base(missing[0]) + missing[1] + "t"
    verts = trajectory(rc, walk)
    assert len(verts) == len(walk) and verts[-1] is None
    assert trajectory(rc, "") == [0]


# the class file of 1 2 3 4 / 4 3 2 1 in format 2, pinned
FORMAT_2_JSONL = (
    '{"format": 2, "complete": true, "reduced_labels": false, "vertices": '
    '["1 2 3 4 / 4 3 2 1", "1 2 3 4 / 4 1 3 2", "1 4 2 3 / 4 3 2 1", '
    '"1 2 3 4 / 4 2 1 3", "1 2 4 3 / 4 1 3 2", "1 4 2 3 / 4 3 1 2", '
    '"1 3 4 2 / 4 3 2 1"], "t": [1, 3, 5, 0, 4, 2, 6], '
    '"b": [2, 4, 6, 3, 1, 5, 0]}\n')

# the same class in format 1, which stored the base twice and each arrow's
# winner: a file of that format is rebuilt
FORMAT_1_JSONL = (
    '{"format": 1, "base": "1 2 3 4 / 4 3 2 1", "complete": true, '
    '"reduced_labels": false, "vertices": 7, "arrows": 14}\n'
    '{"gp": "1 2 3 4 / 4 3 2 1", "t": 1, "b": 2, "tw": "4", "bw": "1"}\n'
    '{"gp": "1 2 3 4 / 4 1 3 2", "t": 3, "b": 4, "tw": "4", "bw": "2"}\n'
    '{"gp": "1 4 2 3 / 4 3 2 1", "t": 5, "b": 6, "tw": "3", "bw": "1"}\n'
    '{"gp": "1 2 3 4 / 4 2 1 3", "t": 0, "b": 3, "tw": "4", "bw": "3"}\n'
    '{"gp": "1 2 4 3 / 4 1 3 2", "t": 4, "b": 1, "tw": "3", "bw": "2"}\n'
    '{"gp": "1 4 2 3 / 4 3 1 2", "t": 2, "b": 5, "tw": "3", "bw": "2"}\n'
    '{"gp": "1 3 4 2 / 4 3 2 1", "t": 6, "b": 0, "tw": "2", "bw": "1"}\n')


def test_class_file_names_unchanged(tmp_path, monkeypatch):
    # the crc32 of the seed and its labels names the file
    monkeypatch.setenv("RVQ_CACHE_DIR", str(tmp_path))
    seed = parse_gp("1 2 3 4 / 4 3 2 1")
    assert _cache_path(seed, False) == str(tmp_path / "class-e6153096.jsonl")
    assert _cache_path(seed, True) == str(tmp_path / "class-208773d7.jsonl")


def test_class_file_format_unchanged(tmp_path, monkeypatch):
    seed = parse_gp("1 2 3 4 / 4 3 2 1")
    rc = enumerate_class(seed)
    assert to_jsonl(rc) == FORMAT_2_JSONL
    monkeypatch.setenv("RVQ_CACHE_DIR", str(tmp_path))
    path = _cache_path(seed, False)
    with open(path, "w") as fh:
        fh.write(FORMAT_1_JSONL)
    assert load_or_enumerate(seed) == rc
    with open(path) as fh:
        assert fh.read() == FORMAT_2_JSONL

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the cached file was not used")

    monkeypatch.setattr("rvq.induction.enumerate_class", no_enumeration)
    loaded = load_or_enumerate(seed)
    assert loaded == rc and to_jsonl(loaded) == FORMAT_2_JSONL
