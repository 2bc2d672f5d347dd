"""Top/bottom induction moves and Rauzy class enumeration.

The two moves act on the last letters of the rows: the winner is the last
letter of the acting row, the loser the last letter of the other row.  When
the winner's twin sits in the opposite row the move keeps the type (l, m) and
reinserts the loser just after the twin; when the twin sits in the winner's
own row the move transfers the loser into that row just before the twin and
the type changes by (+1, -1) (top) or (-1, +1) (bottom).  A bottom move is
the top move on the swapped rows, so one kernel serves both.
"""

from __future__ import annotations

import binascii
import gc
import json
import os
import tempfile
from collections import deque
from contextlib import contextmanager
from itertools import islice
from typing import Iterator, NamedTuple, Optional, TextIO

from .errors import (BudgetExceeded, MoveUndefined, OpenWalk,
                     ReverseArrowMissing, RVQError)
from .gp import (GeneralizedPermutation, _Frozen, _trusted, is_irreducible,
                 parse_gp, reduced_rows, require_suspendable)

TOP = 't'
BOTTOM = 'b'


class Arrow(NamedTuple):
    """One induction move: its source and target, its kind, winner and
    loser, and whether it changed the type (l, m).  A named tuple, so its
    fields cannot be set; a class enumeration builds one per move tried."""
    source: GeneralizedPermutation
    kind: str  # 't' or 'b'
    winner: str
    loser: str
    target: GeneralizedPermutation
    type_change: bool


def _move(own: tuple[str, ...], other: tuple[str, ...]
          ) -> tuple[tuple[str, ...], tuple[str, ...], str, str, bool]:
    """The move whose winner is the last letter of ``own``, the acting row,
    and whose loser is the last letter of ``other``.

    Returns the new (own, other) rows, the winner, the loser and whether the
    type changed.  A bottom move is this move on the swapped rows.
    """
    winner, loser = own[-1], other[-1]
    if own.count(winner) == 2:
        # twin in the acting row: the loser moves across, just before it.
        # That needs a letter twice in the losing row besides the loser;
        # len(other) - len(set(other)) counts the letters twice there
        if len(other) - len(set(other)) == (other.count(loser) == 2):
            raise MoveUndefined(
                "move needs a non-final duplicate in the losing row")
        tw = own.index(winner)
        return own[:tw] + (loser,) + own[tw:], other[:-1], winner, loser, True
    tw = other.index(winner)
    if tw == len(other) - 1:
        # winner's twin is the loser position itself; fixed point
        return own, other, winner, loser, False
    return (own, other[:tw + 1] + (loser,) + other[tw + 1:-1],
            winner, loser, False)


def apply_arrow(gp: GeneralizedPermutation, kind: str) -> Arrow:
    """Apply one induction move; raises MoveUndefined when it does not exist."""
    if kind == TOP:
        top, bottom, winner, loser, change = _move(gp.top, gp.bottom)
    elif kind == BOTTOM:
        bottom, top, winner, loser, change = _move(gp.bottom, gp.top)
    else:
        raise ValueError("kind must be 't' or 'b', got %r" % (kind,))
    return Arrow(gp, kind, winner, loser, _trusted(top, bottom), change)


def invert_arrow(gp: GeneralizedPermutation, kind: str, *,
                 require_irreducible: bool = True) -> Arrow:
    """Return the unique arrow of the given kind pointing into ``gp``.

    The predecessor is reconstructed locally (no class enumeration): the
    shape of ``gp`` around the winner's twin determines whether the incoming
    move kept or changed the type, and the reconstruction is verified by
    reapplying the forward move.  As in :func:`apply_arrow`, ``own`` is the
    acting row and ``other`` the row of the loser.
    """
    if kind == TOP:
        own, other = gp.top, gp.bottom
    elif kind == BOTTOM:
        own, other = gp.bottom, gp.top
    else:
        raise ValueError("kind must be 't' or 'b', got %r" % (kind,))
    winner = own[-1]
    if own.count(winner) == 2:
        tw = own.index(winner)
        if tw == 0:
            raise ReverseArrowMissing("no slot before the twin")
        own, other = own[:tw - 1] + own[tw:], other + (own[tw - 1],)
    else:
        tw = other.index(winner)
        if tw < len(other) - 1:  # else gp is a fixed point of the move
            other = other[:tw + 1] + other[tw + 2:] + (other[tw + 1],)
    # the rows keep gp's letters and none is empty; re-applying the move
    # below checks the rest
    u = _trusted(own, other) if kind == TOP else _trusted(other, own)

    try:
        arrow = apply_arrow(u, kind)
    except MoveUndefined as exc:
        raise ReverseArrowMissing("candidate predecessor rejected: %s" % exc)
    if arrow.target != gp:
        raise ReverseArrowMissing("candidate predecessor does not map back")
    if require_irreducible and not is_irreducible(u):
        raise ReverseArrowMissing("predecessor is reducible")
    return arrow


def resolve_walk(base: GeneralizedPermutation,
                 walk: str) -> list[tuple[Arrow, int]]:
    """Resolve a walk string over {t, b, T, B} into (arrow, direction) pairs.

    Lowercase letters are forward moves; uppercase letters traverse the
    corresponding arrow backwards (direction -1).
    """
    out: list[tuple[Arrow, int]] = []
    cur = base
    for step in walk:
        if step in (TOP, BOTTOM):
            arrow = apply_arrow(cur, step)
            out.append((arrow, +1))
            cur = arrow.target
        elif step in ('T', 'B'):
            arrow = invert_arrow(cur, step.lower())
            out.append((arrow, -1))
            cur = arrow.source
        else:
            raise ValueError("walk steps must be one of t, b, T, B: %r" % step)
    return out


# ---------------------------------------------------------------------------
# Rauzy classes
# ---------------------------------------------------------------------------

def _key(gp: GeneralizedPermutation, reduced_labels: bool
         ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The rows a class looks ``gp`` up by: its reduced rows in a class
    with reduced labels, else its own."""
    return (reduced_rows(gp.top, gp.bottom) if reduced_labels
            else (gp.top, gp.bottom))


CACHE_ENV = "RVQ_CACHE_DIR"
DEFAULT_BUDGET = 10_000_000
_FORMAT_VERSION = 2
# entries per piece of a class file that RauzyClass.write_jsonl writes: a
# piece's json.dumps holds about 230 bytes an entry (a quoted copy of each
# string), so a piece is a few percent of a class file of 5,000 vertices
_CHUNK = 128
# vertex codes that RauzyClass.read_jsonl drops at once.  Freed together,
# their memory is reused whole; freed one by one, each left a hole that a
# new row filled, and table1(1)'s read ended 20 MB higher
_DROP = 4096


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while a class is built.

    Vertices, rows and columns hold no reference cycles, so the collector
    finds nothing in them, yet each of its passes walks every container
    built so far.  The collector's prior state is restored on every exit.
    Before it is turned back on, ``gc.freeze(); gc.unfreeze()`` moves every
    tracked object to the oldest generation at once, where two young
    collections would have put the new class after walking all of it.
    Nothing stays frozen, so full collections still see the class; when a
    host has frozen objects of its own, they are left frozen and the class
    stays young.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            gc.enable()


class RauzyClass(_Frozen):
    """A Rauzy class: its vertices, base first, and one arrow table.

    ``table[kind]`` holds the targets of the kind's arrows: entry i is the
    index of the vertex the arrow from vertex i leads to, None where vertex i
    has no such arrow.  An arrow's winner is not stored; it is the last
    letter of the acting row of its source.  Equal by its four fields, and
    unhashable, as its table is a dict.
    """

    __slots__ = ("vertices", "table", "complete", "reduced_labels", "_memos")

    def __init__(self, vertices: tuple[GeneralizedPermutation, ...],
                 table: dict[str, tuple[Optional[int], ...]],
                 complete: bool, reduced_labels: bool = False):
        for name, value in zip(self.__slots__, (vertices, table, complete,
                                                reduced_labels, {})):
            object.__setattr__(self, name, value)

    def _state(self):
        return self.vertices, self.table, self.complete, self.reduced_labels

    def __eq__(self, other):
        if other.__class__ is not RauzyClass:
            return NotImplemented
        return self._state() == other._state()

    __hash__ = None

    def __reduce__(self):
        return RauzyClass, self._state()

    @property
    def base(self) -> GeneralizedPermutation:
        return self.vertices[0]

    def __len__(self):
        return len(self.vertices)

    def _memo(self, key: str, build):
        """Data derived from the table (index, trees, reverse maps), built on
        first use and kept with the class."""
        memo = self._memos
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def index_of(self, gp: GeneralizedPermutation) -> Optional[int]:
        # a vertex's rows are its key, its labels being reduced already
        top, bottom = _key(gp, self.reduced_labels)
        return self._memo('index', self._row_index).get(top, {}).get(bottom)

    def __contains__(self, gp: GeneralizedPermutation) -> bool:
        return self.index_of(gp) is not None

    def step(self, i: int, move: str) -> Optional[int]:
        """The vertex reached from vertex i by the arrow ``move``: a forward
        arrow for 't' or 'b', one of that kind traversed backwards for 'T'
        or 'B'; None when there is no such arrow."""
        forward = self.table.get(move)
        if forward is not None:
            return forward[i]
        return self._memo(move, lambda: self._reverse(move.lower())).get(i)

    def _row_index(self) -> dict:
        """Vertex indices by top row, then bottom row, as enumerate_class
        keeps them: keyed by the vertices' own rows, with no pair built."""
        index: dict = {}
        for i, v in enumerate(self.vertices):
            index.setdefault(v.top, {})[v.bottom] = i
        return index

    def _reverse(self, kind: str) -> dict[int, int]:
        targets = self.table[kind]
        rev = {j: i for i, j in enumerate(targets) if j is not None}
        if len(rev) != len(targets) - targets.count(None):
            raise ValueError("class has two %r-arrows into one vertex" % kind)
        return rev

    def arrows(self) -> Iterator[tuple[int, str, int, str]]:
        """Yield (source index, kind, target index, winner)."""
        for i, v in enumerate(self.vertices):
            for kind, targets in self.table.items():
                if targets[i] is not None:
                    yield (i, kind, targets[i],
                           (v.top if kind == TOP else v.bottom)[-1])

    def arrow_count(self) -> int:
        return sum(len(targets) - targets.count(None)
                   for targets in self.table.values())

    # -- trees for cycle construction -----------------------------------

    def _tree(self, moves: str) -> list[Optional[tuple[int, str]]]:
        """Breadth-first tree from the base along ``moves``: entry j is the
        vertex j was reached from and the kind of the arrow between them.

        Arrows are taken in ``arrows()`` order: by source index, t before b.
        Forward arrows all leave the vertex at hand, so only reversed ones
        need sorting.
        """
        tree: list[Optional[tuple[int, str]]] = [None] * len(self.vertices)
        seen = {0}
        queue = deque([0])
        while queue:
            i = queue.popleft()
            found = [(j, move.lower()) for move in moves
                     if (j := self.step(i, move)) is not None]
            if moves.isupper():
                found.sort(key=lambda entry: entry[0])
            for j, kind in found:
                if j not in seen:
                    seen.add(j)
                    tree[j] = (i, kind)
                    queue.append(j)
        return tree

    def _tree_path(self, moves: str, idx: int) -> list[str]:
        """The kinds of the tree arrows from vertex idx back to the base."""
        tree = self._memo(moves, lambda: self._tree(moves))
        steps = []
        while idx != 0:
            entry = tree[idx]
            if entry is None:
                raise OpenWalk("vertex %d is not connected to the base by %s"
                               % (idx, moves))
            idx, kind = entry
            steps.append(kind)
        return steps

    def path_from_base(self, idx: int) -> str:
        return "".join(reversed(self._tree_path("tb", idx)))

    def path_to_base(self, idx: int) -> str:
        return "".join(self._tree_path("TB", idx))

    # -- persistence ------------------------------------------------------

    def write_jsonl(self, fh: TextIO) -> None:
        """Write the class to ``fh`` as one JSON record on one line: the two
        flags, the vertices (base first) and each kind's column of targets.

        The record goes out :data:`_CHUNK` entries at a time, each piece
        through :func:`json.dumps`, so the text is that of one
        ``json.dumps`` of the whole record with no copy of it in memory.
        """
        head = json.dumps({"format": _FORMAT_VERSION,
                           "complete": self.complete,
                           "reduced_labels": self.reduced_labels})
        fh.write(head[:-1])
        for name, column in (
                ("vertices", map(GeneralizedPermutation.encode,
                                 self.vertices)),
                (TOP, iter(self.table[TOP])),
                (BOTTOM, iter(self.table[BOTTOM]))):
            fh.write(', "%s": [' % name)
            sep = ""
            while chunk := list(islice(column, _CHUNK)):
                fh.write(sep)
                fh.write(json.dumps(chunk)[1:-1])
                sep = ", "
            fh.write("]")
        fh.write("}\n")

    @staticmethod
    @_collector_paused()
    def read_jsonl(fh: TextIO) -> "RauzyClass":
        """The class a :meth:`write_jsonl` record in ``fh`` holds.

        Only the base goes through :func:`parse_gp`.  Every vertex must
        split on '/' into two non-empty rows whose sorted tokens are the
        base's sorted word, and is then built unchecked.  That is no weaker
        than parsing it: the base has at least two letters, each occurring
        exactly twice, so any rows on its word have too.  It is stricter, as
        a vertex on other letters, which no move makes from the base, is
        refused.  The codes are dropped :data:`_DROP` at a time as their
        vertices are built, and vertices with the same top row text share
        one tuple.
        """
        rec = json.load(fh)
        if rec.get("format") != _FORMAT_VERSION:
            raise ValueError("unsupported class cache format: %r"
                             % rec.get("format"))
        flags = rec["complete"], rec["reduced_labels"]
        if not all(type(flag) is bool for flag in flags):
            raise ValueError("class cache flags %r are not booleans"
                             % (flags,))
        codes = rec["vertices"]
        n = len(codes)
        if not n:
            raise ValueError("class cache holds no vertices")
        # the columns first, each in one pass that flags its targets in n bytes
        table = {kind: tuple(rec.pop(kind)) for kind in (TOP, BOTTOM)}
        for kind, targets in table.items():
            bad = ValueError("class cache %r column is not one target in "
                             "0..%d or null per vertex" % (kind, n - 1))
            if len(targets) != n:
                raise bad
            hit = bytearray(n)
            for j in targets:
                if j is not None:
                    if type(j) is not int or not 0 <= j < n:
                        raise bad
                    if hit[j]:
                        raise ValueError("class cache has two %r-arrows "
                                         "into one vertex" % kind)
                    hit[j] = 1
        base = parse_gp(codes[0])
        word = sorted(base.top + base.bottom)
        tops: dict[str, tuple[str, ...]] = {}  # a top row's text: its tuple
        verts = []
        for start in range(0, n, _DROP):
            piece = codes[start:start + _DROP]
            codes[start:start + _DROP] = [None] * len(piece)
            for code in piece:
                rows = code.split("/")
                if len(rows) == 2:
                    top = tops.get(rows[0])
                    if top is None:
                        top = tops[rows[0]] = tuple(rows[0].split())
                    bottom = tuple(rows[1].split())
                    if top and bottom and sorted(top + bottom) == word:
                        verts.append(_trusted(top, bottom))
                        continue
                raise ValueError("class cache vertex %r is not the base's "
                                 "letters in two non-empty rows" % (code,))
        return RauzyClass(tuple(verts), table, *flags)


@_collector_paused()
def enumerate_class(seed: GeneralizedPermutation,
                    limit: int = DEFAULT_BUDGET,
                    *, reduced_labels: bool = False, arrow=None) -> RauzyClass:
    """Breadth-first closure of ``seed`` under both induction moves.

    With ``reduced_labels`` every vertex is stored in relabeled normal form
    (letters renamed by first appearance, top row first); since the moves
    commute with relabeling this enumerates the quotient graph, which is what
    component identification compares against.  ``arrow``, if given,
    replaces :func:`apply_arrow`, to enumerate the closure under fewer arrows.
    A seed that is not suspendable raises ``NotSuspendable``, and a class of
    more than ``limit`` vertices ``BudgetExceeded``, with the truncated class
    as its ``partial``.
    """
    require_suspendable(seed)
    base = seed.reduced() if reduced_labels else seed
    arrow = arrow or apply_arrow  # at call time, so a wrapper on it counts
    vertices = [base]
    # RauzyClass._row_index's layout, keyed by the top tuple a row's
    # vertices share: no pair of rows per vertex.  Bottoms are not shared
    # (163,701 to 37,078 tops in table1(1): 10% more time for 5 MB less)
    index = {base.top: {base.bottom: 0}}
    table: dict[str, list] = {TOP: [], BOTTOM: []}
    truncated = False
    for gp in vertices:  # the list grows while it is scanned
        for kind, targets in table.items():
            try:
                target = arrow(gp, kind).target
            except MoveUndefined:
                targets.append(None)
                continue
            top, bottom = _key(target, reduced_labels)
            j = index.get(top, {}).get(bottom)
            if j is None and len(vertices) < limit:
                rows = index.setdefault(top, {})
                if rows:  # the top tuple that the row's first vertex holds
                    top = vertices[next(iter(rows.values()))].top
                j = rows[bottom] = len(vertices)
                vertices.append(_trusted(top, bottom))
            truncated |= j is None
            targets.append(j)

    del index  # before the tuples below copy the vertices and columns
    rc = RauzyClass(tuple(vertices),
                    {kind: tuple(targets) for kind, targets in table.items()},
                    complete=not truncated, reduced_labels=reduced_labels)
    if truncated:
        raise BudgetExceeded("class budget of %d vertices hit" % limit,
                             partial=rc)
    return rc


# ---------------------------------------------------------------------------
# cache wiring
# ---------------------------------------------------------------------------

def cache_dir() -> str:
    """The class cache directory; an empty ``RVQ_CACHE_DIR`` turns the cache
    off."""
    return os.environ.get(CACHE_ENV, os.path.join(".", ".rvq-cache"))


def _cache_path(seed: GeneralizedPermutation, reduced_labels: bool) -> str:
    key = seed.encode() + ("|reduced" if reduced_labels else "")
    # a crc32 collision is only a miss: load_or_enumerate checks the class
    return os.path.join(cache_dir(),
                        "class-%08x.jsonl" % binascii.crc32(key.encode()))


def load_or_enumerate(seed: GeneralizedPermutation,
                      limit: int = DEFAULT_BUDGET,
                      *, reduced_labels: bool = False) -> RauzyClass:
    """The class of ``seed`` from the on-disk cache, else enumerated and
    stored there; with the cache off (see :func:`cache_dir`) always
    enumerated.

    A cache file that is unreadable, truncated, of another format, incomplete
    or holds another class is a miss and is rebuilt.  So is one of more than
    ``limit`` vertices: the enumeration then raises ``BudgetExceeded`` as it
    does with no file, and leaves the file in place.  Writers go through a
    unique temporary file and an atomic rename, so concurrent writers cannot
    interleave.
    """
    if not cache_dir():
        return enumerate_class(seed, limit, reduced_labels=reduced_labels)
    path = _cache_path(seed, reduced_labels)
    if os.path.exists(path):
        try:
            with open(path) as fh:
                rc = RauzyClass.read_jsonl(fh)
        except (OSError, ValueError, LookupError, TypeError, AttributeError,
                RVQError):
            rc = None
        base = seed.reduced() if reduced_labels else seed
        if (rc is not None and rc.complete and rc.base == base
                and rc.reduced_labels == reduced_labels and len(rc) <= limit):
            return rc
    # an unusable directory fails here, before the enumeration
    os.makedirs(cache_dir(), exist_ok=True)
    rc = enumerate_class(seed, limit, reduced_labels=reduced_labels)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=cache_dir())
    try:
        with os.fdopen(fd, "w") as fh:
            rc.write_jsonl(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return rc


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def _dot_string(text: str) -> str:
    """``text`` as a quoted DOT string: a letter may hold a backslash or a
    double quote, which DOT reads as an escape or the string's end."""
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def export_graph(rc: RauzyClass) -> str:
    """Render the class as a DOT digraph; edge labels carry kind and winner."""
    out = ["digraph rauzy {"]
    note = "base=%s vertices=%d" % (rc.base.encode(), len(rc))
    if not rc.complete:
        note += " TRUNCATED"
    out.append("  label=%s;" % _dot_string(note))
    for i, v in enumerate(rc.vertices):
        out.append("  v%d [label=%s];" % (i, _dot_string(v.encode())))
    for i, kind, j, winner in rc.arrows():
        out.append("  v%d -> v%d [label=%s];"
                   % (i, j, _dot_string("%s:%s" % (kind, winner))))
    out.append("}")
    return "\n".join(out) + "\n"
